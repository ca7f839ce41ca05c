// Cross-module integration sweeps:
//  * HaloPlanCoverage — for randomized chains, every producer window the
//    planner assigns must cover the union of its consumers' input needs
//    (the invariant the padded executor's correctness rests on);
//  * ModelSimSweep — the full engine on the model backend for every zoo
//    network, checking counter sanity end to end;
//  * weight-stream accounting fast path.
#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.hpp"
#include "core/halo_plan.hpp"
#include "graph/rewrite.hpp"
#include "models/models.hpp"

namespace brickdl {
namespace {

Subgraph whole(const Graph& g) {
  Subgraph sg;
  for (const Node& node : g.nodes()) {
    if (node.kind == OpKind::kInput) {
      sg.external_inputs.push_back(node.id);
    } else {
      sg.nodes.push_back(node.id);
    }
  }
  sg.merged = true;
  return sg;
}

class HaloPlanCoverage : public testing::TestWithParam<int> {};

TEST_P(HaloPlanCoverage, WindowsCoverConsumerNeeds) {
  Rng rng(static_cast<u64>(GetParam()) * 2654435761ULL + 17);
  // Random chain of 2-5 mixed layers.
  Graph g;
  int x = g.add_input("x", Shape{1, 4, 30, 30});
  const int layers = 2 + static_cast<int>(rng.next_below(4));
  for (int l = 0; l < layers; ++l) {
    switch (rng.next_below(4)) {
      case 0:
        x = g.add_conv(x, "c" + std::to_string(l), Dims{3, 3}, 4, Dims{1, 1},
                       Dims{1, 1});
        break;
      case 1:
        x = g.add_conv(x, "s" + std::to_string(l), Dims{3, 3}, 4, Dims{2, 2},
                       Dims{1, 1});
        break;
      case 2:
        x = g.add_relu(x, "r" + std::to_string(l));
        break;
      default:
        x = g.add_pool(x, "p" + std::to_string(l), PoolKind::kMax, Dims{2, 2},
                       Dims{2, 2});
        break;
    }
    if (g.node(x).out_shape.spatial(0) < 6) break;  // keep layers usable
  }
  const Subgraph sg = whole(g);
  const HaloPlan plan(g, sg, Dims{1, 4, 4});

  for (i64 b = 0; b < plan.num_bricks(); ++b) {
    const Dims gcoord = plan.terminal_grid().unlinear(b);
    const auto windows = plan.windows_for_brick(gcoord);
    for (int nid : sg.nodes) {
      const Node& node = g.node(nid);
      const auto& out_w = windows.at(nid);
      Dims need_lo, need_extent;
      input_window_blocked(node, out_w.lo, out_w.extent, &need_lo,
                           &need_extent);
      for (int p : node.inputs) {
        const auto& pw = windows.at(p);
        for (int d = 0; d < need_lo.rank(); ++d) {
          EXPECT_LE(pw.lo[d], need_lo[d])
              << "node " << node.name << " producer " << g.node(p).name
              << " dim " << d << " brick " << b;
          EXPECT_GE(pw.lo[d] + pw.extent[d], need_lo[d] + need_extent[d])
              << "node " << node.name << " producer " << g.node(p).name
              << " dim " << d << " brick " << b;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomChains, HaloPlanCoverage, testing::Range(0, 12));

TEST(ModelSimSweep, EngineRunsEveryZooModelOnTheSimulator) {
  ModelConfig config;
  config.batch = 2;
  config.spatial = 64;
  config.width_div = 8;
  for (const auto& [name, builder] : model_zoo()) {
    SCOPED_TRACE(name);
    ModelConfig c = config;
    if (name == "3D ResNet-34") c.spatial = 32;
    const Graph graph = fuse_conv_pointwise(builder(c));

    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend backend(graph, sim);
    Engine engine(graph, {});
    auto run = engine.run_checked(backend);
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    const EngineResult& result = run.value();

    EXPECT_GT(result.total_txns.l1, 0);
    EXPECT_GT(result.total_txns.dram(), 0);
    EXPECT_GE(result.total_txns.l1, result.total_txns.l2 / 2);
    EXPECT_GT(result.total_tally.invocations, 0);
    EXPECT_GT(result.total_tally.flops + result.total_tally.tc_flops, 0.0);
    EXPECT_EQ(result.reports.size(), engine.partition().subgraphs.size());

    // Modeled time is finite and positive under both compositions.
    const CostModel cost(sim.params());
    const Breakdown b = cost.breakdown(result.total_txns, result.total_tally);
    EXPECT_GT(b.total(), 0.0);
    EXPECT_TRUE(std::isfinite(b.total()));
  }
}

TEST(ModelSimSweep, WeightStreamFastPathCountsL2Residents) {
  // Two invocations of the same conv: first streams weights through the
  // cache model (DRAM fills), second bumps L1/L2 counters only.
  Graph g;
  const int x = g.add_input("x", Shape{1, 8, 16, 16});
  const int c = g.add_conv(x, "c", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1});

  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(g, sim);
  const TensorId in_id =
      backend.register_tensor(g.node(x).out_shape, Layout::kCanonical, {}, "i");

  auto invoke = [&](const Dims& lo) {
    backend.invocation_begin(0);
    Dims need_lo, need_extent;
    input_window_blocked(g.node(c), lo, Dims{1, 4, 4}, &need_lo, &need_extent);
    const SlotId s = backend.load_window(0, in_id, need_lo, need_extent);
    const SlotId out =
        backend.compute(0, c, {s}, lo, Dims{1, 4, 4}, false);
    backend.free_slot(0, s);
    backend.free_slot(0, out);
  };

  invoke(Dims{0, 0, 0});
  const TxnCounters first = sim.counters();
  invoke(Dims{0, 4, 4});
  const TxnCounters second = sim.counters() - first;
  // Weight bytes: 8*8*9*4 = 2304 B = 72 lines; both invocations charge them
  // to L1/L2, but only the first reaches DRAM for them.
  EXPECT_LT(second.dram_read, first.dram_read);
  EXPECT_GE(second.l2, 72);
}

TEST(ModelSimSweep, ForcedStrategiesAgreeOnDramForPointwiseChains) {
  // On a halo-free chain, padded and memoized move identical DRAM volumes
  // (no halo redundancy, no padding): the strategies differ only on-chip.
  Graph g;
  int x = g.add_input("x", Shape{1, 16, 32, 32});
  x = g.add_conv(x, "a", Dims{1, 1}, 16, Dims{1, 1}, Dims{0, 0});
  x = g.add_conv(x, "b", Dims{1, 1}, 16, Dims{1, 1}, Dims{0, 0});

  i64 dram_padded = 0, dram_memoized = 0;
  for (Strategy strategy : {Strategy::kPadded, Strategy::kMemoized}) {
    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend backend(g, sim);
    EngineOptions options;
    options.partition.cost_aware = false;
    options.force_strategy = strategy;
    Engine engine(g, options);
    ASSERT_TRUE(engine.run_checked(backend).ok());
    (strategy == Strategy::kPadded ? dram_padded : dram_memoized) =
        sim.counters().dram();
  }
  EXPECT_NEAR(static_cast<double>(dram_padded),
              static_cast<double>(dram_memoized),
              0.15 * static_cast<double>(dram_padded));
}

}  // namespace
}  // namespace brickdl
