#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/halo_plan.hpp"
#include "core/padded_executor.hpp"
#include "models/models.hpp"

namespace brickdl {
namespace {

/// Execute `sg` (single external input = graph input) with padded bricks on
/// a numeric backend and compare the terminal against the reference run.
void check_padded_matches_reference(const Graph& g, const Subgraph& sg,
                                    const Dims& brick_extent, int workers = 3,
                                    bool parallel = false) {
  WeightStore ws(5);
  const Node& input_node = g.node(sg.external_inputs[0]);
  Tensor input(input_node.out_shape);
  Rng rng(77);
  input.fill_random(rng);

  const auto reference = run_graph_reference(g, input, ws);

  NumericBackend backend(g, ws, workers);
  std::unordered_map<int, TensorId> io;
  for (int ext : sg.external_inputs) {
    const TensorId id = backend.register_tensor(
        g.node(ext).out_shape, Layout::kCanonical, {}, "ext");
    backend.bind(id, reference[static_cast<size_t>(ext)]);
    io[ext] = id;
  }
  const Node& terminal = g.node(sg.terminal());
  const TensorId out = backend.register_tensor(terminal.out_shape,
                                               Layout::kBricked, brick_extent,
                                               "out");
  io[sg.terminal()] = out;

  const HaloPlan plan(g, sg, brick_extent);
  PaddedExecutor exec(g, sg, plan, backend, io);
  if (parallel) {
    WorkerTeam pool(workers);
    ASSERT_TRUE(exec.run_checked(&pool).ok());
  } else {
    ASSERT_TRUE(exec.run_checked().ok());
  }
  EXPECT_EQ(exec.bricks_executed(), plan.num_bricks());
  EXPECT_TRUE(allclose(backend.read(out),
                       reference[static_cast<size_t>(sg.terminal())], 1e-4));
}

Subgraph all_non_input_nodes(const Graph& g) {
  Subgraph sg;
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::kInput) {
      sg.external_inputs.push_back(n.id);
    } else {
      sg.nodes.push_back(n.id);
    }
  }
  sg.merged = true;
  return sg;
}

TEST(PaddedExecutor, TwoConvChain) {
  Graph g = build_conv_chain_2d(2, 1, 18, 3);
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(PaddedExecutor, DeepConvChain) {
  Graph g = build_conv_chain_2d(4, 1, 20, 2);
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(PaddedExecutor, ConvChain3D) {
  Graph g = build_conv_chain_3d(2, 1, 10, 2);
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4, 4});
}

TEST(PaddedExecutor, ConvReluPoolChain) {
  Graph g;
  int x = g.add_input("x", Shape{1, 3, 16, 16});
  x = g.add_conv(x, "c1", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
  x = g.add_relu(x, "r1");
  x = g.add_pool(x, "p", PoolKind::kMax, Dims{2, 2}, Dims{2, 2});
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(PaddedExecutor, StridedAndDilatedChain) {
  Graph g;
  int x = g.add_input("x", Shape{1, 2, 21, 21});
  x = g.add_conv(x, "s2", Dims{3, 3}, 3, Dims{2, 2}, Dims{1, 1});
  x = g.add_relu(x, "r");
  x = g.add_conv(x, "dil", Dims{3, 3}, 3, Dims{1, 1}, Dims{2, 2}, Dims{2, 2});
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(PaddedExecutor, ResidualBlock) {
  Graph g;
  int x = g.add_input("x", Shape{1, 4, 12, 12});
  const int c1 = g.add_conv(x, "c1", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
  const int r1 = g.add_relu(c1, "r1");
  const int c2 = g.add_conv(r1, "c2", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
  const int a = g.add_add(c2, x, "add");
  g.add_relu(a, "out");
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(PaddedExecutor, InceptionStyleFork) {
  Graph g;
  int x = g.add_input("x", Shape{1, 4, 12, 12});
  const int b1 = g.add_conv(x, "b1", Dims{1, 1}, 3, Dims{1, 1}, Dims{0, 0});
  const int b2 = g.add_conv(x, "b2", Dims{3, 3}, 3, Dims{1, 1}, Dims{1, 1});
  const int b3 = g.add_pool(x, "b3", PoolKind::kAvg, Dims{3, 3}, Dims{1, 1},
                            Dims{1, 1});
  g.add_concat({b1, b2, b3}, "cat");
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(PaddedExecutor, TransposedConvChain) {
  Graph g;
  int x = g.add_input("x", Shape{1, 3, 8, 8});
  x = g.add_deconv(x, "up", Dims{4, 4}, 2, Dims{2, 2}, Dims{1, 1});
  x = g.add_relu(x, "r");
  x = g.add_conv(x, "c", Dims{3, 3}, 2, Dims{1, 1}, Dims{1, 1});
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(PaddedExecutor, DepthwiseAndSoftmax) {
  Graph g;
  int x = g.add_input("x", Shape{1, 6, 12, 12});
  x = g.add_conv(x, "dw", Dims{3, 3}, 6, Dims{1, 1}, Dims{1, 1}, {}, 6);
  x = g.add_batchnorm(x, "bn");
  x = g.add_softmax(x, "sm");
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(PaddedExecutor, NonMultipleBrickSizes) {
  Graph g = build_conv_chain_2d(2, 1, 19, 2);  // 19 -> 17 -> 15, brick 4
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(PaddedExecutor, BatchedInput) {
  Graph g = build_conv_chain_2d(2, 3, 14, 2);
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(PaddedExecutor, ParallelThreadsMatchSerial) {
  Graph g = build_conv_chain_2d(3, 1, 18, 3);
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4},
                                 /*workers=*/4, /*parallel=*/true);
}

TEST(PaddedExecutor, SingleBrickDegenerate) {
  Graph g = build_conv_chain_2d(2, 1, 10, 2);
  // Brick as large as the output: one brick, pure recompute chain.
  check_padded_matches_reference(g, all_non_input_nodes(g), Dims{1, 8, 8});
}

TEST(PaddedExecutor, ModelBackendProducesTraffic) {
  Graph g = build_conv_chain_2d(2, 1, 18, 3);
  const Subgraph sg = all_non_input_nodes(g);
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(g, sim);
  std::unordered_map<int, TensorId> io;
  io[sg.external_inputs[0]] = backend.register_tensor(
      g.node(sg.external_inputs[0]).out_shape, Layout::kCanonical, {}, "in");
  io[sg.terminal()] = backend.register_tensor(
      g.node(sg.terminal()).out_shape, Layout::kBricked, Dims{1, 4, 4}, "out");
  const HaloPlan plan(g, sg, Dims{1, 4, 4});
  PaddedExecutor exec(g, sg, plan, backend, io);
  ASSERT_TRUE(exec.run_checked().ok());
  const TxnCounters txns = sim.counters();
  EXPECT_GT(txns.l1, 0);
  EXPECT_GT(txns.dram_read, 0);
  EXPECT_EQ(backend.tally().invocations, plan.num_bricks() * 2);
  EXPECT_EQ(backend.tally().bricks_reduced, plan.num_bricks());
  // No atomics in padded execution.
  EXPECT_EQ(txns.atomics(), 0);
}

}  // namespace
}  // namespace brickdl
