#include <gtest/gtest.h>

#include "baselines/fused_graph.hpp"
#include "core/engine.hpp"
#include "models/models.hpp"

namespace brickdl {
namespace {

Tensor random_input(const Graph& g, u64 seed = 21) {
  Tensor input(g.node(0).out_shape);
  Rng rng(seed);
  input.fill_random(rng);
  return input;
}

/// End-to-end: engine output (any partition/strategy mix) == reference.
/// `reports` (optional) receives the run's subgraph reports.
void check_engine_matches_reference(
    const Graph& g, EngineOptions options = {}, u64 seed = 21,
    std::vector<SubgraphReport>* reports = nullptr) {
  WeightStore ws(99);
  const Tensor input = random_input(g, seed);
  const auto reference = run_graph_reference(g, input, ws);

  Engine engine(g, options);
  NumericBackend backend(g, ws, 4);
  auto run = engine.run_checked(backend, &input);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const EngineResult& result = run.value();
  const int output = g.outputs()[0];
  EXPECT_TRUE(allclose(backend.read(result.output),
                       reference[static_cast<size_t>(output)], 2e-4));
  if (reports) *reports = result.reports;
}

/// build_conv_chain_2d(4, 1, 36, 4) plans merged (memoized at B=4), so a
/// forced strategy reaches every subgraph: each must run it and still match
/// the reference. (A graph the partitioner plans vendor would skip the
/// override and never exercise the forced strategy.)
void check_forced_strategy(Strategy strategy) {
  EngineOptions options;
  options.force_strategy = strategy;
  std::vector<SubgraphReport> reports;
  check_engine_matches_reference(build_conv_chain_2d(4, 1, 36, 4), options,
                                 21, &reports);
  ASSERT_FALSE(reports.empty());
  for (const SubgraphReport& report : reports) {
    EXPECT_EQ(report.executed, strategy)
        << "subgraph ran " << strategy_name(report.executed);
  }
}

TEST(Engine, ConvChainAutoStrategy) {
  check_engine_matches_reference(build_conv_chain_2d(4, 1, 20, 3));
}

TEST(Engine, ConvChainForcedPadded) {
  check_forced_strategy(Strategy::kPadded);
}

TEST(Engine, ConvChainForcedMemoized) {
  check_forced_strategy(Strategy::kMemoized);
}

TEST(Engine, ForcedBrickSide) {
  EngineOptions options;
  options.force_brick_side = 8;
  check_engine_matches_reference(build_conv_chain_2d(3, 1, 24, 2), options);
}

TEST(Engine, MultiSubgraphChain) {
  EngineOptions options;
  options.partition.max_layers = 2;
  check_engine_matches_reference(build_conv_chain_2d(5, 1, 22, 2), options);
}

TEST(Engine, GraphWithHeadAndClassifier) {
  Graph g;
  int x = g.add_input("x", Shape{1, 3, 20, 20});
  x = g.add_conv(x, "c1", Dims{3, 3}, 6, Dims{1, 1}, Dims{1, 1});
  x = g.add_relu(x, "r1");
  x = g.add_conv(x, "c2", Dims{3, 3}, 6, Dims{2, 2}, Dims{1, 1});
  x = g.add_relu(x, "r2");
  x = g.add_pool(x, "p", PoolKind::kMax, Dims{2, 2}, Dims{2, 2});
  x = g.add_global_avg_pool(x, "gap");
  x = g.add_dense(x, "fc", 7);
  g.add_softmax(x, "sm");
  check_engine_matches_reference(g);
}

TEST(Engine, TinyModelsEndToEnd) {
  // Every zoo model at tiny scale must run through the full engine and match
  // the reference numerics — the strongest integration property we have.
  ModelConfig config;
  config.batch = 1;
  config.spatial = 32;
  config.width_div = 16;
  config.classes = 8;
  for (const auto& [name, builder] : model_zoo()) {
    SCOPED_TRACE(name);
    const Graph g = builder(config);
    check_engine_matches_reference(g);
  }
}

TEST(Engine, ModelBackendCollectsReports) {
  Graph g = build_conv_chain_2d(4, 1, 24, 4);
  Engine engine(g, {});
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(g, sim);
  auto run = engine.run_checked(backend);
  ASSERT_TRUE(run.ok()) << run.status().to_string();
  const EngineResult& result = run.value();
  ASSERT_FALSE(result.reports.empty());
  i64 total_l1 = 0;
  for (const auto& report : result.reports) {
    total_l1 += report.txns.l1;
    EXPECT_GT(report.tally.invocations, 0);
  }
  EXPECT_GT(total_l1, 0);
  EXPECT_GE(result.total_txns.l1, total_l1);
  EXPECT_GT(result.total_txns.dram(), 0);
}

/// Run `g` on a ModelBackend, barriered and pipelined, and check that the
/// reports' tally deltas sum to the run total field by field: every kernel
/// launch, flop and reduction is charged to exactly one report.
void check_tally_sums_to_total(const Graph& g, EngineOptions options,
                               bool expect_chain) {
  for (bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "barriered");
    options.pipeline_subgraphs = pipeline;
    Engine engine(g, options);
    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend backend(g, sim);
    auto run = engine.run_checked(backend);
    ASSERT_TRUE(run.ok()) << run.status().to_string();
    const EngineResult& result = run.value();
    ComputeTally sum;
    bool chained = false;
    for (const SubgraphReport& report : result.reports) {
      sum += report.tally;
      chained = chained || report.pipelined;
    }
    EXPECT_EQ(chained, pipeline && expect_chain);
    const ComputeTally& total = result.total_tally;
    EXPECT_EQ(sum.invocations, total.invocations);
    EXPECT_DOUBLE_EQ(sum.flops, total.flops);
    EXPECT_DOUBLE_EQ(sum.tc_flops, total.tc_flops);
    EXPECT_EQ(sum.defers, total.defers);
    EXPECT_EQ(sum.bricks_reduced, total.bricks_reduced);
  }
}

TEST(EngineReports, TallySumsToRunTotal) {
  {
    SCOPED_TRACE("memoized chain");
    EngineOptions options;
    options.partition.max_layers = 2;
    options.force_strategy = Strategy::kMemoized;
    check_tally_sums_to_total(build_conv_chain_2d(6, 1, 32, 8), options,
                              /*expect_chain=*/true);
  }
  {
    // One padded member per segment: the barriered per-report path.
    SCOPED_TRACE("forced padded");
    EngineOptions options;
    options.force_strategy = Strategy::kPadded;
    check_tally_sums_to_total(build_conv_chain_2d(4, 1, 36, 4), options,
                              /*expect_chain=*/false);
  }
}

TEST(Engine, MergedBeatsVendorOnDram) {
  // The headline claim at microbenchmark scale: merged execution reads the
  // input once and never materializes intermediates in DRAM, so its DRAM
  // transactions must undercut the per-layer vendor baseline.
  Graph g = build_conv_chain_2d(3, 4, 40, 16);

  i64 dram_vendor = 0, dram_merged = 0;
  {
    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend backend(g, sim);
    FusedGraphExecutor exec(g, backend, FusionRules::kNone, 8);
    exec.run();
    sim.flush();
    dram_vendor = sim.counters().dram();
  }
  {
    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend backend(g, sim);
    EngineOptions options;
    options.partition.cost_aware = false;  // force merging at this tiny scale
    Engine engine(g, options);
    ASSERT_TRUE(engine.run_checked(backend).ok());
    dram_merged = sim.counters().dram();
  }
  EXPECT_LT(dram_merged, dram_vendor);
}

TEST(Engine, PartitionExposed) {
  Graph g = build_conv_chain_2d(4, 1, 20, 3);
  Engine engine(g, {});
  EXPECT_GE(engine.partition().subgraphs.size(), 1u);
}

}  // namespace
}  // namespace brickdl
