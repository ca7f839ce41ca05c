#include <gtest/gtest.h>

#include <algorithm>

#include "core/partitioner.hpp"
#include "core/halo_plan.hpp"
#include "graph/rewrite.hpp"
#include "models/models.hpp"

namespace brickdl {
namespace {

/// Every partitioned subgraph must satisfy the subgraph invariants, cover
/// every non-input node exactly once, and respect topological order.
void check_partition_invariants(const Graph& g, const Partition& p) {
  std::vector<int> covered(static_cast<size_t>(g.num_nodes()), 0);
  for (const auto& planned : p.subgraphs) {
    EXPECT_NO_THROW(validate_subgraph(g, planned.sg));
    for (int n : planned.sg.nodes) covered[static_cast<size_t>(n)]++;
  }
  for (const Node& node : g.nodes()) {
    const int expected = node.kind == OpKind::kInput ? 0 : 1;
    EXPECT_EQ(covered[static_cast<size_t>(node.id)], expected)
        << "node " << node.name << " covered " << covered[static_cast<size_t>(node.id)]
        << " times";
  }
}

TEST(Partitioner, SimpleChainMergesFully) {
  Graph g = build_conv_chain_2d(4, 1, 64, 16);
  PartitionOptions options;
  options.cost_aware = false;  // structural test: force merging decisions
  const Partition p = partition_graph(g, options);
  check_partition_invariants(g, p);
  ASSERT_EQ(p.subgraphs.size(), 1u);
  EXPECT_NE(p.subgraphs[0].strategy, Strategy::kVendor);
  EXPECT_EQ(p.subgraphs[0].sg.nodes.size(), 4u);
}

TEST(Partitioner, MaxLayersCapSplits) {
  Graph g = build_conv_chain_2d(9, 1, 64, 16);
  PartitionOptions options;
  options.max_layers = 3;
  const Partition p = partition_graph(g, options);
  check_partition_invariants(g, p);
  EXPECT_EQ(p.subgraphs.size(), 3u);
  for (const auto& s : p.subgraphs) EXPECT_LE(s.sg.nodes.size(), 3u);
}

TEST(Partitioner, GlobalOpsBecomeVendorSingletons) {
  Graph g;
  int x = g.add_input("x", Shape{1, 8, 32, 32});
  x = g.add_conv(x, "c", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1});
  x = g.add_global_avg_pool(x, "gap");
  x = g.add_dense(x, "fc", 10);
  const Partition p = partition_graph(g, {});
  check_partition_invariants(g, p);
  ASSERT_GE(p.subgraphs.size(), 3u);
  EXPECT_EQ(p.subgraphs[1].strategy, Strategy::kVendor);  // gap
  EXPECT_EQ(p.subgraphs[2].strategy, Strategy::kVendor);  // fc
}

TEST(Partitioner, PoolTerminatesSubgraph) {
  Graph g;
  int x = g.add_input("x", Shape{1, 8, 64, 64});
  x = g.add_conv(x, "c1", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1});
  x = g.add_pool(x, "p", PoolKind::kMax, Dims{2, 2}, Dims{2, 2});
  x = g.add_conv(x, "c2", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1});
  const Partition p = partition_graph(g, {});
  check_partition_invariants(g, p);
  ASSERT_EQ(p.subgraphs.size(), 2u);
  // First subgraph ends exactly at the pool (§3.3.1's preferred terminator).
  EXPECT_EQ(g.node(p.subgraphs[0].sg.terminal()).kind, OpKind::kPool);
}

TEST(Partitioner, ResidualBlockStaysWhole) {
  Graph g;
  int x = g.add_input("x", Shape{1, 16, 32, 32});
  const int c1 = g.add_conv(x, "c1", Dims{3, 3}, 16, Dims{1, 1}, Dims{1, 1});
  const int r1 = g.add_relu(c1, "r1");
  const int c2 = g.add_conv(r1, "c2", Dims{3, 3}, 16, Dims{1, 1}, Dims{1, 1});
  const int a = g.add_add(c2, x, "add");
  const int r2 = g.add_relu(a, "r2");
  const Partition p = partition_graph(g, {});
  check_partition_invariants(g, p);
  ASSERT_EQ(p.subgraphs.size(), 1u);
  EXPECT_EQ(p.subgraphs[0].sg.nodes.size(), 5u);
  EXPECT_EQ(p.subgraphs[0].sg.terminal(), r2);
}

TEST(Partitioner, SkipConnectionAcrossDistanceCuts) {
  // An encoder feature consumed by a much later decoder concat forces the
  // producer's subgraph to end at the producer.
  Graph g;
  int x = g.add_input("x", Shape{1, 8, 32, 32});
  const int e = g.add_conv(x, "enc", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1});
  const int m1 = g.add_conv(e, "mid1", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1});
  const int m2 = g.add_conv(m1, "mid2", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1});
  const int cat = g.add_concat({m2, e}, "skip");
  // With no cap the whole diamond can merge (the invariant holds); capping
  // the depth forces a cut, and the cut must land at the producer 'e' whose
  // consumer is far away — never inside the diamond.
  PartitionOptions options;
  options.max_layers = 2;
  const Partition p = partition_graph(g, options);
  check_partition_invariants(g, p);
  ASSERT_GE(p.subgraphs.size(), 2u);
  EXPECT_EQ(p.subgraphs[0].sg.terminal(), e);
  // The later subgraph consumes 'e' externally.
  const auto& later = p.subgraphs.back();
  EXPECT_TRUE(later.sg.contains(cat));
  EXPECT_NE(std::find(later.sg.external_inputs.begin(),
                      later.sg.external_inputs.end(), e),
            later.sg.external_inputs.end());
}

TEST(Partitioner, DeltaRuleSelectsStrategy) {
  // Halo-free (1x1 conv + pointwise) subgraphs have Δ = 0 -> padded bricks;
  // chains of 3x3 convs accumulate halo -> Δ > 15% -> memoized (§3.3.2).
  Graph pointwise;
  int x = pointwise.add_input("x", Shape{1, 32, 64, 64});
  x = pointwise.add_conv(x, "c1", Dims{1, 1}, 32, Dims{1, 1}, Dims{0, 0});
  x = pointwise.add_relu(x, "r1");
  x = pointwise.add_conv(x, "c2", Dims{1, 1}, 32, Dims{1, 1}, Dims{0, 0});
  PartitionOptions options;
  options.cost_aware = false;  // exercise the literal §3.3.2 Δ rule
  const Partition p1 = partition_graph(pointwise, options);
  check_partition_invariants(pointwise, p1);
  ASSERT_EQ(p1.subgraphs.size(), 1u);
  EXPECT_EQ(p1.subgraphs[0].strategy, Strategy::kPadded);
  EXPECT_LE(p1.subgraphs[0].delta, options.delta_threshold);

  Graph deep = build_conv_chain_2d(8, 1, 64, 16);
  const Partition p2 = partition_graph(deep, options);
  check_partition_invariants(deep, p2);
  ASSERT_GE(p2.subgraphs.size(), 1u);
  EXPECT_EQ(p2.subgraphs[0].strategy, Strategy::kMemoized);
  EXPECT_GT(p2.subgraphs[0].delta, options.delta_threshold);
}

TEST(Partitioner, FootprintBudgetLimitsDepth) {
  Graph g = build_conv_chain_2d(6, 1, 96, 64);
  PartitionOptions tight;
  tight.cost_aware = false;
  tight.l2_budget = 1;  // absurd: every subgraph forced to single layer
  const Partition p = partition_graph(g, tight);
  check_partition_invariants(g, p);
  EXPECT_EQ(p.subgraphs.size(), 6u);
}

// A single layer whose merged plan exceeds the budget cannot shrink by
// cutting, so it runs as vendor: at a 5 MB L2, ResNet-50 (batch 8) used to
// keep res3a_proj merged at 5,308,416 bytes, which validation rejects.
TEST(Partitioner, OverBudgetSingleLayerPlansVendor) {
  ModelConfig config;
  config.batch = 8;
  const Graph g = fuse_conv_pointwise(build_resnet50(config));
  PartitionOptions options;
  options.machine.l2_bytes = 5 * 1024 * 1024;
  options.l2_budget = options.machine.l2_bytes;
  const Partition p = partition_graph(g, options);
  check_partition_invariants(g, p);
  bool saw_res3a_proj = false;
  for (const PlannedSubgraph& planned : p.subgraphs) {
    if (planned.strategy != Strategy::kVendor) {
      EXPECT_LE(planned.footprint_bytes, options.l2_budget)
          << g.node(planned.sg.terminal()).name;
    }
    if (g.node(planned.sg.terminal()).name == "res3a_proj") {
      saw_res3a_proj = true;
      EXPECT_EQ(planned.strategy, Strategy::kVendor);
      EXPECT_EQ(planned.sg.nodes.size(), 1u);
    }
  }
  EXPECT_TRUE(saw_res3a_proj);

  // At a budget nothing fits: all vendor singletons.
  const Graph chain = build_conv_chain_2d(6, 1, 96, 64);
  PartitionOptions tight;
  tight.cost_aware = false;
  tight.l2_budget = 1;
  const Partition pt = partition_graph(chain, tight);
  check_partition_invariants(chain, pt);
  EXPECT_EQ(pt.subgraphs.size(), 6u);
  for (const PlannedSubgraph& planned : pt.subgraphs) {
    EXPECT_EQ(planned.strategy, Strategy::kVendor);
  }
}

TEST(Partitioner, TinyLayersFallBackToVendor) {
  Graph g;
  int x = g.add_input("x", Shape{1, 256, 7, 7});
  x = g.add_conv(x, "c", Dims{3, 3}, 256, Dims{1, 1}, Dims{1, 1});
  const Partition p = partition_graph(g, {});
  ASSERT_EQ(p.subgraphs.size(), 1u);
  EXPECT_EQ(p.subgraphs[0].strategy, Strategy::kVendor);
}

TEST(Partitioner, PlanSubgraphForcedBrickSide) {
  Graph g = build_conv_chain_2d(3, 1, 64, 16);
  Subgraph sg;
  for (const Node& n : g.nodes()) {
    if (n.kind != OpKind::kInput) sg.nodes.push_back(n.id);
  }
  sg.external_inputs = {0};
  const PlannedSubgraph p4 = plan_subgraph(g, sg, {}, 4);
  const PlannedSubgraph p16 = plan_subgraph(g, sg, {}, 16);
  EXPECT_EQ(p4.brick_side, 4);
  EXPECT_EQ(p16.brick_side, 16);
  EXPECT_GT(p4.delta, p16.delta);
}

TEST(Partitioner, AllModelsPartitionCleanly) {
  ModelConfig config;
  config.batch = 1;
  config.spatial = 64;
  config.width_div = 8;
  PartitionOptions options;
  options.cost_aware = false;  // tiny scale: the cost model would (correctly)
                               // route everything to the vendor library
  for (const auto& [name, builder] : model_zoo()) {
    const Graph g = builder(config);
    const Partition p = partition_graph(g, options);
    SCOPED_TRACE(name);
    check_partition_invariants(g, p);
    EXPECT_GE(p.merged_subgraphs(), 1) << name;

    // The cost-aware default must also produce a valid partition.
    const Partition pc = partition_graph(g, {});
    check_partition_invariants(g, pc);
  }
}

TEST(Partitioner, DescribeMentionsStrategies) {
  Graph g = build_conv_chain_2d(3, 1, 64, 16);
  const Partition p = partition_graph(g, {});
  const std::string desc = p.describe(g);
  EXPECT_NE(desc.find("subgraph 1"), std::string::npos);
}

}  // namespace
}  // namespace brickdl
