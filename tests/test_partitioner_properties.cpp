// Property suite for the §3.3.1 partitioner (CTest label `partition`).
//
// Over a seeded corpus of 200 random graphs, the model zoo, a tight budget
// and a diamond with a long side chain, every partition must uphold:
//  * subgraph validity (topological node order, single terminal, external
//    inputs declared) and acyclicity of the quotient DAG — checked as a
//    valid topological subgraph order (every external input is produced by a
//    graph input or an earlier subgraph's terminal);
//  * exactly-once coverage: every non-input node in exactly one subgraph;
//  * the L2 footprint budget as a hard cap on every merged subgraph.
#include <gtest/gtest.h>

#include "core/partitioner.hpp"
#include "models/models.hpp"
#include "testing/differential.hpp"
#include "testing/graph_gen.hpp"

namespace brickdl {
namespace {

constexpr u64 kSweepSeed = 2;  ///< decorrelated from the differential sweep

/// Subgraph invariants + exactly-once coverage + quotient-DAG topological
/// order. The order check is what rules out cycles: a cyclic quotient DAG
/// has no ordering in which every external input is already produced.
void check_invariants(const Graph& g, const Partition& p, i64 l2_budget) {
  std::vector<int> covered(static_cast<size_t>(g.num_nodes()), 0);
  std::vector<bool> produced(static_cast<size_t>(g.num_nodes()), false);
  for (const Node& node : g.nodes()) {
    if (node.kind == OpKind::kInput) produced[static_cast<size_t>(node.id)] = true;
  }
  for (const auto& planned : p.subgraphs) {
    EXPECT_NO_THROW(validate_subgraph(g, planned.sg));
    for (int n : planned.sg.nodes) covered[static_cast<size_t>(n)]++;
    for (int ext : planned.sg.external_inputs) {
      EXPECT_TRUE(produced[static_cast<size_t>(ext)])
          << "subgraph terminating at '" << g.node(planned.sg.terminal()).name
          << "' consumes '" << g.node(ext).name
          << "' before any earlier subgraph produces it (quotient order "
             "broken or cyclic)";
    }
    produced[static_cast<size_t>(planned.sg.terminal())] = true;
    if (planned.strategy != Strategy::kVendor) {
      EXPECT_LE(planned.footprint_bytes, l2_budget)
          << "merged subgraph terminating at '"
          << g.node(planned.sg.terminal()).name
          << "' exceeds the footprint budget";
    }
  }
  for (const Node& node : g.nodes()) {
    const int expected = node.kind == OpKind::kInput ? 0 : 1;
    EXPECT_EQ(covered[static_cast<size_t>(node.id)], expected)
        << "node " << node.name << " covered "
        << covered[static_cast<size_t>(node.id)] << " times";
  }
}

void sweep_random_graphs(int lo, int hi) {
  const PartitionOptions options;
  for (int idx = lo; idx < hi; ++idx) {
    const u64 seed = graph_seed(kSweepSeed, idx);
    const Graph g = random_graph(seed);
    SCOPED_TRACE("graph " + std::to_string(idx) + " (seed " +
                 std::to_string(seed) + ")");
    check_invariants(g, partition_graph(g, options), options.l2_budget);
  }
}

TEST(PartitionerProperties, RandomGraphs000To049) { sweep_random_graphs(0, 50); }
TEST(PartitionerProperties, RandomGraphs050To099) { sweep_random_graphs(50, 100); }
TEST(PartitionerProperties, RandomGraphs100To149) { sweep_random_graphs(100, 150); }
TEST(PartitionerProperties, RandomGraphs150To199) { sweep_random_graphs(150, 200); }

TEST(PartitionerProperties, TightBudgetIsHardCap) {
  // An absurdly small budget must keep every merged subgraph within it (in
  // practice forcing single-layer or vendor groups), never violate coverage.
  Graph g = build_conv_chain_2d(6, 1, 96, 64);
  PartitionOptions options;
  options.l2_budget = 1;
  const Partition p = partition_graph(g, options);
  check_invariants(g, p, options.l2_budget);
}

TEST(PartitionerProperties, ModelZooPartitionsCleanly) {
  ModelConfig config;
  config.batch = 1;
  config.spatial = 64;
  config.width_div = 8;
  const PartitionOptions options;
  for (const auto& [name, builder] : model_zoo()) {
    const Graph g = builder(config);
    SCOPED_TRACE(name);
    check_invariants(g, partition_graph(g, options), options.l2_budget);
  }
}

// A diamond whose long side chain runs outside any group holding both a and
// d:
//
//          ┌→ b ──────────────┐
//   x → a ─┤                  ├→ d (add)
//          └→ c1 → c2 → c3 ───┘
//
// A partition that put a, b and d in one subgraph but left c1..c3 outside
// would both feed c1 and depend on c3, a cycle in the quotient DAG.
Graph diamond_with_side_chain() {
  Graph g("diamond_side_chain");
  const int x = g.add_input("x", Shape{1, 8, 32, 32});
  const int a = g.add_conv(x, "a", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1});
  const int b = g.add_conv(a, "b", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1});
  const int c1 = g.add_conv(a, "c1", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1});
  const int c2 = g.add_conv(c1, "c2", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1});
  const int c3 = g.add_conv(c2, "c3", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1});
  g.add_add(b, c3, "d");
  return g;
}

TEST(PartitionerProperties, DiamondWithSideChainPartitionsCleanly) {
  const Graph g = diamond_with_side_chain();
  const PartitionOptions options;
  check_invariants(g, partition_graph(g, options), options.l2_budget);
}

}  // namespace
}  // namespace brickdl
