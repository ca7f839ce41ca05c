#include <gtest/gtest.h>

#include "core/memoized_executor.hpp"
#include "ops/dispatch.hpp"
#include "models/models.hpp"

namespace brickdl {
namespace {

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

struct MemoRun {
  Tensor output{Shape{1, 1, 1, 1}};
  MemoizedExecutor::Stats stats;
};

MemoRun run_memoized(const Graph& g, const Subgraph& sg,
                     const Dims& brick_extent, int workers, bool parallel,
                     const std::vector<Tensor>& reference) {
  WeightStore ws(5);
  NumericBackend backend(g, ws, std::max(workers, 1));
  std::unordered_map<int, TensorId> io;
  for (int ext : sg.external_inputs) {
    const TensorId id = backend.register_tensor(
        g.node(ext).out_shape, Layout::kCanonical, {}, "ext");
    backend.bind(id, reference[static_cast<size_t>(ext)]);
    io[ext] = id;
  }
  const TensorId out = backend.register_tensor(
      g.node(sg.terminal()).out_shape, Layout::kBricked, brick_extent, "out");
  io[sg.terminal()] = out;

  MemoizedExecutor exec(g, sg, brick_extent, backend, io, workers);
  if (parallel) {
    WorkerTeam pool(workers);
    EXPECT_TRUE(exec.run_parallel_checked(pool).ok());
  } else {
    EXPECT_TRUE(exec.run_checked().ok());
  }
  MemoRun r;
  r.output = backend.read(out);
  r.stats = exec.stats();
  return r;
}

void check_memoized_matches_reference(const Graph& g, const Subgraph& sg,
                                      const Dims& brick_extent,
                                      int workers = 4) {
  WeightStore ws(5);
  const Node& input_node = g.node(sg.external_inputs[0]);
  Tensor input(input_node.out_shape);
  Rng rng(77);
  input.fill_random(rng);
  const auto reference = run_graph_reference(g, input, ws);

  const MemoRun r =
      run_memoized(g, sg, brick_extent, workers, false, reference);
  EXPECT_TRUE(allclose(r.output,
                       reference[static_cast<size_t>(sg.terminal())], 1e-4));
  // Two compulsory atomics per computed brick (§3.2.2).
  EXPECT_EQ(r.stats.compulsory_atomics, 2 * r.stats.bricks_computed);
  EXPECT_GT(r.stats.bricks_computed, 0);
}

TEST(MemoizedExecutor, TwoConvChain) {
  Graph g = build_conv_chain_2d(2, 1, 18, 3);
  check_memoized_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(MemoizedExecutor, DeepConvChain) {
  Graph g = build_conv_chain_2d(4, 1, 20, 2);
  check_memoized_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(MemoizedExecutor, ConvChain3D) {
  Graph g = build_conv_chain_3d(2, 1, 10, 2);
  check_memoized_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4, 4});
}

TEST(MemoizedExecutor, ResidualBlock) {
  Graph g;
  int x = g.add_input("x", Shape{1, 4, 12, 12});
  const int c1 = g.add_conv(x, "c1", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
  const int r1 = g.add_relu(c1, "r1");
  const int c2 = g.add_conv(r1, "c2", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
  const int a = g.add_add(c2, x, "add");
  g.add_relu(a, "out");
  check_memoized_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(MemoizedExecutor, StridedChainLeavesDeadBricksUncomputed) {
  // 21 -> stride 2 -> 11 -> 9: some input-side bricks may be dead; the
  // executor must complete all terminal bricks regardless.
  Graph g;
  int x = g.add_input("x", Shape{1, 2, 21, 21});
  x = g.add_conv(x, "s2", Dims{3, 3}, 3, Dims{2, 2}, Dims{0, 0});
  x = g.add_conv(x, "c", Dims{3, 3}, 3, Dims{1, 1}, Dims{0, 0});
  check_memoized_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(MemoizedExecutor, ExactlyOncePerReachableBrickAcrossWorkerCounts) {
  // Stats invariant: every brick some terminal brick transitively needs is
  // computed exactly once per run — no duplicate work under contention, no
  // dead brick touched — for both the virtual scheduler and real threads.
  // The strided chain drops input columns, so dead bricks exist and the
  // invariant must count reachable bricks, not total bricks.
  // Dead interior bricks need a strided layer *after* a memoized layer with
  // stride larger than the brick extent: a stride-4 1×1 conv over 2×2 bricks
  // reads columns {0,4,8,...}, leaving every {4k+2, 4k+3} brick column of
  // the first layer's memo buffer unread.
  Graph plain = build_conv_chain_2d(3, 1, 18, 3);
  Graph strided;
  {
    int x = strided.add_input("x", Shape{1, 2, 17, 17});
    x = strided.add_conv(x, "c1", Dims{3, 3}, 3, Dims{1, 1}, Dims{1, 1});
    strided.add_conv(x, "s4", Dims{1, 1}, 3, Dims{4, 4}, Dims{0, 0});
  }
  for (const Graph* gp : {&plain, &strided}) {
    const Graph& g = *gp;
    const Subgraph sg = all_non_input_nodes(g);
    const Dims brick_extent = gp == &strided ? Dims{1, 2, 2} : Dims{1, 4, 4};
    WeightStore ws(5);
    Tensor input(g.node(sg.external_inputs[0]).out_shape);
    Rng rng(77);
    input.fill_random(rng);
    const auto reference = run_graph_reference(g, input, ws);

    for (int workers : {1, 2, 4, 16}) {
      for (bool parallel : {false, true}) {
        SCOPED_TRACE((gp == &plain ? "plain" : "strided") +
                     std::string(parallel ? " parallel" : " virtual") +
                     " workers=" + std::to_string(workers));
        NumericBackend backend(g, ws, workers);
        std::unordered_map<int, TensorId> io;
        for (int ext : sg.external_inputs) {
          const TensorId id = backend.register_tensor(
              g.node(ext).out_shape, Layout::kCanonical, {}, "ext");
          backend.bind(id, reference[static_cast<size_t>(ext)]);
          io[ext] = id;
        }
        const TensorId out =
            backend.register_tensor(g.node(sg.terminal()).out_shape,
                                    Layout::kBricked, brick_extent, "out");
        io[sg.terminal()] = out;

        MemoizedExecutor exec(g, sg, brick_extent, backend, io, workers);
        if (parallel) {
          WorkerTeam pool(workers);
          ASSERT_TRUE(exec.run_parallel_checked(pool).ok());
        } else {
          ASSERT_TRUE(exec.run_checked().ok());
        }
        EXPECT_EQ(exec.stats().bricks_computed, exec.reachable_bricks());
        if (gp == &strided) {
          EXPECT_LT(exec.reachable_bricks(), exec.total_bricks());
        }
        EXPECT_TRUE(allclose(backend.read(out),
                             reference[static_cast<size_t>(sg.terminal())],
                             1e-4));
      }
    }
  }
}

TEST(MemoizedExecutor, InceptionStyleFork) {
  Graph g;
  int x = g.add_input("x", Shape{1, 4, 12, 12});
  const int b1 = g.add_conv(x, "b1", Dims{1, 1}, 3, Dims{1, 1}, Dims{0, 0});
  const int b2 = g.add_conv(x, "b2", Dims{3, 3}, 3, Dims{1, 1}, Dims{1, 1});
  const int b3 = g.add_pool(x, "b3", PoolKind::kAvg, Dims{3, 3}, Dims{1, 1},
                            Dims{1, 1});
  g.add_concat({b1, b2, b3}, "cat");
  check_memoized_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(MemoizedExecutor, TransposedConvChain) {
  Graph g;
  int x = g.add_input("x", Shape{1, 3, 8, 8});
  x = g.add_deconv(x, "up", Dims{4, 4}, 2, Dims{2, 2}, Dims{1, 1});
  x = g.add_conv(x, "c", Dims{3, 3}, 2, Dims{1, 1}, Dims{1, 1});
  check_memoized_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(MemoizedExecutor, PoolTerminated) {
  Graph g;
  int x = g.add_input("x", Shape{1, 3, 16, 16});
  x = g.add_conv(x, "c1", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
  x = g.add_relu(x, "r1");
  x = g.add_pool(x, "p", PoolKind::kMax, Dims{2, 2}, Dims{2, 2});
  check_memoized_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

TEST(MemoizedExecutor, VirtualSchedulerDeterministic) {
  Graph g = build_conv_chain_2d(3, 1, 18, 2);
  const Subgraph sg = all_non_input_nodes(g);
  WeightStore ws(5);
  Tensor input(g.node(sg.external_inputs[0]).out_shape);
  Rng rng(9);
  input.fill_random(rng);
  const auto reference = run_graph_reference(g, input, ws);

  const MemoRun a = run_memoized(g, sg, Dims{1, 4, 4}, 4, false, reference);
  const MemoRun b = run_memoized(g, sg, Dims{1, 4, 4}, 4, false, reference);
  EXPECT_EQ(a.stats.conflict_atomics, b.stats.conflict_atomics);
  EXPECT_EQ(a.stats.defers, b.stats.defers);
  EXPECT_EQ(a.stats.bricks_computed, b.stats.bricks_computed);
  EXPECT_TRUE(allclose(a.output, b.output, 0.0));
}

TEST(MemoizedExecutor, ConflictsAriseWithMultipleWorkers) {
  // With several virtual workers racing on shared halo dependencies, some
  // conflicting atomics must occur; with one worker, none can.
  Graph g = build_conv_chain_2d(3, 1, 26, 2);
  const Subgraph sg = all_non_input_nodes(g);
  WeightStore ws(5);
  Tensor input(g.node(sg.external_inputs[0]).out_shape);
  Rng rng(10);
  input.fill_random(rng);
  const auto reference = run_graph_reference(g, input, ws);

  const MemoRun solo = run_memoized(g, sg, Dims{1, 4, 4}, 1, false, reference);
  EXPECT_EQ(solo.stats.conflict_atomics, 0);
  const MemoRun many = run_memoized(g, sg, Dims{1, 4, 4}, 8, false, reference);
  EXPECT_GT(many.stats.conflict_atomics, 0);
  EXPECT_TRUE(allclose(solo.output, many.output, 0.0));
}

TEST(MemoizedExecutor, ParallelThreadsMatchReference) {
  Graph g = build_conv_chain_2d(3, 1, 20, 3);
  const Subgraph sg = all_non_input_nodes(g);
  WeightStore ws(5);
  Tensor input(g.node(sg.external_inputs[0]).out_shape);
  Rng rng(11);
  input.fill_random(rng);
  const auto reference = run_graph_reference(g, input, ws);

  // Stress the CAS protocol with real threads, several times.
  for (int round = 0; round < 5; ++round) {
    const MemoRun r = run_memoized(g, sg, Dims{1, 4, 4}, 8, true, reference);
    ASSERT_TRUE(allclose(
        r.output, reference[static_cast<size_t>(sg.terminal())], 1e-4));
    EXPECT_EQ(r.stats.compulsory_atomics, 2 * r.stats.bricks_computed);
  }
}

TEST(MemoizedExecutor, ModelBackendCountsAtomics) {
  Graph g = build_conv_chain_2d(2, 1, 18, 3);
  const Subgraph sg = all_non_input_nodes(g);
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(g, sim);
  std::unordered_map<int, TensorId> io;
  io[sg.external_inputs[0]] = backend.register_tensor(
      g.node(sg.external_inputs[0]).out_shape, Layout::kCanonical, {}, "in");
  io[sg.terminal()] = backend.register_tensor(
      g.node(sg.terminal()).out_shape, Layout::kBricked, Dims{1, 4, 4}, "out");
  MemoizedExecutor exec(g, sg, Dims{1, 4, 4}, backend, io, 8);
  ASSERT_TRUE(exec.run_checked().ok());
  const TxnCounters txns = sim.counters();
  EXPECT_EQ(txns.atomics_compulsory, exec.stats().compulsory_atomics);
  EXPECT_EQ(txns.atomics_conflict, exec.stats().conflict_atomics);
  EXPECT_EQ(backend.tally().invocations, exec.stats().bricks_computed);
  EXPECT_GT(txns.dram_read, 0);
}

TEST(MemoizedExecutor, BatchBricksIndependent) {
  Graph g = build_conv_chain_2d(2, 2, 14, 2);
  check_memoized_matches_reference(g, all_non_input_nodes(g), Dims{1, 4, 4});
}

}  // namespace
}  // namespace brickdl
