#include <gtest/gtest.h>

#include "core/wavefront_executor.hpp"
#include "models/models.hpp"
#include "ops/dispatch.hpp"

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

struct WaveRun {
  Tensor output{Shape{1, 1, 1, 1}};
  WavefrontExecutor::Stats stats;
};

WaveRun run_wavefront(const Graph& g, const Subgraph& sg, const Dims& brick,
                      const std::vector<Tensor>& reference, WeightStore& ws) {
  NumericBackend backend(g, ws, 4);
  std::unordered_map<int, TensorId> io;
  for (int ext : sg.external_inputs) {
    io[ext] = backend.register_tensor(g.node(ext).out_shape,
                                      Layout::kCanonical, {}, "ext");
    backend.bind(io[ext], reference[static_cast<size_t>(ext)]);
  }
  io[sg.terminal()] = backend.register_tensor(
      g.node(sg.terminal()).out_shape, Layout::kBricked, brick, "out");
  WavefrontExecutor exec(g, sg, brick, backend, io);
  EXPECT_TRUE(exec.run_checked().ok());
  WaveRun r;
  r.output = backend.read(io[sg.terminal()]);
  r.stats = exec.stats();
  return r;
}

void check_wavefront(const Graph& g, const Dims& brick) {
  const Subgraph sg = whole(g);
  WeightStore ws(5);
  Tensor input(g.node(sg.external_inputs[0]).out_shape);
  Rng rng(77);
  input.fill_random(rng);
  const auto reference = run_graph_reference(g, input, ws);
  const WaveRun r = run_wavefront(g, sg, brick, reference, ws);
  EXPECT_TRUE(allclose(r.output,
                       reference[static_cast<size_t>(sg.terminal())], 1e-4));
  EXPECT_GT(r.stats.bricks_computed, 0);
  EXPECT_GT(r.stats.waves, 0);
}

TEST(WavefrontExecutor, ConvChainMatchesReference) {
  check_wavefront(build_conv_chain_2d(3, 1, 18, 3), Dims{1, 4, 4});
}

TEST(WavefrontExecutor, Chain3DMatchesReference) {
  check_wavefront(build_conv_chain_3d(2, 1, 10, 2), Dims{1, 4, 4, 4});
}

TEST(WavefrontExecutor, StridedChainMatchesReference) {
  Graph g;
  int x = g.add_input("x", Shape{1, 2, 21, 21});
  x = g.add_conv(x, "s2", Dims{3, 3}, 3, Dims{2, 2}, Dims{1, 1});
  g.add_conv(x, "c", Dims{3, 3}, 3, Dims{1, 1}, Dims{1, 1});
  check_wavefront(g, Dims{1, 4, 4});
}

TEST(WavefrontExecutor, ResidualBlockMatchesReference) {
  Graph g;
  int x = g.add_input("x", Shape{1, 4, 12, 12});
  const int c1 = g.add_conv(x, "c1", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
  const int c2 = g.add_conv(c1, "c2", Dims{3, 3}, 4, Dims{1, 1}, Dims{1, 1});
  const int a = g.add_add(c2, x, "add");
  g.add_relu(a, "r");
  check_wavefront(g, Dims{1, 4, 4});
}

TEST(WavefrontExecutor, TransposedConvMatchesReference) {
  Graph g;
  int x = g.add_input("x", Shape{1, 3, 8, 8});
  x = g.add_deconv(x, "up", Dims{4, 4}, 2, Dims{2, 2}, Dims{1, 1});
  g.add_relu(x, "r");
  check_wavefront(g, Dims{1, 4, 4});
}

TEST(WavefrontExecutor, SkewOrdersAllDependencies) {
  // The chosen skew must place every dependence in a strictly earlier wave;
  // for a 3x3 unit-stride conv chain with 4-row bricks the halo reaches one
  // brick row, so skew must be at least 2.
  Graph g = build_conv_chain_2d(3, 1, 20, 2);
  const Subgraph sg = whole(g);
  WeightStore ws(1);
  NumericBackend backend(g, ws, 2);
  std::unordered_map<int, TensorId> io;
  io[0] = backend.register_tensor(g.node(0).out_shape, Layout::kCanonical, {},
                                  "in");
  io[sg.terminal()] = backend.register_tensor(
      g.node(sg.terminal()).out_shape, Layout::kBricked, Dims{1, 4, 4}, "out");
  WavefrontExecutor exec(g, sg, Dims{1, 4, 4}, backend, io);
  EXPECT_GE(exec.skew(), 2);
}

TEST(WavefrontExecutor, WaveCountAndWidth) {
  Graph g = build_conv_chain_2d(2, 1, 34, 2);  // 34 -> 32 -> 30 rows
  const Subgraph sg = whole(g);
  WeightStore ws(5);
  Tensor input(g.node(0).out_shape);
  Rng rng(3);
  input.fill_random(rng);
  const auto reference = run_graph_reference(g, input, ws);
  const WaveRun r = run_wavefront(g, sg, Dims{1, 4, 4}, reference, ws);
  // Waves cover all bricks; width bounded by bricks per row band.
  i64 total = 0;
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::kInput) continue;
    const Dims blocked = n.out_shape.blocked_dims();
    total += ceil_div(blocked[1], 4) * ceil_div(blocked[2], 4);
  }
  EXPECT_EQ(r.stats.bricks_computed, total);
  EXPECT_GT(r.stats.max_wave_width, 1);
  // More waves than layer count (diagonal pipeline), fewer than bricks.
  EXPECT_GT(r.stats.waves, 2);
  EXPECT_LT(r.stats.waves, total);
}

TEST(WavefrontExecutor, ModelBackendCountsSyncs) {
  Graph g = build_conv_chain_2d(2, 1, 18, 3);
  const Subgraph sg = whole(g);
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(g, sim);
  std::unordered_map<int, TensorId> io;
  io[0] = backend.register_tensor(g.node(0).out_shape, Layout::kCanonical, {},
                                  "in");
  io[sg.terminal()] = backend.register_tensor(
      g.node(sg.terminal()).out_shape, Layout::kBricked, Dims{1, 4, 4}, "out");
  WavefrontExecutor exec(g, sg, Dims{1, 4, 4}, backend, io);
  ASSERT_TRUE(exec.run_checked().ok());
  EXPECT_EQ(backend.tally().syncs, exec.stats().waves);
  EXPECT_EQ(backend.tally().invocations, exec.stats().bricks_computed);
  // No atomics in wavefront execution — the barrier replaces them.
  EXPECT_EQ(sim.counters().atomics(), 0);
}

}  // namespace
}  // namespace brickdl
