// Vendor tiles on a worker team (DESIGN.md §9.6): run_node_tiled with a team
// must fill every output element exactly once with the bits of the serial
// tile sweep, refine its tiles so every team member gets work, keep global
// ops a single call, and surface a faulting tile as a classified
// kKernelFailure. Also the run-scoped team's contract at the subgraph API.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>

#include "baselines/vendor_tiled.hpp"
#include "core/engine.hpp"
#include "models/models.hpp"
#include "testing/fault_injection.hpp"
#include "testing/reference_eager.hpp"

namespace brickdl {
namespace {

constexpr int kWorkers = 4;

/// A NumericBackend that counts tile kernels and whole-tensor calls.
class CountingBackend final : public Backend {
 public:
  CountingBackend(const Graph& graph, WeightStore& weights, int workers)
      : Backend(graph), inner(graph, weights, workers) {}

  int num_workers() const override { return inner.num_workers(); }
  TensorId register_tensor(const Shape& shape, Layout layout,
                           const Dims& brick_extent,
                           const std::string& name) override {
    return inner.register_tensor(shape, layout, brick_extent, name);
  }
  void invocation_begin(int worker) override {
    inner.invocation_begin(worker);
  }
  SlotId load_window(int worker, TensorId src, const Dims& lo,
                     const Dims& extent) override {
    return inner.load_window(worker, src, lo, extent);
  }
  void store_window(int worker, SlotId slot, TensorId dst, const Dims& lo,
                    const Dims& extent) override {
    inner.store_window(worker, slot, dst, lo, extent);
  }
  void free_slot(int worker, SlotId slot) override {
    inner.free_slot(worker, slot);
  }
  SlotId compute(int worker, int node_id, const std::vector<SlotId>& inputs,
                 const Dims& out_lo, const Dims& out_extent,
                 bool mask_to_bounds) override {
    computes.fetch_add(1, std::memory_order_relaxed);
    return inner.compute(worker, node_id, inputs, out_lo, out_extent,
                         mask_to_bounds);
  }
  void execute_global(int worker, int node_id,
                      const std::vector<TensorId>& inputs,
                      TensorId out) override {
    globals.fetch_add(1, std::memory_order_relaxed);
    inner.execute_global(worker, node_id, inputs, out);
  }
  void count_atomics(i64, i64) override {}
  void tally_defer(i64) override {}
  void tally_reduce(i64) override {}
  void discard_tensor(TensorId) override {}

  NumericBackend inner;
  std::atomic<i64> computes{0};
  std::atomic<i64> globals{0};
};

struct TiledRun {
  Tensor output{Shape{1, 1, 1, 1}};
  i64 computes = 0;
  i64 globals = 0;
};

/// Run the graph's last node through run_node_tiled over the eager outputs
/// of its producers, into an output pre-filled with NaN canaries.
TiledRun run_tiled(const Graph& g, const std::vector<Tensor>& eager,
                   WeightStore& ws, i64 tile_side, WorkerTeam* pool) {
  const Node& node = g.node(g.num_nodes() - 1);
  CountingBackend backend(g, ws, kWorkers);
  std::unordered_map<int, TensorId> io;
  for (int p : node.inputs) {
    io[p] = backend.register_tensor(g.node(p).out_shape, Layout::kCanonical,
                                    {}, "in");
    backend.inner.bind(io[p], eager[static_cast<size_t>(p)]);
  }
  const TensorId out = backend.register_tensor(node.out_shape,
                                               Layout::kCanonical, {}, "out");
  Tensor canary(node.out_shape);
  canary.fill(std::numeric_limits<float>::quiet_NaN());
  backend.inner.bind(out, canary);

  run_node_tiled(g, node, backend, io, out, tile_side, pool);
  return {backend.inner.read(out), backend.computes.load(),
          backend.globals.load()};
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.dims() == b.dims() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.elements()) * sizeof(float)) == 0;
}

/// Tiles a pool of `threads` reaches from 32-wide tiles: the grid grows to
/// 4 tiles per worker unless every spatial side is already 4 wide.
i64 expected_min_pooled_tiles(const Node& node, int threads) {
  const Dims bounds = node.out_shape.blocked_dims();
  i64 finest = bounds[0];
  for (int d = 1; d < bounds.rank(); ++d) finest *= ceil_div(bounds[d], 4);
  return std::min<i64>(4 * threads, finest);
}

/// Pooled and serial tile sweeps of the graph's last node agree bit for
/// bit, leave no canary, match the eager oracle, and the pool path refines.
void check_pooled_matches_serial(const Graph& g) {
  SCOPED_TRACE(g.node(g.num_nodes() - 1).name + " out " +
               g.node(g.num_nodes() - 1).out_shape.str());
  WeightStore ws(17);
  Tensor input(g.node(0).out_shape);
  Rng rng(29);
  input.fill_random(rng);
  const std::vector<Tensor> eager = run_graph_eager(g, input, ws);
  const Tensor& oracle = eager.back();

  for (int threads : {1, kWorkers}) {
    WorkerTeam pool(threads);
    for (i64 tile_side : {i64{32}, i64{5}}) {
      SCOPED_TRACE(std::to_string(threads) + " threads, tile_side " +
                   std::to_string(tile_side));
      const TiledRun serial = run_tiled(g, eager, ws, tile_side, nullptr);
      const TiledRun pooled = run_tiled(g, eager, ws, tile_side, &pool);
      ASSERT_TRUE(same_bits(serial.output, oracle));
      ASSERT_TRUE(same_bits(pooled.output, serial.output));
      for (i64 i = 0; i < pooled.output.elements(); ++i) {
        ASSERT_FALSE(std::isnan(pooled.output.flat(i))) << "canary at " << i;
      }
      EXPECT_GE(pooled.computes, serial.computes);
      if (tile_side == 32) {
        EXPECT_GE(pooled.computes,
                  expected_min_pooled_tiles(g.node(g.num_nodes() - 1),
                                            threads));
      }
      EXPECT_EQ(pooled.globals, 0);
    }
  }
}

Graph graph_2d(i64 batch, i64 h, i64 w) {
  Graph g;
  g.add_input("x", Shape{batch, 3, h, w});
  return g;
}

Graph graph_3d(i64 d, i64 h, i64 w) {
  Graph g;
  g.add_input("x", Shape{1, 2, d, h, w});
  return g;
}

const std::vector<std::pair<i64, i64>> kExtents2d = {
    {1, 1}, {7, 7}, {13, 13}, {13, 1}, {1, 13}, {7, 13}, {40, 9}};

TEST(EnginePool, Conv3x3Rank3MatchesSerial) {
  for (auto [h, w] : kExtents2d) {
    Graph g = graph_2d(1, h, w);
    g.add_conv(0, "conv3x3", Dims{3, 3}, 5, Dims{1, 1}, Dims{1, 1});
    check_pooled_matches_serial(g);
  }
}

TEST(EnginePool, StridedConvRank3MatchesSerial) {
  for (auto [h, w] : kExtents2d) {
    Graph g = graph_2d(2, h, w);
    g.add_conv(0, "conv_s2", Dims{3, 3}, 4, Dims{2, 2}, Dims{1, 1});
    check_pooled_matches_serial(g);
  }
}

TEST(EnginePool, PoolingRank3MatchesSerial) {
  for (auto [h, w] : kExtents2d) {
    Graph max_g = graph_2d(1, h, w);
    max_g.add_pool(0, "maxpool", PoolKind::kMax, Dims{3, 3}, Dims{2, 2},
                   Dims{1, 1});
    check_pooled_matches_serial(max_g);
    Graph avg_g = graph_2d(1, h, w);
    avg_g.add_pool(0, "avgpool", PoolKind::kAvg, Dims{3, 3}, Dims{1, 1},
                   Dims{1, 1});
    check_pooled_matches_serial(avg_g);
  }
}

TEST(EnginePool, Rank4MatchesSerial) {
  for (auto [d, h, w] : std::vector<std::tuple<i64, i64, i64>>{
           {1, 1, 1}, {7, 13, 1}, {13, 7, 7}, {1, 13, 13}}) {
    Graph conv_g = graph_3d(d, h, w);
    conv_g.add_conv(0, "conv3d", Dims{3, 3, 3}, 3, Dims{1, 1, 1},
                    Dims{1, 1, 1});
    check_pooled_matches_serial(conv_g);
    Graph strided_g = graph_3d(d, h, w);
    strided_g.add_conv(0, "conv3d_s2", Dims{3, 3, 3}, 3, Dims{2, 2, 2},
                       Dims{1, 1, 1});
    check_pooled_matches_serial(strided_g);
    Graph pool_g = graph_3d(d, h, w);
    pool_g.add_pool(0, "maxpool3d", PoolKind::kMax, Dims{3, 3, 3},
                    Dims{2, 2, 2}, Dims{1, 1, 1});
    check_pooled_matches_serial(pool_g);
  }
}

TEST(EnginePool, GlobalOpsStayOneCall) {
  Graph gap_g = graph_2d(2, 13, 7);
  gap_g.add_global_avg_pool(0, "gap");
  Graph dense_g = graph_2d(2, 13, 7);
  dense_g.add_dense(dense_g.add_global_avg_pool(0, "gap"), "fc", 6);
  for (const Graph* g : {&gap_g, &dense_g}) {
    WeightStore ws(3);
    Tensor input(g->node(0).out_shape);
    Rng rng(5);
    input.fill_random(rng);
    const std::vector<Tensor> eager = run_graph_eager(*g, input, ws);
    WorkerTeam pool(kWorkers);
    const TiledRun pooled = run_tiled(*g, eager, ws, 32, &pool);
    EXPECT_EQ(pooled.globals, 1);
    EXPECT_EQ(pooled.computes, 0);
    EXPECT_TRUE(same_bits(pooled.output, eager.back()));
  }
}

TEST(EnginePool, RejectsPoolLargerThanBackend) {
  Graph g = graph_2d(1, 7, 7);
  g.add_relu(0, "relu");
  WeightStore ws(1);
  NumericBackend backend(g, ws, 2);
  const TensorId in = backend.register_tensor(g.node(0).out_shape,
                                              Layout::kCanonical, {}, "in");
  const TensorId out = backend.register_tensor(g.node(1).out_shape,
                                               Layout::kCanonical, {}, "out");
  WorkerTeam pool(kWorkers);
  PlannedSubgraph planned;
  planned.sg.nodes = {1};
  planned.sg.external_inputs = {0};
  planned.strategy = Strategy::kVendor;
  const Status s = run_planned_subgraph_checked(
      g, planned, backend, {{0, in}}, out, EngineOptions{}, nullptr, &pool);
  EXPECT_EQ(s.code(), StatusCode::kInvalidOptions) << s.to_string();
}

TEST(EnginePool, FaultInPooledTileIsKernelFailure) {
  const Graph g = build_conv_chain_2d(2, 1, 20, 3);
  WeightStore ws(9);
  Tensor input(g.node(0).out_shape);
  Rng rng(11);
  input.fill_random(rng);
  const std::vector<Tensor> eager = run_graph_eager(g, input, ws);

  PlannedSubgraph planned;
  for (const Node& n : g.nodes()) {
    if (n.kind == OpKind::kInput) {
      planned.sg.external_inputs.push_back(n.id);
    } else {
      planned.sg.nodes.push_back(n.id);
    }
  }
  planned.strategy = Strategy::kVendor;
  EngineOptions options;
  options.memo_parallel = true;
  options.memo_workers = kWorkers;

  auto run = [&](NumericBackend& backend) {
    const TensorId in = backend.register_tensor(g.node(0).out_shape,
                                                Layout::kCanonical, {}, "in");
    backend.bind(in, input);
    const TensorId out = backend.register_tensor(
        g.node(planned.sg.terminal()).out_shape, Layout::kCanonical, {}, "out");
    const Status s = run_planned_subgraph_checked(g, planned, backend,
                                                  {{0, in}}, out, options);
    return std::make_pair(s, out);
  };

  {
    ScopedFaultInjection scoped(/*seed=*/3);
    FaultSpec spec;
    spec.skip = 5;  // let a few tiles of the first layer through
    scoped.injector().arm(spec);
    NumericBackend backend(g, ws, kWorkers);
    const Status s = run(backend).first;
    EXPECT_EQ(s.code(), StatusCode::kKernelFailure) << s.to_string();
    EXPECT_EQ(scoped.injector().fires(FaultKind::kKernelFailure), 1);
  }
  // The same call without faults completes and matches the oracle.
  NumericBackend backend(g, ws, kWorkers);
  const auto [s, out] = run(backend);
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_TRUE(same_bits(backend.read(out), eager.back()));
}

}  // namespace
}  // namespace brickdl
