// Merged execution of a ResNet bottleneck block, three ways: the naive
// reference, padded bricks, and memoized bricks — numerically identical by
// construction, with the modeled A100 data-movement comparison printed for
// the same schedules.
//
//   $ ./resnet_block_inference
#include <cstdio>

#include "core/engine.hpp"
#include "core/halo_plan.hpp"
#include "models/models.hpp"

using namespace brickdl;

namespace {

Subgraph block_subgraph(const Graph& graph) {
  Subgraph sg;
  for (const Node& node : graph.nodes()) {
    if (node.kind == OpKind::kInput) {
      sg.external_inputs.push_back(node.id);
    } else {
      sg.nodes.push_back(node.id);
    }
  }
  sg.merged = true;
  return sg;
}

}  // namespace

int main() {
  // One bottleneck residual block: 1x1 reduce, 3x3, 1x1 expand, add, relu.
  Graph graph("bottleneck");
  const int x = graph.add_input("x", Shape{1, 32, 28, 28});
  int y = graph.add_conv(x, "reduce", Dims{1, 1}, 8, Dims{1, 1}, Dims{0, 0},
                         {}, 1, true);
  y = graph.add_conv(y, "conv3x3", Dims{3, 3}, 8, Dims{1, 1}, Dims{1, 1}, {},
                     1, true);
  y = graph.add_conv(y, "expand", Dims{1, 1}, 32, Dims{1, 1}, Dims{0, 0});
  y = graph.add_add(y, x, "residual");
  graph.add_relu(y, "out");

  const Subgraph sg = block_subgraph(graph);
  const Dims brick{1, 4, 4};

  Tensor input(Shape{1, 32, 28, 28});
  Rng rng(11);
  input.fill_random(rng);
  WeightStore weights(3);
  const auto reference = run_graph_reference(graph, input, weights);
  const Tensor& expected = reference.back();

  // --- numeric runs ---
  auto run_numeric = [&](Strategy strategy) {
    NumericBackend backend(graph, weights, 8);
    std::unordered_map<int, TensorId> io;
    io[x] = backend.register_tensor(graph.node(x).out_shape,
                                    Layout::kCanonical, {}, "in");
    backend.bind(io[x], input);
    io[sg.terminal()] = backend.register_tensor(
        graph.node(sg.terminal()).out_shape, Layout::kBricked, brick, "out");
    if (strategy == Strategy::kPadded) {
      const HaloPlan plan(graph, sg, brick);
      PaddedExecutor exec(graph, sg, plan, backend, io);
      exec.run_checked().throw_if_error();
    } else {
      MemoizedExecutor exec(graph, sg, brick, backend, io, 8);
      exec.run_checked().throw_if_error();
    }
    return backend.read(io[sg.terminal()]);
  };

  const Tensor padded_out = run_numeric(Strategy::kPadded);
  const Tensor memoized_out = run_numeric(Strategy::kMemoized);
  std::printf("numeric check, padded bricks:   max|err| = %.2e\n",
              max_abs_diff(padded_out, expected));
  std::printf("numeric check, memoized bricks: max|err| = %.2e\n",
              max_abs_diff(memoized_out, expected));

  // --- modeled A100 data movement for the very same schedules ---
  auto run_model = [&](Strategy strategy) {
    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend backend(graph, sim);
    std::unordered_map<int, TensorId> io;
    io[x] = backend.register_tensor(graph.node(x).out_shape,
                                    Layout::kCanonical, {}, "in");
    io[sg.terminal()] = backend.register_tensor(
        graph.node(sg.terminal()).out_shape, Layout::kBricked, brick, "out");
    if (strategy == Strategy::kPadded) {
      const HaloPlan plan(graph, sg, brick);
      PaddedExecutor exec(graph, sg, plan, backend, io);
      exec.run_checked().throw_if_error();
    } else {
      MemoizedExecutor exec(graph, sg, brick, backend, io, 8);
      exec.run_checked().throw_if_error();
    }
    sim.flush();
    return sim.counters();
  };

  const TxnCounters padded_txns = run_model(Strategy::kPadded);
  const TxnCounters memoized_txns = run_model(Strategy::kMemoized);
  std::printf("\nmodeled A100 transactions (one block, batch 1):\n");
  std::printf("  padded:   L1 %8lld  L2 %8lld  DRAM %6lld  atomics %lld\n",
              static_cast<long long>(padded_txns.l1),
              static_cast<long long>(padded_txns.l2),
              static_cast<long long>(padded_txns.dram()),
              static_cast<long long>(padded_txns.atomics()));
  std::printf("  memoized: L1 %8lld  L2 %8lld  DRAM %6lld  atomics %lld\n",
              static_cast<long long>(memoized_txns.l1),
              static_cast<long long>(memoized_txns.l2),
              static_cast<long long>(memoized_txns.dram()),
              static_cast<long long>(memoized_txns.atomics()));

  const bool ok = allclose(padded_out, expected, 1e-4) &&
                  allclose(memoized_out, expected, 1e-4);
  std::printf("\n%s\n", ok ? "All merged schedules match the reference."
                           : "MISMATCH — this is a bug.");
  return ok ? 0 : 1;
}
