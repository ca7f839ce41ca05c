// Ablation: memoized-bricks conflict behaviour vs. concurrency.
//
// The three-state CAS protocol (§3.2.2) only produces conflicting atomics
// when concurrently executing workers race on shared halo dependencies. This
// ablation sweeps the number of modeled concurrent workers on a merged
// convolution chain and reports compulsory vs. conflicting atomics and the
// defers — the contention curve behind the paper's "atomics (conflict)" bars.
#include "bench_common.hpp"

#include "core/memoized_executor.hpp"

namespace brickdl::bench {
namespace {

int run() {
  std::printf("== Ablation: memoized-brick contention vs. worker count ==\n\n");

  const Graph graph = build_conv_chain_2d(4, 1, 96, 32);
  Subgraph sg;
  for (const Node& node : graph.nodes()) {
    if (node.kind == OpKind::kInput) {
      sg.external_inputs.push_back(node.id);
    } else {
      sg.nodes.push_back(node.id);
    }
  }
  sg.merged = true;

  TextTable table({"workers", "bricks", "compulsory", "conflicts", "defers",
                   "conflicts/brick", "atomic time (ms)"});
  const CostModel cost(MachineParams::a100());

  for (int workers : {1, 2, 4, 8, 16, 32, 64, 128}) {
    MemoryHierarchySim sim(MachineParams::a100());
    ModelBackend backend(graph, sim);
    std::unordered_map<int, TensorId> io;
    io[sg.external_inputs[0]] = backend.register_tensor(
        graph.node(sg.external_inputs[0]).out_shape, Layout::kCanonical, {},
        "in");
    io[sg.terminal()] = backend.register_tensor(
        graph.node(sg.terminal()).out_shape, Layout::kBricked, Dims{1, 8, 8},
        "out");
    MemoizedExecutor exec(graph, sg, Dims{1, 8, 8}, backend, io, workers);
    exec.run_checked().throw_if_error();
    const auto& stats = exec.stats();
    table.add_row(
        {std::to_string(workers), std::to_string(stats.bricks_computed),
         std::to_string(stats.compulsory_atomics),
         std::to_string(stats.conflict_atomics), std::to_string(stats.defers),
         TextTable::num(static_cast<double>(stats.conflict_atomics) /
                            static_cast<double>(stats.bricks_computed),
                        3),
         ms(cost.atomic_time(stats.compulsory_atomics +
                             stats.conflict_atomics))});
  }
  std::printf(
      "Four-layer 96x96x32 conv chain, 8x8 bricks, virtual scheduler:\n%s\n",
      table.render().c_str());
  std::printf(
      "Compulsory atomics stay at exactly 2 per computed brick; conflicts\n"
      "grow with concurrency as neighboring workers race on shared halo\n"
      "dependencies (the paper's Fig. 8/10/11 'Atomics (conflict)' bars).\n");
  return 0;
}

}  // namespace
}  // namespace brickdl::bench

int main() { return brickdl::bench::run(); }
