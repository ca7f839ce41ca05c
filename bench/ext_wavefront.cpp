// Extension (paper §6): wavefront-parallel merged execution with skewed
// cuts across layers, compared against the paper's two strategies on the
// Figure-10 six-layer 3D proxy chain.
//
// Wavefront execution computes exact bricks (no padded redundancy) without
// per-brick atomics (no memoized CAS) at the price of one device-wide
// barrier per wave and a diagonal pipeline fill.
#include "bench_common.hpp"

#include "core/wavefront_executor.hpp"

namespace brickdl::bench {
namespace {

RunResult run_wavefront(const Graph& graph,
                        const std::vector<std::vector<int>>& groups,
                        i64 brick_side, const EngineOptions& options) {
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(graph, sim);
  double min_rho = 0.0;

  std::unordered_map<int, TensorId> boundary;
  for (const Node& node : graph.nodes()) {
    if (node.kind == OpKind::kInput) {
      boundary[node.id] = backend.register_tensor(
          node.out_shape, Layout::kCanonical, {}, "in:" + node.name);
    }
  }
  for (const auto& group : groups) {
    Subgraph sg;
    sg.nodes = group;
    for (int nid : group) {
      for (int p : graph.node(nid).inputs) {
        if (!sg.contains(p)) sg.external_inputs.push_back(p);
      }
    }
    sg.merged = true;
    const PlannedSubgraph plan =
        plan_subgraph(graph, sg, options.partition, brick_side);
    min_rho = min_rho == 0.0 ? plan.rho : std::min(min_rho, plan.rho);

    std::unordered_map<int, TensorId> io;
    for (int ext : sg.external_inputs) io[ext] = boundary.at(ext);
    const Node& terminal = graph.node(sg.terminal());
    const TensorId out = backend.register_tensor(
        terminal.out_shape, Layout::kBricked, plan.brick_extent, "out");
    boundary[terminal.id] = out;
    io[terminal.id] = out;
    WavefrontExecutor exec(graph, sg, plan.brick_extent, backend, io);
    exec.run_checked().throw_if_error();
  }
  sim.flush();
  RunResult r;
  r.txns = sim.counters();
  r.tally = backend.tally();
  r.rho = min_rho;
  r.breakdown = CostModel(sim.params()).breakdown(r.txns, r.tally, min_rho);
  return r;
}

int run() {
  std::printf("== Extension: wavefront merged execution (paper SS6) ==\n\n");

  const Graph graph = build_conv_chain_3d(6, 1, 56, 32);
  const std::vector<int> nodes = chain_nodes(graph);
  EngineOptions options;

  TextTable table({"configuration", "total (ms)", "DRAM (ms)", "compute (ms)",
                   "atomics (ms)", "other (ms)", "rel cuDNN"});
  const RunResult cudnn = run_baseline(graph, FusionRules::kNone, 16);
  table.add_row({"cuDNN per-layer", ms(cudnn.overlapped_total()),
                 ms(cudnn.breakdown.dram), ms(cudnn.breakdown.compute), "-",
                 "-", "1.000"});
  std::printf("cuDNN: done\n");
  std::fflush(stdout);

  const std::vector<std::vector<int>> groups = {
      {nodes[0], nodes[1], nodes[2]}, {nodes[3], nodes[4], nodes[5]}};

  for (Strategy strategy : {Strategy::kPadded, Strategy::kMemoized}) {
    const RunResult r = run_forced_chain(graph, groups, strategy, 8, options);
    table.add_row({std::string("3+3 ") + strategy_name(strategy),
                   ms(r.overlapped_total()), ms(r.breakdown.dram),
                   ms(r.breakdown.compute),
                   ms(r.breakdown.atomics_compulsory +
                      r.breakdown.atomics_conflict),
                   ms(r.breakdown.other),
                   rel(r.overlapped_total(), cudnn.overlapped_total())});
    std::printf("3+3 %s: done\n", strategy_name(strategy));
    std::fflush(stdout);
  }

  const RunResult wave = run_wavefront(graph, groups, 8, options);
  table.add_row({"3+3 wavefront", ms(wave.overlapped_total()),
                 ms(wave.breakdown.dram), ms(wave.breakdown.compute), "0.000",
                 ms(wave.breakdown.other),
                 rel(wave.overlapped_total(), cudnn.overlapped_total())});
  std::printf("3+3 wavefront: done (%lld waves)\n\n",
              static_cast<long long>(wave.tally.syncs));

  std::printf("Six-layer 3D chain (56^3 x 32ch), 8^3 bricks, two 3-layer "
              "subgraphs:\n%s\n",
              table.render().c_str());
  std::printf(
      "Wavefront trades the memoized strategy's per-brick atomics for one\n"
      "device-wide barrier per skewed wave, with no padded recompute.\n");
  return 0;
}

}  // namespace
}  // namespace brickdl::bench

int main() { return brickdl::bench::run(); }
