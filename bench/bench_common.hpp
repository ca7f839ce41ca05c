// Shared helpers for the figure-reproduction benchmark harnesses.
//
// Terminology: every harness runs executors against the ModelBackend (the
// A100 memory-hierarchy simulator) and converts the transaction counters and
// compute tallies into the paper's modeled time via CostModel. Two total-time
// compositions appear in the paper:
//   * overlapped (§4.4, Figures 8/10/11): total = max(memory, compute) with
//     Idle/Other residuals — used for the per-subgraph microbench figures;
//   * end-to-end (Figure 7): a whole model alternates memory- and compute-
//     dominated phases which do not overlap across layer boundaries, so the
//     end-to-end harness composes total = T_dram + T_compute_side.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "baselines/fused_graph.hpp"
#include "core/engine.hpp"
#include "graph/rewrite.hpp"
#include "models/models.hpp"
#include "obs/metrics.hpp"
#include "sim/cost.hpp"
#include "util/table.hpp"

namespace brickdl::bench {

struct RunResult {
  Breakdown breakdown;
  TxnCounters txns;
  ComputeTally tally;
  double rho = 0.0;  ///< minimum brick parallelism across merged subgraphs

  double overlapped_total() const { return breakdown.total(); }
  double serial_total() const {
    return breakdown.dram + breakdown.compute_side();
  }
};

/// Run one of the framework baselines (cuDNN / TorchScript / XLA) end to end.
inline RunResult run_baseline(const Graph& graph, FusionRules rules,
                              i64 tile_side = 32) {
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(graph, sim);
  FusedGraphExecutor exec(graph, backend, rules, tile_side);
  exec.run();
  sim.flush();
  RunResult r;
  r.txns = sim.counters();
  r.tally = backend.tally();
  r.breakdown = CostModel(sim.params()).breakdown(r.txns, r.tally);
  return r;
}

/// Run BrickDL (the engine) end to end.
inline RunResult run_brickdl(const Graph& graph, EngineOptions options = {},
                             std::vector<SubgraphReport>* reports = nullptr) {
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(graph, sim);
  Engine engine(graph, std::move(options));
  EngineResult result = engine.run_checked(backend).take();
  if (reports) *reports = std::move(result.reports);
  RunResult r;
  r.txns = sim.counters();
  r.tally = backend.tally();
  r.breakdown = CostModel(sim.params()).breakdown(r.txns, r.tally);
  return r;
}

/// Run one planned subgraph in isolation (fresh simulator), with io tensors
/// registered cold, flushing buffered writes at the end.
inline RunResult run_subgraph(const Graph& graph, const PlannedSubgraph& plan,
                              const EngineOptions& options) {
  MemoryHierarchySim sim(MachineParams::a100());
  ModelBackend backend(graph, sim);
  std::unordered_map<int, TensorId> io;
  for (int ext : plan.sg.external_inputs) {
    io[ext] = backend.register_tensor(graph.node(ext).out_shape,
                                      Layout::kCanonical, {}, "ext");
  }
  const Node& terminal = graph.node(plan.sg.terminal());
  const bool merged = plan.strategy != Strategy::kVendor;
  const TensorId out = backend.register_tensor(
      terminal.out_shape, merged ? Layout::kBricked : Layout::kCanonical,
      merged ? plan.brick_extent : Dims{}, "out");
  run_planned_subgraph_checked(graph, plan, backend, io, out, options)
      .throw_if_error();
  sim.flush();
  RunResult r;
  r.txns = sim.counters();
  r.tally = backend.tally();
  r.breakdown = CostModel(sim.params()).breakdown(r.txns, r.tally);
  return r;
}

/// Re-plan a subgraph with a forced strategy (and optionally brick side).
inline PlannedSubgraph force_strategy(const Graph& graph,
                                      const PlannedSubgraph& base,
                                      Strategy strategy,
                                      const PartitionOptions& options,
                                      i64 brick_side = 0) {
  PlannedSubgraph plan =
      plan_subgraph(graph, base.sg, options,
                    brick_side > 0 ? brick_side : base.brick_side);
  plan.strategy = strategy;
  return plan;
}

/// The C / P / M comparison for one subgraph: vendor-tiled baseline, padded
/// bricks, and memoized bricks, each on a fresh simulator.
struct SubgraphComparison {
  RunResult vendor;
  RunResult padded;
  RunResult memoized;
};

inline SubgraphComparison compare_subgraph(const Graph& graph,
                                           const PlannedSubgraph& plan,
                                           const EngineOptions& options) {
  SubgraphComparison cmp;
  PlannedSubgraph vendor = plan;
  vendor.strategy = Strategy::kVendor;
  cmp.vendor = run_subgraph(graph, vendor, options);
  cmp.padded = run_subgraph(
      graph, force_strategy(graph, plan, Strategy::kPadded, options.partition),
      options);
  cmp.memoized = run_subgraph(
      graph,
      force_strategy(graph, plan, Strategy::kMemoized, options.partition),
      options);
  return cmp;
}

/// Run a chain graph under a forced partitioning: `groups` lists consecutive
/// node-id groups (covering all non-input nodes in topological order), each
/// executed as one merged subgraph with the given strategy and brick side.
/// Boundary tensors chain between subgraphs exactly as in the engine.
inline RunResult run_forced_chain(const Graph& graph,
                                  const std::vector<std::vector<int>>& groups,
                                  Strategy strategy, i64 brick_side,
                                  const EngineOptions& options) {
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
    PlannedSubgraph plan =
        plan_subgraph(graph, sg, options.partition, brick_side);
    plan.strategy = strategy;
    min_rho = min_rho == 0.0 ? plan.rho : std::min(min_rho, plan.rho);

    std::unordered_map<int, TensorId> io;
    for (int ext : sg.external_inputs) io[ext] = boundary.at(ext);
    const Node& terminal = graph.node(sg.terminal());
    const TensorId out = backend.register_tensor(
        terminal.out_shape, Layout::kBricked, plan.brick_extent, "out");
    boundary[terminal.id] = out;
    run_planned_subgraph_checked(graph, plan, backend, io, out, options)
        .throw_if_error();
  }
  sim.flush();

  RunResult r;
  r.txns = sim.counters();
  r.tally = backend.tally();
  r.rho = min_rho;
  r.breakdown = CostModel(sim.params()).breakdown(r.txns, r.tally, min_rho);
  return r;
}

/// Non-input node ids of a pure chain graph, in order.
inline std::vector<int> chain_nodes(const Graph& graph) {
  std::vector<int> nodes;
  for (const Node& node : graph.nodes()) {
    if (node.kind != OpKind::kInput) nodes.push_back(node.id);
  }
  return nodes;
}

inline std::string ms(double seconds) { return TextTable::num(seconds * 1e3); }

inline std::string rel(double value, double baseline) {
  return TextTable::num(baseline > 0 ? value / baseline : 0.0);
}

/// The paper's side-by-side Memory|Computation stacked bars for one config.
inline void add_breakdown_bars(std::vector<Bar>* bars, const std::string& label,
                               const Breakdown& b, double scale) {
  bars->push_back(b.memory_bar(label + " [M]", scale));
  bars->push_back(b.compute_bar(label + " [C]", scale));
}

/// Structured observability output (DESIGN.md §8): when the environment
/// variable BRICKDL_BENCH_REPORT names a file, write a JSON document with the
/// bench name and a snapshot of the global metrics registry there ("-" =
/// stdout). Harnesses call this once at the end of main(), so a CI sweep can
/// collect machine-readable counters (engine.*, memo.*, padded.*, ...)
/// without parsing the human-facing tables.
inline void emit_bench_report(const std::string& bench_name) {
  const char* path = std::getenv("BRICKDL_BENCH_REPORT");
  if (!path || !*path) return;
  obs::Json doc = obs::Json::object();
  doc.set("schema", "brickdl-bench-metrics-v1");
  doc.set("bench", bench_name);
  doc.set("metrics", obs::metrics().to_json());
  const std::string text = doc.dump(1) + "\n";
  if (std::string(path) == "-") {
    std::fwrite(text.data(), 1, text.size(), stdout);
    return;
  }
  std::FILE* f = std::fopen(path, "wb");
  if (!f) {
    std::fprintf(stderr, "bench: cannot write BRICKDL_BENCH_REPORT file %s\n",
                 path);
    return;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

}  // namespace brickdl::bench
