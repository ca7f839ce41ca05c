#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <sstream>

#include "core/halo_plan.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace brickdl {
namespace {

/// Strategies to try for a subgraph planned as `planned`, most aggressive
/// first. Each step trades performance for a smaller trust surface: padded
/// bricks need no inter-worker protocol, vendor needs no merging at all.
std::vector<Strategy> fallback_chain(Strategy planned, bool graceful) {
  if (!graceful) return {planned};
  switch (planned) {
    case Strategy::kMemoized:
      return {Strategy::kMemoized, Strategy::kPadded, Strategy::kVendor};
    case Strategy::kPadded:
      return {Strategy::kPadded, Strategy::kVendor};
    case Strategy::kVendor:
      return {Strategy::kVendor};
  }
  return {planned};
}

/// Build the team one run (or one standalone subgraph call) executes on:
/// min(memo_workers, backend workers) members with `memo_parallel` (the
/// calling thread plus helpers), null without it. The only place the engine
/// creates threads; kInternal if it cannot.
Status make_run_team(const EngineOptions& options, Backend& backend,
                     std::unique_ptr<WorkerTeam>* team) {
  team->reset();
  if (!options.memo_parallel) return Status();
  const int members = std::min(options.memo_workers, backend.num_workers());
  try {
    *team = std::make_unique<WorkerTeam>(members);
  } catch (const std::exception& e) {
    team->reset();
    return Status(StatusCode::kInternal,
                  std::string("cannot start the worker team: ") + e.what());
  }
  return Status();
}

/// For each subgraph, the boundary tensors (graph inputs and subgraph
/// terminals) it is the last consumer of, in partition order. The graph
/// output has no consumer and is never listed.
std::vector<std::vector<int>> boundary_releases(const Graph& graph,
                                                const Partition& partition) {
  std::vector<int> last(static_cast<size_t>(graph.num_nodes()), -1);
  const auto& subs = partition.subgraphs;
  for (size_t k = 0; k < subs.size(); ++k) {
    for (int p : subs[k].sg.external_inputs) {
      last[static_cast<size_t>(p)] = static_cast<int>(k);
    }
  }
  std::vector<std::vector<int>> releases(subs.size());
  for (int node = 0; node < graph.num_nodes(); ++node) {
    const int k = last[static_cast<size_t>(node)];
    if (k >= 0) releases[static_cast<size_t>(k)].push_back(node);
  }
  return releases;
}

/// Run `body`, classifying what it throws: a StatusError keeps its Status; a
/// tripped BDL_CHECK means the plan and graph disagree (e.g. an executor
/// rejected the subgraph's structure); anything else is a kernel fault.
template <typename Body>
Status classify_exceptions(Body&& body) {
  try {
    return body();
  } catch (const StatusError& e) {
    return e.status();
  } catch (const Error& e) {
    return Status(StatusCode::kInvalidGraph, e.what());
  } catch (const std::exception& e) {
    return Status(StatusCode::kKernelFailure, e.what());
  }
}

/// Run `stages` — one memoized subgraph, or a pipelined chain of them
/// (DESIGN.md §14) — on `team`, or on the virtual scheduler without one.
/// `io` maps every stage terminal and every out-of-chain producer.
Status run_memoized(const Graph& graph,
                    std::vector<MemoizedExecutor::StageSpec> stages,
                    Backend& backend,
                    const std::unordered_map<int, TensorId>& io,
                    const EngineOptions& options, WorkerTeam* team,
                    MemoizedExecutor::Stats* stats_out) {
  const int workers =
      team ? team->size()
           : std::min(options.memo_workers, backend.num_workers());
  MemoizedExecutor exec(graph, std::move(stages), backend, io, workers,
                        options.memo_watchdog);
  const Status status =
      team ? exec.run_parallel_checked(*team) : exec.run_checked();
  if (stats_out) *stats_out = exec.stats();
  return status;
}

/// kKernelFailure naming the first NaN/Inf in tensor `id`, the output of
/// node `name` (EngineOptions::verify_finite).
Status check_finite(NumericBackend& numeric, TensorId id,
                    const std::string& name) {
  const Tensor t = numeric.read(id);
  for (i64 i = 0; i < t.elements(); ++i) {
    if (!std::isfinite(t.flat(i))) {
      return Status(StatusCode::kKernelFailure,
                    "non-finite value in output of '" + name +
                        "' (flat index " + std::to_string(i) + ")");
    }
  }
  return Status();
}

}  // namespace

Status validate_engine_options(const EngineOptions& options) {
  if (options.memo_workers < 1) {
    return Status(StatusCode::kInvalidOptions,
                  "memo_workers must be >= 1, got " +
                      std::to_string(options.memo_workers));
  }
  if (options.vendor_tile_side <= 0) {
    return Status(StatusCode::kInvalidOptions,
                  "vendor_tile_side must be positive, got " +
                      std::to_string(options.vendor_tile_side));
  }
  const i64 side = options.force_brick_side;
  if (side != 0 && side != 4 && side != 8 && side != 16 && side != 32) {
    return Status(StatusCode::kInvalidOptions,
                  "force_brick_side must be one of {0, 4, 8, 16, 32}, got " +
                      std::to_string(side));
  }
  if (options.memo_watchdog.poll_limit < 1) {
    return Status(StatusCode::kInvalidOptions,
                  "memo_watchdog.poll_limit must be >= 1");
  }
  if (options.memo_watchdog.timeout_ms < 0) {
    return Status(StatusCode::kInvalidOptions,
                  "memo_watchdog.timeout_ms must be >= 0");
  }
  return Status();
}

Engine::Engine(const Graph& graph, EngineOptions options)
    : graph_(graph), options_(std::move(options)) {
  preflight_ = validate_engine_options(options_);
  if (!preflight_.ok()) return;  // validate()/run_checked() report it

  partition_ = partition_graph(graph, options_.partition);
  // Apply bench overrides by re-planning merged subgraphs.
  if (options_.force_brick_side > 0 || options_.force_strategy) {
    for (auto& planned : partition_.subgraphs) {
      if (planned.strategy == Strategy::kVendor) continue;
      if (options_.force_brick_side > 0) {
        planned = plan_subgraph(graph, planned.sg, options_.partition,
                                options_.force_brick_side);
      }
      if (options_.force_strategy &&
          planned.strategy != Strategy::kVendor) {
        planned.strategy = *options_.force_strategy;
      }
    }
  }
  release_after_ = boundary_releases(graph_, partition_);
}

Status Engine::validate() const {
  BDL_RETURN_IF_ERROR(preflight_);

  // Graph soundness. Node ids are appended in topological order, so a
  // backward-only input check rules out both cycles and dangling references.
  if (graph_.num_nodes() == 0) {
    return Status(StatusCode::kInvalidGraph, "graph has no nodes");
  }
  for (const Node& node : graph_.nodes()) {
    for (int p : node.inputs) {
      if (p < 0 || p >= node.id) {
        return Status(StatusCode::kInvalidGraph,
                      "node '" + node.name + "' (id " +
                          std::to_string(node.id) +
                          ") references input node " + std::to_string(p) +
                          " outside topological order");
      }
    }
    if (node.kind != OpKind::kInput && node.inputs.empty()) {
      return Status(StatusCode::kInvalidGraph,
                    "non-input node '" + node.name + "' has no inputs");
    }
  }
  const auto outputs = graph_.outputs();
  if (outputs.size() != 1) {
    return Status(StatusCode::kInvalidGraph,
                  "engine expects a single graph output, got " +
                      std::to_string(outputs.size()));
  }

  // Shape-inference agreement: every node's recorded shape must match what
  // inference derives from its inputs (catches hand-built or deserialized
  // graphs whose shapes were tampered with).
  for (const Node& node : graph_.nodes()) {
    if (node.kind == OpKind::kInput) continue;
    try {
      Dims weight_dims;
      const Shape inferred = infer_shape(node.kind, graph_.input_shapes(node),
                                         node.attrs, &weight_dims);
      if (!(inferred.dims == node.out_shape.dims)) {
        return Status(StatusCode::kShapeMismatch,
                      "node '" + node.name + "' records shape " +
                          node.out_shape.dims.str() +
                          " but inference derives " +
                          inferred.dims.str());
      }
    } catch (const std::exception& e) {
      return Status(StatusCode::kShapeMismatch,
                    "shape inference failed for node '" + node.name +
                        "': " + e.what());
    }
  }

  // Partition io-completeness: executing subgraphs in order, every external
  // input must already have a producer (a graph input or an earlier
  // terminal), and every out-of-subgraph producer must be declared external.
  std::vector<bool> produced(static_cast<size_t>(graph_.num_nodes()), false);
  for (const Node& node : graph_.nodes()) {
    if (node.kind == OpKind::kInput) produced[static_cast<size_t>(node.id)] = true;
  }
  for (const PlannedSubgraph& planned : partition_.subgraphs) {
    const Subgraph& sg = planned.sg;
    for (int ext : sg.external_inputs) {
      if (!produced[static_cast<size_t>(ext)]) {
        return Status(StatusCode::kBadIoMap,
                      "subgraph terminating at '" +
                          graph_.node(sg.terminal()).name +
                          "' consumes node " + std::to_string(ext) + " ('" +
                          graph_.node(ext).name +
                          "') before any subgraph produces it");
      }
    }
    for (int nid : sg.nodes) {
      for (int p : graph_.node(nid).inputs) {
        if (sg.contains(p)) continue;
        if (std::find(sg.external_inputs.begin(), sg.external_inputs.end(),
                      p) == sg.external_inputs.end()) {
          return Status(StatusCode::kBadIoMap,
                        "subgraph terminating at '" +
                            graph_.node(sg.terminal()).name +
                            "' consumes node " + std::to_string(p) + " ('" +
                            graph_.node(p).name +
                            "') without declaring it an external input");
        }
      }
    }
    produced[static_cast<size_t>(sg.terminal())] = true;
  }

  // Footprint vs budget — skipped when a bench override deliberately forces
  // plans past the model (brick-side sweeps chart the over-budget region).
  if (options_.force_brick_side == 0 && !options_.force_strategy) {
    for (const PlannedSubgraph& planned : partition_.subgraphs) {
      if (planned.strategy == Strategy::kVendor) continue;
      if (planned.footprint_bytes > options_.partition.l2_budget) {
        return Status(StatusCode::kBudgetExceeded,
                      "subgraph terminating at '" +
                          graph_.node(planned.sg.terminal()).name +
                          "' plans a footprint of " +
                          std::to_string(planned.footprint_bytes) +
                          " bytes against an L2 budget of " +
                          std::to_string(options_.partition.l2_budget));
      }
    }
  }
  return Status();
}

Status run_planned_subgraph_checked(
    const Graph& graph, const PlannedSubgraph& planned, Backend& backend,
    const std::unordered_map<int, TensorId>& io, TensorId out,
    const EngineOptions& options, MemoizedExecutor::Stats* stats_out,
    WorkerTeam* team) {
  if (stats_out) *stats_out = {};
  BDL_RETURN_IF_ERROR(validate_engine_options(options));
  const Subgraph& sg = planned.sg;
  if (out < 0) {
    return Status(StatusCode::kBadIoMap, "invalid terminal output tensor id");
  }
  if (team && team->size() > backend.num_workers()) {
    return Status(StatusCode::kInvalidOptions,
                  "worker team of " + std::to_string(team->size()) +
                      " members exceeds the backend's " +
                      std::to_string(backend.num_workers()));
  }
  // The io map must cover every producer outside the subgraph; a silent miss
  // here used to surface as an unordered_map::at throw deep in an executor.
  for (int ext : sg.external_inputs) {
    if (!io.count(ext)) {
      return Status(StatusCode::kBadIoMap,
                    "io map missing external input node " +
                        std::to_string(ext) + " ('" + graph.node(ext).name +
                        "')");
    }
  }
  for (int nid : sg.nodes) {
    for (int p : graph.node(nid).inputs) {
      if (!sg.contains(p) && !io.count(p)) {
        return Status(StatusCode::kBadIoMap,
                      "io map missing producer node " + std::to_string(p) +
                          " ('" + graph.node(p).name + "') consumed by '" +
                          graph.node(nid).name + "'");
      }
    }
  }

  std::unordered_map<int, TensorId> full_io = io;
  full_io[sg.terminal()] = out;
  std::vector<TensorId> vendor_interior;

  // A standalone call with memo_parallel builds the team a run would have
  // passed; it serves every strategy of this call.
  std::unique_ptr<WorkerTeam> owned_team;
  if (!team) {
    BDL_RETURN_IF_ERROR(make_run_team(options, backend, &owned_team));
    team = owned_team.get();
  }

  const Status status = classify_exceptions([&]() -> Status {
    switch (planned.strategy) {
      case Strategy::kPadded: {
        const HaloPlan plan(graph, sg, planned.brick_extent);
        PaddedExecutor exec(graph, sg, plan, backend, full_io);
        return exec.run_checked(team);
      }
      case Strategy::kMemoized:
        return run_memoized(graph, {{&sg, planned.brick_extent}}, backend,
                            full_io, options, team, stats_out);
      case Strategy::kVendor: {
        // Per-layer tiled vendor calls; interiors materialize canonically
        // and are released after their last in-subgraph consumer.
        std::unordered_map<int, TensorId> local = full_io;
        std::unordered_map<int, int> readers_left;
        for (int nid : sg.nodes) {
          for (int p : graph.node(nid).inputs) {
            if (sg.contains(p)) ++readers_left[p];
          }
        }
        for (int nid : sg.nodes) {
          const Node& node = graph.node(nid);
          TensorId dst;
          if (nid == sg.terminal()) {
            dst = out;
          } else {
            dst = backend.register_tensor(node.out_shape, Layout::kCanonical,
                                          {}, "vendor:" + node.name);
            local[nid] = dst;
            vendor_interior.push_back(dst);
          }
          {
            obs::TraceSpan layer_span("layer", node.name, {{"node", nid}});
            run_node_tiled(graph, node, backend, local, dst,
                           options.vendor_tile_side, team);
          }
          for (int p : node.inputs) {
            if (sg.contains(p) && --readers_left[p] == 0) {
              backend.release_tensor(local.at(p));
            }
          }
        }
        return Status();
      }
    }
    return Status();
  });
  if (!status.ok()) {
    for (TensorId id : vendor_interior) backend.discard_tensor(id);
  }
  return status;
}

Status Engine::run_segment(Backend& backend, WorkerTeam* team, size_t begin,
                           size_t end,
                           std::unordered_map<int, TensorId>& boundary,
                           EngineResult& result) {
  auto* numeric = dynamic_cast<NumericBackend*>(&backend);
  auto* model = dynamic_cast<ModelBackend*>(&backend);
  const auto& subs = partition_.subgraphs;
  const PlannedSubgraph& lead = subs[begin];
  const Node& lead_terminal = graph_.node(lead.sg.terminal());
  const size_t n = end - begin;
  const bool chained = n > 1;
  obs::TraceSpan segment_span(
      "engine",
      chained ? "chain:" + lead_terminal.name + ".." +
                    graph_.node(subs[end - 1].sg.terminal()).name
              : "subgraph:" + lead_terminal.name,
      {{"subgraph", static_cast<i64>(begin)}, {"members", static_cast<i64>(n)},
       {"brick_side", lead.brick_side}});

  // Segment io: every out-of-segment producer, and each member's terminal,
  // bound to the attempt's output below. A member consuming an earlier
  // member's terminal reads it inside the chained executor.
  std::unordered_map<int, TensorId> io;
  std::vector<MemoizedExecutor::StageSpec> stages;
  for (size_t k = begin; k < end; ++k) {
    for (int p : subs[k].sg.external_inputs) {
      if (!io.count(p)) io.emplace(p, boundary.at(p));
    }
    io[subs[k].sg.terminal()] = -1;
    stages.push_back({&subs[k].sg, subs[k].brick_extent});
  }

  const TxnCounters txns_before =
      model ? model->sim().counters() : TxnCounters{};
  const ComputeTally tally_before = model ? model->tally() : ComputeTally{};

  // One member walks its degradation ladder. A chain has a single rung: the
  // caller re-runs a failed chain's first member alone, down its own ladder.
  const std::vector<Strategy> ladder =
      chained ? std::vector<Strategy>{Strategy::kMemoized}
              : fallback_chain(lead.strategy, options_.graceful_fallback);
  const bool verify = numeric && options_.verify_finite;
  std::vector<StrategyAttempt> attempts;
  std::vector<TensorId> outs(n);
  MemoizedExecutor::Stats stats;
  Status status;
  for (Strategy strategy : ladder) {
    const bool merged = strategy != Strategy::kVendor;
    const bool retry = !attempts.empty();
    for (size_t k = begin; k < end; ++k) {
      const Node& terminal = graph_.node(subs[k].sg.terminal());
      outs[k - begin] = io[terminal.id] = backend.register_tensor(
          terminal.out_shape, merged ? Layout::kBricked : Layout::kCanonical,
          merged ? subs[k].brick_extent : Dims{},
          "out:" + terminal.name + (retry ? ":retry" : ""));
    }
    obs::TraceSpan attempt_span(
        "engine", std::string("attempt:") + strategy_name(strategy),
        {{"subgraph", static_cast<i64>(begin)}, {"retry", retry ? 1 : 0}});
    const auto t0 = std::chrono::steady_clock::now();
    if (chained) {
      status = classify_exceptions([&] {
        return run_memoized(graph_, stages, backend, io, options_, team,
                            &stats);
      });
    } else {
      PlannedSubgraph attempt = lead;
      attempt.strategy = strategy;
      status = run_planned_subgraph_checked(graph_, attempt, backend, io,
                                            outs[0], options_, &stats, team);
    }
    const double seconds = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    for (size_t k = 0; k < n && status.ok() && verify; ++k) {
      status = check_finite(*numeric, outs[k],
                            graph_.node(subs[begin + k].sg.terminal()).name);
    }
    attempts.push_back({strategy, status, seconds});
    if (status.ok()) break;
    // A failed attempt's outputs are garbage.
    for (TensorId id : outs) backend.discard_tensor(id);
  }

  if (!status.ok()) {
    if (chained) return status;
    // Every rung of the ladder failed: emit a replay line so the failure
    // can be reproduced outside the engine, then fail the run with the
    // final (most conservative) strategy's classification.
    std::ostringstream oss;
    oss << "brickdl: unrecoverable failure in graph '" << graph_.name()
        << "', subgraph terminating at '" << lead_terminal.name << "':";
    for (const StrategyAttempt& a : attempts) {
      oss << " [" << strategy_name(a.strategy) << ": " << a.status.to_string()
          << "]";
    }
    oss << "\nbrickdl: replay: run_planned_subgraph_checked on '"
        << lead_terminal.name << "' with force_brick_side="
        << lead.brick_side << " memo_workers=" << options_.memo_workers
        << " memo_parallel=" << (options_.memo_parallel ? 1 : 0)
        << " (cf. brickdl_fuzz --seed/--graph-idx for fuzzer-found graphs)";
    std::cerr << oss.str() << std::endl;
    obs::metrics().counter("engine.failures").add(1);
    return Status(status.code(),
                  "subgraph terminating at '" + lead_terminal.name +
                      "' failed after " + std::to_string(attempts.size()) +
                      " strategies; last: " + status.to_string());
  }

  const StrategyAttempt done = attempts.back();  // attempts moves below
  auto& m = obs::metrics();
  m.counter("engine.subgraphs").add(static_cast<i64>(n));
  if (attempts.size() > 1) m.counter("engine.fallbacks").add(1);
  m.histogram("engine.subgraph_us")
      .observe(static_cast<i64>(done.wall_seconds * 1e6));
  if (chained) {
    m.counter("engine.pipeline.chains").add(1);
    m.counter("engine.pipeline.chain_subgraphs").add(static_cast<i64>(n));
    m.counter("engine.pipeline.cross_claims")
        .add(stats.cross_boundary_claims);
    m.histogram("engine.pipeline.idle_tail_us")
        .observe(static_cast<i64>(stats.idle_tail_seconds * 1e6));
  }
  for (size_t k = begin; k < end; ++k) {
    SubgraphReport report;
    report.plan = subs[k];
    report.executed = done.strategy;
    report.pipelined = chained;
    report.chain_len = chained ? static_cast<int>(n) : 0;
    if (options_.profile) {
      // Calibrated constants (when set) price the prediction, so it reflects
      // the model the plan was optimized under.
      report.predicted = obs::predict_subgraph(
          graph_, subs[k], effective_machine(options_.partition));
    }
    if (k == begin) {
      // The lead member carries the segment's wall time, memo stats and
      // model deltas; the other members stay zero, so totals still sum.
      report.attempts = std::move(attempts);
      report.wall_seconds = done.wall_seconds;
      report.memo = stats;
      if (model) {
        // Profiling (never chained) flushes the simulator so the subgraph's
        // buffered writebacks land in its own delta: the compulsory-writeback
        // semantics the predictor assumes.
        if (options_.profile) model->sim().flush();
        report.txns = model->sim().counters() - txns_before;
        report.tally = model->tally() - tally_before;
      }
    } else {
      report.attempts.push_back({done.strategy, Status(), 0.0});
    }
    boundary[subs[k].sg.terminal()] = outs[k - begin];
    result.reports.push_back(std::move(report));
  }
  return Status();
}

Result<EngineResult> Engine::run_checked(Backend& backend,
                                         const Tensor* input) {
  BDL_RETURN_IF_ERROR(validate());

  obs::TraceSpan run_span("engine", "run:" + graph_.name());
  obs::metrics().counter("engine.runs").add(1);
  EngineResult result;
  auto* numeric = dynamic_cast<NumericBackend*>(&backend);
  auto* model = dynamic_cast<ModelBackend*>(&backend);

  // The run's peak is measured from here (engine.peak_live_bytes).
  if (numeric) numeric->reset_peak_live_bytes();

  std::unordered_map<int, TensorId> boundary;
  // Release the boundary tensors subgraph k was the last consumer of. Only
  // after it succeeded: a degradation-ladder retry or a failed chain's
  // re-run re-reads the same inputs.
  const auto release_consumed = [&](size_t k) {
    for (int node : release_after_[k]) {
      backend.release_tensor(boundary.at(node));
      boundary.erase(node);
    }
  };
  for (const Node& node : graph_.nodes()) {
    if (node.kind != OpKind::kInput) continue;
    const TensorId id = backend.register_tensor(node.out_shape,
                                                Layout::kCanonical, {},
                                                "input:" + node.name);
    boundary.emplace(node.id, id);
    if (numeric && input) {
      if (!(node.out_shape.dims == input->dims())) {
        return Status(StatusCode::kShapeMismatch,
                      "bound input has dims " + input->dims().str() +
                          " but input node '" + node.name + "' expects " +
                          node.out_shape.dims.str());
      }
      numeric->bind(id, *input);
    }
  }

  // One team per run, shared by every strategy of every subgraph. It is not
  // held by the Engine: Server may run one Engine from several threads at
  // once, and each running thread is member 0 of its own run's team.
  std::unique_ptr<WorkerTeam> team;
  BDL_RETURN_IF_ERROR(make_run_team(options_, backend, &team));

  // Pipelined chains need the per-subgraph barrier gone; profile mode needs
  // it kept (it flushes the simulator at subgraph granularity for byte
  // attribution), so profiling implies the barriered schedule.
  const bool pipelining = options_.pipeline_subgraphs && !options_.profile;
  const auto& subs = partition_.subgraphs;
  size_t index = 0;
  while (index < subs.size()) {
    // A segment is one subgraph or, pipelining, a maximal run of memoized
    // subgraphs sharing a blocked rank.
    size_t end = index + 1;
    if (pipelining && subs[index].strategy == Strategy::kMemoized) {
      while (end < subs.size() && subs[end].strategy == Strategy::kMemoized &&
             subs[end].brick_extent.rank() == subs[index].brick_extent.rank()) {
        ++end;
      }
    }
    Status status =
        run_segment(backend, team.get(), index, end, boundary, result);
    if (!status.ok() && end > index + 1) {
      // A failed chain left nothing behind: its first member runs alone,
      // down its own degradation ladder, and the next re-forms a segment.
      obs::metrics().counter("engine.pipeline.chain_fallbacks").add(1);
      end = index + 1;
      status = run_segment(backend, team.get(), index, end, boundary, result);
    }
    BDL_RETURN_IF_ERROR(status);
    for (; index < end; ++index) release_consumed(index);
  }

  if (model) {
    model->sim().flush();  // charge buffered output writebacks to the run
    result.total_txns = model->sim().counters();
    result.total_tally = model->tally();
  }
  if (numeric) {
    obs::metrics()
        .histogram("engine.peak_live_bytes")
        .observe(numeric->peak_live_bytes());
  }

  const auto outputs = graph_.outputs();
  BDL_CHECK_MSG(outputs.size() == 1, "engine expects a single graph output");
  result.output = boundary.at(outputs[0]);
  return result;
}

Result<Tensor> stack_batch(const std::vector<const Tensor*>& parts) {
  if (parts.empty()) {
    return Status(StatusCode::kShapeMismatch, "stack_batch: no parts");
  }
  const Dims& first = parts[0]->dims();
  if (first.rank() < 1) {
    return Status(StatusCode::kShapeMismatch, "stack_batch: rank-0 part");
  }
  i64 total_rows = 0;
  for (size_t i = 0; i < parts.size(); ++i) {
    const Dims& d = parts[i]->dims();
    bool compatible = d.rank() == first.rank() && d[0] >= 1;
    for (int k = 1; compatible && k < first.rank(); ++k) {
      compatible = d[k] == first[k];
    }
    if (!compatible) {
      return Status(StatusCode::kShapeMismatch,
                    "stack_batch: part " + std::to_string(i) + " has dims " +
                        d.str() + ", incompatible with part 0 dims " +
                        first.str() + " (all non-batch dims must match)");
    }
    total_rows += d[0];
  }

  Dims stacked_dims = first;
  stacked_dims[0] = total_rows;
  Tensor stacked(stacked_dims);
  i64 offset = 0;
  for (const Tensor* part : parts) {
    std::copy(part->data(), part->data() + part->elements(),
              stacked.data() + offset);
    offset += part->elements();
  }
  return stacked;
}

Tensor slice_batch(const Tensor& t, i64 row, i64 rows) {
  const Dims& d = t.dims();
  BDL_CHECK_MSG(d.rank() >= 1 && row >= 0 && rows >= 1 && row + rows <= d[0],
                "slice_batch: rows [" << row << ", " << row + rows
                                      << ") out of range for dims " << d.str());
  Dims out_dims = d;
  out_dims[0] = rows;
  Tensor out(out_dims);
  const i64 row_stride = d[0] > 0 ? t.elements() / d[0] : 0;
  std::copy(t.data() + row * row_stride,
            t.data() + (row + rows) * row_stride, out.data());
  return out;
}

Result<std::vector<Tensor>> Engine::run_batched_checked(
    NumericBackend& backend, const std::vector<const Tensor*>& parts,
    EngineResult* engine_result, const RunContext* ctx) {
  const Node* input_node = nullptr;
  for (const Node& node : graph_.nodes()) {
    if (node.kind != OpKind::kInput) continue;
    if (input_node) {
      return Status(StatusCode::kInvalidGraph,
                    "run_batched_checked: graph '" + graph_.name() +
                        "' has multiple input nodes");
    }
    input_node = &node;
  }
  if (!input_node) {
    return Status(StatusCode::kInvalidGraph,
                  "run_batched_checked: graph '" + graph_.name() +
                      "' has no input node");
  }

  Result<Tensor> stacked = stack_batch(parts);
  BDL_RETURN_IF_ERROR(stacked.status());
  const Dims& stacked_dims = stacked.value().dims();
  if (!(stacked_dims == input_node->out_shape.dims)) {
    return Status(StatusCode::kShapeMismatch,
                  "run_batched_checked: stacked parts have dims " +
                      stacked_dims.str() + " but input node '" +
                      input_node->name + "' expects " +
                      input_node->out_shape.dims.str());
  }

  Result<EngineResult> run = [&] {
    // The batch span anchors the per-request flow steps: Perfetto binds a
    // 't' event to the slice open on its thread, so the flows must be
    // emitted while this span is live and before the nested run span closes.
    obs::TraceSpan batch_span(
        "serve", "batch",
        {{"batch", ctx ? static_cast<i64>(ctx->batch_id) : 0},
         {"parts", static_cast<i64>(parts.size())}},
        ctx != nullptr);
    if (ctx && ctx->request_ids) {
      for (const u64 id : *ctx->request_ids) {
        obs::Tracer::flow("serve", "req", id, 't');
      }
    }
    return run_checked(backend, &stacked.value());
  }();
  BDL_RETURN_IF_ERROR(run.status());

  const Tensor output = backend.read(run.value().output);
  if (output.dims().rank() < 1 || output.dims()[0] != stacked_dims[0]) {
    return Status(StatusCode::kShapeMismatch,
                  "run_batched_checked: output dims " + output.dims().str() +
                      " do not carry the stacked batch of " +
                      std::to_string(stacked_dims[0]) +
                      " rows; cannot slice per request");
  }

  obs::TraceSpan slice_span(
      "serve", "slice", {{"parts", static_cast<i64>(parts.size())}});
  std::vector<Tensor> outputs;
  outputs.reserve(parts.size());
  i64 row = 0;
  for (const Tensor* part : parts) {
    const i64 rows = part->dims()[0];
    outputs.push_back(slice_batch(output, row, rows));
    row += rows;
  }
  if (engine_result) *engine_result = std::move(run.value());
  return outputs;
}

}  // namespace brickdl
