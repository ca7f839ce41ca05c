// The BrickDL engine: partition → plan → execute.
//
// Ties together the partitioner (§3.3.1), the strategy and brick-size models
// (§3.3.2–3), the merged executors (§3.2), and the vendor fallback for tiny
// layers (§3.3.3). Runs against either backend: numerically for correctness,
// against the simulator for the paper's performance methodology.
//
// Execution: `run_checked()` walks the partition as *segments* — one
// subgraph, or (with `pipeline_subgraphs`) a maximal run of memoized
// subgraphs of one blocked rank — and runs every segment through one runner
// (DESIGN.md §7.3, §14) that binds io, registers outputs, scans them for
// NaN/Inf, discards them on failure, and fills reports and counter deltas.
//
// Resilience (DESIGN.md §7): `validate()` runs a pre-flight pass over the
// graph, options, and partition. A one-subgraph segment walks a
// graceful-degradation ladder (memoized → padded → vendor), so a contained
// failure in an aggressive merged strategy degrades performance instead of
// killing the run; a failed chain re-runs its first member alone, down that
// member's ladder, and re-forms a segment from the next. Every attempt and
// its classifying Status is recorded in the subgraph's report.
#pragma once

#include <optional>

#include "baselines/vendor_tiled.hpp"
#include "core/memoized_executor.hpp"
#include "core/padded_executor.hpp"
#include "core/partitioner.hpp"
#include "obs/profile.hpp"
#include "util/status.hpp"

namespace brickdl {

struct EngineOptions {
  PartitionOptions partition;
  /// Force one strategy for every merged subgraph (benches compare P vs M).
  std::optional<Strategy> force_strategy;
  i64 force_brick_side = 0;  ///< 0 = model-chosen
  int memo_workers = 16;     ///< virtual workers for the memoized scheduler
  /// Run memoized, padded and vendor work on real threads, one team per run
  /// (DESIGN.md §9.6): the host production mode, used by perfbench. Off:
  /// the deterministic virtual scheduler and serial brick/tile sweeps.
  bool memo_parallel = false;
  i64 vendor_tile_side = 32;
  /// Stall-watchdog tuning for memoized subgraphs (DESIGN.md §7).
  MemoizedExecutor::WatchdogOptions memo_watchdog;
  /// On a NumericBackend, scan every subgraph output for NaN/Inf and treat
  /// corruption as a kKernelFailure (triggering the fallback chain).
  bool verify_finite = false;
  /// Retry a failed subgraph with progressively safer strategies
  /// (memoized → padded → vendor). Off: the first failure is final.
  bool graceful_fallback = true;
  /// Cross-subgraph dataflow pipelining (DESIGN.md §14): runs of consecutive
  /// memoized subgraphs execute as one chained MemoizedExecutor, so a
  /// downstream subgraph's bricks start as soon as their producer bricks
  /// publish — no inter-subgraph barrier. Bit-identical outputs; only
  /// idle/steal stats may differ. Non-memoized subgraphs and fallback-chain
  /// retries remain barrier points. Escape hatch: set false to restore the
  /// strict barriered schedule (also implied by `profile`, whose per-subgraph
  /// counter attribution needs the barrier).
  bool pipeline_subgraphs = true;

  // ---- observability (DESIGN.md §8) ----
  /// Run the §4 cost model alongside execution: fill every report's
  /// `predicted`, and (on a ModelBackend) flush the simulator after each
  /// subgraph so buffered writebacks attribute to the subgraph that produced
  /// them instead of the end-of-run flush.
  bool profile = false;
};

/// kInvalidOptions unless every knob is in range (memo_workers ≥ 1,
/// vendor_tile_side > 0, force_brick_side ∈ {0, 4, 8, 16, 32}, watchdog sane).
Status validate_engine_options(const EngineOptions& options);

/// One executed (or attempted) strategy for a subgraph.
struct StrategyAttempt {
  Strategy strategy = Strategy::kVendor;
  Status status;  ///< ok() for the attempt that ran to completion
  double wall_seconds = 0.0;  ///< host wall-clock time of this attempt
};

struct SubgraphReport {
  PlannedSubgraph plan;
  TxnCounters txns;    ///< model backend only (zeros numerically)
  ComputeTally tally;  ///< model backend only
  MemoizedExecutor::Stats memo;
  Strategy executed = Strategy::kVendor;  ///< strategy that actually ran
  std::vector<StrategyAttempt> attempts;  ///< degradation chain, in order
  /// Cost-model prediction for the planned strategy (EngineOptions::profile;
  /// `predicted.modeled` is false otherwise). Compare against txns/tally.
  obs::SubgraphPrediction predicted;
  double wall_seconds = 0.0;  ///< wall-clock time of the successful attempt
  /// True when this subgraph ran inside a pipelined chain (DESIGN.md §14):
  /// `chain_len` members shared one executor, `wall_seconds` is the chain
  /// total (recorded on the first member, zero on the rest), and `memo`
  /// aggregates the whole chain's protocol stats on the first member.
  bool pipelined = false;
  int chain_len = 0;
};

struct EngineResult {
  std::vector<SubgraphReport> reports;
  TensorId output = -1;  ///< tensor of the graph's (single) output node
  TxnCounters total_txns;
  ComputeTally total_tally;
};

/// Serving context threaded into a batched run for request-scoped tracing
/// (DESIGN.md §13). When present, run_batched_checked opens a "batch" span
/// around the engine run and steps each request's flow ('t' phase, keyed by
/// request id) inside it, so the Perfetto arrows connect a request's submit
/// span to the engine run that served it across threads.
struct RunContext {
  u64 batch_id = 0;  ///< scheduler's flush sequence number
  /// Ids of the requests whose rows make up `parts`, in part order.
  /// May be null (no flow events are emitted then).
  const std::vector<u64>* request_ids = nullptr;
};

class Engine {
 public:
  explicit Engine(const Graph& graph, EngineOptions options = {});

  const Partition& partition() const { return partition_; }

  /// Pre-flight pass, run before any kernel: options in range, graph
  /// topologically sound with a single output (kInvalidGraph), node shapes
  /// agreeing with shape inference (kShapeMismatch), partition io-complete
  /// (kBadIoMap), and — unless a bench override forces plans past the model —
  /// every merged footprint within the L2 budget (kBudgetExceeded).
  Status validate() const;

  /// Execute the whole graph. With a NumericBackend, `input` (if given) is
  /// bound to the graph's single kInput node and `result.output` can be
  /// read back. With a ModelBackend, per-subgraph counter deltas and cost
  /// tallies are collected into the reports. Failures are classified, never
  /// fatal: a subgraph whose strategy faults is retried down the degradation
  /// chain, and only an unrecoverable subgraph fails the run (after printing
  /// a replay line to stderr). Every other activation is released after its
  /// last consumer (DESIGN.md §9.7); `result.output` stays registered until
  /// the caller releases it.
  Result<EngineResult> run_checked(Backend& backend,
                                   const Tensor* input = nullptr);

  /// Batched-run entry point for the serving front-end (src/serve/): stack
  /// `parts` along the batch dimension, bind the stacked tensor to the
  /// graph's input node, run, and slice the output back into one tensor per
  /// part. The graph's input batch must equal the summed rows of `parts`
  /// (the serving layer rebatches the graph first; see rebatch_graph), and
  /// every part must agree with the input node on all non-batch dims —
  /// kShapeMismatch names the offending part otherwise. Per-row results are
  /// bit-identical to a solo run of the same rows: every kernel treats batch
  /// as an independent blocked dimension (DESIGN.md §10).
  ///
  /// `engine_result` (optional) receives the underlying EngineResult on
  /// success — the serving layer's circuit breaker (DESIGN.md §12) inspects
  /// the per-subgraph `attempts` chains to learn whether the planned
  /// strategy degraded, without re-running anything.
  ///
  /// `ctx` (optional) carries the serving request context: the batch span it
  /// opens is the anchor the per-request trace flows bind to.
  Result<std::vector<Tensor>> run_batched_checked(
      NumericBackend& backend, const std::vector<const Tensor*>& parts,
      EngineResult* engine_result = nullptr, const RunContext* ctx = nullptr);

 private:
  /// Execute the segment partition_.subgraphs[begin, end): one subgraph
  /// down its degradation ladder, or a pipelined chain of memoized ones
  /// (DESIGN.md §14) in one attempt. On success appends one report per
  /// member (the first carries the segment's time, memo stats and model
  /// deltas) and publishes every terminal into `boundary`. On failure
  /// nothing is appended or published; a failed single subgraph has printed
  /// its replay line. `team` is the run's team (null without memo_parallel).
  Status run_segment(Backend& backend, WorkerTeam* team, size_t begin,
                     size_t end, std::unordered_map<int, TensorId>& boundary,
                     EngineResult& result);

  const Graph& graph_;
  EngineOptions options_;
  Partition partition_;
  /// Per subgraph: the boundary nodes whose tensors are released once it
  /// succeeds (DESIGN.md §9.7).
  std::vector<std::vector<int>> release_after_;
  Status preflight_;  ///< options validation, captured at construction
};

/// Execute one planned subgraph on `backend` with explicit io tensors.
/// Exposed for the microbenchmark harnesses that force partitions.
/// The io map must cover every producer outside the subgraph (kBadIoMap
/// names the offending node otherwise). On success `*stats_out` (if given)
/// holds the memoized protocol counters (zeros for other strategies).
/// With `team` (at most `backend.num_workers()` members), every strategy
/// that has a threaded path runs on it; without one, `options.memo_parallel`
/// builds a team for this call, and otherwise everything runs serially.
Status run_planned_subgraph_checked(
    const Graph& graph, const PlannedSubgraph& planned, Backend& backend,
    const std::unordered_map<int, TensorId>& io, TensorId out,
    const EngineOptions& options,
    MemoizedExecutor::Stats* stats_out = nullptr, WorkerTeam* team = nullptr);

// ---- per-request batching hooks (serving front-end, DESIGN.md §10) ----

/// Concatenate canonical activation tensors along the batch dimension
/// (dim 0). Every part must agree on rank and all non-batch dims;
/// kShapeMismatch names the offending part otherwise.
Result<Tensor> stack_batch(const std::vector<const Tensor*>& parts);

/// Copy batch rows [row, row+rows) of a canonical tensor into a standalone
/// tensor (batch is outermost in row-major layout, so this is one contiguous
/// span). Bounds are BDL_CHECKed — callers slice by construction.
Tensor slice_batch(const Tensor& t, i64 row, i64 rows);

}  // namespace brickdl
