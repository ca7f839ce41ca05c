// Memoized-bricks merged execution (§3.2.2, Fig. 2d, Fig. 5).
//
// Every node of the subgraph is materialized as a bricked memo buffer. Each
// (node, brick) carries a three-state tag — 0 NotStarted, 1 InProgress,
// 2 Complete — manipulated with CAS. A worker producing a terminal brick
// backtracks through its dependence chain: unclaimed dependent bricks are
// claimed and computed recursively (depth-first, in a modified execution
// order); bricks already in progress on another worker are polled, each poll
// costing a conflicting atomic, until they complete. Two compulsory atomics
// (acquire + release/publish) are charged per brick, as the paper specifies.
//
// Cross-subgraph pipelining (DESIGN.md §14): the executor can run a *chain*
// of consecutive memoized subgraphs (stages) through one shared tag table.
// Each stage's terminal bricks become roots of the shared frontier, and a
// downstream stage's entry bricks depend on the upstream stage's terminal
// bricks through the exact same tag protocol — a consumer claims or polls a
// producer brick across the subgraph boundary the moment it needs it, so no
// worker idles at a global inter-subgraph barrier waiting for the last
// straggler brick. Stage terminals publish into the same engine-registered
// out tensors the barriered path uses, so results are bit-identical to
// running the stages one-by-one. The single-subgraph constructor is the
// one-stage special case.
//
// Two drivers share the protocol code and the real std::atomic state:
//  * run_checked()          — deterministic round-robin virtual scheduler:
//                              one protocol step per worker per tick. This
//                              models many concurrently-resident blocks on
//                              one thread, so conflict counts are
//                              reproducible; used by the model benches.
//  * run_parallel_checked() — one OS thread per worker (the engine's host
//                              mode, EngineOptions::memo_parallel): the
//                              protocol must be linearizable, and the tests
//                              hammer it.
//
// Resilience (DESIGN.md §7): the paper's protocol assumes every worker
// eventually publishes. This implementation does not — a stall watchdog
// bounds every poll loop. A tag stuck InProgress past the watchdog budget is
// presumed abandoned (dead worker), repaired to NotStarted with CAS, and
// recomputed by the detecting worker. Because a tag guards its brick's whole
// dependence subtree, a *live* but slow worker can outlast the budget too, so
// repair must be safe against it: each tag carries a reclaim epoch (bumped by
// every repair), and a worker publishes by first CAS-electing its own
// claim-epoch tag into a transient Publishing state, storing the memo bytes
// only if it won, then releasing the tag to Complete. A worker whose claim
// was reclaimed from under it loses the election, never touches the memo
// buffer (no racing stores), and discards its accounting into
// `lost_publishes` instead of corrupting the exactly-once bookkeeping.
// Workers whose own root range is done steal leftover root bricks, so a
// parked worker's range still completes. The same epoch/watchdog semantics
// cover cross-stage tags: an abandoned boundary brick is reclaimed and
// recomputed by whichever stage's worker trips over it. Kernel faults abort
// the run with a classified Status.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/backend.hpp"
#include "core/subgraph.hpp"
#include "util/status.hpp"
#include "util/worker_team.hpp"

namespace brickdl {

/// Stall-watchdog tuning. A dependence (or leftover root brick) stuck
/// InProgress is reclaimed after `poll_limit` consecutive failed polls —
/// and, on real threads, only once `timeout_ms` has also elapsed, so a
/// merely slow worker is not mistaken for a dead one. The deadline is the
/// standard watchdog contract: it must exceed the worst-case kernel time.
struct MemoWatchdogOptions {
  i64 poll_limit = i64{1} << 17;
  i64 timeout_ms = 5000;
};

class MemoizedExecutor {
 public:
  struct Stats {
    i64 compulsory_atomics = 0;
    i64 conflict_atomics = 0;
    i64 defers = 0;
    i64 bricks_computed = 0;
    // Resilience counters (all zero on a fault-free run):
    i64 reclaims = 0;         ///< watchdog tag repairs (InProgress→NotStarted)
    i64 stolen_bricks = 0;    ///< root bricks adopted from another range
    i64 stalled_workers = 0;  ///< workers parked by fault injection
    i64 lost_publishes = 0;   ///< computes whose publish never landed
    // Pipelining counters (DESIGN.md §14):
    i64 cross_boundary_claims = 0;  ///< dep claims across a stage boundary
    /// Straggler wait: worker-seconds spent finished while the last worker
    /// still ran (parallel driver; 0 under the virtual scheduler).
    double idle_tail_seconds = 0.0;
    /// Same tail as a fraction of total worker time. The virtual driver
    /// measures it in deterministic ticks, the parallel driver in wall time.
    double idle_tail_fraction = 0.0;
  };

  using WatchdogOptions = MemoWatchdogOptions;

  /// One stage of a pipelined chain: a memoized subgraph and its brick
  /// extent. `sg` must outlive the executor. All stages must share the
  /// blocked rank (§3.3.4 fixes the extent within a subgraph; the chain
  /// additionally needs compatible boundary geometry).
  struct StageSpec {
    const Subgraph* sg = nullptr;
    Dims brick_extent;
  };

  /// `io` maps external-input node ids and the terminal node id to backend
  /// tensors. `brick_extent` is over blocked dims and is shared by every
  /// layer of the subgraph (§3.3.4: constant within a subgraph).
  MemoizedExecutor(const Graph& graph, const Subgraph& sg,
                   const Dims& brick_extent, Backend& backend,
                   const std::unordered_map<int, TensorId>& io,
                   int num_workers,
                   WatchdogOptions watchdog = WatchdogOptions());

  /// Chained (pipelined) form: execute `stages` — consecutive memoized
  /// subgraphs in partition order — through one shared tag table. `io` must
  /// map every stage terminal to its out tensor and every input that is
  /// external to the *whole chain*; an earlier stage's terminal consumed by
  /// a later stage is resolved internally (that is the pipelined boundary).
  MemoizedExecutor(const Graph& graph, std::vector<StageSpec> stages,
                   Backend& backend,
                   const std::unordered_map<int, TensorId>& io,
                   int num_workers,
                   WatchdogOptions watchdog = WatchdogOptions());

  /// Deterministic virtual-time execution (single caller thread).
  /// Returns kKernelFailure if a kernel faulted, kExecutorStall if workers
  /// stopped before every terminal brick completed.
  Status run_checked();
  /// Real-thread execution; the team must have exactly num_workers members.
  Status run_parallel_checked(WorkerTeam& team);

  const Stats& stats() const { return stats_; }
  /// Consistent-enough mid-run snapshot of the protocol counters: each
  /// worker's counters are relaxed atomics (single writer, the worker
  /// itself), so this sums a recent value of every field without racing the
  /// run. Counts are monotonic; a snapshot taken concurrently with the run
  /// may lag the true totals but never invents events. finish() uses the
  /// same aggregation once the workers are quiescent.
  Stats stats_snapshot() const;
  i64 total_bricks() const;
  int num_stages() const { return static_cast<int>(stages_.size()); }
  /// Bricks some stage-terminal brick transitively depends on (structural
  /// walk of the brick dependence graph; no execution state). A correct run
  /// computes each of these exactly once — `stats().bricks_computed` must
  /// equal this. total_bricks() minus this counts dead bricks (e.g. columns
  /// a strided conv never reads), which legitimately stay uncomputed.
  i64 reachable_bricks() const;

 private:
  struct Task {
    int node_index = -1;  ///< flattened chain node index
    i64 brick = -1;
    u32 token = 0;  ///< tag value we claimed ((epoch << 2) | kInProgress)
    std::vector<std::pair<int, i64>> deps;  ///< (node_index, brick) in-chain
    size_t dep_cursor = 0;                  ///< deps below this are Complete
    i64 polls = 0;  ///< consecutive failed polls of the current dependence
    std::chrono::steady_clock::time_point poll_start{};
  };

  /// Per-worker protocol counters. Each field has exactly one writer (its
  /// worker, via bump()) and is read concurrently by stats_snapshot(), so
  /// the fields are relaxed atomics — same cost as plain increments on x86,
  /// and the snapshot API stays TSan-clean.
  struct WorkerStats {
    std::atomic<i64> compulsory_atomics{0};
    std::atomic<i64> conflict_atomics{0};
    std::atomic<i64> defers{0};
    std::atomic<i64> bricks_computed{0};
    std::atomic<i64> reclaims{0};
    std::atomic<i64> stolen_bricks{0};
    std::atomic<i64> stalled_workers{0};
    std::atomic<i64> lost_publishes{0};
    std::atomic<i64> cross_boundary_claims{0};
  };
  static void bump(std::atomic<i64>& field) {
    field.fetch_add(1, std::memory_order_relaxed);
  }

  struct Worker {
    std::vector<Task> stack;
    i64 next_root = 0;  ///< next assigned root (stage-terminal) brick
    i64 end_root = 0;
    WorkerStats local;
    bool done = false;
    bool stalled = false;  ///< parked by fault injection (simulated death)
    i64 steal_polls = 0;
    std::chrono::steady_clock::time_point steal_start{};
    std::vector<SlotId> input_slots;  ///< reused across compute_brick calls
    // Tail accounting (single writer: the worker / the virtual driver).
    i64 last_progress_tick = 0;
    std::chrono::steady_clock::time_point finish_time{};
  };

  /// One stage of the chain after flattening.
  struct Stage {
    const Subgraph* sg = nullptr;
    Dims brick_extent;
    int node_begin = 0;  ///< flattened node range [node_begin, node_end)
    int node_end = 0;    ///< stage terminal = node_end - 1
    i64 root_offset = 0;  ///< first root index of this stage's terminal bricks
  };

  /// Tag encoding: low 2 bits = state, high bits = reclaim epoch. A watchdog
  /// repair bumps the epoch, so a stale owner's election CAS (which names its
  /// claim epoch) can never succeed against a repaired-and-reclaimed tag.
  enum : u32 {
    kNotStarted = 0,
    kInProgress = 1,
    kComplete = 2,
    kPublishing = 3,  ///< election won; memo store in flight
    kStateMask = 3,
  };
  static u32 tag_state(u32 v) { return v & kStateMask; }
  /// Repaired value for an abandoned tag: next epoch, NotStarted.
  static u32 tag_reclaimed(u32 v) { return ((v >> 2) + 1) << 2; }

  /// One protocol step; returns false when the worker has finished.
  /// `spin_wait` selects the behaviour on a busy dependence: virtual mode
  /// returns (the round-robin advances others), parallel mode yields.
  bool advance(int worker_index, bool spin_wait);
  /// Own root range exhausted: adopt leftover root bricks so a stalled
  /// worker's range still completes.
  bool steal_advance(Worker& w, bool spin_wait);
  /// True once a stuck InProgress tag should be presumed abandoned.
  bool watchdog_expired(i64 polls,
                        std::chrono::steady_clock::time_point since,
                        bool spin_wait) const;
  /// Compute the brick into a per-worker slot without touching the shared
  /// memo buffer; the caller stores it only after winning the publish
  /// election. `lo`/`extent` report the brick window for that store.
  Status compute_brick(int worker_index, const Task& task, SlotId* out_slot,
                       Dims* lo, Dims* extent);
  Task make_task(int node_index, i64 brick) const;
  std::atomic<u32>& state(int node_index, i64 brick);
  /// Map a root index to its stage-terminal node; `*brick` gets the brick.
  int root_node(i64 root, i64* brick) const;
  bool is_stage_terminal(int node_index) const;
  void set_failure(Status status);
  Status finish();

  const Graph& graph_;
  Backend& backend_;
  std::unordered_map<int, TensorId> io_;
  int num_workers_;
  WatchdogOptions watchdog_;

  std::vector<Stage> stages_;
  std::vector<int> node_ids_;    // flattened chain node -> graph node id
  std::vector<int> node_stage_;  // flattened chain node -> stage index
  i64 total_roots_ = 0;          // Σ stage-terminal bricks

  std::vector<BrickGrid> grids_;  // per flattened node
  std::vector<TensorId> memo_;    // per flattened node (stage terminal = io)
  // Per flattened node, per input: producer's flattened index (-1 if external
  // to the chain) and the tensor to gather from (memo buffer or external io).
  // Precomputed so the per-brick hot paths (make_task, compute_brick) never
  // search the node lists. An earlier stage's terminal resolves *internally*
  // here — that is the cross-subgraph dependence pipelining tracks.
  std::vector<std::vector<int>> input_node_index_;
  std::vector<std::vector<TensorId>> input_srcs_;
  bool trace_gate_ = true;  ///< Tracer::enabled(), sampled once per run
  std::vector<std::unique_ptr<std::atomic<u32>[]>> states_;  // per flat node
  std::vector<i64> grid_sizes_;
  // unique_ptr: Worker holds atomics and cannot be moved by vector growth.
  std::vector<std::unique_ptr<Worker>> workers_;
  Stats stats_;
  double idle_tail_seconds_ = 0.0;   // filled by the drivers
  double idle_tail_fraction_ = 0.0;

  std::mutex failure_mu_;
  Status failure_;                    // first kernel failure, under failure_mu_
  std::atomic<bool> failed_{false};   // fast abort flag for the other workers
};

}  // namespace brickdl
