// Cross-request batching server (DESIGN.md §10) with overload resilience
// (DESIGN.md §12).
//
// Server::submit() is the thread-safe front door: it validates the request
// against the model's input contract at admission (shape compatibility,
// optional NaN/Inf scan) and enqueues it with a future for the result. A
// single scheduler thread (the batch scheduler) drains the RequestQueue:
// a flush fires when max_batch requests are pending or the oldest pending
// request has waited max_wait_us, the BatchPlanner coalesces the flushed
// requests into stacked engine runs (splitting oversized batches), and each
// run's output is sliced back per request. One request's failure never
// fails its batch-mates: a failed batched run is retried solo per member.
//
// Overload policy: admission is bounded (max_queue_depth; kOverloaded at
// submit() instead of unbounded queueing, shedding the queued request with
// the earliest deadline when the newcomer has more slack), every request may
// carry a deadline (expired or predicted-unmeetable requests are shed with
// kDeadlineExceeded before executing), a per-plan circuit breaker routes
// persistently failing plans straight to a degraded strategy tier, and
// shutdown(deadline) stops admission (kShuttingDown), drains what fits, and
// fails the rest with a named status instead of hanging.
//
// Observability (DESIGN.md §13): serve.* metrics (serve.depth gauge;
// enqueue/complete/reject/failure/shed counters; serve.shed.*,
// serve.deadline.*, serve.breaker.* policies; batch occupancy, stacked
// rows, coalesce- and run-latency histograms), typed serving events in the
// process event log (obs/events.hpp), "serve" trace spans for
// queue → flush → run → slice with per-request flow links (the request id
// is the Perfetto flow id), and flight-recorder dumps on breaker opens,
// degraded runs, and non-shed failures (obs/flight.hpp). Spans and flows
// are emitted by the scheduler thread and (with cross-batch pipelining) the
// runner threads executing engine runs — the tracer's rings are per-thread,
// so concurrent emission is safe. Flight dumps, which *read* every ring,
// only happen when no run is in flight: the scheduler defers them while
// runs execute and drains the backlog once the pipeline is empty. Submit
// threads still only touch the metrics registry and the lock-free event
// log.
//
// Cross-batch pipelining (DESIGN.md §14): with max_inflight_batches > 1 the
// scheduler dispatches each plan's engine run onto a runner pool and keeps
// coalescing, so request B's first subgraphs execute while request A's tail
// drains. Dispatch is gated on the in-flight count and on the summed
// in-flight plan footprints staying within the planner's budget. Runs are
// reaped in dispatch order on the scheduler thread, where all planner and
// breaker state stays single-threaded.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include "obs/flight.hpp"
#include "ops/dispatch.hpp"
#include "serve/batch_planner.hpp"
#include "util/thread_pool.hpp"

namespace brickdl::serve {

/// One admitted, not-yet-served request.
struct PendingRequest {
  u64 id = 0;
  Tensor input;
  i64 rows = 0;         ///< batch rows this request contributes
  u64 enqueue_ns = 0;   ///< steady-clock admission time
  u64 deadline_ns = 0;  ///< absolute steady-clock deadline (0 = none)
  std::promise<RequestResult> promise;
};

/// Thread-safe FIFO between submitters and the scheduler thread. pop_batch
/// implements the coalescing wait: it blocks until work exists, then keeps
/// collecting until `max_batch` requests are pending or the oldest has aged
/// past `max_wait_us` (shutdown flushes whatever is queued immediately).
/// The `serve.depth` gauge tracks the queue size exactly: it is updated
/// under the queue lock on every mutation (push, pop, evict, drain), so it
/// can never drift on early-exit paths.
class RequestQueue {
 public:
  /// Bounded admission. With `max_depth` > 0 and the queue full, either the
  /// incoming request is refused (kOverloaded, `request` left untouched) or
  /// — when the incoming deadline has more slack than the queued request
  /// with the earliest deadline — that queued request is moved to `*evicted`
  /// and the newcomer admitted (oldest-deadline-first shedding). A closed
  /// queue refuses with kShuttingDown.
  Status try_push(PendingRequest& request, i64 max_depth,
                  std::optional<PendingRequest>& evicted);
  /// Empty result means the queue is closed and drained.
  std::vector<PendingRequest> pop_batch(int max_batch, i64 max_wait_us);
  /// Remove and return everything still queued (drain-deadline shutdown).
  std::vector<PendingRequest> drain();
  /// Wake waiters; pop_batch drains the backlog, then returns empty.
  void close();
  i64 depth() const;

 private:
  void publish_depth_locked();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  bool closed_ = false;
};

class Server {
 public:
  /// `model` and `weights` must outlive the server. The model's input node
  /// defines the request contract: a request tensor must match its rank and
  /// every non-batch dim, and may carry any number of batch rows.
  Server(const Graph& model, WeightStore& weights, ServeOptions options = {});
  ~Server();  ///< shutdown(): drains the queue, then joins the scheduler

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Admit one request under the default deadline
  /// (ServeOptions::default_deadline_us). Always returns a future that will
  /// be fulfilled: admission failures (incompatible shape, non-finite
  /// input, queue at capacity, server shutting down) resolve immediately
  /// with a classifying Status.
  std::future<RequestResult> submit(Tensor input);
  /// Same, with an explicit deadline (`deadline_us` from now; 0 = none).
  std::future<RequestResult> submit(Tensor input, i64 deadline_us);

  /// Stop admitting (kShuttingDown), serve what is already queued, join the
  /// scheduler. With `drain_deadline_us` >= 0, batches still execute until
  /// the deadline; once it passes, in-flight batches finish but every
  /// request still queued fails with kShuttingDown instead of executing
  /// (-1 = drain everything, however long it takes). Idempotent.
  void shutdown(i64 drain_deadline_us = -1);

  i64 queue_depth() const { return queue_.depth(); }

 private:
  Status admit(const Tensor& input) const;
  bool past_drain_deadline() const;
  void scheduler_loop();
  void flush(std::vector<PendingRequest>& batch);
  /// Shed-then-run: sheds expired members, coalesces the survivors, sheds
  /// members whose plan's predicted latency cannot meet their deadline
  /// (re-coalescing the rest), and executes the remaining plans.
  void run_members(std::vector<PendingRequest>& batch,
                   const std::vector<size_t>& members);
  void run_plan(std::vector<PendingRequest>& batch,
                const std::vector<size_t>& live,
                const BatchPlanner::Plan& plan);

  /// One engine run executing on the runner pool. The scheduler owns the
  /// requests for the run's lifetime; `ready` is fulfilled by the runner
  /// after its last trace span closes, so a reaped run's thread is tracer-
  /// quiescent.
  struct InflightRun {
    BatchPlanner::Plan plan;
    BatchPlanner::Selected selected;
    std::vector<u64> request_ids;
    std::vector<PendingRequest> requests;  ///< in plan.members order
    i64 footprint = 0;
    u64 batch_id = 0;
    double run_seconds = 0.0;
    EngineResult engine_result;
    std::optional<Result<std::vector<Tensor>>> outputs;
    std::promise<void> done;
    std::future<void> ready;
  };
  /// Move the plan's members out of `batch` and hand the run to the runner
  /// pool, first reaping oldest runs until the in-flight count and summed
  /// footprints admit it.
  void dispatch_plan(std::vector<PendingRequest>& batch,
                     const std::vector<size_t>& live,
                     const BatchPlanner::Plan& plan,
                     const BatchPlanner::Selected& selected,
                     std::vector<u64> request_ids);
  /// Outcome recording + per-request finish (incl. solo fallback) for one
  /// completed run. Scheduler thread only.
  void finish_run(InflightRun& run);
  /// The engine run itself: backend construction, run_batched_checked,
  /// timing. Runs on a runner thread when pipelined, on the scheduler
  /// thread otherwise; touches only the run and thread-safe registries.
  void execute_run(InflightRun& run);
  void reap_oldest();  ///< blocking: wait for the oldest in-flight run
  void reap_ready();   ///< non-blocking: reap completed runs, oldest first
  void reap_all();
  /// Dump now if no run is in flight, else defer until the pipeline drains
  /// (the flight recorder reads every thread's tracer ring; runner threads
  /// must be quiescent). Scheduler thread only.
  void flight_dump(obs::FlightTrigger trigger, u64 request_id,
                   std::string detail);
  void drain_deferred_dumps();
  /// Feed the plan's breaker/EWMA with one executed run and turn the
  /// breaker's transition into events and flight-recorder dumps.
  /// `request_id` names the run's first member for the post-mortem.
  void record_outcome(const BatchPlanner::Plan& plan,
                      const BatchPlanner::Selected& selected, bool degraded,
                      double run_seconds, u64 request_id);
  void finish(PendingRequest& request, RequestResult result);
  /// Resolve `request` as shed (never executed) with `code`, bumping
  /// `serve.shed.<what>`.
  void shed(PendingRequest& request, StatusCode code, const char* what,
            std::string message);

  const Graph& model_;
  WeightStore& weights_;
  ServeOptions options_;
  Status preflight_;
  const Node* input_node_ = nullptr;
  BatchPlanner planner_;  ///< scheduler-thread only after construction
  RequestQueue queue_;
  u64 flush_seq_ = 0;  ///< scheduler-thread only: batch id for tracing/events
  std::atomic<u64> next_id_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<u64> drain_deadline_ns_{0};  ///< 0 = drain without deadline
  std::thread scheduler_;

  // ---- cross-batch pipelining (scheduler-thread only) ----
  std::unique_ptr<ThreadPool> runners_;  ///< non-null iff max_inflight > 1
  std::deque<std::unique_ptr<InflightRun>> inflight_;  ///< dispatch order
  i64 inflight_footprint_ = 0;  ///< summed footprints of in-flight plans
  struct DeferredDump {
    obs::FlightTrigger trigger;
    u64 request_id;
    std::string detail;
  };
  std::vector<DeferredDump> deferred_dumps_;
};

}  // namespace brickdl::serve
