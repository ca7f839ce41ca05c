#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "core/fault_hooks.hpp"
#include "obs/events.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace brickdl::serve {
namespace {

u64 now_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

/// Deadline ordering key: "no deadline" sorts as infinitely late.
u64 effective_deadline(u64 deadline_ns) {
  return deadline_ns == 0 ? std::numeric_limits<u64>::max() : deadline_ns;
}

}  // namespace

Status validate_serve_options(const ServeOptions& options) {
  if (options.max_batch < 1) {
    return Status(StatusCode::kInvalidOptions,
                  "max_batch must be >= 1, got " +
                      std::to_string(options.max_batch));
  }
  if (options.max_wait_us < 0) {
    return Status(StatusCode::kInvalidOptions, "max_wait_us must be >= 0");
  }
  if (options.max_batch_rows < 0) {
    return Status(StatusCode::kInvalidOptions, "max_batch_rows must be >= 0");
  }
  if (options.footprint_budget < 0) {
    return Status(StatusCode::kInvalidOptions,
                  "footprint_budget must be >= 0");
  }
  if (options.backend_workers < 1) {
    return Status(StatusCode::kInvalidOptions,
                  "backend_workers must be >= 1, got " +
                      std::to_string(options.backend_workers));
  }
  if (options.max_inflight_batches < 1) {
    return Status(StatusCode::kInvalidOptions,
                  "max_inflight_batches must be >= 1, got " +
                      std::to_string(options.max_inflight_batches));
  }
  if (options.max_queue_depth < 0) {
    return Status(StatusCode::kInvalidOptions,
                  "max_queue_depth must be >= 0 (0 = unbounded)");
  }
  if (options.default_deadline_us < 0) {
    return Status(StatusCode::kInvalidOptions,
                  "default_deadline_us must be >= 0 (0 = none)");
  }
  if (options.breaker_failures < 0) {
    return Status(StatusCode::kInvalidOptions,
                  "breaker_failures must be >= 0 (0 = disabled)");
  }
  if (options.breaker_cooldown < 1) {
    return Status(StatusCode::kInvalidOptions,
                  "breaker_cooldown must be >= 1, got " +
                      std::to_string(options.breaker_cooldown));
  }
  return validate_engine_options(options.engine);
}

// ---- RequestQueue ----

void RequestQueue::publish_depth_locked() {
  obs::metrics().gauge("serve.depth")
      .set(static_cast<double>(queue_.size()));
}

Status RequestQueue::try_push(PendingRequest& request, i64 max_depth,
                              std::optional<PendingRequest>& evicted) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      return Status(StatusCode::kShuttingDown,
                    "server is shutting down; request not admitted");
    }
    if (max_depth > 0 && static_cast<i64>(queue_.size()) >= max_depth) {
      // Queue at capacity: shed oldest-deadline-first. The queued request
      // with the earliest deadline is the least likely to be served in
      // time; evict it when the newcomer has strictly more slack,
      // otherwise refuse the newcomer.
      auto victim = queue_.end();
      u64 victim_deadline = effective_deadline(request.deadline_ns);
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (effective_deadline(it->deadline_ns) < victim_deadline) {
          victim_deadline = effective_deadline(it->deadline_ns);
          victim = it;
        }
      }
      if (victim == queue_.end()) {
        return Status(StatusCode::kOverloaded,
                      "queue at capacity (" + std::to_string(max_depth) +
                          " requests) and no queued request has an earlier "
                          "deadline; request refused");
      }
      evicted = std::move(*victim);
      queue_.erase(victim);
    }
    queue_.push_back(std::move(request));
    publish_depth_locked();
  }
  cv_.notify_all();
  return Status();
}

std::vector<PendingRequest> RequestQueue::pop_batch(int max_batch,
                                                    i64 max_wait_us) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !queue_.empty() || closed_; });
  if (queue_.empty()) return {};  // closed and drained

  // Coalescing wait: the flush deadline is anchored to the *oldest* pending
  // request, so no request waits more than max_wait_us in the queue.
  const auto deadline =
      std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(queue_.front().enqueue_ns)) +
      std::chrono::microseconds(max_wait_us);
  cv_.wait_until(lock, deadline, [&] {
    return static_cast<int>(queue_.size()) >= max_batch || closed_;
  });

  std::vector<PendingRequest> batch;
  const int take = std::min<int>(max_batch, static_cast<int>(queue_.size()));
  batch.reserve(static_cast<size_t>(take));
  for (int i = 0; i < take; ++i) {
    batch.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  publish_depth_locked();
  return batch;
}

std::vector<PendingRequest> RequestQueue::drain() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PendingRequest> remaining;
  remaining.reserve(queue_.size());
  while (!queue_.empty()) {
    remaining.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  publish_depth_locked();
  return remaining;
}

void RequestQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

i64 RequestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<i64>(queue_.size());
}

// ---- Server ----

Server::Server(const Graph& model, WeightStore& weights, ServeOptions options)
    : model_(model),
      weights_(weights),
      options_(std::move(options)),
      planner_(model, options_) {
  preflight_ = validate_serve_options(options_);
  for (const Node& node : model_.nodes()) {
    if (node.kind == OpKind::kInput) {
      if (input_node_) {
        preflight_ = Status(StatusCode::kInvalidGraph,
                            "serving model '" + model_.name() +
                                "' must have exactly one input node");
        break;
      }
      input_node_ = &node;
    }
  }
  if (preflight_.ok() && !input_node_) {
    preflight_ = Status(StatusCode::kInvalidGraph,
                        "serving model '" + model_.name() +
                            "' has no input node");
  }
  if (preflight_.ok()) {
    if (options_.max_inflight_batches > 1) {
      runners_ = std::make_unique<ThreadPool>(options_.max_inflight_batches);
    }
    scheduler_ = std::thread([this] { scheduler_loop(); });
  }
}

Server::~Server() { shutdown(); }

void Server::shutdown(i64 drain_deadline_us) {
  if (drain_deadline_us >= 0) {
    const u64 deadline =
        now_ns() + static_cast<u64>(drain_deadline_us) * 1000;
    // Keep the earliest deadline across repeated calls; 0 means "no
    // deadline yet", so max() can double as the sentinel floor.
    u64 prev = drain_deadline_ns_.load(std::memory_order_relaxed);
    while ((prev == 0 || deadline < prev) &&
           !drain_deadline_ns_.compare_exchange_weak(
               prev, deadline, std::memory_order_relaxed)) {
    }
  }
  if (!stopping_.exchange(true, std::memory_order_acq_rel)) {
    obs::events().record(obs::ServeEvent::kDrain, 0, queue_.depth(),
                         drain_deadline_us);
  }
  queue_.close();
  if (scheduler_.joinable()) scheduler_.join();
}

bool Server::past_drain_deadline() const {
  const u64 deadline = drain_deadline_ns_.load(std::memory_order_relaxed);
  return deadline != 0 && now_ns() >= deadline;
}

Status Server::admit(const Tensor& input) const {
  BDL_RETURN_IF_ERROR(preflight_);
  if (stopping_.load(std::memory_order_acquire)) {
    return Status(StatusCode::kShuttingDown,
                  "server is shutting down; request not admitted");
  }
  const Dims& expected = input_node_->out_shape.dims;
  const Dims& got = input.dims();
  bool compatible = got.rank() == expected.rank() && got[0] >= 1;
  for (int k = 1; compatible && k < expected.rank(); ++k) {
    compatible = got[k] == expected[k];
  }
  if (!compatible) {
    return Status(StatusCode::kShapeMismatch,
                  "request tensor has dims " + got.str() +
                      " but input node '" + input_node_->name +
                      "' requires " + expected.str() +
                      " on every non-batch dim");
  }
  if (options_.admission_finite_check) {
    for (i64 i = 0; i < input.elements(); ++i) {
      if (!std::isfinite(input.flat(i))) {
        return Status(StatusCode::kKernelFailure,
                      "request tensor contains a non-finite value at flat "
                      "index " +
                          std::to_string(i) + "; rejected at admission");
      }
    }
  }
  return Status();
}

std::future<RequestResult> Server::submit(Tensor input) {
  return submit(std::move(input), options_.default_deadline_us);
}

std::future<RequestResult> Server::submit(Tensor input, i64 deadline_us) {
  PendingRequest request;
  request.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  std::future<RequestResult> future = request.promise.get_future();

  if (FaultHooks* hooks = fault_hooks()) hooks->on_serve_admit(request.id);

  const Status admitted = admit(input);
  if (!admitted.ok()) {
    obs::metrics().counter("serve.rejected").add(1);
    obs::events().record(obs::ServeEvent::kReject, request.id,
                         static_cast<i64>(admitted.code()));
    RequestResult result;
    result.status = admitted;
    result.shed = admitted.code() == StatusCode::kShuttingDown;
    request.promise.set_value(std::move(result));
    return future;
  }
  obs::events().record(obs::ServeEvent::kAdmit, request.id, input.dims()[0]);

  request.rows = input.dims()[0];
  request.input = std::move(input);
  request.enqueue_ns = now_ns();
  if (deadline_us > 0) {
    request.deadline_ns =
        request.enqueue_ns + static_cast<u64>(deadline_us) * 1000;
  }

  std::optional<PendingRequest> evicted;
  const Status pushed =
      queue_.try_push(request, options_.max_queue_depth, evicted);
  if (evicted) {
    // The newcomer displaced the queued request with the least deadline
    // slack: resolve the victim as shed.
    obs::events().record(obs::ServeEvent::kEvict, evicted->id,
                         static_cast<i64>(request.id));
    shed(*evicted, StatusCode::kOverloaded, "overload",
         "shed under overload: a newer request with more deadline slack "
         "took the queue slot");
  }
  if (!pushed.ok()) {
    obs::metrics().counter("serve.rejected").add(1);
    if (pushed.code() == StatusCode::kOverloaded) {
      obs::metrics().counter("serve.shed.overload").add(1);
      obs::events().record(obs::ServeEvent::kShedOverload, request.id,
                           queue_.depth());
    } else {
      obs::events().record(obs::ServeEvent::kReject, request.id,
                           static_cast<i64>(pushed.code()));
    }
    RequestResult result;
    result.status = pushed;
    result.shed = true;
    request.promise.set_value(std::move(result));
    return future;
  }

  obs::metrics().counter("serve.enqueued").add(1);
  obs::events().record(obs::ServeEvent::kEnqueue, request.id, queue_.depth());
  return future;
}

void Server::finish(PendingRequest& request, RequestResult result) {
  const u64 finish_ns = now_ns();
  const i64 total_us =
      static_cast<i64>((finish_ns - request.enqueue_ns) / 1000);
  obs::metrics().histogram("serve.request_us").observe(total_us);
  if (result.shed) {
    obs::metrics().counter("serve.shed").add(1);
  } else {
    obs::metrics()
        .counter(result.status.ok() ? "serve.completed" : "serve.failed")
        .add(1);
    // Non-shed finishes only happen on the scheduler thread, so ending the
    // request's trace flow here is safe (submit-thread sheds never trace).
    {
      obs::TraceSpan span("serve", "finish:req" + std::to_string(request.id),
                          {{"req", static_cast<i64>(request.id)}});
      obs::Tracer::flow("serve", "req", request.id, 'f');
    }
    if (result.status.ok()) {
      obs::events().record(obs::ServeEvent::kComplete, request.id, total_us);
    } else {
      obs::events().record(obs::ServeEvent::kFailure, request.id,
                           static_cast<i64>(result.status.code()));
      // Non-shed failures only finish on the scheduler thread, so the
      // deferral bookkeeping inside flight_dump is single-threaded.
      flight_dump(obs::FlightTrigger::kFailure, request.id,
                  "request failed: " + result.status.to_string());
    }
  }
  if (request.deadline_ns != 0 && !result.shed) {
    // Slack at completion for executed deadline'd requests; a late finish
    // clamps to zero slack and counts as a miss.
    if (finish_ns <= request.deadline_ns) {
      obs::metrics()
          .histogram("serve.deadline.slack_us")
          .observe(static_cast<i64>((request.deadline_ns - finish_ns) / 1000));
    } else {
      obs::metrics().histogram("serve.deadline.slack_us").observe(0);
      obs::metrics().counter("serve.deadline.missed").add(1);
    }
  }
  request.promise.set_value(std::move(result));
}

void Server::shed(PendingRequest& request, StatusCode code, const char* what,
                  std::string message) {
  obs::metrics().counter(std::string("serve.shed.") + what).add(1);
  const std::string reason(what);
  obs::events().record(reason == "overload"  ? obs::ServeEvent::kShedOverload
                       : reason == "predicted"
                           ? obs::ServeEvent::kShedPredicted
                       : reason == "shutdown" ? obs::ServeEvent::kShedShutdown
                                              : obs::ServeEvent::kShedDeadline,
                       request.id, static_cast<i64>(code));
  RequestResult result;
  result.status = Status(code, std::move(message));
  result.shed = true;
  finish(request, std::move(result));
}

void Server::scheduler_loop() {
  obs::Tracer::set_thread_label("serve-scheduler");
  while (true) {
    if (!inflight_.empty()) {
      reap_ready();
      // Nothing queued to overlap with: drain the pipeline before blocking
      // in pop_batch, so completed runs resolve promptly (a blocked
      // scheduler could otherwise hold a finished run's futures until the
      // next request arrives).
      if (queue_.depth() == 0) reap_all();
    }
    std::vector<PendingRequest> batch =
        queue_.pop_batch(options_.max_batch, options_.max_wait_us);
    if (batch.empty()) {
      reap_all();  // in-flight runs still complete on shutdown
      return;      // closed and drained
    }
    if (past_drain_deadline()) {
      reap_all();  // in-flight batches finish; only queued work is shed
      // Graceful-drain deadline passed: nothing else executes. Fail this
      // batch and everything still queued with the named status.
      for (PendingRequest& request : batch) {
        shed(request, StatusCode::kShuttingDown, "shutdown",
             "drain deadline passed before execution");
      }
      for (PendingRequest& request : queue_.drain()) {
        shed(request, StatusCode::kShuttingDown, "shutdown",
             "drain deadline passed before execution");
      }
      continue;  // pop_batch returns empty once closed and drained
    }
    flush(batch);
  }
}

void Server::flush(std::vector<PendingRequest>& batch) {
  const u64 batch_id = ++flush_seq_;
  const u64 flush_ns = now_ns();
  const bool tracing = obs::Tracer::enabled();
  if (tracing) {
    // Each request's queue wait, recorded retroactively by the scheduler on
    // its own thread (submit threads never touch the tracer, keeping its
    // rings single-writer): the steady clock the queue stamps with and the
    // tracer's epoch-relative clock differ by a constant, so the span can
    // carry the request's real admission time. Recorded *before* the flush
    // span opens so slices on this track nest instead of overlapping.
    const u64 trace_now = obs::Tracer::now_ns();
    const u64 clock_offset = flush_ns > trace_now ? flush_ns - trace_now : 0;
    for (const PendingRequest& request : batch) {
      const u64 start = request.enqueue_ns > clock_offset
                            ? request.enqueue_ns - clock_offset
                            : 0;
      obs::TraceArg arg{"req", static_cast<i64>(request.id)};
      obs::Tracer::record_complete(
          "serve", "queue:req" + std::to_string(request.id), start,
          trace_now > start ? trace_now - start : 0, &arg, 1);
    }
  }

  obs::TraceSpan span("serve", "flush",
                      {{"requests", static_cast<i64>(batch.size())},
                       {"batch", static_cast<i64>(batch_id)}});
  obs::metrics().counter("serve.flushes").add(1);
  obs::events().record(obs::ServeEvent::kFlush, 0,
                       static_cast<i64>(batch_id),
                       static_cast<i64>(batch.size()));
  std::vector<size_t> members;
  members.reserve(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    members.push_back(i);
    // Coalesce latency: how long admission-to-flush batching held the
    // request back (the knob max_wait_us bounds this).
    obs::metrics()
        .histogram("serve.coalesce_us")
        .observe(static_cast<i64>((flush_ns - batch[i].enqueue_ns) / 1000));
    // Start of the request's flow: the 's' binds to the enclosing flush
    // span, the engine's batch span steps it ('t'), and finish() ends it
    // ('f'), so Perfetto draws queue → batch → engine arrows per request id.
    if (tracing) obs::Tracer::flow("serve", "req", batch[i].id, 's');
  }
  run_members(batch, members);
}

void Server::run_members(std::vector<PendingRequest>& batch,
                         const std::vector<size_t>& members) {
  // Shed pass 1: a deadline that has already passed cannot be served — the
  // request is resolved without executing anything.
  const u64 now = now_ns();
  std::vector<size_t> live;
  live.reserve(members.size());
  for (size_t m : members) {
    if (batch[m].deadline_ns != 0 && now >= batch[m].deadline_ns) {
      shed(batch[m], StatusCode::kDeadlineExceeded, "deadline",
           "deadline expired before execution");
    } else {
      live.push_back(m);
    }
  }
  if (live.empty()) return;

  std::vector<i64> rows;
  rows.reserve(live.size());
  for (size_t m : live) rows.push_back(batch[m].rows);

  Result<std::vector<BatchPlanner::Plan>> plans = planner_.coalesce(rows);
  if (!plans.ok()) {
    for (size_t m : live) {
      RequestResult result;
      result.status = plans.status();
      finish(batch[m], std::move(result));
    }
    return;
  }

  for (const BatchPlanner::Plan& plan : plans.value()) {
    if (past_drain_deadline()) {
      for (size_t i : plan.members) {
        shed(batch[live[i]], StatusCode::kShuttingDown, "shutdown",
             "drain deadline passed before execution");
      }
      continue;
    }

    // Shed pass 2: predicted-latency admission. The plan's §4 prediction
    // (EWMA-corrected by measured wall time) says how long this run will
    // take; members whose deadline cannot fit are shed now instead of
    // holding a doomed slot in the batch.
    const u64 predicted_ns = static_cast<u64>(
        std::max(0.0, planner_.predicted_seconds(plan)) * 1e9);
    std::vector<size_t> fit;
    std::vector<size_t> unfit;
    const u64 t = now_ns();
    for (size_t i : plan.members) {
      const PendingRequest& request = batch[live[i]];
      if (predicted_ns > 0 && request.deadline_ns != 0 &&
          t + predicted_ns > request.deadline_ns) {
        unfit.push_back(live[i]);
      } else {
        fit.push_back(live[i]);
      }
    }
    if (unfit.empty()) {
      run_plan(batch, live, plan);
      continue;
    }
    for (size_t m : unfit) {
      shed(batch[m], StatusCode::kDeadlineExceeded, "predicted",
           "predicted batch latency (" +
               std::to_string(predicted_ns / 1000) +
               " us) cannot meet the request deadline");
    }
    // The plan's stacked row count changed; re-coalesce the survivors
    // (strictly fewer members each round, so this terminates).
    if (!fit.empty()) run_members(batch, fit);
  }
}

void Server::record_outcome(const BatchPlanner::Plan& plan,
                            const BatchPlanner::Selected& selected,
                            bool degraded, double run_seconds,
                            u64 request_id) {
  const DegradationBreaker::Transition transition =
      planner_.record_run(plan, selected.tier, degraded, run_seconds);
  switch (transition) {
    case DegradationBreaker::Transition::kOpened:
      obs::events().record(obs::ServeEvent::kBreakerOpen, request_id,
                           plan.rows, selected.tier);
      flight_dump(obs::FlightTrigger::kBreakerOpen, request_id,
                  "breaker opened for plan rows=" + std::to_string(plan.rows) +
                      " after a degraded run at tier " +
                      std::to_string(selected.tier));
      return;
    case DegradationBreaker::Transition::kClosed:
      obs::events().record(obs::ServeEvent::kBreakerClose, request_id,
                           plan.rows);
      return;
    case DegradationBreaker::Transition::kNone:
      break;
  }
  if (degraded) {
    flight_dump(obs::FlightTrigger::kDegradedRun, request_id,
                "batch of rows=" + std::to_string(plan.rows) +
                    " ran degraded at tier " + std::to_string(selected.tier));
  }
}

void Server::flight_dump(obs::FlightTrigger trigger, u64 request_id,
                         std::string detail) {
  if (inflight_.empty()) {
    obs::FlightRecorder::instance().dump(trigger, request_id,
                                         std::move(detail));
  } else {
    // Runner threads are mid-run and writing their tracer rings; a dump
    // now would read them non-quiescently. Park it until the pipeline is
    // empty.
    deferred_dumps_.push_back({trigger, request_id, std::move(detail)});
  }
}

void Server::drain_deferred_dumps() {
  if (!inflight_.empty()) return;
  for (DeferredDump& dump : deferred_dumps_) {
    obs::FlightRecorder::instance().dump(dump.trigger, dump.request_id,
                                         std::move(dump.detail));
  }
  deferred_dumps_.clear();
}

void Server::run_plan(std::vector<PendingRequest>& batch,
                      const std::vector<size_t>& live,
                      const BatchPlanner::Plan& plan) {
  const i64 occupancy = static_cast<i64>(plan.members.size());
  obs::metrics().counter("serve.batches").add(1);
  obs::metrics().histogram("serve.batch_occupancy").observe(occupancy);
  obs::metrics().histogram("serve.batch_rows").observe(plan.rows);

  // Circuit breaker: a plan whose strategy keeps failing is routed straight
  // to the degraded tier's engine instead of re-walking the §7 chain.
  const BatchPlanner::Selected selected = planner_.select_engine(plan);
  if (selected.probe) {
    obs::events().record(obs::ServeEvent::kBreakerProbe, 0, plan.rows,
                         selected.tier);
  }
  std::vector<u64> request_ids;
  request_ids.reserve(plan.members.size());
  for (size_t i : plan.members) request_ids.push_back(batch[live[i]].id);
  obs::events().record(obs::ServeEvent::kBatchRun, request_ids.front(),
                       static_cast<i64>(flush_seq_), selected.tier);

  if (runners_) {
    dispatch_plan(batch, live, plan, selected, std::move(request_ids));
    return;
  }

  // Synchronous path: same run + finish machinery as the pipelined path,
  // executed inline on the scheduler thread.
  InflightRun run;
  run.plan = plan;
  run.selected = selected;
  run.request_ids = std::move(request_ids);
  run.batch_id = flush_seq_;
  run.requests.reserve(plan.members.size());
  for (size_t i : plan.members) {
    run.requests.push_back(std::move(batch[live[i]]));
  }
  execute_run(run);
  finish_run(run);
}

void Server::dispatch_plan(std::vector<PendingRequest>& batch,
                           const std::vector<size_t>& live,
                           const BatchPlanner::Plan& plan,
                           const BatchPlanner::Selected& selected,
                           std::vector<u64> request_ids) {
  auto run = std::make_unique<InflightRun>();
  run->plan = plan;
  run->selected = selected;
  run->request_ids = std::move(request_ids);
  run->batch_id = flush_seq_;
  run->footprint = planner_.plan_footprint(plan);
  run->requests.reserve(plan.members.size());
  for (size_t i : plan.members) {
    run->requests.push_back(std::move(batch[live[i]]));
  }
  run->ready = run->done.get_future();

  // Dispatch gate: bounded in-flight count, and the summed footprints of
  // concurrent runs stay within the same budget the planner splits
  // against — overlap must not blow the on-chip working-set rule the §3.3
  // plans were admitted under. Oldest-first reaping keeps the wait bounded.
  const i64 budget = planner_.budget();
  while (!inflight_.empty() &&
         (static_cast<int>(inflight_.size()) >=
              options_.max_inflight_batches ||
          (budget > 0 &&
           inflight_footprint_ + run->footprint > budget))) {
    reap_oldest();
  }

  obs::metrics().counter("serve.pipeline.dispatches").add(1);
  obs::metrics()
      .gauge("serve.pipeline.inflight")
      .set(static_cast<double>(inflight_.size() + 1));
  InflightRun* raw = run.get();
  inflight_footprint_ += run->footprint;
  inflight_.push_back(std::move(run));
  runners_->submit([this, raw](int) {
    execute_run(*raw);
    // Everything the runner traces is closed by now: a reap that observes
    // `ready` may treat this thread as tracer-quiescent.
    raw->done.set_value();
  });
}

void Server::execute_run(InflightRun& run) {
  try {
    obs::TraceSpan span("serve", "batch_run",
                        {{"requests", static_cast<i64>(run.requests.size())},
                         {"rows", run.plan.rows},
                         {"tier", static_cast<i64>(run.selected.tier)}});
    if (FaultHooks* hooks = fault_hooks()) hooks->on_serve_batch(run.plan.rows);
    std::vector<const Tensor*> parts;
    parts.reserve(run.requests.size());
    for (const PendingRequest& request : run.requests) {
      parts.push_back(&request.input);
    }
    const u64 t0 = now_ns();
    NumericBackend backend(*run.plan.graph, weights_,
                           options_.backend_workers);
    RunContext ctx;
    ctx.batch_id = run.batch_id;
    ctx.request_ids = &run.request_ids;
    run.outputs = run.selected.engine->run_batched_checked(
        backend, parts, &run.engine_result, &ctx);
    run.run_seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    obs::metrics()
        .histogram("serve.run_us")
        .observe(static_cast<i64>(run.run_seconds * 1e6));
  } catch (const StatusError& e) {
    run.outputs = Result<std::vector<Tensor>>(e.status());
  } catch (const std::exception& e) {
    // A throw must never escape onto the runner pool (it would take the
    // worker down); classify it like any other kernel fault.
    run.outputs = Result<std::vector<Tensor>>(
        Status(StatusCode::kKernelFailure, e.what()));
  }
}

void Server::reap_oldest() {
  BDL_CHECK(!inflight_.empty());
  std::unique_ptr<InflightRun> run = std::move(inflight_.front());
  inflight_.pop_front();
  run->ready.wait();
  inflight_footprint_ -= run->footprint;
  obs::metrics()
      .gauge("serve.pipeline.inflight")
      .set(static_cast<double>(inflight_.size()));
  finish_run(*run);
  drain_deferred_dumps();
}

void Server::reap_ready() {
  while (!inflight_.empty() &&
         inflight_.front()->ready.wait_for(std::chrono::seconds(0)) ==
             std::future_status::ready) {
    reap_oldest();
  }
}

void Server::reap_all() {
  while (!inflight_.empty()) reap_oldest();
}

void Server::finish_run(InflightRun& run) {
  const i64 occupancy = static_cast<i64>(run.requests.size());
  Result<std::vector<Tensor>>& outputs = *run.outputs;

  // "Degraded" = the tier's own strategy did not run clean: the engine
  // walked its fallback chain on some subgraph, or the run failed outright.
  bool degraded = !outputs.ok();
  if (outputs.ok()) {
    for (const SubgraphReport& report : run.engine_result.reports) {
      if (report.attempts.size() > 1) {
        degraded = true;
        break;
      }
    }
  }
  record_outcome(run.plan, run.selected, degraded, run.run_seconds,
                 run.request_ids.front());

  if (outputs.ok()) {
    BDL_CHECK(outputs.value().size() == run.requests.size());
    for (size_t i = 0; i < run.requests.size(); ++i) {
      RequestResult result;
      result.output = std::move(outputs.value()[i]);
      result.batch_requests = occupancy;
      result.batch_rows = run.plan.rows;
      finish(run.requests[i], std::move(result));
    }
    return;
  }

  obs::metrics().counter("serve.batch_failures").add(1);
  if (run.requests.size() == 1 || !options_.solo_fallback) {
    for (PendingRequest& request : run.requests) {
      RequestResult result;
      result.status = outputs.status();
      finish(request, std::move(result));
    }
    return;
  }

  // Per-request degradation: the batched run failed as a unit, so re-run
  // every member solo (in queue order) — only requests that fail on their
  // own fail, and each solo run still gets the engine's §7 strategy
  // fallback chain (or its own breaker tier). Solo retries run inline on
  // the scheduler thread even when pipelining.
  obs::metrics().counter("serve.solo_fallbacks").add(1);
  obs::events().record(obs::ServeEvent::kSoloFallback,
                       run.request_ids.front(),
                       static_cast<i64>(run.batch_id), occupancy);
  obs::TraceSpan span("serve", "solo_fallback", {{"requests", occupancy}});
  for (size_t i = 0; i < run.requests.size(); ++i) {
    PendingRequest& request = run.requests[i];
    Result<BatchPlanner::Plan> solo = planner_.solo(i, request.rows);
    RequestResult result;
    result.batch_requests = 1;
    result.batch_rows = request.rows;
    if (!solo.ok()) {
      result.status = solo.status();
      finish(request, std::move(result));
      continue;
    }
    const BatchPlanner::Selected solo_selected =
        planner_.select_engine(solo.value());
    NumericBackend backend(*solo.value().graph, weights_,
                           options_.backend_workers);
    EngineResult solo_engine_result;
    const std::vector<u64> solo_ids = {request.id};
    RunContext solo_ctx;
    solo_ctx.batch_id = run.batch_id;
    solo_ctx.request_ids = &solo_ids;
    const u64 t0 = now_ns();
    Result<std::vector<Tensor>> out =
        solo_selected.engine->run_batched_checked(backend, {&request.input},
                                                  &solo_engine_result,
                                                  &solo_ctx);
    const double solo_seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    bool solo_degraded = !out.ok();
    if (out.ok()) {
      for (const SubgraphReport& report : solo_engine_result.reports) {
        if (report.attempts.size() > 1) {
          solo_degraded = true;
          break;
        }
      }
    }
    record_outcome(solo.value(), solo_selected, solo_degraded, solo_seconds,
                   request.id);
    if (out.ok()) {
      result.output = std::move(out.value()[0]);
    } else {
      result.status = out.status();
    }
    finish(request, std::move(result));
  }
}

}  // namespace brickdl::serve
