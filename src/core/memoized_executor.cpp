#include "core/memoized_executor.hpp"

#include <algorithm>
#include <thread>
#include <unordered_set>

#include "core/fault_hooks.hpp"
#include "graph/halo.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace brickdl {

MemoizedExecutor::MemoizedExecutor(const Graph& graph, const Subgraph& sg,
                                   const Dims& brick_extent, Backend& backend,
                                   const std::unordered_map<int, TensorId>& io,
                                   int num_workers, WatchdogOptions watchdog)
    : MemoizedExecutor(graph, std::vector<StageSpec>{{&sg, brick_extent}},
                       backend, io, num_workers, watchdog) {}

MemoizedExecutor::MemoizedExecutor(const Graph& graph,
                                   std::vector<StageSpec> stage_specs,
                                   Backend& backend,
                                   const std::unordered_map<int, TensorId>& io,
                                   int num_workers, WatchdogOptions watchdog)
    : graph_(graph),
      backend_(backend),
      io_(io),
      num_workers_(num_workers),
      watchdog_(watchdog) {
  BDL_CHECK_MSG(!stage_specs.empty(), "chain needs at least one stage");
  BDL_CHECK(num_workers >= 1 && num_workers <= backend.num_workers());
  BDL_CHECK_MSG(watchdog_.poll_limit > 0 && watchdog_.timeout_ms >= 0,
                "watchdog poll_limit must be positive, timeout non-negative");

  // Flatten the chain: stage node lists concatenated in stage order. Node
  // ids are unique across stages (subgraphs partition the graph), so one
  // flat index space carries the whole tag table.
  std::unordered_map<int, int> node_to_flat;
  std::unordered_set<int> earlier_terminals;
  stages_.reserve(stage_specs.size());
  for (size_t s = 0; s < stage_specs.size(); ++s) {
    const StageSpec& spec = stage_specs[s];
    BDL_CHECK_MSG(spec.sg != nullptr, "chain stage has no subgraph");
    validate_subgraph(graph, *spec.sg);
    BDL_CHECK_MSG(
        spec.brick_extent.rank() == stage_specs[0].brick_extent.rank(),
        "chained stages must share the blocked rank (stage "
            << s << " has rank " << spec.brick_extent.rank() << ")");
    BDL_CHECK_MSG(io_.count(spec.sg->terminal()),
                  "io map must provide the terminal output tensor of stage "
                      << s << " ('" << graph.node(spec.sg->terminal()).name
                      << "')");
    for (int ext : spec.sg->external_inputs) {
      // An earlier stage's terminal is an *internal* boundary of the chain;
      // everything else must arrive through the io map.
      if (earlier_terminals.count(ext)) continue;
      BDL_CHECK_MSG(io_.count(ext), "io map must provide external input "
                                        << graph.node(ext).name);
    }

    Stage stage;
    stage.sg = spec.sg;
    stage.brick_extent = spec.brick_extent;
    stage.node_begin = static_cast<int>(node_ids_.size());
    for (int id : spec.sg->nodes) {
      BDL_CHECK_MSG(!node_to_flat.count(id),
                    "node '" << graph.node(id).name
                             << "' appears in two chain stages");
      node_to_flat.emplace(id, static_cast<int>(node_ids_.size()));
      node_ids_.push_back(id);
      node_stage_.push_back(static_cast<int>(s));
    }
    stage.node_end = static_cast<int>(node_ids_.size());
    stages_.push_back(stage);
    earlier_terminals.insert(spec.sg->terminal());
  }

  grids_.reserve(node_ids_.size());
  memo_.reserve(node_ids_.size());
  for (size_t i = 0; i < node_ids_.size(); ++i) {
    const Node& node = graph.node(node_ids_[i]);
    const Stage& stage = stages_[static_cast<size_t>(node_stage_[i])];
    const Dims bounds = node.out_shape.blocked_dims();
    // The stage's shared brick extent, clipped per dim to the layer bounds.
    Dims extent = stage.brick_extent;
    BDL_CHECK(extent.rank() == bounds.rank());
    for (int d = 0; d < extent.rank(); ++d) {
      extent[d] = std::min(extent[d], bounds[d]);
    }
    grids_.emplace_back(bounds, extent);
    grid_sizes_.push_back(grids_.back().num_bricks());
    states_.push_back(std::make_unique<std::atomic<u32>[]>(
        static_cast<size_t>(grids_.back().num_bricks())));
    for (i64 b = 0; b < grids_.back().num_bricks(); ++b) {
      states_.back()[static_cast<size_t>(b)].store(kNotStarted,
                                                   std::memory_order_relaxed);
    }
    if (node_ids_[i] == stage.sg->terminal()) {
      memo_.push_back(io_.at(node_ids_[i]));
    } else {
      memo_.push_back(backend.register_tensor(
          node.out_shape, Layout::kBricked, grids_.back().brick,
          "memo:" + node.name));
    }
  }

  // Resolve every node's inputs once (flattened index + source tensor) so
  // the per-brick paths need no search. A producer in an *earlier stage*
  // resolves internally here: that boundary gets real dependence tracking
  // instead of the fully-materialized assumption the barriered path makes.
  input_node_index_.reserve(node_ids_.size());
  input_srcs_.reserve(node_ids_.size());
  for (size_t i = 0; i < node_ids_.size(); ++i) {
    const Node& node = graph.node(node_ids_[i]);
    std::vector<int> indices;
    std::vector<TensorId> srcs;
    indices.reserve(node.inputs.size());
    srcs.reserve(node.inputs.size());
    for (int p : node.inputs) {
      const auto it = node_to_flat.find(p);
      if (it == node_to_flat.end()) {
        indices.push_back(-1);
        srcs.push_back(io_.at(p));
      } else {
        const int p_index = it->second;
        BDL_CHECK_MSG(p_index < static_cast<int>(i),
                      "chain stages out of topological order: '"
                          << graph.node(p).name << "' consumed before it is "
                          << "produced");
        indices.push_back(p_index);
        srcs.push_back(memo_[static_cast<size_t>(p_index)]);
      }
    }
    input_node_index_.push_back(std::move(indices));
    input_srcs_.push_back(std::move(srcs));
  }

  // Roots: the concatenation of every stage's terminal brick space. In the
  // single-stage case this is exactly the terminal grid; with a chain the
  // shared frontier spans all stage terminals, so late-stage roots pull
  // their upstream dependences across the boundary as soon as a worker
  // reaches them.
  for (Stage& stage : stages_) {
    stage.root_offset = total_roots_;
    total_roots_ += grid_sizes_[static_cast<size_t>(stage.node_end - 1)];
  }

  // Partition roots contiguously across workers (GPU-style block assignment
  // keeps neighboring bricks on neighboring workers, which is what produces
  // halo contention).
  workers_.reserve(static_cast<size_t>(num_workers_));
  for (int w = 0; w < num_workers_; ++w) {
    workers_.push_back(std::make_unique<Worker>());
    workers_.back()->next_root = total_roots_ * w / num_workers_;
    workers_.back()->end_root = total_roots_ * (w + 1) / num_workers_;
  }
}

i64 MemoizedExecutor::total_bricks() const {
  i64 total = 0;
  for (i64 s : grid_sizes_) total += s;
  return total;
}

std::atomic<u32>& MemoizedExecutor::state(int node_index, i64 brick) {
  return states_[static_cast<size_t>(node_index)][static_cast<size_t>(brick)];
}

int MemoizedExecutor::root_node(i64 root, i64* brick) const {
  size_t s = stages_.size() - 1;
  while (stages_[s].root_offset > root) --s;
  *brick = root - stages_[s].root_offset;
  return stages_[s].node_end - 1;
}

bool MemoizedExecutor::is_stage_terminal(int node_index) const {
  const Stage& stage = stages_[static_cast<size_t>(
      node_stage_[static_cast<size_t>(node_index)])];
  return node_index == stage.node_end - 1;
}

MemoizedExecutor::Task MemoizedExecutor::make_task(int node_index,
                                                   i64 brick) const {
  Task task;
  task.node_index = node_index;
  task.brick = brick;

  const Node& node = graph_.node(node_ids_[static_cast<size_t>(node_index)]);
  const BrickGrid& grid = grids_[static_cast<size_t>(node_index)];
  const Dims g = grid.grid.unlinear(brick);
  const Dims lo = grid.brick_origin(g);
  const Dims extent = grid.valid_extent(g);
  Dims need_lo, need_extent;
  input_window_blocked(node, lo, extent, &need_lo, &need_extent);

  const std::vector<int>& inputs =
      input_node_index_[static_cast<size_t>(node_index)];
  for (size_t ii = 0; ii < inputs.size(); ++ii) {
    // External producers are fully materialized: no dependence tracking.
    const int p_index = inputs[ii];
    if (p_index < 0) continue;
    const BrickGrid& p_grid = grids_[static_cast<size_t>(p_index)];
    // Bricks of the producer overlapping the needed window, clipped to its
    // layer bounds (out-of-bounds halo is zero and depends on nothing).
    Dims b_lo = need_lo, b_cnt = need_extent;
    bool empty = false;
    for (int d = 0; d < need_lo.rank(); ++d) {
      const i64 a = std::max<i64>(need_lo[d], 0);
      const i64 b = std::min<i64>(need_lo[d] + need_extent[d],
                                  p_grid.blocked[d]);
      if (b <= a) {
        empty = true;
        break;
      }
      b_lo[d] = a / p_grid.brick[d];
      b_cnt[d] = (b - 1) / p_grid.brick[d] - b_lo[d] + 1;
    }
    if (empty) continue;
    Dims idx = b_lo;
    const i64 n_deps = b_cnt.product();
    for (i64 k = 0; k < n_deps; ++k) {
      task.deps.emplace_back(p_index, p_grid.grid.linear(idx));
      for (int d = idx.rank() - 1; d >= 0; --d) {
        if (++idx[d] - b_lo[d] < b_cnt[d]) break;
        idx[d] = b_lo[d];
      }
    }
  }
  return task;
}

Status MemoizedExecutor::compute_brick(int worker_index, const Task& task,
                                       SlotId* out_slot, Dims* lo,
                                       Dims* extent) {
  const int node_id = node_ids_[static_cast<size_t>(task.node_index)];
  const Node& node = graph_.node(node_id);
  const BrickGrid& grid = grids_[static_cast<size_t>(task.node_index)];
  const Dims g = grid.grid.unlinear(task.brick);
  *lo = grid.brick_origin(g);
  *extent = grid.valid_extent(g);

  try {
    obs::TraceSpan layer_span("layer", node.name,
                              {{"node", node_id},
                               {"brick", task.brick},
                               {"worker", worker_index}},
                              trace_gate_);
    backend_.invocation_begin(worker_index);
    Dims need_lo, need_extent;
    input_window_blocked(node, *lo, *extent, &need_lo, &need_extent);
    std::vector<SlotId>& inputs =
        workers_[static_cast<size_t>(worker_index)]->input_slots;
    inputs.clear();
    const std::vector<TensorId>& srcs =
        input_srcs_[static_cast<size_t>(task.node_index)];
    for (TensorId src : srcs) {
      inputs.push_back(backend_.load_window(worker_index, src, need_lo,
                                            need_extent));
    }
    // Memoized bricks are stored clipped to the layer bounds, so no masking
    // is needed: out-of-bounds halo reads zero-fill, matching zero padding.
    // The result stays in the worker-private slot; the caller copies it into
    // the shared memo buffer only after winning the publish election.
    {
      obs::TraceSpan brick_span("brick", node.name, {{"brick", task.brick}},
                                trace_gate_);
      *out_slot = backend_.compute(worker_index, node_id, inputs, *lo, *extent,
                                   /*mask_to_bounds=*/false);
    }
    for (SlotId s : inputs) backend_.free_slot(worker_index, s);
  } catch (const StatusError& e) {
    return e.status();
  } catch (const std::exception& e) {
    return Status(StatusCode::kKernelFailure,
                  "node '" + node.name + "': " + e.what());
  }
  return Status();
}

bool MemoizedExecutor::watchdog_expired(
    i64 polls, std::chrono::steady_clock::time_point since,
    bool spin_wait) const {
  if (polls <= watchdog_.poll_limit) return false;
  if (!spin_wait) return true;  // virtual time: polls are the only clock
  const auto elapsed = std::chrono::steady_clock::now() - since;
  return elapsed >= std::chrono::milliseconds(watchdog_.timeout_ms);
}

void MemoizedExecutor::set_failure(Status status) {
  {
    const std::lock_guard<std::mutex> lock(failure_mu_);
    if (failure_.ok()) failure_ = std::move(status);
  }
  failed_.store(true, std::memory_order_release);
}

bool MemoizedExecutor::advance(int worker_index, bool spin_wait) {
  Worker& w = *workers_[static_cast<size_t>(worker_index)];
  if (w.done || w.stalled) return false;
  if (failed_.load(std::memory_order_acquire)) {
    // Another worker hit a kernel fault: abandon cleanly.
    w.done = true;
    return false;
  }

  if (w.stack.empty()) {
    while (w.next_root < w.end_root) {
      i64 brick = -1;
      const int root_index = root_node(w.next_root++, &brick);
      std::atomic<u32>& tag = state(root_index, brick);
      u32 expected = tag.load(std::memory_order_acquire);
      while (tag_state(expected) == kNotStarted) {
        if (tag.compare_exchange_weak(expected, expected | kInProgress)) {
          bump(w.local.compulsory_atomics);  // acquire
          Task task = make_task(root_index, brick);
          task.token = expected | kInProgress;
          w.stack.push_back(std::move(task));
          return true;
        }
      }
      // Already claimed — a stealing worker adopted it, a downstream stage
      // pulled it across the boundary as a dependence, or a reclaimed tag
      // was re-claimed; skip to the next assigned root.
    }
    return steal_advance(w, spin_wait);
  }

  Task& task = w.stack.back();
  while (task.dep_cursor < task.deps.size()) {
    const auto [p_index, p_brick] = task.deps[task.dep_cursor];
    std::atomic<u32>& tag = state(p_index, p_brick);
    u32 observed = tag.load(std::memory_order_acquire);
    if (tag_state(observed) == kComplete) {
      ++task.dep_cursor;
      task.polls = 0;
      continue;
    }
    if (tag_state(observed) == kNotStarted) {
      if (tag.compare_exchange_strong(observed, observed | kInProgress)) {
        bump(w.local.compulsory_atomics);  // acquire
        if (node_stage_[static_cast<size_t>(p_index)] !=
            node_stage_[static_cast<size_t>(task.node_index)]) {
          // A downstream stage just started an upstream brick before the
          // upstream subgraph "finished" — the cross-boundary pipeline start
          // the barriered engine could never make.
          bump(w.local.cross_boundary_claims);
          if (trace_gate_) {
            obs::TraceSpan cross(
                "pipeline", "cross_claim",
                {{"node", node_ids_[static_cast<size_t>(p_index)]},
                 {"brick", p_brick},
                 {"worker", worker_index}},
                trace_gate_);
          }
        }
        task.polls = 0;
        Task dep = make_task(p_index, p_brick);
        dep.token = observed | kInProgress;
        w.stack.push_back(std::move(dep));
        return true;  // recurse: compute the dependent brick first
      }
      // Lost the race: another worker just claimed it.
      bump(w.local.conflict_atomics);
      bump(w.local.defers);
      if (spin_wait) std::this_thread::yield();
      return true;
    }
    // In progress on another worker: yield; every poll is a conflicting
    // atomic (§3.2.2: stall by issuing CAS until the tag turns Complete).
    // The stall watchdog bounds the wait: a tag stuck past the poll budget
    // (and deadline, on real threads) belongs to a presumed-dead worker —
    // repair it to NotStarted with the epoch bumped, so the normal claim
    // path above recomputes the brick and the stale owner (if merely slow,
    // not dead) loses its publish election instead of racing the recompute.
    if (task.polls == 0) task.poll_start = std::chrono::steady_clock::now();
    ++task.polls;
    bump(w.local.conflict_atomics);
    bump(w.local.defers);
    if (watchdog_expired(task.polls, task.poll_start, spin_wait)) {
      // Publishing tags are never reclaimed: the electee already proved it is
      // alive by winning the election, and its memo store is in flight.
      if (tag_state(observed) == kInProgress &&
          tag.compare_exchange_strong(observed, tag_reclaimed(observed))) {
        bump(w.local.reclaims);
      }
      task.polls = 0;
    }
    if (spin_wait) std::this_thread::yield();
    return true;
  }

  // All dependencies complete: compute, publish, pop.
  const int node_id = node_ids_[static_cast<size_t>(task.node_index)];
  if (FaultHooks* hooks = fault_hooks()) {
    if (hooks->on_worker_stall(node_id, task.brick, worker_index)) {
      // Simulated dead worker: park for good, leaving every tag on this
      // stack InProgress for the other workers' watchdogs.
      w.stalled = true;
      bump(w.local.stalled_workers);
      return false;
    }
    if (!hooks->on_publish(node_id, task.brick, worker_index)) {
      // Simulated crash between claim and publish: the brick's result (data
      // and release CAS alike) is lost; the tag stays InProgress until the
      // watchdog reclaims it and another worker recomputes.
      bump(w.local.lost_publishes);
      w.stack.pop_back();
      return true;
    }
  }
  SlotId out_slot = -1;
  Dims lo, extent;
  Status computed = compute_brick(worker_index, task, &out_slot, &lo, &extent);
  if (!computed.ok()) {
    set_failure(std::move(computed));
    w.done = true;
    return false;
  }
  // Publish by election, not a blind store: CAS our claim token (epoch +
  // InProgress) to Publishing. If the watchdog repaired this tag from under
  // us (we were presumed dead), its epoch moved on and the CAS fails — the
  // reclaimer owns the brick and will recompute it, so we must not touch the
  // shared memo buffer (a racing same-value store) and we drop our
  // accounting so the exactly-once bookkeeping still matches the tags.
  std::atomic<u32>& tag = state(task.node_index, task.brick);
  u32 expected = task.token;
  if (tag.compare_exchange_strong(expected, (task.token & ~kStateMask) |
                                                kPublishing)) {
    bump(w.local.compulsory_atomics);  // release/publish election
    try {
      backend_.store_window(worker_index, out_slot,
                            memo_[static_cast<size_t>(task.node_index)], lo,
                            extent);
    } catch (const std::exception& e) {
      // Leave no abandoned Publishing tag behind a failed store: fail the
      // whole run, every worker aborts on failed_.
      set_failure(Status(StatusCode::kKernelFailure, e.what()));
      w.done = true;
      return false;
    }
    tag.store((task.token & ~kStateMask) | kComplete,
              std::memory_order_release);
    bump(w.local.bricks_computed);
  } else {
    // Election lost: the reclaimer owns the brick. The computed result is
    // discarded — release its worker slot so the loser's slot table does not
    // accumulate live-but-dead entries across a long run.
    backend_.free_slot(worker_index, out_slot);
    bump(w.local.lost_publishes);
  }
  w.stack.pop_back();
  return true;
}

bool MemoizedExecutor::steal_advance(Worker& w, bool spin_wait) {
  i64 first_in_progress = -1;
  int first_in_progress_node = -1;
  u32 first_in_progress_value = 0;
  for (i64 r = 0; r < total_roots_; ++r) {
    i64 b = -1;
    const int root_index = root_node(r, &b);
    std::atomic<u32>& tag = state(root_index, b);
    u32 observed = tag.load(std::memory_order_acquire);
    if (tag_state(observed) == kComplete) continue;
    if (tag_state(observed) == kNotStarted) {
      if (tag.compare_exchange_strong(observed, observed | kInProgress)) {
        bump(w.local.compulsory_atomics);  // acquire
        bump(w.local.stolen_bricks);
        w.steal_polls = 0;
        Task task = make_task(root_index, b);
        task.token = observed | kInProgress;
        w.stack.push_back(std::move(task));
        return true;
      }
      bump(w.local.conflict_atomics);  // lost the claim race to another thief
    }
    if (first_in_progress < 0) {
      first_in_progress = b;
      first_in_progress_node = root_index;
      first_in_progress_value = observed;
    }
  }
  if (first_in_progress < 0) {
    w.done = true;  // every root brick is Complete
    return false;
  }
  // Leftover root bricks are all InProgress elsewhere: poll them under the
  // same watchdog so a stalled worker's claim is eventually reclaimed. As in
  // advance(), a Publishing tag is live by definition and never reclaimed —
  // its electee completes it on its own.
  if (w.steal_polls == 0) w.steal_start = std::chrono::steady_clock::now();
  ++w.steal_polls;
  bump(w.local.conflict_atomics);
  bump(w.local.defers);
  if (watchdog_expired(w.steal_polls, w.steal_start, spin_wait)) {
    if (tag_state(first_in_progress_value) == kInProgress &&
        state(first_in_progress_node, first_in_progress)
            .compare_exchange_strong(first_in_progress_value,
                                     tag_reclaimed(first_in_progress_value))) {
      bump(w.local.reclaims);
    }
    w.steal_polls = 0;
  }
  if (spin_wait) std::this_thread::yield();
  return true;
}

MemoizedExecutor::Stats MemoizedExecutor::stats_snapshot() const {
  Stats total;
  for (const auto& w : workers_) {
    const WorkerStats& s = w->local;
    const auto get = [](const std::atomic<i64>& f) {
      return f.load(std::memory_order_relaxed);
    };
    total.compulsory_atomics += get(s.compulsory_atomics);
    total.conflict_atomics += get(s.conflict_atomics);
    total.defers += get(s.defers);
    total.bricks_computed += get(s.bricks_computed);
    total.reclaims += get(s.reclaims);
    total.stolen_bricks += get(s.stolen_bricks);
    total.stalled_workers += get(s.stalled_workers);
    total.lost_publishes += get(s.lost_publishes);
    total.cross_boundary_claims += get(s.cross_boundary_claims);
  }
  return total;
}

Status MemoizedExecutor::finish() {
  stats_ = stats_snapshot();
  stats_.idle_tail_seconds = idle_tail_seconds_;
  stats_.idle_tail_fraction = idle_tail_fraction_;
  {
    // Publish the run's protocol counters on the shared metrics registry —
    // the former ad-hoc counters (reclaims, stolen_bricks, ...) included.
    auto& m = obs::metrics();
    m.counter("memo.runs").add(1);
    m.counter("memo.bricks_computed").add(stats_.bricks_computed);
    m.counter("memo.compulsory_atomics").add(stats_.compulsory_atomics);
    m.counter("memo.conflict_atomics").add(stats_.conflict_atomics);
    m.counter("memo.defers").add(stats_.defers);
    m.counter("memo.reclaims").add(stats_.reclaims);
    m.counter("memo.stolen_bricks").add(stats_.stolen_bricks);
    m.counter("memo.stalled_workers").add(stats_.stalled_workers);
    m.counter("memo.lost_publishes").add(stats_.lost_publishes);
    m.counter("memo.cross_boundary_claims").add(stats_.cross_boundary_claims);
  }
  backend_.count_atomics(stats_.compulsory_atomics, stats_.conflict_atomics);
  backend_.tally_defer(stats_.defers);
  backend_.tally_reduce(stats_.bricks_computed);
  // Interior memo buffers are dead once the chain finishes; stage-terminal
  // memos are the caller's io tensors and stay live.
  for (size_t i = 0; i < memo_.size(); ++i) {
    if (!is_stage_terminal(static_cast<int>(i))) {
      backend_.discard_tensor(memo_[i]);
    }
  }

  if (!failure_.ok()) return failure_;  // workers aborted on a kernel fault

  // Every stage-terminal brick must be complete; interior bricks that no
  // terminal brick transitively needs (e.g. columns dropped by a strided
  // conv) may legitimately stay uncomputed. An incomplete terminal here
  // means every surviving worker exhausted its watchdog without finding a
  // reclaimable path — all workers stalled.
  for (size_t s = 0; s < stages_.size(); ++s) {
    const int terminal_index = stages_[s].node_end - 1;
    const auto& terminal_states = states_[static_cast<size_t>(terminal_index)];
    for (i64 b = 0; b < grid_sizes_[static_cast<size_t>(terminal_index)];
         ++b) {
      if (tag_state(terminal_states[static_cast<size_t>(b)].load()) !=
          kComplete) {
        std::ostringstream os;
        os << "terminal brick " << b << " of stage " << s
           << " left incomplete (" << stats_.stalled_workers << " of "
           << num_workers_ << " workers stalled, " << stats_.reclaims
           << " tags reclaimed)";
        return Status(StatusCode::kExecutorStall, os.str());
      }
    }
  }
  // Exactly-once accounting: the computed tally must equal the number of
  // Complete tags. A brick computed twice bumps the tally without a second
  // tag transition; a brick published without being computed does the
  // reverse. Either way the CAS protocol was violated. (This is an internal
  // invariant — a violation is a library bug, so it stays a hard check.)
  i64 complete_tags = 0;
  for (size_t i = 0; i < states_.size(); ++i) {
    for (i64 b = 0; b < grid_sizes_[i]; ++b) {
      if (tag_state(states_[i][static_cast<size_t>(b)].load()) == kComplete) {
        ++complete_tags;
      }
    }
  }
  BDL_CHECK_MSG(stats_.bricks_computed == complete_tags,
                "bricks_computed " << stats_.bricks_computed
                                   << " != complete tags " << complete_tags
                                   << " — a brick was computed twice or lost");
  BDL_CHECK(stats_.bricks_computed <= total_bricks());
  return Status();
}

i64 MemoizedExecutor::reachable_bricks() const {
  std::vector<std::vector<char>> seen;
  seen.reserve(grid_sizes_.size());
  for (i64 s : grid_sizes_) seen.emplace_back(static_cast<size_t>(s), 0);

  std::vector<std::pair<int, i64>> frontier;
  for (const Stage& stage : stages_) {
    const int terminal_index = stage.node_end - 1;
    for (i64 b = 0; b < grid_sizes_[static_cast<size_t>(terminal_index)];
         ++b) {
      char& mark =
          seen[static_cast<size_t>(terminal_index)][static_cast<size_t>(b)];
      if (!mark) {
        mark = 1;
        frontier.emplace_back(terminal_index, b);
      }
    }
  }
  i64 count = 0;
  while (!frontier.empty()) {
    const auto [index, brick] = frontier.back();
    frontier.pop_back();
    ++count;
    for (const auto& [p_index, p_brick] : make_task(index, brick).deps) {
      char& mark =
          seen[static_cast<size_t>(p_index)][static_cast<size_t>(p_brick)];
      if (!mark) {
        mark = 1;
        frontier.emplace_back(p_index, p_brick);
      }
    }
  }
  return count;
}

Status MemoizedExecutor::run_checked() {
  trace_gate_ = obs::Tracer::enabled();
  i64 tick = 0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (int w = 0; w < num_workers_; ++w) {
      if (advance(w, /*spin_wait=*/false)) {
        progress = true;
        workers_[static_cast<size_t>(w)]->last_progress_tick = tick;
      }
    }
    ++tick;
  }
  // Deterministic idle-tail accounting: a worker's tail is the span between
  // its last productive tick and the run's last productive tick — exactly
  // the barrier wait the fig08 breakdown charts.
  i64 max_tick = 0;
  for (const auto& w : workers_) {
    max_tick = std::max(max_tick, w->last_progress_tick);
  }
  if (max_tick > 0) {
    i64 idle_ticks = 0;
    for (const auto& w : workers_) {
      idle_ticks += max_tick - w->last_progress_tick;
    }
    idle_tail_fraction_ = static_cast<double>(idle_ticks) /
                          (static_cast<double>(num_workers_) *
                           static_cast<double>(max_tick));
  }
  return finish();
}

Status MemoizedExecutor::run_parallel_checked(WorkerTeam& team) {
  BDL_CHECK_MSG(team.size() == num_workers_,
                "team size must equal the executor's worker count");
  trace_gate_ = obs::Tracer::enabled();
  const auto t0 = std::chrono::steady_clock::now();
  team.parallel_for(num_workers_, [this](i64 w, int /*member*/) {
    while (advance(static_cast<int>(w), /*spin_wait=*/true)) {
    }
    workers_[static_cast<size_t>(w)]->finish_time =
        std::chrono::steady_clock::now();
  });
  auto max_finish = t0;
  for (const auto& w : workers_) {
    max_finish = std::max(max_finish, w->finish_time);
  }
  double idle = 0.0;
  for (const auto& w : workers_) {
    idle += std::chrono::duration<double>(max_finish - w->finish_time).count();
  }
  idle_tail_seconds_ = idle;
  const double span = std::chrono::duration<double>(max_finish - t0).count();
  if (span > 0.0) {
    idle_tail_fraction_ = idle / (span * static_cast<double>(num_workers_));
  }
  return finish();
}

}  // namespace brickdl
