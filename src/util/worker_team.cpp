#include "util/worker_team.hpp"

#include <algorithm>
#include <string>

#include "obs/trace.hpp"

namespace brickdl {
namespace {

constexpr int kMemberBits = 16;
constexpr u64 kMemberMask = (u64{1} << kMemberBits) - 1;

/// Set while this thread runs chunks of a region, of any team.
thread_local bool tl_in_region = false;

/// Poll `done()` until it holds or kSpinWindow elapses, yielding between
/// polls; the clock is read once per 64 polls. Returns whether `done()`
/// held. A yield, not a pause hint: spinning on `pause` stalled helpers on
/// a virtualized host, and a yield hands the core to a descheduled member
/// when the machine is oversubscribed (DESIGN.md §9.6).
template <typename Done>
bool spin_until(Done&& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + WorkerTeam::kSpinWindow;
  for (int i = 1;; ++i) {
    if (done()) return true;
    std::this_thread::yield();
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
      return done();
    }
  }
}

}  // namespace

WorkerTeam::WorkerTeam(int members) {
  BDL_CHECK_MSG(members > 0 && static_cast<u64>(members) <= kMemberMask,
                "worker team needs 1.." << kMemberMask << " members, got "
                                        << members);
  helpers_.reserve(static_cast<size_t>(members - 1));
  try {
    for (int m = 1; m < members; ++m) {
      helpers_.emplace_back([this, m] { helper_loop(m); });
    }
  } catch (...) {
    stop_helpers();
    throw;
  }
}

WorkerTeam::~WorkerTeam() { stop_helpers(); }

void WorkerTeam::stop_helpers() {
  // A word with zero members: every helper, participant or not, exits.
  word_.store(((word_.load() >> kMemberBits) + 1) << kMemberBits);
  word_.notify_all();
  for (auto& t : helpers_) t.join();
}

void WorkerTeam::run_region(i64 n, i64 grain, Body body, const void* fn) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  BDL_CHECK_MSG(!tl_in_region,
                "worker team region started from inside a region: nested "
                "parallel_for is not supported (it would deadlock)");
  BDL_CHECK_MSG(!busy_.exchange(true, std::memory_order_acquire),
                "worker team regions overlap: one region at a time per team");
  const int members =
      static_cast<int>(std::min<i64>(size(), ceil_div(n, grain)));
  body_ = body;
  fn_ = fn;
  n_ = n;
  grain_ = grain;
  traced_ = obs::Tracer::enabled();
  next_.store(0, std::memory_order_relaxed);
  failed_.store(false, std::memory_order_relaxed);
  pending_.store(members - 1, std::memory_order_relaxed);
  if (members > 1) {
    // Publish (seq_cst store, so it also releases the job above), then wake
    // parked helpers; the parked_ check pairs with await_publish's.
    word_.store((((word_.load(std::memory_order_relaxed) >> kMemberBits) + 1)
                 << kMemberBits) |
                static_cast<u64>(members));
    if (parked_.load() > 0) word_.notify_all();
  }
  run_chunks(0);
  if (members > 1) await_helpers();
  const bool failed = failed_.load(std::memory_order_relaxed);
  std::exception_ptr error = std::move(error_);
  error_ = nullptr;
  busy_.store(false, std::memory_order_release);
  if (failed) std::rethrow_exception(error);
}

void WorkerTeam::run_chunks(int member) {
  tl_in_region = true;
  for (i64 begin = next_.fetch_add(grain_, std::memory_order_relaxed);
       begin < n_ && !failed_.load(std::memory_order_relaxed);
       begin = next_.fetch_add(grain_, std::memory_order_relaxed)) {
    const i64 end = std::min(begin + grain_, n_);
    try {
      obs::TraceSpan task_span(
          "pool", "task",
          {{"begin", begin}, {"end", end}, {"worker", member}}, traced_);
      body_(fn_, begin, end, member);
    } catch (...) {
      if (!failed_.exchange(true)) error_ = std::current_exception();
      break;
    }
  }
  tl_in_region = false;
}

u64 WorkerTeam::await_publish(u64 seen) {
  u64 word = seen;
  if (spin_until([&] {
        word = word_.load(std::memory_order_acquire);
        return word != seen;
      })) {
    return word;
  }
  parked_.fetch_add(1);
  for (word = word_.load(); word == seen; word = word_.load()) {
    word_.wait(seen);
  }
  parked_.fetch_sub(1, std::memory_order_relaxed);
  return word;
}

void WorkerTeam::await_helpers() {
  if (spin_until([&] {
        return pending_.load(std::memory_order_acquire) == 0;
      })) {
    return;
  }
  caller_parked_.store(true);
  for (int left = pending_.load(); left != 0; left = pending_.load()) {
    pending_.wait(left);
  }
  caller_parked_.store(false, std::memory_order_relaxed);
}

void WorkerTeam::helper_loop(int member) {
  obs::Tracer::set_thread_label("team-member-" + std::to_string(member));
  u64 seen = 0;
  for (;;) {
    seen = await_publish(seen);
    const u64 members = seen & kMemberMask;
    if (members == 0) return;
    if (static_cast<u64>(member) >= members) continue;
    run_chunks(member);
    // Check out; the last helper wakes a parked caller (the caller_parked_
    // check pairs with the one in await_helpers).
    if (pending_.fetch_sub(1) == 1 && caller_parked_.load()) {
      pending_.notify_one();
    }
  }
}

}  // namespace brickdl
