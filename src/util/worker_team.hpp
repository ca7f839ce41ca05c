// Fork-join worker team for engine runs (DESIGN.md §9.6). A team of size()
// members is the calling thread (member 0) plus size() - 1 helper threads.
// A region publishes its job by bumping one atomic word; every member, the
// caller included, claims index chunks off one shared cursor, and the caller
// returns once every helper that took part has checked out. Between regions
// helpers and the joining caller poll (yielding) for kSpinWindow, then park,
// so back-to-back regions hand off in a few microseconds while an idle team
// costs no CPU. In the GPU-simulation substrate one member plays
// the role of one concurrently-resident thread block (DESIGN.md §2), so the
// member index reaches every chunk.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <vector>

#include "util/common.hpp"

namespace brickdl {

class WorkerTeam {
 public:
  /// How long an idle helper, or a caller waiting for helpers, spins before
  /// it parks. Long enough to span the serial gap between the regions of
  /// one run, short enough that an idle team gives its cores back at once.
  static constexpr std::chrono::microseconds kSpinWindow{100};

  /// Starts `members - 1` helper threads; the constructing thread is not
  /// bound to the team, whichever thread calls a region is member 0.
  explicit WorkerTeam(int members);
  ~WorkerTeam();

  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  int size() const { return static_cast<int>(helpers_.size()) + 1; }

  /// f(begin, end, member) once per claimed chunk [begin, end) of [0, n),
  /// chunk size `grain`; member is in [0, size()) and the calling thread is
  /// member 0. Only min(size(), ceil(n / grain)) members take part, so a
  /// single chunk runs on the caller and wakes no helper. If f throws, the
  /// rest of its chunk and all unclaimed chunks are abandoned and the first
  /// exception is rethrown here once every member has drained.
  ///
  /// One region at a time per team, from outside any region: starting a
  /// region inside a chunk (of any team) or while another thread's region
  /// on this team runs fails a BDL_CHECK instead of deadlocking.
  template <typename F>
  void parallel_for_ranges(i64 n, i64 grain, const F& f) {
    run_region(n, grain, &invoke<F>, &f);
  }

  /// Per-index form: f(index, member) for every index of [0, n).
  template <typename F>
  void parallel_for(i64 n, const F& f, i64 grain = 1) {
    parallel_for_ranges(n, grain, [&f](i64 begin, i64 end, int member) {
      for (i64 i = begin; i < end; ++i) f(i, member);
    });
  }

 private:
  using Body = void (*)(const void* fn, i64 begin, i64 end, int member);

  template <typename F>
  static void invoke(const void* fn, i64 begin, i64 end, int member) {
    (*static_cast<const F*>(fn))(begin, end, member);
  }

  void run_region(i64 n, i64 grain, Body body, const void* fn);
  void run_chunks(int member);
  void helper_loop(int member);
  /// Spin, then park, until the published word differs from `seen`.
  u64 await_publish(u64 seen);
  /// Spin, then park, until every helper of the region has checked out.
  void await_helpers();
  void stop_helpers();

  // The job of the current region: written by the caller before it
  // publishes, read only by that region's members.
  Body body_ = nullptr;
  const void* fn_ = nullptr;
  i64 n_ = 0;
  i64 grain_ = 1;
  bool traced_ = false;
  std::exception_ptr error_;  ///< first exception; written by its thrower

  /// (region sequence << 16) | members taking part; 0 members stops helpers.
  alignas(64) std::atomic<u64> word_{0};
  std::atomic<int> parked_{0};  ///< helpers parked on word_
  alignas(64) std::atomic<i64> next_{0};  ///< chunk cursor
  std::atomic<bool> failed_{false};
  alignas(64) std::atomic<int> pending_{0};  ///< helpers not checked out
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> busy_{false};  ///< a region is running

  std::vector<std::thread> helpers_;
};

}  // namespace brickdl
