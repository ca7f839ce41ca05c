#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include "obs/trace.hpp"

namespace brickdl {

ThreadPool::ThreadPool(int workers) {
  BDL_CHECK_MSG(workers > 0, "thread pool needs at least one worker");
  threads_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(Task task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::parallel_for(i64 n, const std::function<void(i64, int)>& f,
                              i64 grain) {
  parallel_for_ranges(n, grain, [&f](i64 begin, i64 end, int worker) {
    for (i64 i = begin; i < end; ++i) f(i, worker);
  });
}

void ThreadPool::parallel_for_ranges(
    i64 n, i64 grain, const std::function<void(i64, i64, int)>& f) {
  if (n <= 0) return;
  if (grain < 1) grain = 1;
  // Shared state lives on the heap: straggler workers (which may find the
  // queue drained after the waiter has already been released) must still be
  // able to touch the counters safely after this function returns.
  struct State {
    std::atomic<i64> next{0};
    std::atomic<i64> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;  ///< first exception; written once under mu
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();

  const bool traced = obs::Tracer::enabled();
  // No more tasks than there are chunks: a task beyond the chunk count would
  // only wake a worker to find the cursor already past `n`.
  const int fanout =
      static_cast<int>(std::min<i64>(size(), ceil_div(n, grain)));
  for (int w = 0; w < fanout; ++w) {
    submit([state, n, grain, traced, &f](int worker) {
      i64 resolved = 0;
      for (i64 begin = state->next.fetch_add(grain); begin < n;
           begin = state->next.fetch_add(grain)) {
        const i64 end = std::min(begin + grain, n);
        // After a failure, keep claiming chunks (so `done` still reaches n
        // and the waiter wakes) but stop running user work.
        if (!state->failed.load(std::memory_order_acquire)) {
          try {
            obs::TraceSpan task_span(
                "pool", "task",
                {{"begin", begin}, {"end", end}, {"worker", worker}}, traced);
            f(begin, end, worker);
          } catch (...) {
            std::lock_guard<std::mutex> lock(state->mu);
            if (!state->error) state->error = std::current_exception();
            state->failed.store(true, std::memory_order_release);
          }
        }
        resolved += end - begin;
      }
      // Note: `f` is only dereferenced for chunks within [0, n), all of which
      // resolve before `done` reaches n and the caller is released.
      if (state->done.fetch_add(resolved) + resolved == n) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    });
  }
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] { return state->done.load() == n; });
  if (state->failed.load()) {
    // Move, not copy: a straggler may drop the last State reference while
    // the caller still reads the exception. With the only reference here,
    // the exception is freed on this thread, and ThreadSanitizer (which
    // cannot see libstdc++'s own exception refcount) reports no race.
    std::exception_ptr error = std::move(state->error);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::worker_loop(int worker) {
  obs::Tracer::set_thread_label("pool-worker-" + std::to_string(worker));
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace brickdl
