// Tiny test-and-set spinlock for very short critical sections.
//
// The memory-hierarchy simulator takes its lock tens of millions of times
// per bench run with critical sections of a few dozen nanoseconds; the
// ~20ns lock/unlock cost of std::mutex was a measurable fraction of fig07
// wall time. A TTAS spinlock with a pause hint costs a few ns uncontended
// and degrades to yield() under contention so sanitizer builds (where the
// critical sections are much longer) stay live. Works with
// std::lock_guard / std::unique_lock; TSan models the acquire/release pair.
#pragma once

#include <atomic>
#include <thread>

namespace brickdl {

/// Busy-wait hint: tells the core it is spinning (frees pipeline resources
/// for a sibling hyperthread and avoids a memory-order flush on exit).
inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

class SpinLock {
 public:
  void lock() {
    int spins = 0;
    for (;;) {
      if (!locked_.exchange(true, std::memory_order_acquire)) return;
      // Test-and-test-and-set: spin on a plain load so the line stays shared.
      while (locked_.load(std::memory_order_relaxed)) {
        if (++spins < 1024) {
          cpu_pause();
        } else {
          std::this_thread::yield();
        }
      }
    }
  }

  void unlock() { locked_.store(false, std::memory_order_release); }

 private:
  std::atomic<bool> locked_{false};
};

}  // namespace brickdl
