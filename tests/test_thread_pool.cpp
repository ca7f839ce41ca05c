// Host threading primitives: ThreadPool (independent submitted tasks, the
// serving tier's runners) and WorkerTeam (fork-join regions for engine runs,
// DESIGN.md §9.6). The ThreadPool.ParallelFor* cases predate the split of
// parallel_for from ThreadPool into WorkerTeam; they now exercise the team
// and keep their names so the test list stays stable.
#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/thread_pool.hpp"
#include "util/worker_team.hpp"

namespace brickdl {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&](int) { counter.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, WorkerIndicesInRange) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<int> seen;
  for (int i = 0; i < 200; ++i) {
    pool.submit([&](int worker) {
      std::lock_guard<std::mutex> lock(mu);
      seen.insert(worker);
    });
  }
  pool.wait_idle();
  for (int w : seen) {
    EXPECT_GE(w, 0);
    EXPECT_LT(w, 4);
  }
  EXPECT_FALSE(seen.empty());
}

TEST(ThreadPool, SubmitFromWorker) {
  ThreadPool pool(2);
  std::atomic<int> stage{0};
  pool.submit([&](int) {
    stage.fetch_add(1);
    pool.submit([&](int) { stage.fetch_add(10); });
  });
  pool.wait_idle();
  EXPECT_EQ(stage.load(), 11);
}

TEST(ThreadPool, RejectsZeroWorkers) {
  EXPECT_THROW(ThreadPool(0), Error);
}

TEST(ThreadPool, ParallelForCoversEveryIndexOnce) {
  WorkerTeam team(4);
  std::vector<std::atomic<int>> hits(257);
  team.parallel_for(257, [&](i64 i, int) {
    hits[static_cast<size_t>(i)].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  WorkerTeam team(2);
  team.parallel_for(0, [&](i64, int) { FAIL() << "must not run"; });
  std::atomic<int> runs{0};
  team.parallel_for(1, [&](i64 i, int) {
    EXPECT_EQ(i, 0);
    runs.fetch_add(1);
  });
  EXPECT_EQ(runs.load(), 1);
}

TEST(ThreadPool, ParallelForFewerItemsThanWorkers) {
  WorkerTeam team(8);
  std::atomic<int> runs{0};
  team.parallel_for(3, [&](i64, int) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 3);
}

TEST(ThreadPool, SequentialParallelForCalls) {
  WorkerTeam team(3);
  for (int round = 0; round < 10; ++round) {
    std::atomic<i64> sum{0};
    team.parallel_for(50, [&](i64 i, int) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 49 * 50 / 2);
  }
}

TEST(ThreadPool, ParallelForPropagatesTaskException) {
  WorkerTeam team(4);
  std::atomic<int> runs{0};
  bool caught = false;
  try {
    team.parallel_for(100, [&](i64 i, int) {
      if (i == 13) throw std::runtime_error("boom at 13");
      runs.fetch_add(1);
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "boom at 13");
  }
  EXPECT_TRUE(caught);
  // The failing index doesn't count; later unclaimed indices may be skipped.
  EXPECT_LE(runs.load(), 99);
}

TEST(ThreadPool, ParallelForThrowingEveryIndexStillTerminates) {
  WorkerTeam team(3);
  EXPECT_THROW(
      team.parallel_for(50, [&](i64, int) { throw Error("always"); }), Error);
}

TEST(ThreadPool, PoolUsableAfterParallelForException) {
  WorkerTeam team(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(team.parallel_for(40,
                                   [&](i64 i, int) {
                                     if (i == 0) throw Error("round failure");
                                   }),
                 Error);
    std::atomic<i64> sum{0};
    team.parallel_for(50, [&](i64 i, int) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 49 * 50 / 2);
  }
}

TEST(WorkerTeam, RejectsZeroMembers) { EXPECT_THROW(WorkerTeam(0), Error); }

TEST(WorkerTeam, SingleMemberRunsOnTheCaller) {
  WorkerTeam team(1);
  EXPECT_EQ(team.size(), 1);
  const auto caller = std::this_thread::get_id();
  i64 sum = 0;  // no other thread may touch it
  team.parallel_for(100, [&](i64 i, int member) {
    EXPECT_EQ(member, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    sum += i;
  });
  EXPECT_EQ(sum, 99 * 100 / 2);
}

TEST(WorkerTeam, CallerRunsChunksAsMemberZero) {
  WorkerTeam team(4);
  const auto caller = std::this_thread::get_id();
  std::mutex mu;
  std::vector<std::pair<int, std::thread::id>> ran;
  // 1 ms chunks: every member, the caller included, has time to claim some.
  team.parallel_for(16, [&](i64, int member) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    ran.emplace_back(member, std::this_thread::get_id());
  });
  ASSERT_EQ(ran.size(), 16u);
  bool caller_ran = false;
  for (const auto& [member, id] : ran) {
    EXPECT_GE(member, 0);
    EXPECT_LT(member, 4);
    EXPECT_EQ(member == 0, id == caller) << "member " << member;
    caller_ran |= member == 0;
  }
  EXPECT_TRUE(caller_ran);

  // A single chunk runs on the caller and wakes no helper.
  std::thread::id single;
  team.parallel_for_ranges(5, 8, [&](i64 begin, i64 end, int member) {
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 5);
    EXPECT_EQ(member, 0);
    single = std::this_thread::get_id();
  });
  EXPECT_EQ(single, caller);
}

/// Regions back to back hand off while helpers spin; regions spaced beyond
/// the spin window find them parked and must wake them.
TEST(WorkerTeam, SpinningAndParkedHelpersBothJoin) {
  WorkerTeam team(4);
  for (int round = 0; round < 2000; ++round) {
    std::atomic<i64> sum{0};
    team.parallel_for(64, [&](i64 i, int) { sum.fetch_add(i); }, 4);
    ASSERT_EQ(sum.load(), 63 * 64 / 2) << "round " << round;
  }
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    std::vector<std::atomic<int>> hits(32);
    team.parallel_for(32, [&](i64 i, int) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// After a region the helpers spin for WorkerTeam::kSpinWindow, then park:
/// an idle team must not keep cores busy.
TEST(WorkerTeam, HelpersParkWhenIdle) {
  WorkerTeam team(4);
  std::atomic<i64> sum{0};
  team.parallel_for(64, [&](i64 i, int) { sum.fetch_add(i); });
  ASSERT_EQ(sum.load(), 63 * 64 / 2);
  const double before = process_cpu_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  const double idle_cpu = process_cpu_seconds() - before;
  // Three helpers spinning through the sleep would burn ~0.6 s.
  EXPECT_LT(idle_cpu, 0.05);
}

/// A region started from inside a chunk would wait on members that are
/// busy running the outer region; the team refuses instead of hanging.
TEST(WorkerTeam, NestedRegionFailsInsteadOfHanging) {
  WorkerTeam team(2);
  try {
    team.parallel_for(2, [&](i64, int) {
      team.parallel_for(2, [](i64, int) {});
    });
    FAIL() << "nested region did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("nested"), std::string::npos)
        << e.what();
  }
  // The team is still usable afterwards.
  std::atomic<int> runs{0};
  team.parallel_for(8, [&](i64, int) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 8);
}

/// Two threads may not run regions on one team at once.
TEST(WorkerTeam, OverlappingRegionsFail) {
  WorkerTeam team(1);
  std::atomic<bool> entered{false};
  std::atomic<bool> tried{false};
  std::thread other([&] {
    while (!entered.load()) std::this_thread::yield();
    EXPECT_THROW(team.parallel_for(1, [](i64, int) {}), Error);
    tried.store(true);
  });
  team.parallel_for(1, [&](i64, int) {
    entered.store(true);
    while (!tried.load()) std::this_thread::yield();
  });
  other.join();
  std::atomic<int> runs{0};
  team.parallel_for(4, [&](i64, int) { runs.fetch_add(1); });
  EXPECT_EQ(runs.load(), 4);
}

}  // namespace
}  // namespace brickdl
