// ThreadPool tests: every submitted task runs exactly once, worker_index
// is stable inside the pool and -1 outside, drain() is a real barrier,
// destruction drains queued work, throwing tasks are contained, tasks
// may themselves submit (the engine's finalizer pattern), and the
// priority lanes pop high-before-normal-before-background.
#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace tilq {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<std::int64_t> sum{0};
  constexpr std::int64_t kTasks = 500;
  for (std::int64_t i = 1; i <= kTasks; ++i) {
    pool.submit([&sum, i] { sum.fetch_add(i, std::memory_order_relaxed); });
  }
  pool.drain();
  EXPECT_EQ(sum.load(), kTasks * (kTasks + 1) / 2);
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(stats.task_exceptions, 0u);
}

TEST(ThreadPoolTest, WorkerIndexIsInRangeOnWorkersAndMinusOneOutside) {
  EXPECT_EQ(ThreadPool::worker_index(), -1);
  ThreadPool pool(3);
  std::mutex mutex;
  std::set<int> seen;
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] {
      const int index = ThreadPool::worker_index();
      const std::lock_guard<std::mutex> lock(mutex);
      seen.insert(index);
    });
  }
  pool.drain();
  EXPECT_EQ(ThreadPool::worker_index(), -1);
  ASSERT_FALSE(seen.empty());
  for (const int index : seen) {
    EXPECT_GE(index, 0);
    EXPECT_LT(index, pool.size());
  }
}

TEST(ThreadPoolTest, DrainIsABarrier) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.drain();
    EXPECT_EQ(done.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 200; ++i) {
      pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // ~ThreadPool: every queued task must have executed before join
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPoolTest, ThrowingTaskIsContainedAndCounted) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([] { throw std::runtime_error("contract violation"); });
  for (int i = 0; i < 50; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 50);
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.task_exceptions, 1u);
  EXPECT_EQ(stats.executed, 51u);
}

TEST(ThreadPoolTest, TasksMaySubmitTasks) {
  ThreadPool pool(3);
  std::atomic<int> leaves{0};
  // Two-level fan-out: each root task submits 8 leaves, like the engine's
  // per-job tile fan-out followed by a finalizer.
  for (int i = 0; i < 16; ++i) {
    pool.submit([&pool, &leaves] {
      for (int j = 0; j < 8; ++j) {
        pool.submit(
            [&leaves] { leaves.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  pool.drain();
  EXPECT_EQ(leaves.load(), 16 * 8);
}

TEST(ThreadPoolTest, DefaultWidthIsAtLeastOne) {
  ThreadPool pool;  // 0 => max_threads()
  EXPECT_GE(pool.size(), 1);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran.store(true, std::memory_order_relaxed); });
  pool.drain();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, HighLaneRunsBeforeBackgroundLane) {
  // One worker, so execution order is the pop order. A gate task holds
  // the worker while both lanes fill; on release the high-lane task must
  // run before the background one that was submitted first.
  ThreadPool pool(1);
  std::atomic<bool> release{false};
  std::mutex mutex;
  std::vector<int> order;
  pool.submit([&release] {
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  });
  pool.submit(
      [&] {
        const std::lock_guard<std::mutex> lock(mutex);
        order.push_back(2);
      },
      TaskPriority::kBackground);
  pool.submit(
      [&] {
        const std::lock_guard<std::mutex> lock(mutex);
        order.push_back(0);
      },
      TaskPriority::kHigh);
  pool.submit(
      [&] {
        const std::lock_guard<std::mutex> lock(mutex);
        order.push_back(1);
      },
      TaskPriority::kNormal);
  release.store(true, std::memory_order_release);
  pool.drain();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(ThreadPoolTest, AllLanesDrainAndCountConsistently) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 300; ++i) {
    const auto lane = static_cast<TaskPriority>(i % kTaskPriorityLanes);
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); },
                lane);
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 300);
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.executed, 300u);
  EXPECT_LE(stats.stolen, stats.executed);
}

TEST(ThreadPoolTest, StealAccountingStaysConsistent) {
  ThreadPool pool(4);
  for (int i = 0; i < 400; ++i) {
    pool.submit([] {});
  }
  pool.drain();
  const ThreadPool::Stats stats = pool.stats();
  // Steals are a subset of executions; with round-robin placement across 4
  // deques they may or may not occur, but the books must balance.
  EXPECT_LE(stats.stolen, stats.executed);
  EXPECT_EQ(stats.executed, 400u);
}

TEST(ThreadPoolTest, WorkerStatsSumToPoolTotalsAfterDrain) {
  ThreadPool pool(4);
  for (int i = 0; i < 500; ++i) {
    pool.submit([] {});
  }
  pool.drain();
  const ThreadPool::Stats totals = pool.stats();
  const std::vector<ThreadPool::WorkerStats> per_worker = pool.worker_stats();
  ASSERT_EQ(per_worker.size(), 4u);
  std::uint64_t executed = 0;
  std::uint64_t stolen = 0;
  for (const ThreadPool::WorkerStats& w : per_worker) {
    executed += w.executed;
    stolen += w.stolen;
  }
  // Conservation: the pool totals are defined as the per-worker sums.
  EXPECT_EQ(executed, totals.executed);
  EXPECT_EQ(stolen, totals.stolen);
  EXPECT_EQ(executed, 500u);
  EXPECT_EQ(executed, totals.submitted);
}

TEST(ThreadPoolTest, WorkerStatsSnapshotsAreSafeDuringStealHeavyLoad) {
  // The telemetry sampler reads worker_stats() while the pool runs; this
  // is that access pattern under load. Round-robin placement plus tiny
  // tasks keeps the deques unevenly drained, so steals occur while the
  // sampler reads. TSan-clean is part of the contract.
  ThreadPool pool(4);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::thread sampler([&] {
    std::vector<std::uint64_t> last_executed(4, 0);
    while (!stop.load(std::memory_order_acquire)) {
      const std::vector<ThreadPool::WorkerStats> per_worker =
          pool.worker_stats();
      EXPECT_EQ(per_worker.size(), 4u);
      for (std::size_t i = 0; i < per_worker.size() && i < 4; ++i) {
        // Each worker's counter is monotone across snapshots.
        EXPECT_GE(per_worker[i].executed, last_executed[i]);
        last_executed[i] = per_worker[i].executed;
      }
      snapshots.fetch_add(1, std::memory_order_release);
      std::this_thread::yield();
    }
  });
  // On a loaded host the sampler may not be scheduled before the pool
  // drains. Take its first snapshot before any task is submitted, so the
  // count check below cannot depend on scheduling.
  while (snapshots.load(std::memory_order_acquire) == 0) {
    std::this_thread::yield();
  }
  constexpr int kTasks = 4000;
  std::atomic<int> ran{0};
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.drain();
  stop.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_EQ(ran.load(), kTasks);
  EXPECT_GE(snapshots.load(), 1u);
  // After the barrier the per-worker books must balance exactly.
  std::uint64_t executed = 0;
  for (const ThreadPool::WorkerStats& w : pool.worker_stats()) {
    executed += w.executed;
  }
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(executed, pool.stats().executed);
}

}  // namespace
}  // namespace tilq
