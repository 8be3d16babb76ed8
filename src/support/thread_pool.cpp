#include "support/thread_pool.hpp"

#include <algorithm>
#include <utility>

#include "support/env.hpp"
#include "support/metrics.hpp"

namespace tilq {

namespace {
// Index of the current thread within the pool that owns it; -1 elsewhere.
// A thread belongs to at most one pool for its whole lifetime, so a plain
// thread_local is unambiguous.
thread_local int t_worker_index = -1;
}  // namespace

ThreadPool::ThreadPool(int threads) {
  const int n = std::max(1, threads > 0 ? threads : max_threads());
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void ThreadPool::submit(Task task, TaskPriority priority) {
  const auto slot = static_cast<std::size_t>(
      round_robin_.fetch_add(1, std::memory_order_relaxed) % workers_.size());
  const auto lane = static_cast<std::size_t>(priority);
  {
    std::lock_guard<std::mutex> lock(workers_[slot]->mutex);
    workers_[slot]->lanes[lane].push_back(std::move(task));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_release);
  {
    // Taking (and dropping) the wake mutex orders the pending_ increment
    // against a worker's predicate check, closing the lost-wakeup window.
    std::lock_guard<std::mutex> lock(wake_mutex_);
  }
  wake_cv_.notify_one();
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  drain_cv_.wait(lock, [&] {
    return pending_.load(std::memory_order_acquire) == 0 &&
           running_.load(std::memory_order_acquire) == 0;
  });
}

int ThreadPool::size() const noexcept {
  return static_cast<int>(workers_.size());
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  // Totals are the sum of the per-worker counters, so stats() and
  // worker_stats() can never disagree on the grand total.
  for (const std::unique_ptr<Worker>& w : workers_) {
    s.executed += w->executed.load(std::memory_order_relaxed);
    s.stolen += w->stolen.load(std::memory_order_relaxed);
  }
  s.task_exceptions = exceptions_.load(std::memory_order_relaxed);
  return s;
}

std::vector<ThreadPool::WorkerStats> ThreadPool::worker_stats() const {
  std::vector<WorkerStats> out;
  out.reserve(workers_.size());
  for (const std::unique_ptr<Worker>& w : workers_) {
    WorkerStats ws;
    ws.executed = w->executed.load(std::memory_order_relaxed);
    ws.stolen = w->stolen.load(std::memory_order_relaxed);
    out.push_back(ws);
  }
  return out;
}

int ThreadPool::worker_index() noexcept { return t_worker_index; }

void ThreadPool::worker_loop(int index) {
  t_worker_index = index;
  for (;;) {
    Task task;
    if (!next_task(index, task)) {
      return;  // stop requested and every queue is empty
    }
    try {
      task();
    } catch (...) {
      // Contract violation (tasks must not throw); swallow so one bad task
      // cannot take the pool down, and keep it observable in stats().
      exceptions_.fetch_add(1, std::memory_order_relaxed);
    }
    task = nullptr;  // release captured state before reporting completion
    workers_[static_cast<std::size_t>(index)]->executed.fetch_add(
        1, std::memory_order_relaxed);
    running_.fetch_sub(1, std::memory_order_release);
    if (pending_.load(std::memory_order_acquire) == 0 &&
        running_.load(std::memory_order_acquire) == 0) {
      std::lock_guard<std::mutex> lock(wake_mutex_);
      drain_cv_.notify_all();
    }
  }
}

bool ThreadPool::next_task(int index, Task& out) {
  for (;;) {
    if (try_pop(index, out)) {
      return true;
    }
    if (try_steal(index, out)) {
      return true;
    }
    std::unique_lock<std::mutex> lock(wake_mutex_);
    wake_cv_.wait(lock, [&] {
      return stop_ || pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_ && pending_.load(std::memory_order_acquire) == 0) {
      return false;  // shutdown drains queued tasks before exiting
    }
  }
}

bool ThreadPool::try_pop(int index, Task& out) {
  Worker& w = *workers_[static_cast<std::size_t>(index)];
  std::lock_guard<std::mutex> lock(w.mutex);
  for (auto& lane : w.lanes) {  // priority order: high drains first
    if (lane.empty()) {
      continue;
    }
    out = std::move(lane.front());
    lane.pop_front();
    // running_ rises before pending_ falls so drain() can never observe the
    // transient (0, 0) while this task is in hand.
    running_.fetch_add(1, std::memory_order_relaxed);
    pending_.fetch_sub(1, std::memory_order_release);
    return true;
  }
  return false;
}

bool ThreadPool::try_steal(int index, Task& out) {
  const int n = size();
  // Lane-major: exhaust every victim's high lane before touching any
  // normal lane, so priority holds pool-wide, not just per-worker.
  for (int lane = 0; lane < kTaskPriorityLanes; ++lane) {
    for (int step = 1; step < n; ++step) {
      Worker& victim = *workers_[static_cast<std::size_t>((index + step) % n)];
      std::lock_guard<std::mutex> lock(victim.mutex);
      auto& tasks = victim.lanes[static_cast<std::size_t>(lane)];
      if (tasks.empty()) {
        continue;
      }
      out = std::move(tasks.back());
      tasks.pop_back();
      running_.fetch_add(1, std::memory_order_relaxed);
      pending_.fetch_sub(1, std::memory_order_release);
      workers_[static_cast<std::size_t>(index)]->stolen.fetch_add(
          1, std::memory_order_relaxed);
#if TILQ_METRICS_ENABLED
      if (MetricCounters* const counters = metrics_thread_counters()) {
        ++counters->engine_steals;
      }
#endif
      return true;
    }
  }
  return false;
}

}  // namespace tilq
