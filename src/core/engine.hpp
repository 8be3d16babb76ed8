// Batch execution engine: concurrent masked-SpGEMM serving on a persistent
// work-stealing thread pool (support/thread_pool.hpp). Where Executor
// amortizes the structure phase across calls from ONE caller, the Engine
// amortizes plans, workspaces, and threads across MANY concurrent queries:
//
//   tilq::Engine<SR> engine;                        // spawns the pool once
//   auto job = engine.submit(mask, a, b, config);   // non-blocking
//   ... submit more queries; tiles interleave ...
//   Csr<T, I> c = job.get();                        // wait + take the result
//
// Each submitted query is decomposed into the FLOP-balanced tile tasks its
// plan prescribes (detail::build_plan / detail::run_tile_task — the same
// code the OpenMP driver runs, so results are bit-identical to the
// single-call path), and the pool interleaves tasks from every in-flight
// job: a skewed query cannot idle the machine while others have runnable
// tiles. Plans are cached engine-wide by (structural fingerprint, config),
// so repeat structures skip the analyze phase entirely, and a miss builds
// outside the cache lock, once per key however many submitters race on
// it. Accumulators come from engine-wide per-worker workspace pools and
// driver buffers are recycled across jobs — a warm engine performs no
// steady-state allocations beyond each query's output.
//
// Serving (docs/SERVING.md): every submission is priced by the plan's
// Eq-2 FLOP total — free on a plan-cache hit — and classified cheap or
// expensive at admission. The verdict picks the job's lane in the pool's
// priority scheduler (cheap queries jump ahead of expensive bulk work, so
// one heavy query cannot collapse the cheap p99), steers the overload
// response (EngineOptions::overload_policy: reject everything at the
// bound, or shed/defer only the expensive jobs as pressure builds), and
// SubmitOptions lets callers pin a lane or attach a per-job deadline
// (missed deadlines cancel the job with DeadlineExpiredError).
//
// Backpressure: at most EngineOptions::max_in_flight jobs may be admitted
// at once; submit() past the bound throws EngineSaturatedError (a
// CapacityError) and run_batch() blocks instead. Failure isolation: each
// job carries its own ParallelGuard — an exception in one job's tasks
// cancels that job's remaining tiles and rethrows (normalized into the
// error taxonomy) from its JobHandle::wait()/get(), without poisoning
// sibling jobs.
//
// Observability: per-job latency, queue depth, and steal counters flow
// into the metrics-v3 schema (engine_* counters, docs/METRICS.md), each
// job's queue/run/total latency lands in fixed-bucket log-scale
// histograms (support/latency.hpp) whose p50/p95/p99 surface through
// EngineStats and the nullable `engine_latency` record object, and
// "engine.job" / "engine.compact" Chrome-trace spans ride next to the
// existing tile spans. docs/CONCURRENCY.md documents the lifecycle and
// the per-type thread-safety guarantees; tools/check_metrics_docs.py
// lints that table against this header.
//
// Resilience (docs/ROBUSTNESS.md): transient failures inside a job are
// retried instead of surfaced. A job failing with StaleError replans
// against the current structure and re-executes (bit-identical to a fresh
// submit); a transient CapacityError retries on a degraded config (hash ->
// dense on saturation, dense -> hash / smaller block_cols under memory
// pressure) after a deterministic, seeded, capped exponential backoff
// (EngineOptions::retry / SubmitOptions::max_attempts). An engine-wide
// memory budget (EngineOptions::memory_budget_bytes, MemoryGovernor) keeps
// a byte ledger over the workspace pools and recycled driver buffers;
// crossing it browns the engine out — idle scratch is reclaimed and new
// jobs plan in reduced-footprint mode instead of failing admission. The
// shed/retry/stuck/memory signals drive a three-state health machine
// (EngineHealth), surfaced in EngineStats, the `tilq_engine_health`
// Prometheus gauge, and /healthz (503 once browned out).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <typeindex>
#include <utility>
#include <vector>

#include "core/autotune.hpp"
#include "core/model.hpp"
#include "core/plan.hpp"
#include "support/fault.hpp"
#include "support/health.hpp"
#include "support/latency.hpp"
#include "support/memory_governor.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

namespace tilq {

/// Thrown by Engine::submit when max_in_flight jobs are already admitted —
/// the bounded-queue backpressure signal — and, under
/// OverloadPolicy::kShed, when an expensive job is refused at the shed
/// bound. A CapacityError: callers shed load or retry after a JobHandle
/// completes; run_batch() blocks instead of throwing.
class EngineSaturatedError : public CapacityError {
 public:
  using CapacityError::CapacityError;
};

/// Thrown (from JobHandle::wait()/get()) when a job submitted with
/// SubmitOptions::deadline_ms was cancelled because the deadline passed
/// before its tiles finished. A CapacityError: the machine did not have
/// the headroom to serve the query in time.
class DeadlineExpiredError : public CapacityError {
 public:
  using CapacityError::CapacityError;
};

/// What submit() does with an expensive job once in-flight pressure
/// reaches the shed bound (3/4 of max_in_flight). Cheap jobs are never
/// shed or deferred — only the hard max_in_flight bound applies to them.
enum class OverloadPolicy {
  kReject,  ///< no cost-model gate: the pre-serving all-or-nothing behavior
  kShed,    ///< refuse expensive jobs with EngineSaturatedError
  kDefer,   ///< admit expensive jobs demoted to the background lane
};

/// Caller-chosen lane for one submission; kAuto lets the cost model pick
/// (cheap -> high, expensive -> background).
enum class JobPriority {
  kAuto,
  kHigh,
  kNormal,
  kBackground,
};

/// Retry/backoff policy for transient in-job failures (StaleError,
/// retryable CapacityError). Backoff is a capped exponential with
/// deterministic seeded jitter: the delay for attempt k is
/// min(cap, base * 2^(k-2)) scaled by a factor in [0.5, 1.0) drawn from
/// splitmix64(seed ^ structure fingerprint ^ k) — no wall-clock
/// randomness, so two runs of the same stream sleep the same schedule.
struct RetryPolicy {
  /// Total execution attempts per job; 1 means no retry.
  int max_attempts = 1;
  /// First-retry backoff; <= 0 disables the sleep (retries are immediate).
  double backoff_base_ms = 1.0;
  /// Upper bound on a single backoff sleep.
  double backoff_cap_ms = 100.0;
  /// Jitter seed (deterministic; no entropy is ever mixed in).
  std::uint64_t seed = 0;
};

/// Per-submission serving knobs (the submit() overloads without this
/// parameter behave as SubmitOptions{}).
struct SubmitOptions {
  /// Lane request; kAuto defers to the cost model (and to
  /// EngineOptions::priority_scheduling).
  JobPriority priority = JobPriority::kAuto;
  /// When > 0: if the job has not finished within this many milliseconds
  /// of admission, its remaining tiles are cancelled and the job fails
  /// with DeadlineExpiredError. 0 means no deadline.
  double deadline_ms = 0.0;
  /// Per-job attempt bound; 0 inherits EngineOptions::retry.max_attempts.
  int max_attempts = 0;
  /// When false, this submission bypasses the online-tuning bandit
  /// (docs/TUNING.md) and always runs on its caller-provided config; it
  /// neither explores nor reports a reward. No-op when
  /// EngineOptions::autotune left tuning off.
  bool autotune = true;
};

/// Engine construction knobs.
struct EngineOptions {
  /// Pool workers; <= 0 means max_threads() (the OpenMP-visible width).
  int threads = 0;
  /// Admission bound: jobs submitted-but-not-finished before submit()
  /// throws EngineSaturatedError (run_batch blocks instead).
  std::size_t max_in_flight = 16;
  /// Cached plans before the oldest is evicted (FIFO).
  std::size_t plan_cache_capacity = 64;
  /// Cost-model threshold: jobs whose plan prices above this many Eq-2
  /// FLOPs classify expensive. 0 means adaptive — expensive is more than
  /// twice the running mean of admitted jobs (once two jobs have been
  /// admitted; before that everything classifies cheap).
  std::uint64_t expensive_flops = 0;
  /// Overload response for expensive jobs at the shed bound.
  OverloadPolicy overload_policy = OverloadPolicy::kReject;
  /// When false, kAuto submissions all map to the normal lane — FIFO
  /// scheduling, the baseline the latency bench compares against.
  /// Explicit SubmitOptions::priority requests are always honored.
  bool priority_scheduling = true;
  /// Live telemetry (docs/TELEMETRY.md): sampler thread, flight recorder,
  /// Prometheus exporter, stuck-job watchdog. Off by default; the
  /// TILQ_TELEMETRY / TILQ_TELEMETRY_PORT / TILQ_TELEMETRY_DUMP
  /// environment variables are applied on top at engine construction.
  TelemetryOptions telemetry;
  /// Retry/backoff for transient in-job failures (docs/ROBUSTNESS.md).
  /// The default (max_attempts = 1) preserves the pre-resilience behavior:
  /// every failure surfaces on the first attempt.
  RetryPolicy retry;
  /// Engine-wide byte budget over workspace pools + recycled driver
  /// buffers (MemoryGovernor); 0 means unlimited. Crossing it browns the
  /// engine out: idle scratch is reclaimed and new jobs plan in
  /// reduced-footprint mode instead of failing admission.
  std::uint64_t memory_budget_bytes = 0;
  /// Health state machine thresholds (shed/retry rates, epoch length).
  HealthThresholds health;
  /// Online per-fingerprint config learning (docs/TUNING.md). Off by
  /// default; the TILQ_AUTOTUNE environment variable is applied on top at
  /// engine construction. Every arm runs through the same plan cache, so
  /// tuning changes latency, never results.
  AutotuneOptions autotune;
};

/// Per-job accounting, valid once the job is done (JobHandle::stats()).
struct JobStats {
  std::uint64_t id = 0;          ///< engine-assigned job id (1-based)
  bool plan_cache_hit = false;   ///< structure+config found in the plan cache
  std::int64_t tasks = 0;        ///< tile tasks the job was split into
  std::int64_t output_nnz = 0;   ///< nonzeros in the result (0 on failure)
  std::uint64_t degrades = 0;    ///< rows replayed on the dense fallback
  std::size_t queue_depth = 0;   ///< other jobs in flight at admission
  bool expensive = false;        ///< cost-model verdict at admission
  bool deferred = false;         ///< demoted to background under kDefer
  std::int64_t flop_estimate = 0;  ///< the plan's Eq-2 work total
  double deadline_ms = 0.0;      ///< SubmitOptions::deadline_ms (0 = none)
  double plan_ms = 0.0;          ///< structure-phase time (0 on a cache hit)
  double queue_ms = 0.0;         ///< submit -> first task start
  double run_ms = 0.0;           ///< first task start -> completion
  double total_ms = 0.0;         ///< submit -> completion
  std::uint32_t attempts = 1;    ///< execution attempts (1 = never retried)
  bool retried = false;          ///< attempts > 1
  bool degraded_config = false;  ///< a retry ran on a degraded Config
  double backoff_total_ms = 0.0; ///< deterministic backoff slept, summed
};

/// Engine-lifetime totals (Engine::stats()).
struct EngineStats {
  std::uint64_t jobs_submitted = 0;  ///< admitted by submit()/run_batch()
  std::uint64_t jobs_completed = 0;  ///< finished with a result
  std::uint64_t jobs_failed = 0;     ///< finished by capturing an exception
  std::uint64_t jobs_rejected = 0;   ///< submit() throws past the admission bound
  std::uint64_t jobs_shed = 0;       ///< expensive jobs refused at the shed bound
  std::uint64_t jobs_deferred = 0;   ///< expensive jobs demoted to background
  std::uint64_t jobs_expensive = 0;  ///< admitted jobs the cost model priced expensive
  std::uint64_t deadline_misses = 0; ///< jobs cancelled past their deadline
  std::uint64_t plan_builds = 0;     ///< structure phases actually run
  std::uint64_t plan_hits = 0;       ///< submissions served from the plan cache
                                     ///< (incl. waiters on a concurrent build)
  std::uint64_t tasks_executed = 0;  ///< pool tasks run (tiles + finalizers)
  std::uint64_t tasks_stolen = 0;    ///< tasks taken from another worker's queue
  std::uint64_t in_flight = 0;       ///< jobs admitted but not yet finished
  std::uint64_t peak_in_flight = 0;  ///< high-water mark of in_flight
  std::uint64_t jobs_stuck = 0;      ///< in-flight jobs flagged by the watchdog
  std::uint64_t telemetry_samples = 0;  ///< sampler ticks (0 with telemetry off)
  std::uint64_t retries = 0;         ///< retry attempts across all jobs
  std::uint64_t jobs_retried = 0;    ///< jobs that needed more than one attempt
  std::uint64_t brownouts = 0;       ///< memory-governor transitions into brownout
  std::uint64_t autotune_fingerprints = 0;  ///< bandit arm tables created
  std::uint64_t autotune_explorations = 0;  ///< non-best arms served
  std::uint64_t autotune_arm_switches = 0;  ///< best-arm changes
  std::uint64_t autotune_converged = 0;     ///< fingerprints frozen
  std::uint64_t memory_usage_bytes = 0;       ///< governor ledger now
  std::uint64_t memory_high_water_bytes = 0;  ///< governor high-water mark
  std::uint64_t memory_budget_bytes = 0;      ///< configured budget (0 = off)
  EngineHealth health = EngineHealth::kHealthy;  ///< live health verdict
  double uptime_ms = 0.0;            ///< milliseconds since engine construction
  WorkspacePoolStats workspace;      ///< summed over the engine's typed pools
  LatencySummary latency;            ///< submit-to-done percentiles, all finished jobs
  LatencySummary queue_latency;      ///< submit-to-first-task percentiles
  LatencySummary run_latency;        ///< first-task-to-done percentiles
};

/// The serving percentile block of `stats` as the metrics layer's
/// nullable record object (present only when at least one job finished);
/// benches attach it to their MetricsRecord so `engine_latency_*` fields
/// land in the JSON-lines sink.
[[nodiscard]] EngineLatencyRecord engine_latency_record(
    const EngineStats& stats);

/// One-line human-readable rendering of EngineStats (CLI/bench output).
[[nodiscard]] std::string describe(const EngineStats& stats);

namespace engine_detail {
/// Process-wide monotone job ids (stable across engines, handy in traces).
[[nodiscard]] std::uint64_t next_job_id() noexcept;
}  // namespace engine_detail

/// The batch engine. Thread-safe: submit(), run_batch(), wait_idle(), and
/// stats() may be called concurrently from any number of threads. The
/// operand matrices behind a submission must stay alive and unmodified
/// until its job completes (the engine stores references, not copies).
/// Config::threads and Config::schedule are ignored in engine mode — the
/// pool width fixes the tile grid and tasks are dynamically scheduled by
/// construction. Destruction waits for in-flight jobs, then joins the
/// pool.
template <Semiring SR, class T = typename SR::value_type,
          class I = std::int64_t>
class Engine {
  struct Job;

 public:
  /// Future-like handle to a submitted query. Cheap to copy (shared
  /// state); safe to wait from any thread.
  class JobHandle {
   public:
    JobHandle() = default;

    [[nodiscard]] bool valid() const noexcept { return job_ != nullptr; }
    [[nodiscard]] std::uint64_t id() const { return job_->id; }

    /// Non-blocking completion probe.
    [[nodiscard]] bool done() const {
      const std::lock_guard<std::mutex> lock(job_->mutex);
      return job_->done;
    }

    /// Blocks until the job finishes. Rethrows the job's first captured
    /// exception with ParallelGuard semantics (taxonomy types pass through
    /// intact, bad_alloc becomes CapacityError, anything foreign becomes
    /// InternalError). Repeatable: failed jobs rethrow on every wait.
    void wait() const {
      std::unique_lock<std::mutex> lock(job_->mutex);
      job_->cv.wait(lock, [&] { return job_->done; });
      lock.unlock();
      job_->guard.rethrow_if_failed();
    }

    /// wait(), then moves the result out. Single-use: a second get() on
    /// the same job throws PreconditionError.
    [[nodiscard]] Csr<T, I> get() {
      wait();
      const std::lock_guard<std::mutex> lock(job_->mutex);
      require(job_->result.has_value(),
              "JobHandle::get: result already taken");
      Csr<T, I> out = std::move(*job_->result);
      job_->result.reset();
      return out;
    }

    /// Per-job accounting; call only after the job is done.
    [[nodiscard]] JobStats stats() const {
      const std::lock_guard<std::mutex> lock(job_->mutex);
      require(job_->done, "JobHandle::stats: job still running");
      return job_->stats;
    }

   private:
    friend class Engine;
    explicit JobHandle(std::shared_ptr<Job> job) : job_(std::move(job)) {}
    std::shared_ptr<Job> job_;
  };

  /// One query of a run_batch() call. Pointers, not copies: the caller
  /// keeps the matrices alive for the duration of the batch.
  struct Query {
    const Csr<T, I>* mask = nullptr;
    const Csr<T, I>* a = nullptr;
    const Csr<T, I>* b = nullptr;
    Config config{};
    SubmitOptions options{};
  };

  explicit Engine(EngineOptions options = {})
      : options_(options), pool_(options.threads) {
    static_assert(std::is_same_v<T, typename SR::value_type>,
                  "matrix value type must match the semiring");
    if (options_.max_in_flight == 0) {
      options_.max_in_flight = 1;
    }
    options_.retry.max_attempts = std::max(1, options_.retry.max_attempts);
    governor_.set_budget(options_.memory_budget_bytes);
    health_.set_thresholds(options_.health);
    options_.autotune = autotune_options_from_env(options_.autotune);
    if (options_.autotune.enabled) {
      autotune_ = std::make_unique<ConfigBandit>(options_.autotune);
    }
    options_.telemetry = telemetry_options_from_env(options_.telemetry);
    if (options_.telemetry.enabled) {
      // Created in the constructor body, after every member the collector
      // walks is initialized; declared last, so it is destroyed first.
      telemetry_ = std::make_unique<TelemetryHub>(
          options_.telemetry, [this] { return collect_telemetry(); },
          [this] { return health_state(); });
    }
  }

  ~Engine() { wait_idle(); }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Submits one masked-SpGEMM query; never blocks. Throws
  /// EngineSaturatedError when max_in_flight jobs are already admitted
  /// (or, under OverloadPolicy::kShed, when an expensive job hits the
  /// shed bound), and PreconditionError for shape/validation defects
  /// (found on the calling thread, before any task is queued). The
  /// SubmitOptions overloads attach a lane request and/or a deadline.
  JobHandle submit(const Csr<T, I>& mask, const Csr<T, I>& a,
                   const Csr<T, I>& b, const Config& config = {}) {
    return submit_impl(mask, a, b, config, SubmitOptions{}, /*block=*/false);
  }

  JobHandle submit(const Csr<T, I>& mask, const Csr<T, I>& a,
                   const Csr<T, I>& b, const Config& config,
                   const SubmitOptions& options) {
    return submit_impl(mask, a, b, config, options, /*block=*/false);
  }

  /// Submits every query, pacing admissions against the in-flight bound
  /// (blocks instead of throwing), and returns the results in query
  /// order. A failing job rethrows its error from here once its turn
  /// comes; sibling jobs are unaffected and still complete.
  std::vector<Csr<T, I>> run_batch(std::span<const Query> queries) {
    std::vector<JobHandle> handles;
    handles.reserve(queries.size());
    for (const Query& q : queries) {
      handles.push_back(
          submit_impl(*q.mask, *q.a, *q.b, q.config, q.options,
                      /*block=*/true));
    }
    std::vector<Csr<T, I>> results;
    results.reserve(handles.size());
    for (JobHandle& handle : handles) {
      results.push_back(handle.get());
    }
    return results;
  }

  /// Blocks until no job is in flight.
  void wait_idle() {
    std::unique_lock<std::mutex> lock(state_mutex_);
    state_cv_.wait(lock, [&] { return in_flight_ == 0; });
  }

  /// Pool workers.
  [[nodiscard]] int threads() const noexcept { return pool_.size(); }

  /// The live telemetry hub — sample ring, flight recorder, exporter —
  /// or nullptr when EngineOptions::telemetry left telemetry off.
  [[nodiscard]] TelemetryHub* telemetry() noexcept { return telemetry_.get(); }
  [[nodiscard]] const TelemetryHub* telemetry() const noexcept {
    return telemetry_.get();
  }

  /// The online-tuning bandit — per-fingerprint arm tables, convergence
  /// state — or nullptr when EngineOptions::autotune left tuning off.
  [[nodiscard]] ConfigBandit* autotune() noexcept { return autotune_.get(); }
  [[nodiscard]] const ConfigBandit* autotune() const noexcept {
    return autotune_.get();
  }

  [[nodiscard]] EngineStats stats() const {
    EngineStats s;
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      s.jobs_submitted = jobs_submitted_;
      s.jobs_completed = jobs_completed_;
      s.jobs_failed = jobs_failed_;
      s.jobs_rejected = jobs_rejected_;
      s.jobs_shed = jobs_shed_;
      s.jobs_deferred = jobs_deferred_;
      s.jobs_expensive = jobs_expensive_;
      s.in_flight = static_cast<std::uint64_t>(in_flight_);
      s.peak_in_flight = peak_in_flight_;
      s.jobs_retried = jobs_retried_;
    }
    s.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
    s.jobs_stuck = jobs_stuck_.load(std::memory_order_relaxed);
    s.retries = retries_.load(std::memory_order_relaxed);
    s.brownouts = governor_.brownouts();
    s.memory_usage_bytes = governor_.usage();
    s.memory_high_water_bytes = governor_.high_water();
    s.memory_budget_bytes = governor_.budget();
    s.health = health_state();
    s.telemetry_samples = telemetry_ ? telemetry_->sample_count() : 0;
    s.uptime_ms = uptime_.milliseconds();
    s.latency = total_hist_.summary();
    s.queue_latency = queue_hist_.summary();
    s.run_latency = run_hist_.summary();
    {
      const std::lock_guard<std::mutex> lock(plan_mutex_);
      s.plan_builds = plan_builds_;
      s.plan_hits = plan_hits_;
    }
    if (autotune_ != nullptr) {
      const AutotuneStats at = autotune_->stats();
      s.autotune_fingerprints = at.fingerprints;
      s.autotune_explorations = at.explorations;
      s.autotune_arm_switches = at.arm_switches;
      s.autotune_converged = at.converged;
    }
    const ThreadPool::Stats pool = pool_.stats();
    s.tasks_executed = pool.executed;
    s.tasks_stolen = pool.stolen;
    {
      const std::lock_guard<std::mutex> lock(pools_mutex_);
      for (const auto& stats_fn : pool_stats_fns_) {
        const WorkspacePoolStats w = stats_fn();
        s.workspace.acquisitions += w.acquisitions;
        s.workspace.constructions += w.constructions;
        s.workspace.retunes += w.retunes;
      }
    }
    return s;
  }

 private:
  /// A cached, fully-bound plan: the structure-phase output plus the typed
  /// task runner resolved for its (marker width x accumulator) dispatch.
  /// Immutable after construction, shared by every job that hits it.
  struct PlanEntry {
    Plan<I> plan;
    Config config;
    /// Runs one tile task of `job` on pool worker `worker`.
    std::function<void(const PlanEntry&, Job&, std::int64_t, int)> run_task;
  };

  struct Job {
    std::uint64_t id = 0;
    const Csr<T, I>* mask = nullptr;
    const Csr<T, I>* a = nullptr;
    const Csr<T, I>* b = nullptr;
    std::shared_ptr<const PlanEntry> entry;
    std::unique_ptr<detail::DriverBuffers<T, I>> buffers;
    /// Set once the first task bound `buffers` (under buffers_mutex). Not
    /// a std::once_flag: under ThreadSanitizer a std::call_once whose bind
    /// threw stays locked, and the retry attempt's first task hangs.
    std::atomic<bool> buffers_bound{false};
    std::mutex buffers_mutex;
    std::int64_t task_count = 0;
    std::atomic<std::int64_t> remaining{0};
    ParallelGuard guard;
    std::atomic<std::int64_t> rows{0};
    std::atomic<std::uint64_t> degrades{0};
    WallTimer since_submit;  ///< started at admission
    std::atomic<bool> first_task_seen{false};
    double queue_ms = 0.0;  ///< written once by the first task
    double trace_start_us = -1.0;
    bool cache_hit = false;
    std::size_t depth_at_submit = 0;
    bool expensive = false;      ///< cost-model verdict at admission
    bool was_deferred = false;   ///< demoted to background under kDefer
    std::int64_t flop_estimate = 0;
    double deadline_ms = 0.0;    ///< 0 = no deadline
    std::atomic<bool> deadline_missed{false};
    double plan_ms = 0.0;        ///< structure-phase time (0 on a hit)
    // Retry state (docs/ROBUSTNESS.md). Between attempts only the
    // finalizing task is alive, so the non-atomic fields need no locks.
    TaskPriority lane = TaskPriority::kNormal;  ///< recorded for re-queues
    int autotune_arm = -1;  ///< bandit arm served (-1: bandit bypassed)
    int max_attempts = 1;
    std::atomic<std::uint32_t> attempts{1};
    bool degraded_config = false;   ///< some retry ran on a degraded Config
    double backoff_total_ms = 0.0;  ///< summed deterministic backoff
    // Completion state, guarded by `mutex`.
    std::mutex mutex;
    std::condition_variable cv;
    bool done = false;
    std::optional<Csr<T, I>> result;
    JobStats stats;
  };

  JobHandle submit_impl(const Csr<T, I>& mask, const Csr<T, I>& a,
                        const Csr<T, I>& b, Config config,
                        const SubmitOptions& sopts, bool block) {
    // Plan before admission: the cost-model verdict needs the plan's Eq-2
    // FLOP total, and a cache hit makes pricing a repeat structure free.
    // Shape/validation defects therefore surface on the calling thread
    // without ever consuming an admission slot. The pool width fixes the
    // tile grid (2 x workers by default) and the plan-cache key stays
    // stable across callers with different Config::threads.
    config.threads = pool_.size();
    // Memory governor (docs/ROBUSTNESS.md): under pressure, reclaim idle
    // scratch first; once browned out, plan the NEW job in reduced-
    // footprint mode instead of failing its admission. In-flight jobs are
    // never disturbed.
    if (governor_.under_pressure()) {
      reclaim_idle_memory();
    }
    if (governor_.browned_out()) {
      config = reduced_footprint(std::move(config));
    }
    sync_brownout_metric();
    const std::uint64_t fingerprint =
        detail::structural_fingerprint(mask, a, b);
    // Online tuning (docs/TUNING.md): the bandit may swap the config
    // before the plan lookup — an arm switch only changes which
    // (fingerprint, config) entry the plan cache serves, so results stay
    // bit-identical across arms. Exploration is gated to jobs that can
    // afford a mispriced draw: no deadline, a healthy engine (brownout
    // skips the bandit entirely — a reduced-footprint config must not
    // contaminate the arm table), and a fingerprint whose last Eq-2 price
    // did not classify expensive.
    int autotune_arm = -1;
    bool autotune_explored = false;
    if (autotune_ != nullptr && sopts.autotune && !governor_.browned_out()) {
      const bool allow_explore =
          sopts.deadline_ms <= 0.0 &&
          health_state() == EngineHealth::kHealthy &&
          !autotune_expensive(autotune_->last_flops(fingerprint));
      // The heuristic prediction is only needed when this select creates
      // the arm table; a known fingerprint skips the feature pass.
      const Config heuristic = autotune_->known(fingerprint)
                                   ? config
                                   : predict_config(mask, a, b, pool_.size());
      const ArmDecision decision =
          autotune_->select(fingerprint, config, heuristic, allow_explore);
      if (decision.arm >= 0) {
        config = decision.config;
        config.threads = pool_.size();
        autotune_arm = decision.arm;
        autotune_explored = decision.exploration;
      }
    }
    bool cache_hit = false;
    std::shared_ptr<const PlanEntry> entry =
        plan_for(mask, a, b, config, fingerprint, /*parallel=*/true,
                 cache_hit);
    const double plan_ms = cache_hit ? 0.0 : entry->plan.info.build_ms;
    const auto flops =
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, entry->plan.flop_total));
    // The id exists before admission so every flight-record event of this
    // submission — even a shed one — is keyed to the same job.
    const std::uint64_t job_id = engine_detail::next_job_id();
    if (telemetry_) {
      telemetry_->flight().record(job_id, FlightEventKind::kSubmitted, -1,
                                  entry->plan.flop_total);
      telemetry_->flight().record(job_id, FlightEventKind::kPlanned, -1,
                                  entry->plan.flop_total);
      if (autotune_explored || autotune_arm > 0) {
        telemetry_->flight().record(job_id, FlightEventKind::kAutotuned,
                                    autotune_arm, entry->plan.flop_total);
      }
    }
#if TILQ_METRICS_ENABLED
    if (autotune_explored) {
      if (MetricCounters* const counters = metrics_thread_counters()) {
        ++counters->autotune_explorations;
      }
    }
#endif

    std::size_t depth = 0;
    bool expensive = false;
    bool deferred = false;
    {
      std::unique_lock<std::mutex> lock(state_mutex_);
      expensive = classify_expensive_locked(flops);
      // Expensive jobs hit their overload response earlier than the hard
      // bound: at 3/4 of max_in_flight the engine starts protecting the
      // cheap traffic's latency (docs/SERVING.md).
      const std::size_t shed_bound = std::max<std::size_t>(
          1, options_.max_in_flight - options_.max_in_flight / 4);
      if (block) {
        state_cv_.wait(lock,
                       [&] { return in_flight_ < options_.max_in_flight; });
      } else {
        if (in_flight_ >= options_.max_in_flight) {
          ++jobs_rejected_;
          throw EngineSaturatedError(
              "Engine::submit: " + std::to_string(in_flight_) +
              " jobs in flight (max_in_flight=" +
              std::to_string(options_.max_in_flight) +
              ") — wait on a JobHandle or use run_batch(), which paces "
              "admissions");
        }
        if (expensive && in_flight_ >= shed_bound) {
          if (options_.overload_policy == OverloadPolicy::kShed) {
            ++jobs_shed_;
            health_.record_shed();
            count_shed_metric();
            if (telemetry_) {  // wait-free, fine under the lock
              telemetry_->flight().record(job_id, FlightEventKind::kShed, -1,
                                          entry->plan.flop_total);
            }
            throw EngineSaturatedError(
                "Engine::submit: expensive job (" + std::to_string(flops) +
                " estimated FLOPs) shed at " + std::to_string(in_flight_) +
                " jobs in flight — retry when load drops, or submit with "
                "JobPriority::kBackground");
          }
          if (options_.overload_policy == OverloadPolicy::kDefer &&
              sopts.priority == JobPriority::kAuto) {
            deferred = true;
            ++jobs_deferred_;
          }
        }
      }
      depth = in_flight_++;
      peak_in_flight_ =
          std::max<std::uint64_t>(peak_in_flight_, in_flight_);
      ++jobs_submitted_;
      if (expensive) {
        ++jobs_expensive_;
      }
      // Only admitted jobs feed the adaptive threshold, so a burst of
      // shed submissions cannot talk the mean up until nothing is
      // expensive any more.
      admitted_flops_ += flops;
      ++admitted_jobs_;
    }
    health_.record_admit();
#if TILQ_METRICS_ENABLED
    if (expensive || deferred) {
      if (MetricCounters* const counters = metrics_thread_counters()) {
        counters->engine_jobs_expensive += expensive ? 1 : 0;
        counters->engine_jobs_deferred += deferred ? 1 : 0;
      }
    }
#endif
    if (telemetry_) {
      if (deferred) {
        telemetry_->flight().record(job_id, FlightEventKind::kDeferred, -1,
                                    entry->plan.flop_total);
      }
      telemetry_->flight().record(job_id, FlightEventKind::kAdmitted, -1,
                                  entry->plan.flop_total);
      telemetry_register(job_id, entry->plan.flop_total);
    }
    try {
      return launch(job_id, mask, a, b, std::move(entry), cache_hit, depth,
                    lane_for(sopts.priority, expensive, deferred), sopts,
                    expensive, deferred, plan_ms, autotune_arm);
    } catch (...) {
      // Admission is undone: the job never started.
      if (telemetry_) {
        telemetry_unregister(job_id);
      }
      const std::lock_guard<std::mutex> lock(state_mutex_);
      --in_flight_;
      --jobs_submitted_;
      state_cv_.notify_all();
      throw;
    }
  }

  /// Cost-model verdict for one submission; call with state_mutex_ held.
  [[nodiscard]] bool classify_expensive_locked(std::uint64_t flops) const {
    if (options_.expensive_flops > 0) {
      return flops > options_.expensive_flops;
    }
    if (admitted_jobs_ < 2) {
      return false;  // no baseline yet: everything is cheap
    }
    return flops > 2 * (admitted_flops_ / admitted_jobs_);
  }

  /// Exploration-gate half of the cost model: would the fingerprint's
  /// last-known Eq-2 price classify expensive right now? Unknown
  /// fingerprints (0 FLOPs on record) price cheap — their first sighting
  /// serves the caller's config anyway.
  [[nodiscard]] bool autotune_expensive(std::int64_t flops) const {
    const std::lock_guard<std::mutex> lock(state_mutex_);
    return classify_expensive_locked(
        static_cast<std::uint64_t>(std::max<std::int64_t>(0, flops)));
  }

  /// Maps the caller's lane request and the cost-model verdict onto a
  /// pool lane.
  [[nodiscard]] TaskPriority lane_for(JobPriority requested, bool expensive,
                                      bool deferred) const {
    switch (requested) {
      case JobPriority::kHigh:
        return TaskPriority::kHigh;
      case JobPriority::kNormal:
        return TaskPriority::kNormal;
      case JobPriority::kBackground:
        return TaskPriority::kBackground;
      case JobPriority::kAuto:
        break;
    }
    if (!options_.priority_scheduling) {
      return TaskPriority::kNormal;  // FIFO baseline
    }
    return (expensive || deferred) ? TaskPriority::kBackground
                                   : TaskPriority::kHigh;
  }

  void count_shed_metric() const {
#if TILQ_METRICS_ENABLED
    if (MetricCounters* const counters = metrics_thread_counters()) {
      ++counters->engine_jobs_shed;
    }
#endif
  }

  /// Plan-cache lookup keyed by (structural fingerprint, config), which
  /// must be the fingerprint of the live (mask, a, b). A miss builds and
  /// binds the entry on the calling thread with plan_mutex_ released, so a
  /// cold build never stalls other lookups. A per-key once-latch
  /// (`building_`) makes concurrent misses on one key build once: the
  /// first caller builds, the others wait on its future and count as hits,
  /// and a failed build reaches every waiter and leaves no latch behind.
  /// `parallel` = false keeps the structure phase serial, for callers on
  /// pool workers (the retry replan); with true, operands below
  /// detail::kSerialPlanCutoff still plan serially.
  std::shared_ptr<const PlanEntry> plan_for(const Csr<T, I>& mask,
                                            const Csr<T, I>& a,
                                            const Csr<T, I>& b,
                                            const Config& config,
                                            std::uint64_t fingerprint,
                                            bool parallel, bool& cache_hit) {
    const auto pending = [&] {  // call with plan_mutex_ held
      return std::find_if(building_.begin(), building_.end(),
                          [&](const PendingBuild& p) {
                            return p.fingerprint == fingerprint &&
                                   p.config == config;
                          });
    };
    std::unique_lock<std::mutex> lock(plan_mutex_);
    // Newest-first scan: serving workloads resubmit recent structures.
    for (auto it = plans_.rbegin(); it != plans_.rend(); ++it) {
      if ((*it)->plan.info.fingerprint == fingerprint &&
          (*it)->config == config) {
        ++plan_hits_;
        cache_hit = true;
        return *it;
      }
    }
    if (const auto latch = pending(); latch != building_.end()) {
      const std::shared_future<std::shared_ptr<const PlanEntry>> result =
          latch->result;
      lock.unlock();
      std::shared_ptr<const PlanEntry> entry = result.get();  // may rethrow
      lock.lock();
      ++plan_hits_;
      cache_hit = true;
      return entry;
    }
    std::promise<std::shared_ptr<const PlanEntry>> built;
    building_.push_back({fingerprint, config, built.get_future().share()});
    lock.unlock();
    std::shared_ptr<PlanEntry> entry;
    try {
      WallTimer build;
      entry = std::make_shared<PlanEntry>();
      entry->plan =
          detail::build_plan(mask, a, b, config, fingerprint, parallel);
      entry->config = config;
      entry->plan.info.build_ms = build.milliseconds();
      bind_entry(*entry);
    } catch (...) {
      lock.lock();
      building_.erase(pending());
      lock.unlock();
      built.set_exception(std::current_exception());
      throw;
    }
    lock.lock();
    building_.erase(pending());
    ++plan_builds_;
    plans_.push_back(entry);
    if (plans_.size() > std::max<std::size_t>(1, options_.plan_cache_capacity)) {
      plans_.pop_front();  // in-flight jobs keep their shared_ptr alive
    }
    lock.unlock();
    built.set_value(entry);
    cache_hit = false;
    return entry;
  }

  JobHandle launch(std::uint64_t job_id, const Csr<T, I>& mask,
                   const Csr<T, I>& a, const Csr<T, I>& b,
                   std::shared_ptr<const PlanEntry> entry, bool cache_hit,
                   std::size_t depth, TaskPriority lane,
                   const SubmitOptions& sopts, bool expensive, bool deferred,
                   double plan_ms, int autotune_arm) {
    auto job = std::make_shared<Job>();
    job->id = job_id;
    job->autotune_arm = autotune_arm;
    job->mask = &mask;
    job->a = &a;
    job->b = &b;
    job->entry = std::move(entry);
    job->cache_hit = cache_hit;
    job->depth_at_submit = depth;
    job->expensive = expensive;
    job->was_deferred = deferred;
    job->flop_estimate = job->entry->plan.flop_total;
    job->deadline_ms = std::max(0.0, sopts.deadline_ms);
    job->plan_ms = plan_ms;
    job->lane = lane;
    job->max_attempts = std::max(
        1, sopts.max_attempts > 0 ? sopts.max_attempts
                                  : options_.retry.max_attempts);
    const Plan<I>& plan = job->entry->plan;
    // Cells per row tile: column blocks (blocked), 1 (1D).
    job->task_count = static_cast<std::int64_t>(plan.row_tiles.size() *
                                                plan.cells_per_row_tile());
    // Driver buffers are NOT acquired here: binding is deferred to the
    // first task (bind_buffers) so the number of live scratch sets tracks
    // the worker count, not the admission window. Acquiring at submit
    // would materialize max_in_flight nnz-sized buffer sets that evict
    // each other from cache while most of them sit queued.
    // Even a zero-tile job runs one finalizer task so completion always
    // happens on the pool, never inline in submit().
    job->remaining.store(std::max<std::int64_t>(1, job->task_count),
                         std::memory_order_relaxed);
#if TILQ_METRICS_ENABLED
    if (MetricCounters* const counters = metrics_thread_counters()) {
      counters->engine_queue_depth += static_cast<std::uint64_t>(depth);
    }
    if (trace_enabled()) {
      job->trace_start_us = trace_detail::now_us();
    }
#endif
    if (telemetry_) {
      telemetry_->flight().record(job->id, FlightEventKind::kLaneAssigned,
                                  static_cast<int>(lane), job->flop_estimate);
    }
    job->since_submit.reset();
    // Read once: the submitted tasks may fail, finalize and retry, which
    // rewrites job->task_count, before this loop ends.
    const std::int64_t task_count = job->task_count;
    if (task_count == 0) {
      pool_.submit([this, job] { run_task(job, -1); }, lane);
    } else {
      for (std::int64_t task = 0; task < task_count; ++task) {
        pool_.submit([this, job, task] { run_task(job, task); }, lane);
      }
    }
    return JobHandle(std::move(job));
  }

  /// Body of every pool task: one tile (task >= 0), then whoever finishes
  /// last runs the serial compact and completes the job.
  void run_task(const std::shared_ptr<Job>& job, std::int64_t task) {
    if (!job->first_task_seen.exchange(true, std::memory_order_acq_rel)) {
      job->queue_ms = job->since_submit.milliseconds();
      if (telemetry_) {
        telemetry_->flight().record(job->id, FlightEventKind::kFirstTile);
      }
    }
    // Deadline gate: a tile that would start past the job's deadline
    // cancels the job instead (via the guard, so the remaining tiles
    // skip and the handle rethrows a DeadlineExpiredError). Checked
    // per-tile, not per-row — an already-running tile finishes.
    if (task >= 0 && job->deadline_ms > 0.0 && !job->guard.cancelled() &&
        job->since_submit.milliseconds() > job->deadline_ms) {
      if (!job->deadline_missed.exchange(true, std::memory_order_relaxed)) {
        deadline_misses_.fetch_add(1, std::memory_order_relaxed);
        if (telemetry_) {
          telemetry_->flight().record(job->id, FlightEventKind::kDeadlineMiss);
        }
#if TILQ_METRICS_ENABLED
        if (MetricCounters* const counters = metrics_thread_counters()) {
          ++counters->engine_deadline_misses;
        }
#endif
      }
      job->guard.run([&] {
        throw DeadlineExpiredError(
            "Engine: job " + std::to_string(job->id) + " missed its " +
            std::to_string(job->deadline_ms) + " ms deadline");
      });
    }
    if (task >= 0 && !job->guard.cancelled()) {
      job->guard.run([&] { bind_buffers(*job); });
      if (!job->guard.cancelled()) {
        const int worker = std::max(0, ThreadPool::worker_index());
        job->entry->run_task(*job->entry, *job, task, worker);
      }
    }
#if TILQ_METRICS_ENABLED
    // Counted before the fetch_sub below, so the job's completion orders
    // the increment before any reader that waited for the job.
    if (MetricCounters* const counters = metrics_thread_counters()) {
      ++counters->engine_tasks;
    }
#endif
    if (job->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      finalize(job);
    }
  }

  /// Binds the job's driver buffers on first use, from any worker.
  /// Allocation failures surface through the caller's ParallelGuard wrap
  /// and leave the job unbound, so a later task (or retry) binds again.
  void bind_buffers(Job& job) {
    if (job.buffers_bound.load(std::memory_order_acquire)) {
      return;
    }
    const std::lock_guard<std::mutex> lock(job.buffers_mutex);
    if (job.buffers_bound.load(std::memory_order_relaxed)) {
      return;
    }
    job.buffers = acquire_buffers();
    ensure_buffers_for(job, job.entry->plan);
    job.buffers_bound.store(true, std::memory_order_release);
  }

  /// (Re)sizes the job's bound driver buffers for `plan`, charging the
  /// governor for any capacity growth. ensure() only grows, so this is
  /// safe to call again after a retry replan swapped the job's plan.
  void ensure_buffers_for(Job& job, const Plan<I>& plan) {
    const std::uint64_t before = buffer_bytes(*job.buffers);
    job.buffers->ensure(
        static_cast<std::size_t>(job.mask->nnz()),
        static_cast<std::size_t>(plan.rows),
        plan.cells_per_row_tile() > 1
            ? static_cast<std::size_t>(plan.rows) * plan.cells_per_row_tile()
            : 0);
    const std::uint64_t after = buffer_bytes(*job.buffers);
    if (after > before) {
      governor_.charge(after - before);
    }
  }

  void finalize(const std::shared_ptr<Job>& job) {
    if (!job->guard.cancelled()) {
      job->guard.run([&] {
        TraceSpan span("engine.compact", static_cast<std::int64_t>(job->id));
        bind_buffers(*job);  // zero-tile jobs reach compact unbound
        // Serial on purpose: pool workers must not open OpenMP teams.
        job->result = detail::compact_planned(job->entry->plan, *job->mask,
                                              *job->buffers,
                                              /*parallel=*/false);
      });
    }
    // Retry gate (docs/ROBUSTNESS.md): a failed attempt may go back onto
    // the pool as a fresh attempt — replanned or degraded — in which case
    // this finalize backs out entirely and the job is live again.
    if (job->guard.cancelled() && try_retry(job)) {
      return;
    }
    const bool failed = job->guard.cancelled();
    const double total_ms = job->since_submit.milliseconds();
    JobStats stats;
    stats.id = job->id;
    stats.plan_cache_hit = job->cache_hit;
    stats.tasks = job->task_count;
    stats.output_nnz =
        failed ? 0 : static_cast<std::int64_t>(job->result->nnz());
    stats.degrades = job->degrades.load(std::memory_order_relaxed);
    stats.queue_depth = job->depth_at_submit;
    stats.expensive = job->expensive;
    stats.deferred = job->was_deferred;
    stats.flop_estimate = job->flop_estimate;
    stats.deadline_ms = job->deadline_ms;
    stats.plan_ms = job->plan_ms;
    stats.queue_ms = job->queue_ms;
    stats.total_ms = total_ms;
    stats.run_ms = std::max(0.0, total_ms - job->queue_ms);
    stats.attempts = job->attempts.load(std::memory_order_relaxed);
    stats.retried = stats.attempts > 1;
    stats.degraded_config = job->degraded_config;
    stats.backoff_total_ms = job->backoff_total_ms;
    recycle_buffers(std::move(job->buffers));
    health_.record_finish();
    sync_brownout_metric();
    // Online-tuning reward (docs/TUNING.md): only a clean, uncontaminated
    // attempt prices its arm — a retried or degraded job measured a
    // different config than the bandit served, and a deadline miss says
    // nothing about the arm's speed on an unconstrained run.
    if (autotune_ != nullptr && job->autotune_arm >= 0 && !stats.retried &&
        !job->degraded_config &&
        !job->deadline_missed.load(std::memory_order_relaxed)) {
      const RewardOutcome outcome = autotune_->report(
          job->entry->plan.info.fingerprint, job->autotune_arm, stats.run_ms,
          job->flop_estimate, stats.degrades, failed);
#if TILQ_METRICS_ENABLED
      if (outcome.arm_switched || outcome.converged) {
        if (MetricCounters* const counters = metrics_thread_counters()) {
          counters->autotune_arm_switches += outcome.arm_switched ? 1 : 0;
          counters->autotune_converged += outcome.converged ? 1 : 0;
        }
      }
#endif
      if (telemetry_ && (outcome.arm_switched || outcome.converged)) {
        telemetry_->flight().record(job->id, FlightEventKind::kAutotuned,
                                    job->autotune_arm, job->flop_estimate);
      }
    }
    // Histograms before the state_mutex_ block below: after that lock is
    // released the engine may already be destroyed (see the comment
    // there), so no engine member may be touched past it.
    total_hist_.record_ms(stats.total_ms);
    queue_hist_.record_ms(stats.queue_ms);
    run_hist_.record_ms(stats.run_ms);
    if (telemetry_) {
      telemetry_->flight().record(job->id, FlightEventKind::kFinalized, -1,
                                  job->flop_estimate);
      telemetry_finish(job->id, failed, job->flop_estimate, stats.run_ms);
      if (failed) {
        // The "on Error" dump (docs/TELEMETRY.md): the failed job's
        // lifecycle, one line, before its handle ever rethrows.
        std::fprintf(stderr,
                     "tilq engine: job %llu failed; flight record: %s\n",
                     static_cast<unsigned long long>(job->id),
                     telemetry_->flight().to_json(job->id).c_str());
      }
    }
#if TILQ_METRICS_ENABLED
    if (MetricCounters* const counters = metrics_thread_counters()) {
      ++counters->engine_jobs;
      counters->engine_job_ns += static_cast<std::uint64_t>(total_ms * 1e6);
      counters->engine_queue_ns +=
          static_cast<std::uint64_t>(job->queue_ms * 1e6);
    }
    if (trace_enabled() && job->trace_start_us >= 0.0) {
      // A manual complete-event: the span opened at submit() on the caller
      // thread and closes here on a worker.
      trace_detail::record_span("engine.job",
                                static_cast<std::int64_t>(job->id),
                                job->trace_start_us, trace_detail::now_us(),
                                HwCounters{});
    }
#endif
    {
      // Engine-wide accounting settles before the job reads as done, so a
      // caller returning from JobHandle::get()/wait() always sees this job
      // in stats(). Notify under the lock: wait_idle() may destroy the
      // engine the moment the predicate holds, so neither the cv nor any
      // other engine member may be touched after the mutex is released —
      // everything below this block is Job state, which the handle's
      // shared_ptr keeps alive past the engine.
      const std::lock_guard<std::mutex> lock(state_mutex_);
      --in_flight_;
      if (failed) {
        ++jobs_failed_;
      } else {
        ++jobs_completed_;
      }
      if (stats.retried) {
        ++jobs_retried_;
      }
      state_cv_.notify_all();
    }
    {
      const std::lock_guard<std::mutex> lock(job->mutex);
      job->stats = stats;
      job->done = true;
    }
    job->cv.notify_all();
  }

  /// Resolves the (marker width x accumulator kind) dispatch for a new
  /// plan entry — the engine-side analogue of Executor::bind_dispatch,
  /// which a blocked plan skips for the direct window.
  void bind_entry(PlanEntry& entry) {
    if (entry.plan.is_blocked()) {
      using Window = DirectWindow<SR, I>;
      bind_entry_runner<Window>(
          entry,
          [](const Plan<I>& p, const Config&) {
            return Window(p.blocked->block_width, p.accumulator_bound);
          },
          [](const Plan<I>& p) {
            return Window::capability(p.blocked->block_width,
                                      p.accumulator_bound);
          });
      return;
    }
    switch (entry.config.marker_width) {
      case MarkerWidth::k8:
        bind_entry_marker<std::uint8_t>(entry);
        return;
      case MarkerWidth::k16:
        bind_entry_marker<std::uint16_t>(entry);
        return;
      case MarkerWidth::k32:
        bind_entry_marker<std::uint32_t>(entry);
        return;
      case MarkerWidth::k64:
        bind_entry_marker<std::uint64_t>(entry);
        return;
    }
    require(false, "Engine: invalid marker width");
  }

  template <class Marker>
  void bind_entry_marker(PlanEntry& entry) {
    switch (entry.config.accumulator) {
      case AccumulatorKind::kDense:
        bind_entry_runner<DenseAccumulator<SR, I, Marker>>(
            entry,
            [](const Plan<I>& p, const Config& c) {
              return DenseAccumulator<SR, I, Marker>(p.cols, c.reset);
            },
            [](const Plan<I>& p) {
              return static_cast<std::uint64_t>(p.cols);
            });
        return;
      case AccumulatorKind::kBitmap:
        bind_entry_runner<BitmapAccumulator<SR, I>>(
            entry,
            [](const Plan<I>& p, const Config&) {
              return BitmapAccumulator<SR, I>(p.cols);
            },
            [](const Plan<I>& p) {
              return static_cast<std::uint64_t>(p.cols);
            });
        return;
      case AccumulatorKind::kHash:
        bind_entry_runner<HashAccumulator<SR, I, Marker>>(
            entry,
            [](const Plan<I>& p, const Config& c) {
              return HashAccumulator<SR, I, Marker>(p.accumulator_bound,
                                                    c.reset);
            },
            [](const Plan<I>& p) {
              return static_cast<std::uint64_t>(p.accumulator_bound);
            });
        return;
    }
    require(false, "Engine: invalid accumulator kind");
  }

  template <class Acc, class Factory, class Capability>
  void bind_entry_runner(PlanEntry& entry, Factory factory,
                         Capability capability) {
    std::shared_ptr<WorkspacePool<Acc>> pool = pool_for<Acc>();
    entry.run_task = [pool, factory, capability](const PlanEntry& e, Job& job,
                                                 std::int64_t task,
                                                 int worker) {
      job.guard.run([&] {
        WallTimer busy;
        // Engine-level fault sites (docs/ROBUSTNESS.md). plan-fingerprint
        // models a plan that went stale between attempts — the retry layer
        // answers it with an auto-replan; engine-pool-reserve models a
        // workspace reservation failure — answered by a degraded-config
        // retry. Both are one relaxed load when disarmed.
        if (fault::should_fire(FaultSite::kPlanFingerprint)) {
          throw StalePlanError(
              "Engine: plan went stale under job " + std::to_string(job.id) +
              " (injected fault: plan-fingerprint)");
        }
        if (fault::should_fire(FaultSite::kEnginePoolReserve)) {
          throw CapacityError(
              "Engine: workspace reservation failed (injected fault: "
              "engine-pool-reserve)");
        }
        const std::uint64_t cap = capability(e.plan);
        Acc& acc = pool->acquire(worker, cap,
                                 [&] { return factory(e.plan, e.config); },
                                 workspace_bytes<Acc>(e.plan, cap));
#if TILQ_METRICS_ENABLED
        const AccumulatorCounters counters_at_entry = acc.counters();
#endif
        // Per-task fallback (vs per-thread in the OpenMP driver): degraded
        // tasks are rare and a fresh dense target is equally bit-identical.
        std::optional<typename detail::FallbackAccumulator<Acc>::type>
            fallback;
        const detail::TileTaskStats tile =
            detail::run_tile_task<SR>(e.plan, e.config, *job.mask, *job.a,
                                      *job.b, task, acc, fallback,
                                      *job.buffers);
        job.rows.fetch_add(tile.rows, std::memory_order_relaxed);
        job.degrades.fetch_add(tile.degrades, std::memory_order_relaxed);
#if TILQ_METRICS_ENABLED
        if (MetricCounters* const tc = metrics_thread_counters()) {
          AccumulatorCounters d = acc.counters() - counters_at_entry;
          if constexpr (detail::FallbackAccumulator<Acc>::available) {
            if (fallback.has_value()) {
              d += fallback->counters();
            }
          }
          ++tc->tiles_executed;
          tc->rows_processed += static_cast<std::uint64_t>(tile.rows);
          tc->busy_ns +=
              static_cast<std::uint64_t>(busy.milliseconds() * 1e6);
          detail::add_accumulator_counters(*tc, d);
          tc->accum_degrades += tile.degrades;
        }
#endif
      });
    };
  }

  /// Governor charge for one pooled workspace built for `plan`: the direct
  /// window's real footprint, computed from its shape (its capability is a
  /// packed key, not a size); otherwise an estimate, capability units x
  /// element footprint, good enough for a brownout trip point.
  template <class Acc>
  [[nodiscard]] static std::uint64_t workspace_bytes(const Plan<I>& plan,
                                                     std::uint64_t cap) {
    if constexpr (std::is_same_v<Acc, DirectWindow<SR, I>>) {
      return Acc::bytes(plan.blocked->block_width, plan.accumulator_bound);
    } else {
      return cap * (sizeof(T) + sizeof(I));
    }
  }

  /// One engine-wide WorkspacePool per concrete accumulator type, sized to
  /// the pool width once at creation (reserve is not concurrency-safe;
  /// acquires afterwards are per-worker).
  template <class Acc>
  std::shared_ptr<WorkspacePool<Acc>> pool_for() {
    const std::lock_guard<std::mutex> lock(pools_mutex_);
    std::shared_ptr<void>& slot = pools_[std::type_index(typeid(Acc))];
    if (slot == nullptr) {
      auto pool = std::make_shared<WorkspacePool<Acc>>();
      pool->set_governor(&governor_);
      pool->reserve(pool_.size());
      pool_stats_fns_.push_back([pool] { return pool->stats(); });
      pool_release_fns_.push_back([pool] { pool->release(); });
      slot = pool;
    }
    return std::static_pointer_cast<WorkspacePool<Acc>>(slot);
  }

  /// The telemetry collector: one TelemetrySample from the engine's live
  /// state. Runs on the sampler thread (or a sample_now caller),
  /// serialized by the hub, so the windowed-histogram baselines below
  /// need no further synchronization.
  TelemetrySample collect_telemetry() {
    TelemetrySample s;
    s.uptime_ms = uptime_.milliseconds();
    {
      const std::lock_guard<std::mutex> lock(state_mutex_);
      s.jobs_submitted = jobs_submitted_;
      s.jobs_completed = jobs_completed_;
      s.jobs_failed = jobs_failed_;
      s.jobs_shed = jobs_shed_;
      s.jobs_deferred = jobs_deferred_;
      s.in_flight = static_cast<std::uint64_t>(in_flight_);
    }
    s.deadline_misses = deadline_misses_.load(std::memory_order_relaxed);
    s.retries = retries_.load(std::memory_order_relaxed);
    s.brownouts = governor_.brownouts();
    s.memory_usage_bytes = governor_.usage();
    s.memory_high_water_bytes = governor_.high_water();
    s.memory_budget_bytes = governor_.budget();
    s.health = health_state();
    {
      const std::lock_guard<std::mutex> lock(plan_mutex_);
      s.plan_builds = plan_builds_;
      s.plan_hits = plan_hits_;
    }
    const std::uint64_t lookups = s.plan_builds + s.plan_hits;
    s.plan_hit_rate = lookups == 0 ? 0.0
                                   : static_cast<double>(s.plan_hits) /
                                         static_cast<double>(lookups);
    s.window = total_hist_.snapshot_delta(window_total_baseline_);
    s.queue_window = queue_hist_.snapshot_delta(window_queue_baseline_);
    for (const ThreadPool::WorkerStats& w : pool_.worker_stats()) {
      TelemetryWorkerSample ws;
      ws.executed = w.executed;
      ws.stolen = w.stolen;
      s.workers.push_back(ws);
    }
    if (autotune_ != nullptr) {
      const AutotuneStats at = autotune_->stats();
      s.autotune_fingerprints = at.fingerprints;
      s.autotune_explorations = at.explorations;
      s.autotune_arm_switches = at.arm_switches;
      s.autotune_converged = at.converged;
    }
    watchdog_scan();
    s.jobs_stuck = jobs_stuck_.load(std::memory_order_relaxed);
    return s;
  }

  /// Watchdog pass over the in-flight registry (docs/TELEMETRY.md): a job
  /// whose elapsed time exceeds watchdog_factor x its Eq-2-predicted
  /// runtime — predicted from the completed jobs' FLOPs-per-millisecond
  /// throughput — and the floor is flagged once, counted in jobs_stuck /
  /// engine_jobs_stuck, and its flight record logged to stderr. Until a
  /// job has completed there is no throughput baseline and nothing flags.
  void watchdog_scan() {
    std::vector<std::pair<std::uint64_t, double>> stuck;  // id, elapsed ms
    const auto now = std::chrono::steady_clock::now();
    {
      const std::lock_guard<std::mutex> lock(watchdog_mutex_);
      if (watchdog_run_ms_ <= 0.0 || watchdog_flops_ == 0) {
        return;
      }
      const double flops_per_ms =
          static_cast<double>(watchdog_flops_) / watchdog_run_ms_;
      for (auto& [id, entry] : watchdog_jobs_) {
        if (entry.flagged) {
          continue;
        }
        const double elapsed_ms =
            std::chrono::duration<double, std::milli>(now - entry.admitted)
                .count();
        const double predicted_ms =
            static_cast<double>(std::max<std::int64_t>(0, entry.flops)) /
            flops_per_ms;
        const double bound =
            std::max(options_.telemetry.watchdog_floor_ms,
                     options_.telemetry.watchdog_factor * predicted_ms);
        if (elapsed_ms > bound) {
          entry.flagged = true;
          stuck.emplace_back(id, elapsed_ms);
        }
      }
      health_.set_stuck_jobs(count_flagged_locked());
    }
    for (const auto& [id, elapsed_ms] : stuck) {
      jobs_stuck_.fetch_add(1, std::memory_order_relaxed);
#if TILQ_METRICS_ENABLED
      if (MetricCounters* const counters = metrics_thread_counters()) {
        ++counters->engine_jobs_stuck;
      }
#endif
      telemetry_->flight().record(id, FlightEventKind::kStuck);
      std::fprintf(
          stderr,
          "tilq engine: watchdog: job %llu still in flight after %.1f ms "
          "(watchdog_factor %.1f); flight record: %s\n",
          static_cast<unsigned long long>(id), elapsed_ms,
          options_.telemetry.watchdog_factor,
          telemetry_->flight().to_json(id).c_str());
    }
  }

  /// In-flight registry bookkeeping; all no-ops unless telemetry is on.
  void telemetry_register(std::uint64_t id, std::int64_t flops) {
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    WatchedJob entry;
    entry.admitted = std::chrono::steady_clock::now();
    entry.flops = flops;
    watchdog_jobs_[id] = entry;
  }

  void telemetry_unregister(std::uint64_t id) {
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_jobs_.erase(id);
  }

  /// Currently-flagged in-flight jobs; call with watchdog_mutex_ held.
  /// Feeds the health monitor's stuck gauge — a gauge, not a counter, so
  /// a stuck job that eventually finishes stops degrading the state.
  [[nodiscard]] std::uint64_t count_flagged_locked() const {
    std::uint64_t flagged = 0;
    for (const auto& [id, entry] : watchdog_jobs_) {
      if (entry.flagged) {
        ++flagged;
      }
    }
    return flagged;
  }

  void telemetry_finish(std::uint64_t id, bool failed, std::int64_t flops,
                        double run_ms) {
    const std::lock_guard<std::mutex> lock(watchdog_mutex_);
    watchdog_jobs_.erase(id);
    health_.set_stuck_jobs(count_flagged_locked());
    // Only clean completions feed the throughput baseline: a failed or
    // deadline-cancelled job's run time says nothing about healthy speed.
    if (!failed && run_ms > 0.0) {
      watchdog_flops_ +=
          static_cast<std::uint64_t>(std::max<std::int64_t>(0, flops));
      watchdog_run_ms_ += run_ms;
    }
  }

  std::unique_ptr<detail::DriverBuffers<T, I>> acquire_buffers() {
    // Fault site: an allocation failure binding driver buffers surfaces
    // as a CapacityError — transient, answered by the retry layer.
    if (fault::should_fire(FaultSite::kEngineSubmitAlloc)) {
      throw CapacityError(
          "Engine: driver-buffer allocation failed (injected fault: "
          "engine-submit-alloc)");
    }
    const std::lock_guard<std::mutex> lock(buffers_mutex_);
    if (!free_buffers_.empty()) {
      auto buffers = std::move(free_buffers_.back());
      free_buffers_.pop_back();
      return buffers;
    }
    return std::make_unique<detail::DriverBuffers<T, I>>();
  }

  void recycle_buffers(std::unique_ptr<detail::DriverBuffers<T, I>> buffers) {
    if (buffers == nullptr) {
      return;
    }
    const std::lock_guard<std::mutex> lock(buffers_mutex_);
    if (free_buffers_.size() < options_.max_in_flight) {
      free_buffers_.push_back(std::move(buffers));
      return;
    }
    governor_.release(buffer_bytes(*buffers));
  }

  /// Governor-visible footprint of one driver-buffer set: capacities, not
  /// sizes, since capacity is what the allocator actually holds.
  [[nodiscard]] static std::uint64_t buffer_bytes(
      const detail::DriverBuffers<T, I>& buffers) noexcept {
    return static_cast<std::uint64_t>(buffers.bound_cols.capacity()) *
               sizeof(I) +
           static_cast<std::uint64_t>(buffers.bound_vals.capacity()) *
               sizeof(T) +
           static_cast<std::uint64_t>(buffers.row_counts.capacity()) *
               sizeof(I) +
           static_cast<std::uint64_t>(buffers.cell_counts.capacity()) *
               sizeof(I);
  }

  /// Drops idle scratch under memory pressure: the driver-buffer free
  /// list always, and — only when nothing is in flight — every workspace
  /// pool's slots. In-flight jobs are never disturbed.
  void reclaim_idle_memory() {
    {
      const std::lock_guard<std::mutex> lock(buffers_mutex_);
      for (const auto& buffers : free_buffers_) {
        governor_.release(buffer_bytes(*buffers));
      }
      free_buffers_.clear();
    }
    const std::lock_guard<std::mutex> state_lock(state_mutex_);
    if (in_flight_ != 0) {
      return;  // pool slots may be acquired by running tiles
    }
    const std::lock_guard<std::mutex> pools_lock(pools_mutex_);
    for (const auto& release_fn : pool_release_fns_) {
      release_fn();
    }
  }

  /// Reduced-footprint planning for brownout mode: dense accumulators
  /// (column-proportional) become hash (nnz-proportional), and explicit
  /// wide block tilings halve their column-block width. Also the degraded
  /// config for a transient-CapacityError retry.
  [[nodiscard]] static Config reduced_footprint(Config config) {
    if (config.accumulator == AccumulatorKind::kDense) {
      config.accumulator = AccumulatorKind::kHash;
    }
    if (config.mode == Strategy::kBlocked && config.block_cols > 512) {
      config.block_cols /= 2;
    }
    return config;
  }

  /// Health verdict (docs/ROBUSTNESS.md): the memory governor's live
  /// brownout state dominates the rate-based monitor.
  [[nodiscard]] EngineHealth health_state() const {
    return governor_.browned_out() ? EngineHealth::kBrownedOut
                                   : health_.state();
  }

  /// Folds the governor's brownout-transition count into the thread-local
  /// metric counters, each transition exactly once engine-wide.
  void sync_brownout_metric() {
#if TILQ_METRICS_ENABLED
    const std::uint64_t seen = governor_.brownouts();
    std::uint64_t prev = brownouts_seen_.load(std::memory_order_relaxed);
    while (prev < seen) {
      if (brownouts_seen_.compare_exchange_weak(prev, seen,
                                                std::memory_order_relaxed)) {
        if (MetricCounters* const counters = metrics_thread_counters()) {
          counters->engine_brownouts += seen - prev;
        }
        return;
      }
    }
#endif
  }

  // --- Retry layer (docs/ROBUSTNESS.md) --------------------------------

  enum class RetryAction {
    kNone,               ///< not retryable: surface the failure
    kReplan,             ///< StaleError: rebuild the plan, same config
    kDegradeSaturation,  ///< accumulator saturated: retry on dense
    kDegradeMemory,      ///< capacity/alloc: retry on a smaller footprint
  };

  /// Maps the first captured failure onto a retry action. Catch order
  /// matters: DeadlineExpiredError and AccumulatorSaturatedError are both
  /// CapacityErrors but want different answers.
  [[nodiscard]] static RetryAction classify_retry(
      const std::exception_ptr& failure) noexcept {
    if (failure == nullptr) {
      return RetryAction::kNone;
    }
    try {
      std::rethrow_exception(failure);
    } catch (const DeadlineExpiredError&) {
      return RetryAction::kNone;  // the deadline is already gone
    } catch (const StaleError&) {
      return RetryAction::kReplan;
    } catch (const AccumulatorSaturatedError&) {
      return RetryAction::kDegradeSaturation;
    } catch (const CapacityError&) {
      return RetryAction::kDegradeMemory;
    } catch (const std::bad_alloc&) {
      return RetryAction::kDegradeMemory;
    } catch (...) {
      return RetryAction::kNone;
    }
  }

  [[nodiscard]] static Config degraded_for(RetryAction action,
                                           Config config) {
    switch (action) {
      case RetryAction::kDegradeSaturation:
        // Dense never saturates; the cost model's emergency exit.
        config.accumulator = AccumulatorKind::kDense;
        break;
      case RetryAction::kDegradeMemory:
        config = reduced_footprint(std::move(config));
        break;
      case RetryAction::kReplan:
      case RetryAction::kNone:
        break;
    }
    return config;
  }

  /// Deterministic capped exponential backoff with multiplicative jitter
  /// in [0.5, 1.0). Keyed by (policy seed, plan fingerprint, attempt) —
  /// NOT the job id — so two runs of the same submission stream back off
  /// identically (the retry-determinism contract in docs/ROBUSTNESS.md).
  [[nodiscard]] double backoff_ms(std::uint64_t fingerprint,
                                  std::uint32_t attempt) const {
    const RetryPolicy& r = options_.retry;
    if (r.backoff_base_ms <= 0.0 || attempt < 2) {
      return 0.0;
    }
    const double cap = std::max(r.backoff_base_ms, r.backoff_cap_ms);
    double delay = r.backoff_base_ms;
    for (std::uint32_t k = 2; k < attempt && delay < cap; ++k) {
      delay *= 2.0;
    }
    delay = std::min(delay, cap);
    SplitMix64 rng(r.seed ^ fingerprint ^
                   (0x9e3779b97f4a7c15ULL * attempt));
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
    return delay * (0.5 + 0.5 * u);
  }

  /// Drops one cache entry (by identity) so the retry's plan_for builds
  /// fresh — the definition of recovering from a StaleError. In-flight
  /// jobs keep the dropped entry alive through their shared_ptr.
  void invalidate_plan(const std::shared_ptr<const PlanEntry>& entry) {
    const std::lock_guard<std::mutex> lock(plan_mutex_);
    for (auto it = plans_.begin(); it != plans_.end(); ++it) {
      if (it->get() == entry.get()) {
        plans_.erase(it);
        return;
      }
    }
  }

  /// The auto-retry layer, run on the finalizing worker when an attempt
  /// failed. Returns true when the job went back onto the pool (the
  /// caller must back out of finalize untouched); false surfaces the
  /// ORIGINAL failure through the handle — including when the retry's own
  /// replan throws.
  bool try_retry(const std::shared_ptr<Job>& job) {
    const std::uint32_t attempt =
        job->attempts.load(std::memory_order_relaxed);
    if (static_cast<int>(attempt) >= job->max_attempts ||
        job->deadline_missed.load(std::memory_order_relaxed)) {
      return false;
    }
    const RetryAction action = classify_retry(job->guard.failure());
    if (action == RetryAction::kNone) {
      return false;
    }
    std::shared_ptr<const PlanEntry> fresh;
    bool cache_hit = false;
    Config config = job->entry->config;
    try {
      // Fault site: the recovery path itself can fail; the contract is
      // that the caller then sees the original error, not this one.
      if (fault::should_fire(FaultSite::kEngineRetryReplan)) {
        throw CapacityError(
            "Engine: retry replan failed (injected fault: "
            "engine-retry-replan)");
      }
      if (action == RetryAction::kReplan) {
        invalidate_plan(job->entry);
      } else {
        config = degraded_for(action, std::move(config));
      }
      // Key the replan by the live operands: after a StaleError the old
      // plan's fingerprint no longer describes them. Serial, because this
      // runs on a pool worker.
      const std::uint64_t fingerprint =
          detail::structural_fingerprint(*job->mask, *job->a, *job->b);
      fresh = plan_for(*job->mask, *job->a, *job->b, config, fingerprint,
                       /*parallel=*/false, cache_hit);
      if (job->buffers != nullptr) {
        // Re-ensure now, before any job state mutates, so an allocation
        // failure here cannot leave a half-retried job behind.
        ensure_buffers_for(*job, fresh->plan);
      }
    } catch (...) {
      return false;
    }
    const std::uint32_t next_attempt = attempt + 1;
    job->attempts.store(next_attempt, std::memory_order_relaxed);
    if (!(fresh->config == job->entry->config)) {
      job->degraded_config = true;
    }
    retries_.fetch_add(1, std::memory_order_relaxed);
    health_.record_retry();
#if TILQ_METRICS_ENABLED
    if (MetricCounters* const counters = metrics_thread_counters()) {
      ++counters->engine_retries;
    }
#endif
    if (telemetry_) {
      telemetry_->flight().record(job->id, FlightEventKind::kRetried,
                                  static_cast<int>(next_attempt),
                                  fresh->plan.flop_total);
    }
    // Reset per-attempt state. Between attempts only this finalizing task
    // is alive for the job, so the plain writes race with nothing.
    job->guard.reset();
    job->rows.store(0, std::memory_order_relaxed);
    job->degrades.store(0, std::memory_order_relaxed);
    job->entry = std::move(fresh);
    job->flop_estimate = job->entry->plan.flop_total;
    const Plan<I>& plan = job->entry->plan;
    job->task_count = static_cast<std::int64_t>(plan.row_tiles.size() *
                                                plan.cells_per_row_tile());
    job->remaining.store(std::max<std::int64_t>(1, job->task_count),
                         std::memory_order_relaxed);
    const double delay_ms =
        backoff_ms(plan.info.fingerprint, next_attempt);
    if (delay_ms > 0.0) {
      job->backoff_total_ms += delay_ms;
      // Sleeping occupies this worker for up to backoff_cap_ms; accepted
      // because retries are rare and the alternative is a timer thread.
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(delay_ms));
    }
    // Read once, as in launch: this attempt's tasks may retry again
    // before the loop ends.
    const std::int64_t task_count = job->task_count;
    if (task_count == 0) {
      pool_.submit([this, job] { run_task(job, -1); }, job->lane);
    } else {
      for (std::int64_t task = 0; task < task_count; ++task) {
        pool_.submit([this, job, task] { run_task(job, task); }, job->lane);
      }
    }
    return true;
  }

  EngineOptions options_;
  ThreadPool pool_;
  WallTimer uptime_;  ///< started at construction (EngineStats::uptime_ms)

  mutable std::mutex state_mutex_;
  std::condition_variable state_cv_;  ///< admission slots + wait_idle
  std::size_t in_flight_ = 0;
  std::uint64_t jobs_submitted_ = 0;
  std::uint64_t jobs_completed_ = 0;
  std::uint64_t jobs_failed_ = 0;
  std::uint64_t jobs_rejected_ = 0;
  std::uint64_t jobs_shed_ = 0;
  std::uint64_t jobs_deferred_ = 0;
  std::uint64_t jobs_expensive_ = 0;
  std::uint64_t admitted_flops_ = 0;  ///< adaptive-threshold running sum
  std::uint64_t admitted_jobs_ = 0;
  std::uint64_t peak_in_flight_ = 0;
  std::atomic<std::uint64_t> deadline_misses_{0};  ///< bumped from pool tasks

  LatencyHistogram total_hist_;  ///< submit-to-done, recorded in finalize
  LatencyHistogram queue_hist_;
  LatencyHistogram run_hist_;

  /// A plan build in progress: the once-latch plan_for's duplicate
  /// cold submitters wait on.
  struct PendingBuild {
    std::uint64_t fingerprint = 0;
    Config config;
    std::shared_future<std::shared_ptr<const PlanEntry>> result;
  };

  mutable std::mutex plan_mutex_;
  std::deque<std::shared_ptr<const PlanEntry>> plans_;
  std::vector<PendingBuild> building_;  ///< one per key being built
  std::uint64_t plan_builds_ = 0;
  std::uint64_t plan_hits_ = 0;

  mutable std::mutex pools_mutex_;
  std::map<std::type_index, std::shared_ptr<void>> pools_;
  std::vector<std::function<WorkspacePoolStats()>> pool_stats_fns_;
  std::vector<std::function<void()>> pool_release_fns_;  ///< reclaim hooks

  // --- Resilience (docs/ROBUSTNESS.md)
  HealthMonitor health_;
  MemoryGovernor governor_;
  std::atomic<std::uint64_t> retries_{0};    ///< attempts beyond the first
  std::uint64_t jobs_retried_ = 0;           ///< guarded by state_mutex_
  std::atomic<std::uint64_t> brownouts_seen_{0};  ///< metric sync cursor

  std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<detail::DriverBuffers<T, I>>> free_buffers_;

  // --- Online tuning (docs/TUNING.md); null when EngineOptions::autotune
  // left tuning off. Declared before telemetry_ so the sampler's collector
  // never outlives it.
  std::unique_ptr<ConfigBandit> autotune_;

  // --- Telemetry (docs/TELEMETRY.md); all dormant when telemetry_ is
  // null. The watchdog registry tracks every admitted-but-unfinished job
  // with its admission instant and Eq-2 estimate; completed jobs feed the
  // FLOPs-per-ms throughput baseline the predictions divide by.
  struct WatchedJob {
    std::chrono::steady_clock::time_point admitted;
    std::int64_t flops = 0;
    bool flagged = false;  ///< already counted stuck; never flag twice
  };
  mutable std::mutex watchdog_mutex_;
  std::map<std::uint64_t, WatchedJob> watchdog_jobs_;
  std::uint64_t watchdog_flops_ = 0;   ///< summed over clean completions
  double watchdog_run_ms_ = 0.0;       ///< their total run time
  std::atomic<std::uint64_t> jobs_stuck_{0};
  LatencyHistogram::Counts window_total_baseline_;  ///< sampler-owned
  LatencyHistogram::Counts window_queue_baseline_;
  // Declared last: destroyed first, so the sampler thread (whose
  // collector walks the members above) joins before any of them die.
  std::unique_ptr<TelemetryHub> telemetry_;
};

}  // namespace tilq
