// Kernel observability: process-wide, per-thread event counters with a
// versioned JSON-lines sink (docs/METRICS.md is the schema reference).
//
// Why counters and not just timers: the paper's explanations of its own
// figures — FLOP imbalance across tiles (Fig 10/11), hash-probe cost and
// marker-reset storms (Fig 13), binary-search work in the co-iteration
// kernel (Fig 14) — are all statements about *event counts*, not wall
// time. This module makes those counts observable from any run.
//
// Design:
//   * Counting is compiled in only when TILQ_METRICS_ENABLED is 1 (the
//     default; the CMake option TILQ_METRICS=OFF turns every hook into a
//     no-op with zero code in the hot paths).
//   * When compiled in, counting is still gated at run time by the
//     TILQ_METRICS environment variable (or set_metrics_enabled()); the
//     gate is a single relaxed bool read, checked once per row/tile, so a
//     disabled-at-runtime build stays within noise of the seed.
//   * Each thread owns a MetricCounters slot (registered on first use,
//     leaked on purpose so late aggregation never dereferences a dead
//     thread's storage). Hot code batches increments locally and flushes
//     per row or per tile; metrics_snapshot() sums the slots.
//
// Thread-safety contract: increments are plain (non-atomic) writes to the
// owning thread's slot. metrics_snapshot() / metrics_reset() must not be
// called concurrently with a running kernel; call them between kernel
// invocations (every in-tree caller does).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#ifndef TILQ_METRICS_ENABLED
#define TILQ_METRICS_ENABLED 1
#endif

#include "support/perf.hpp"  // HwCounters ride along with the thread slots

namespace tilq {

/// Version of the metrics schema (counter set + JSON-lines layout). Bump
/// when a counter is renamed/removed or the record layout changes; adding
/// a counter is backward compatible and does not bump the version.
/// v2: added the `hw` (hardware counters, nullable) and `imbalance`
/// (per-thread busy-time statistics, nullable) record objects and the
/// `busy_ns` counter.
/// v3: added the batch-engine job/queue/steal counters (`engine_jobs`,
/// `engine_job_ns`, `engine_queue_ns`, `engine_queue_depth`,
/// `engine_tasks`, `engine_steals`) — see docs/CONCURRENCY.md. Later
/// extended, compatibly, with the serving counters (`engine_jobs_shed`,
/// `engine_jobs_deferred`, `engine_jobs_expensive`,
/// `engine_deadline_misses`) and the nullable `engine_latency` record
/// object (docs/SERVING.md), then with the telemetry counters
/// (`engine_jobs_stuck`, `engine_telemetry_samples` — docs/TELEMETRY.md),
/// then with the resilience counters (`engine_retries`,
/// `engine_brownouts` — docs/ROBUSTNESS.md), then with the online-tuning
/// counters (`autotune_explorations`, `autotune_arm_switches`,
/// `autotune_converged` — docs/TUNING.md).
inline constexpr int kMetricsSchemaVersion = 3;

/// True when the counter hooks are compiled into this build (CMake option
/// TILQ_METRICS). When false every function below is an inline no-op.
inline constexpr bool kMetricsCompiled = TILQ_METRICS_ENABLED != 0;

/// The full counter set. One instance per thread; aggregate via
/// metrics_snapshot(). Every field is documented in docs/METRICS.md and
/// the doc-lint (tools/check_metrics_docs.py) keeps the two in sync.
struct MetricCounters {
  std::uint64_t flops = 0;                  ///< semiring multiplications performed
  std::uint64_t accum_inserts = 0;          ///< accumulate() calls that hit the mask
  std::uint64_t accum_rejects = 0;          ///< accumulate() calls outside the mask
  std::uint64_t hash_probes = 0;            ///< hash probe-chain steps past the home slot
  std::uint64_t hash_collisions = 0;        ///< hash insertions that needed >=1 chain step
  std::uint64_t marker_row_resets = 0;      ///< finish_row() epoch bumps (marker policy)
  std::uint64_t marker_overflow_resets = 0; ///< whole-state clears on marker overflow
  std::uint64_t explicit_reset_slots = 0;   ///< slots cleared by explicit (GrB) resets
  std::uint64_t accum_rehashes = 0;         ///< hash grow-and-rehash saturation responses
  std::uint64_t accum_degrades = 0;         ///< rows/cells escalated to the dense fallback
  std::uint64_t binary_search_steps = 0;    ///< halving steps in co-iteration searches
  std::uint64_t hybrid_coiter_picks = 0;    ///< (i,k) pairs where hybrid chose co-iteration
  std::uint64_t hybrid_linear_picks = 0;    ///< (i,k) pairs where hybrid chose linear scan
  std::uint64_t blocked_dense_picks = 0;    ///< blocked tile tasks run on the dense accumulator
  std::uint64_t blocked_sparse_picks = 0;   ///< blocked tile tasks run on the sparse accumulator
  std::uint64_t tiles_created = 0;          ///< tiles produced by the tilers
  std::uint64_t tiles_executed = 0;         ///< tiles processed in compute phases
  std::uint64_t rows_processed = 0;         ///< output rows computed
  std::uint64_t busy_ns = 0;                ///< compute-loop busy wall time (ns)
  std::uint64_t engine_jobs = 0;            ///< batch-engine jobs completed
  std::uint64_t engine_job_ns = 0;          ///< total submit-to-done job latency (ns)
  std::uint64_t engine_queue_ns = 0;        ///< total submit-to-first-task wait (ns)
  std::uint64_t engine_queue_depth = 0;     ///< in-flight jobs summed over submits
  std::uint64_t engine_tasks = 0;           ///< tile tasks run on engine pool workers
  std::uint64_t engine_steals = 0;          ///< engine tasks taken from another worker's queue
  std::uint64_t engine_jobs_shed = 0;       ///< expensive jobs refused at the shed bound
  std::uint64_t engine_jobs_deferred = 0;   ///< expensive jobs demoted to the background lane
  std::uint64_t engine_jobs_expensive = 0;  ///< admitted jobs the cost model priced expensive
  std::uint64_t engine_deadline_misses = 0; ///< jobs cancelled past their submit() deadline
  std::uint64_t engine_jobs_stuck = 0;      ///< in-flight jobs flagged by the telemetry watchdog
  std::uint64_t engine_retries = 0;         ///< retry attempts (auto-replan + degraded-config)
  std::uint64_t engine_brownouts = 0;       ///< memory-governor transitions into brownout
  std::uint64_t engine_telemetry_samples = 0; ///< telemetry sampler ticks taken
  std::uint64_t autotune_explorations = 0;  ///< bandit draws that served a non-best arm
  std::uint64_t autotune_arm_switches = 0;  ///< fingerprints whose best arm changed
  std::uint64_t autotune_converged = 0;     ///< fingerprints frozen onto their best arm

  MetricCounters& operator+=(const MetricCounters& o) noexcept {
    flops += o.flops;
    accum_inserts += o.accum_inserts;
    accum_rejects += o.accum_rejects;
    hash_probes += o.hash_probes;
    hash_collisions += o.hash_collisions;
    marker_row_resets += o.marker_row_resets;
    marker_overflow_resets += o.marker_overflow_resets;
    explicit_reset_slots += o.explicit_reset_slots;
    accum_rehashes += o.accum_rehashes;
    accum_degrades += o.accum_degrades;
    binary_search_steps += o.binary_search_steps;
    hybrid_coiter_picks += o.hybrid_coiter_picks;
    hybrid_linear_picks += o.hybrid_linear_picks;
    blocked_dense_picks += o.blocked_dense_picks;
    blocked_sparse_picks += o.blocked_sparse_picks;
    tiles_created += o.tiles_created;
    tiles_executed += o.tiles_executed;
    rows_processed += o.rows_processed;
    busy_ns += o.busy_ns;
    engine_jobs += o.engine_jobs;
    engine_job_ns += o.engine_job_ns;
    engine_queue_ns += o.engine_queue_ns;
    engine_queue_depth += o.engine_queue_depth;
    engine_tasks += o.engine_tasks;
    engine_steals += o.engine_steals;
    engine_jobs_shed += o.engine_jobs_shed;
    engine_jobs_deferred += o.engine_jobs_deferred;
    engine_jobs_expensive += o.engine_jobs_expensive;
    engine_deadline_misses += o.engine_deadline_misses;
    engine_jobs_stuck += o.engine_jobs_stuck;
    engine_retries += o.engine_retries;
    engine_brownouts += o.engine_brownouts;
    engine_telemetry_samples += o.engine_telemetry_samples;
    autotune_explorations += o.autotune_explorations;
    autotune_arm_switches += o.autotune_arm_switches;
    autotune_converged += o.autotune_converged;
    return *this;
  }

  /// Field-wise saturating difference (used for before/after deltas; the
  /// counters are monotone between resets, so plain subtraction suffices
  /// unless a reset happened in between — saturate instead of wrapping).
  [[nodiscard]] MetricCounters minus(const MetricCounters& o) const noexcept {
    const auto sub = [](std::uint64_t a, std::uint64_t b) {
      return a >= b ? a - b : std::uint64_t{0};
    };
    MetricCounters d;
    d.flops = sub(flops, o.flops);
    d.accum_inserts = sub(accum_inserts, o.accum_inserts);
    d.accum_rejects = sub(accum_rejects, o.accum_rejects);
    d.hash_probes = sub(hash_probes, o.hash_probes);
    d.hash_collisions = sub(hash_collisions, o.hash_collisions);
    d.marker_row_resets = sub(marker_row_resets, o.marker_row_resets);
    d.marker_overflow_resets = sub(marker_overflow_resets, o.marker_overflow_resets);
    d.explicit_reset_slots = sub(explicit_reset_slots, o.explicit_reset_slots);
    d.accum_rehashes = sub(accum_rehashes, o.accum_rehashes);
    d.accum_degrades = sub(accum_degrades, o.accum_degrades);
    d.binary_search_steps = sub(binary_search_steps, o.binary_search_steps);
    d.hybrid_coiter_picks = sub(hybrid_coiter_picks, o.hybrid_coiter_picks);
    d.hybrid_linear_picks = sub(hybrid_linear_picks, o.hybrid_linear_picks);
    d.blocked_dense_picks = sub(blocked_dense_picks, o.blocked_dense_picks);
    d.blocked_sparse_picks = sub(blocked_sparse_picks, o.blocked_sparse_picks);
    d.tiles_created = sub(tiles_created, o.tiles_created);
    d.tiles_executed = sub(tiles_executed, o.tiles_executed);
    d.rows_processed = sub(rows_processed, o.rows_processed);
    d.busy_ns = sub(busy_ns, o.busy_ns);
    d.engine_jobs = sub(engine_jobs, o.engine_jobs);
    d.engine_job_ns = sub(engine_job_ns, o.engine_job_ns);
    d.engine_queue_ns = sub(engine_queue_ns, o.engine_queue_ns);
    d.engine_queue_depth = sub(engine_queue_depth, o.engine_queue_depth);
    d.engine_tasks = sub(engine_tasks, o.engine_tasks);
    d.engine_steals = sub(engine_steals, o.engine_steals);
    d.engine_jobs_shed = sub(engine_jobs_shed, o.engine_jobs_shed);
    d.engine_jobs_deferred = sub(engine_jobs_deferred, o.engine_jobs_deferred);
    d.engine_jobs_expensive = sub(engine_jobs_expensive, o.engine_jobs_expensive);
    d.engine_deadline_misses = sub(engine_deadline_misses, o.engine_deadline_misses);
    d.engine_jobs_stuck = sub(engine_jobs_stuck, o.engine_jobs_stuck);
    d.engine_retries = sub(engine_retries, o.engine_retries);
    d.engine_brownouts = sub(engine_brownouts, o.engine_brownouts);
    d.engine_telemetry_samples = sub(engine_telemetry_samples, o.engine_telemetry_samples);
    d.autotune_explorations = sub(autotune_explorations, o.autotune_explorations);
    d.autotune_arm_switches = sub(autotune_arm_switches, o.autotune_arm_switches);
    d.autotune_converged = sub(autotune_converged, o.autotune_converged);
    return d;
  }

  [[nodiscard]] bool all_zero() const noexcept {
    return flops == 0 && accum_inserts == 0 && accum_rejects == 0 &&
           hash_probes == 0 && hash_collisions == 0 && marker_row_resets == 0 &&
           marker_overflow_resets == 0 && explicit_reset_slots == 0 &&
           accum_rehashes == 0 && accum_degrades == 0 &&
           binary_search_steps == 0 && hybrid_coiter_picks == 0 &&
           hybrid_linear_picks == 0 && blocked_dense_picks == 0 &&
           blocked_sparse_picks == 0 && tiles_created == 0 &&
           tiles_executed == 0 && rows_processed == 0 && busy_ns == 0 &&
           engine_jobs == 0 && engine_job_ns == 0 && engine_queue_ns == 0 &&
           engine_queue_depth == 0 && engine_tasks == 0 &&
           engine_steals == 0 && engine_jobs_shed == 0 &&
           engine_jobs_deferred == 0 && engine_jobs_expensive == 0 &&
           engine_deadline_misses == 0 && engine_jobs_stuck == 0 &&
           engine_retries == 0 && engine_brownouts == 0 &&
           engine_telemetry_samples == 0 && autotune_explorations == 0 &&
           autotune_arm_switches == 0 && autotune_converged == 0;
  }
};

/// One thread's contribution. Thread ids are assigned in registration
/// order (first counter touched), not OpenMP thread numbers. `hw` carries
/// the thread's hardware-counter deltas (support/perf.hpp) when the
/// drivers could read them; all-zero otherwise.
struct ThreadMetrics {
  int thread_id = 0;
  MetricCounters counters;
  HwCounters hw;
};

/// Aggregate view over every registered thread. `hw_total.all_zero()`
/// means no hardware data was collected (perf unavailable or disabled) —
/// the JSON record then carries an explicit `"hw":null`.
struct MetricsSnapshot {
  MetricCounters total;
  HwCounters hw_total;
  std::vector<ThreadMetrics> per_thread;
};

/// The serving engine's latency-percentile block, serialized as the
/// nullable `engine_latency` record object (every key inside it carries
/// the `engine_latency_` prefix; docs/SERVING.md has the field glossary).
/// `present == false` — the default — emits `"engine_latency":null`, the
/// same nullable-object convention as `hw` and `imbalance`.
struct EngineLatencyRecord {
  bool present = false;
  std::uint64_t jobs = 0;      ///< completed jobs the percentiles cover
  double p50_ms = 0.0;         ///< submit-to-done latency percentiles
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double queue_p50_ms = 0.0;   ///< submit-to-first-task wait percentiles
  double queue_p99_ms = 0.0;
  double run_p50_ms = 0.0;     ///< first-task-to-done execute percentiles
  double run_p99_ms = 0.0;
};

/// One JSON-lines record; see docs/METRICS.md for the field-by-field
/// schema. `snapshot` should be a delta covering exactly `runs` kernel
/// executions.
struct MetricsRecord {
  std::string source;      ///< emitting binary or bench name
  std::string matrix;      ///< input identity (collection name or file)
  std::string config;      ///< Config::describe() of the measured config
  std::int64_t runs = 0;   ///< kernel executions covered by the counters
  double median_ms = 0.0;  ///< median per-run wall time
  EngineLatencyRecord engine_latency;  ///< null unless a serving bench fills it
};

#if TILQ_METRICS_ENABLED

namespace metrics_detail {
/// Fast-path runtime gate; initialized from the TILQ_METRICS environment
/// variable, overridable via set_metrics_enabled(). Atomic because pool
/// workers read it while another thread may flip it; relaxed, because it
/// orders nothing.
extern std::atomic<bool> g_runtime_enabled;
/// Returns this thread's registered slot, creating it on first use.
[[nodiscard]] MetricCounters& thread_slot();
/// Hardware-counter slot riding along with the same registration.
[[nodiscard]] HwCounters& thread_hw_slot();
}  // namespace metrics_detail

/// True when counting is active (compiled in AND runtime-enabled).
[[nodiscard]] inline bool metrics_enabled() noexcept {
  return metrics_detail::g_runtime_enabled.load(std::memory_order_relaxed);
}

/// This thread's counter slot, or nullptr when counting is inactive. Hot
/// code fetches the pointer once per row/tile/region and batches into it.
[[nodiscard]] inline MetricCounters* metrics_thread_counters() {
  return metrics_enabled() ? &metrics_detail::thread_slot() : nullptr;
}

/// This thread's hardware-delta slot, or nullptr when counting is
/// inactive. The drivers add their PerfScope deltas here so hardware
/// readings flow through the same snapshot/delta/record machinery as the
/// software counters.
[[nodiscard]] inline HwCounters* metrics_thread_hw() {
  return metrics_enabled() ? &metrics_detail::thread_hw_slot() : nullptr;
}

/// Runtime on/off switch (overrides the TILQ_METRICS environment variable).
void set_metrics_enabled(bool enabled) noexcept;

/// Zeroes every registered thread slot.
void metrics_reset() noexcept;

/// Sums every registered thread slot. Threads whose counters are all zero
/// are omitted from `per_thread`.
[[nodiscard]] MetricsSnapshot metrics_snapshot();

/// Where emit_metrics_record() writes: "" means stdout, anything else is a
/// file path opened in append mode. Initialized from the TILQ_METRICS
/// value when it names a path (see docs/METRICS.md).
void set_metrics_sink_path(const std::string& path);
[[nodiscard]] std::string metrics_sink_path();

/// Serializes `record` + `snapshot` as one JSON line (schema version
/// kMetricsSchemaVersion) and writes it to the sink. No-op when metrics
/// are runtime-disabled.
void emit_metrics_record(const MetricsRecord& record,
                         const MetricsSnapshot& snapshot);

/// The JSON line emit_metrics_record() would write (exposed for tests).
[[nodiscard]] std::string format_metrics_record(const MetricsRecord& record,
                                                const MetricsSnapshot& snapshot);

#else  // !TILQ_METRICS_ENABLED — every hook is a no-op.

[[nodiscard]] constexpr bool metrics_enabled() noexcept { return false; }
[[nodiscard]] inline MetricCounters* metrics_thread_counters() noexcept {
  return nullptr;
}
[[nodiscard]] inline HwCounters* metrics_thread_hw() noexcept {
  return nullptr;
}
inline void set_metrics_enabled(bool) noexcept {}
inline void metrics_reset() noexcept {}
[[nodiscard]] inline MetricsSnapshot metrics_snapshot() { return {}; }
inline void set_metrics_sink_path(const std::string&) {}
[[nodiscard]] inline std::string metrics_sink_path() { return {}; }
inline void emit_metrics_record(const MetricsRecord&, const MetricsSnapshot&) {}
[[nodiscard]] inline std::string format_metrics_record(const MetricsRecord&,
                                                       const MetricsSnapshot&) {
  return {};
}

#endif  // TILQ_METRICS_ENABLED

/// Delta between two snapshots taken around a measured region: totals and
/// per-thread contributions (matched by thread id; threads registered
/// after `before` count from zero). Works in both build modes.
[[nodiscard]] MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                                            const MetricsSnapshot& after);

}  // namespace tilq
