#include "support/metrics.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

namespace tilq {

MetricsSnapshot metrics_delta(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  MetricsSnapshot delta;
  delta.total = after.total.minus(before.total);
  delta.hw_total = after.hw_total.minus(before.hw_total);
  for (const ThreadMetrics& t : after.per_thread) {
    MetricCounters base;  // zero for threads registered after `before`
    HwCounters hw_base;
    for (const ThreadMetrics& b : before.per_thread) {
      if (b.thread_id == t.thread_id) {
        base = b.counters;
        hw_base = b.hw;
        break;
      }
    }
    const MetricCounters d = t.counters.minus(base);
    const HwCounters hw = t.hw.minus(hw_base);
    if (!d.all_zero() || !hw.all_zero()) {
      delta.per_thread.push_back({t.thread_id, d, hw});
    }
  }
  return delta;
}

#if TILQ_METRICS_ENABLED

namespace {

/// Escapes a string for inclusion in a JSON string literal.
std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size() + 8);
  for (const char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_counters_json(std::string& out, const MetricCounters& c) {
  const auto field = [&](const char* name, std::uint64_t value, bool last = false) {
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(value);
    if (!last) {
      out += ',';
    }
  };
  out += '{';
  field("flops", c.flops);
  field("accum_inserts", c.accum_inserts);
  field("accum_rejects", c.accum_rejects);
  field("hash_probes", c.hash_probes);
  field("hash_collisions", c.hash_collisions);
  field("marker_row_resets", c.marker_row_resets);
  field("marker_overflow_resets", c.marker_overflow_resets);
  field("explicit_reset_slots", c.explicit_reset_slots);
  field("accum_rehashes", c.accum_rehashes);
  field("accum_degrades", c.accum_degrades);
  field("binary_search_steps", c.binary_search_steps);
  field("hybrid_coiter_picks", c.hybrid_coiter_picks);
  field("hybrid_linear_picks", c.hybrid_linear_picks);
  field("blocked_dense_picks", c.blocked_dense_picks);
  field("blocked_sparse_picks", c.blocked_sparse_picks);
  field("tiles_created", c.tiles_created);
  field("tiles_executed", c.tiles_executed);
  field("rows_processed", c.rows_processed);
  field("busy_ns", c.busy_ns);
  field("engine_jobs", c.engine_jobs);
  field("engine_job_ns", c.engine_job_ns);
  field("engine_queue_ns", c.engine_queue_ns);
  field("engine_queue_depth", c.engine_queue_depth);
  field("engine_tasks", c.engine_tasks);
  field("engine_steals", c.engine_steals);
  field("engine_jobs_shed", c.engine_jobs_shed);
  field("engine_jobs_deferred", c.engine_jobs_deferred);
  field("engine_jobs_expensive", c.engine_jobs_expensive);
  field("engine_deadline_misses", c.engine_deadline_misses);
  field("engine_jobs_stuck", c.engine_jobs_stuck);
  field("engine_retries", c.engine_retries);
  field("engine_brownouts", c.engine_brownouts);
  field("engine_telemetry_samples", c.engine_telemetry_samples);
  field("autotune_explorations", c.autotune_explorations);
  field("autotune_arm_switches", c.autotune_arm_switches);
  field("autotune_converged", c.autotune_converged, /*last=*/true);
  out += '}';
}

void append_double(std::string& out, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  out += buf;
}

/// The `hw` record object; "null" when no hardware data was collected.
/// Field names mirror HwCounters (support/perf.hpp) one-to-one, which is
/// what tools/check_metrics_docs.py cross-checks against docs/METRICS.md.
void append_hw_json(std::string& out, const HwCounters& hw) {
  if (hw.all_zero()) {
    out += "null";
    return;
  }
  const auto field = [&](const char* name, std::uint64_t value,
                         bool last = false) {
    out += '"';
    out += name;
    out += "\":";
    out += std::to_string(value);
    if (!last) {
      out += ',';
    }
  };
  out += '{';
  field("cycles", hw.cycles);
  field("instructions", hw.instructions);
  field("llc_loads", hw.llc_loads);
  field("llc_misses", hw.llc_misses);
  field("branch_misses", hw.branch_misses);
  field("stalled_cycles", hw.stalled_cycles, /*last=*/true);
  out += '}';
}

/// The `imbalance` record object, derived from the per-thread busy_ns
/// deltas; "null" when no thread reported busy time (e.g. records emitted
/// around code that never entered a driver compute phase). Field names
/// here are what tools/check_metrics_docs.py scrapes for the doc check.
void append_imbalance_json(std::string& out,
                           const std::vector<ThreadMetrics>& threads) {
  double max_ms = 0.0;
  double sum_ms = 0.0;
  double sum_sq = 0.0;
  int busy_threads = 0;
  for (const ThreadMetrics& t : threads) {
    if (t.counters.busy_ns == 0) {
      continue;
    }
    const double ms = static_cast<double>(t.counters.busy_ns) / 1e6;
    max_ms = std::max(max_ms, ms);
    sum_ms += ms;
    sum_sq += ms * ms;
    ++busy_threads;
  }
  if (busy_threads == 0) {
    out += "null";
    return;
  }
  const double n = busy_threads;
  const double mean_ms = sum_ms / n;
  const double variance = std::max(0.0, sum_sq / n - mean_ms * mean_ms);
  const double cv = mean_ms > 0.0 ? std::sqrt(variance) / mean_ms : 0.0;
  const double ratio = mean_ms > 0.0 ? max_ms / mean_ms : 1.0;
  const auto field = [&](const char* name, double value, bool last = false) {
    out += '"';
    out += name;
    out += "\":";
    append_double(out, value);
    if (!last) {
      out += ',';
    }
  };
  out += "{\"threads\":";
  out += std::to_string(busy_threads);
  out += ',';
  field("max_busy_ms", max_ms);
  field("mean_busy_ms", mean_ms);
  field("ratio", ratio);
  field("cv", cv, /*last=*/true);
  out += '}';
}

/// The `engine_latency` record object; "null" unless the emitter filled
/// the serving engine's percentile block (record.engine_latency.present).
/// Every key carries the `engine_latency_` prefix so a flat grep for
/// `engine_latency_p99_ms` works on raw JSON lines; the key set is what
/// tools/check_metrics_docs.py cross-checks against docs/SERVING.md.
void append_engine_latency_json(std::string& out,
                                const EngineLatencyRecord& lat) {
  if (!lat.present) {
    out += "null";
    return;
  }
  const auto field = [&](const char* name, double value, bool last = false) {
    out += '"';
    out += name;
    out += "\":";
    append_double(out, value);
    if (!last) {
      out += ',';
    }
  };
  out += "{\"engine_latency_jobs\":";
  out += std::to_string(lat.jobs);
  out += ',';
  field("engine_latency_p50_ms", lat.p50_ms);
  field("engine_latency_p95_ms", lat.p95_ms);
  field("engine_latency_p99_ms", lat.p99_ms);
  field("engine_latency_max_ms", lat.max_ms);
  field("engine_latency_queue_p50_ms", lat.queue_p50_ms);
  field("engine_latency_queue_p99_ms", lat.queue_p99_ms);
  field("engine_latency_run_p50_ms", lat.run_p50_ms);
  field("engine_latency_run_p99_ms", lat.run_p99_ms, /*last=*/true);
  out += '}';
}

/// One thread's registered storage: the software counters plus the
/// hardware deltas the drivers attach alongside them.
struct ThreadSlot {
  MetricCounters counters;
  HwCounters hw;
};

struct Registry {
  std::mutex mutex;
  // Slots are heap-allocated and intentionally never freed: a thread that
  // exits leaves its counts aggregatable without dangling pointers.
  std::vector<std::unique_ptr<ThreadSlot>> slots;
};

Registry& registry() {
  static Registry* r = new Registry;  // leaked: outlives thread_local dtors
  return *r;
}

std::string g_sink_path;  // initialized (with g_runtime_enabled) below
std::mutex g_sink_mutex;

/// Parses TILQ_METRICS: unset/"0"/"off"/"false" disable; "1"/"on"/"true"/
/// "stdout" enable with stdout emission; any other value enables and is
/// taken as the JSON-lines sink path.
bool init_from_env() {
  const char* value = std::getenv("TILQ_METRICS");
  if (value == nullptr) {
    return false;
  }
  std::string v(value);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v.empty() || v == "0" || v == "off" || v == "false") {
    return false;
  }
  if (v == "1" || v == "on" || v == "true" || v == "stdout") {
    return true;
  }
  g_sink_path = value;  // original spelling, not lowercased
  return true;
}

}  // namespace

namespace metrics_detail {

std::atomic<bool> g_runtime_enabled{init_from_env()};

namespace {

ThreadSlot& whole_thread_slot() {
  thread_local ThreadSlot* slot = [] {
    Registry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mutex);
    r.slots.push_back(std::make_unique<ThreadSlot>());
    return r.slots.back().get();
  }();
  return *slot;
}

}  // namespace

MetricCounters& thread_slot() { return whole_thread_slot().counters; }

HwCounters& thread_hw_slot() { return whole_thread_slot().hw; }

}  // namespace metrics_detail

void set_metrics_enabled(bool enabled) noexcept {
  metrics_detail::g_runtime_enabled.store(enabled, std::memory_order_relaxed);
}

void metrics_reset() noexcept {
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  for (const auto& slot : r.slots) {
    *slot = ThreadSlot{};
  }
}

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot snapshot;
  Registry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  int id = 0;
  for (const auto& slot : r.slots) {
    if (!slot->counters.all_zero() || !slot->hw.all_zero()) {
      snapshot.per_thread.push_back({id, slot->counters, slot->hw});
      snapshot.total += slot->counters;
      snapshot.hw_total += slot->hw;
    }
    ++id;
  }
  return snapshot;
}

void set_metrics_sink_path(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  g_sink_path = path;
}

std::string metrics_sink_path() {
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  return g_sink_path;
}

std::string format_metrics_record(const MetricsRecord& record,
                                  const MetricsSnapshot& snapshot) {
  std::string out;
  out.reserve(512);
  out += "{\"tilq_metrics\":";
  out += std::to_string(kMetricsSchemaVersion);
  out += ",\"source\":\"";
  out += json_escape(record.source);
  out += "\",\"matrix\":\"";
  out += json_escape(record.matrix);
  out += "\",\"config\":\"";
  out += json_escape(record.config);
  out += "\",\"runs\":";
  out += std::to_string(record.runs);
  out += ",\"median_ms\":";
  char ms[32];
  std::snprintf(ms, sizeof ms, "%.6g", record.median_ms);
  out += ms;
  out += ",\"counters\":";
  append_counters_json(out, snapshot.total);
  out += ",\"hw\":";
  append_hw_json(out, snapshot.hw_total);
  out += ",\"imbalance\":";
  append_imbalance_json(out, snapshot.per_thread);
  out += ",\"engine_latency\":";
  append_engine_latency_json(out, record.engine_latency);
  out += ",\"threads\":[";
  bool first = true;
  for (const ThreadMetrics& t : snapshot.per_thread) {
    if (!first) {
      out += ',';
    }
    first = false;
    out += "{\"id\":";
    out += std::to_string(t.thread_id);
    out += ",\"counters\":";
    append_counters_json(out, t.counters);
    if (!t.hw.all_zero()) {
      out += ",\"hw\":";
      append_hw_json(out, t.hw);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

void emit_metrics_record(const MetricsRecord& record,
                         const MetricsSnapshot& snapshot) {
  if (!metrics_enabled()) {
    return;
  }
  const std::string line = format_metrics_record(record, snapshot);
  const std::lock_guard<std::mutex> lock(g_sink_mutex);
  if (g_sink_path.empty()) {
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    return;
  }
  std::FILE* file = std::fopen(g_sink_path.c_str(), "a");
  if (file == nullptr) {
    std::fprintf(stderr, "tilq metrics: cannot open sink %s; line dropped\n",
                 g_sink_path.c_str());
    return;
  }
  std::fputs(line.c_str(), file);
  std::fputc('\n', file);
  std::fclose(file);
}

#endif  // TILQ_METRICS_ENABLED

}  // namespace tilq
