#include "support/telemetry.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <utility>

#include "support/metrics.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define TILQ_TELEMETRY_HAVE_SOCKETS 1
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#else
#define TILQ_TELEMETRY_HAVE_SOCKETS 0
#endif

namespace tilq {

namespace {

std::uint64_t now_ns_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
  return ns <= 0 ? 0 : static_cast<std::uint64_t>(ns);
}

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

void append_event_json(std::string& out, const FlightEvent& e) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\"seq\":%llu,\"t_ms\":%.3f,\"job\":%llu,\"event\":\"%s\","
                "\"lane\":%d,\"flops\":%lld}",
                static_cast<unsigned long long>(e.sequence),
                static_cast<double>(e.t_ns) / 1e6,
                static_cast<unsigned long long>(e.job), to_string(e.kind),
                e.lane, static_cast<long long>(e.flops));
  out += buf;
}

std::string events_to_json(const std::vector<FlightEvent>& events) {
  std::string out = "[";
  bool first = true;
  for (const FlightEvent& e : events) {
    if (!first) {
      out += ',';
    }
    first = false;
    append_event_json(out, e);
  }
  out += ']';
  return out;
}

// --- Prometheus text-format helpers -------------------------------------

void prom_header(std::string& out, const char* name, const char* type,
                 const char* help) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += ' ';
  out += type;
  out += '\n';
}

void prom_value_u64(std::string& out, const char* name, const char* type,
                    const char* help, std::uint64_t value) {
  prom_header(out, name, type, help);
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  out += name;
  out += ' ';
  out += buf;
  out += '\n';
}

void prom_value_double(std::string& out, const char* name, const char* type,
                       const char* help, double value) {
  prom_header(out, name, type, help);
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.9g", value);
  out += name;
  out += ' ';
  out += buf;
  out += '\n';
}

void prom_labeled_u64(std::string& out, const char* name, const char* label,
                      std::size_t label_value, std::uint64_t value) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s{%s=\"%zu\"} %llu\n", name, label,
                label_value, static_cast<unsigned long long>(value));
  out += buf;
}

}  // namespace

TelemetryOptions telemetry_options_from_env(TelemetryOptions base) {
  if (const char* raw = std::getenv("TILQ_TELEMETRY")) {
    std::string value(raw);
    std::transform(value.begin(), value.end(), value.begin(),
                   [](unsigned char c) {
                     return static_cast<char>(std::tolower(c));
                   });
    if (value == "0" || value == "off" || value == "false") {
      base.enabled = false;
    } else if (value == "1" || value == "on" || value == "true") {
      base.enabled = true;
    } else {
      // Any other value is a sample interval in milliseconds.
      char* end = nullptr;
      const double interval = std::strtod(value.c_str(), &end);
      base.enabled = true;
      if (end != value.c_str() && interval > 0.0) {
        base.sample_interval_ms = interval;
      }
    }
  }
  if (const char* raw = std::getenv("TILQ_TELEMETRY_PORT")) {
    char* end = nullptr;
    const long port = std::strtol(raw, &end, 10);
    if (end != raw && port >= 0 && port <= 65535) {
      base.port = static_cast<int>(port);
    }
  }
  if (const char* raw = std::getenv("TILQ_TELEMETRY_DUMP")) {
    if (raw[0] != '\0') {
      base.dump_path = raw;
    }
  }
  return base;
}

const char* to_string(FlightEventKind kind) noexcept {
  switch (kind) {
    case FlightEventKind::kSubmitted:
      return "submitted";
    case FlightEventKind::kPlanned:
      return "planned";
    case FlightEventKind::kAdmitted:
      return "admitted";
    case FlightEventKind::kLaneAssigned:
      return "lane-assigned";
    case FlightEventKind::kFirstTile:
      return "first-tile";
    case FlightEventKind::kFinalized:
      return "finalized";
    case FlightEventKind::kShed:
      return "shed";
    case FlightEventKind::kDeferred:
      return "deferred";
    case FlightEventKind::kDeadlineMiss:
      return "deadline-miss";
    case FlightEventKind::kStuck:
      return "stuck";
    case FlightEventKind::kRetried:
      return "retried";
    case FlightEventKind::kAutotuned:
      return "autotuned";
  }
  return "unknown";
}

// --- FlightRecorder ------------------------------------------------------

FlightRecorder::FlightRecorder(std::size_t capacity)
    : slots_(round_up_pow2(std::max<std::size_t>(capacity, 2))),
      mask_(slots_.size() - 1),
      start_(std::chrono::steady_clock::now()) {}

void FlightRecorder::record(std::uint64_t job, FlightEventKind kind, int lane,
                            std::int64_t flops) noexcept {
  const std::uint64_t seq = next_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<std::size_t>(seq & mask_)];
  // Seqlock write protocol: invalidate, fill, publish. A reader that
  // observes tag != seq + 1 on either side of its field reads drops the
  // slot; all fields are atomics, so mixed old/new reads are races-free
  // garbage the tag check filters, never undefined behavior.
  slot.tag.store(0, std::memory_order_release);
  slot.t_ns.store(now_ns_since(start_), std::memory_order_relaxed);
  slot.job.store(job, std::memory_order_relaxed);
  const std::uint32_t meta =
      static_cast<std::uint32_t>(kind) |
      (static_cast<std::uint32_t>(lane + 1) << 8);
  slot.meta.store(meta, std::memory_order_relaxed);
  slot.flops.store(flops, std::memory_order_relaxed);
  slot.tag.store(seq + 1, std::memory_order_release);
}

bool FlightRecorder::read_slot(std::uint64_t sequence,
                               FlightEvent& out) const {
  const Slot& slot = slots_[static_cast<std::size_t>(sequence & mask_)];
  if (slot.tag.load(std::memory_order_acquire) != sequence + 1) {
    return false;
  }
  out.sequence = sequence;
  out.t_ns = slot.t_ns.load(std::memory_order_relaxed);
  out.job = slot.job.load(std::memory_order_relaxed);
  const std::uint32_t meta = slot.meta.load(std::memory_order_relaxed);
  out.kind = static_cast<FlightEventKind>(meta & 0xff);
  out.lane = static_cast<int>((meta >> 8) & 0xffffff) - 1;
  out.flops = slot.flops.load(std::memory_order_relaxed);
  // Re-validate after the field reads; the fence keeps them from sinking
  // past the second tag load.
  std::atomic_thread_fence(std::memory_order_acquire);
  return slot.tag.load(std::memory_order_relaxed) == sequence + 1;
}

std::vector<FlightEvent> FlightRecorder::events() const {
  const std::uint64_t head = next_.load(std::memory_order_acquire);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t first = head > cap ? head - cap : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<std::size_t>(head - first));
  for (std::uint64_t seq = first; seq < head; ++seq) {
    FlightEvent e;
    if (read_slot(seq, e)) {
      out.push_back(e);
    }
  }
  return out;
}

std::vector<FlightEvent> FlightRecorder::events_for(std::uint64_t job) const {
  std::vector<FlightEvent> out = events();
  out.erase(std::remove_if(out.begin(), out.end(),
                           [job](const FlightEvent& e) { return e.job != job; }),
            out.end());
  return out;
}

std::string FlightRecorder::to_json() const { return events_to_json(events()); }

std::string FlightRecorder::to_json(std::uint64_t job) const {
  return events_to_json(events_for(job));
}

std::uint64_t FlightRecorder::recorded() const noexcept {
  return next_.load(std::memory_order_relaxed);
}

std::size_t FlightRecorder::capacity() const noexcept { return slots_.size(); }

// --- Prometheus rendering ------------------------------------------------

void render_prometheus(std::string& out) {
  const MetricsSnapshot snapshot = metrics_snapshot();
  const MetricCounters& c = snapshot.total;
  prom_value_u64(out, "tilq_flops", "counter",
                 "semiring multiplications performed", c.flops);
  prom_value_u64(out, "tilq_accum_inserts", "counter",
                 "accumulator inserts inside the mask", c.accum_inserts);
  prom_value_u64(out, "tilq_accum_rejects", "counter",
                 "accumulator probes outside the mask", c.accum_rejects);
  prom_value_u64(out, "tilq_hash_probes", "counter",
                 "hash probe-chain steps past the home slot", c.hash_probes);
  prom_value_u64(out, "tilq_hash_collisions", "counter",
                 "hash insertions that needed chain steps", c.hash_collisions);
  prom_value_u64(out, "tilq_marker_row_resets", "counter",
                 "marker-policy per-row epoch bumps", c.marker_row_resets);
  prom_value_u64(out, "tilq_marker_overflow_resets", "counter",
                 "whole-state clears on marker overflow",
                 c.marker_overflow_resets);
  prom_value_u64(out, "tilq_explicit_reset_slots", "counter",
                 "slots cleared by explicit resets", c.explicit_reset_slots);
  prom_value_u64(out, "tilq_accum_rehashes", "counter",
                 "hash grow-and-rehash saturation responses",
                 c.accum_rehashes);
  prom_value_u64(out, "tilq_accum_degrades", "counter",
                 "rows escalated to the dense fallback", c.accum_degrades);
  prom_value_u64(out, "tilq_binary_search_steps", "counter",
                 "co-iteration search steps, ceil(log2 n)+1 per search",
                 c.binary_search_steps);
  prom_value_u64(out, "tilq_hybrid_coiter_picks", "counter",
                 "pairs where hybrid chose co-iteration",
                 c.hybrid_coiter_picks);
  prom_value_u64(out, "tilq_hybrid_linear_picks", "counter",
                 "pairs where hybrid chose linear scan",
                 c.hybrid_linear_picks);
  prom_value_u64(out, "tilq_tiles_created", "counter",
                 "tiles produced by the tilers", c.tiles_created);
  prom_value_u64(out, "tilq_tiles_executed", "counter",
                 "tiles processed in compute phases", c.tiles_executed);
  prom_value_u64(out, "tilq_rows_processed", "counter",
                 "output rows computed", c.rows_processed);
  prom_value_u64(out, "tilq_busy_ns", "counter",
                 "compute-loop busy wall time in nanoseconds", c.busy_ns);
  prom_value_u64(out, "tilq_engine_jobs", "counter",
                 "batch-engine jobs completed", c.engine_jobs);
  prom_value_u64(out, "tilq_engine_job_ns", "counter",
                 "total submit-to-done job latency in nanoseconds",
                 c.engine_job_ns);
  prom_value_u64(out, "tilq_engine_queue_ns", "counter",
                 "total submit-to-first-task wait in nanoseconds",
                 c.engine_queue_ns);
  prom_value_u64(out, "tilq_engine_queue_depth", "counter",
                 "in-flight jobs summed over submits", c.engine_queue_depth);
  prom_value_u64(out, "tilq_engine_tasks", "counter",
                 "tile tasks run on engine pool workers", c.engine_tasks);
  prom_value_u64(out, "tilq_engine_steals", "counter",
                 "engine tasks taken from another worker", c.engine_steals);
  prom_value_u64(out, "tilq_engine_jobs_shed", "counter",
                 "expensive jobs refused at the shed bound",
                 c.engine_jobs_shed);
  prom_value_u64(out, "tilq_engine_jobs_deferred", "counter",
                 "expensive jobs demoted to the background lane",
                 c.engine_jobs_deferred);
  prom_value_u64(out, "tilq_engine_jobs_expensive", "counter",
                 "admitted jobs the cost model priced expensive",
                 c.engine_jobs_expensive);
  prom_value_u64(out, "tilq_engine_deadline_misses", "counter",
                 "jobs cancelled past their deadline",
                 c.engine_deadline_misses);
  prom_value_u64(out, "tilq_engine_jobs_stuck", "counter",
                 "in-flight jobs flagged by the watchdog",
                 c.engine_jobs_stuck);
  prom_value_u64(out, "tilq_engine_retries", "counter",
                 "retry attempts (auto-replan and degraded-config)",
                 c.engine_retries);
  prom_value_u64(out, "tilq_engine_brownouts", "counter",
                 "memory-governor transitions into brownout",
                 c.engine_brownouts);
  prom_value_u64(out, "tilq_engine_telemetry_samples", "counter",
                 "telemetry sampler ticks taken", c.engine_telemetry_samples);
  prom_value_u64(out, "tilq_autotune_explorations", "counter",
                 "bandit draws that served a non-best arm",
                 c.autotune_explorations);
  prom_value_u64(out, "tilq_autotune_arm_switches", "counter",
                 "fingerprints whose best arm changed",
                 c.autotune_arm_switches);
  prom_value_u64(out, "tilq_autotune_converged", "counter",
                 "fingerprints frozen onto their best arm",
                 c.autotune_converged);
}

// --- TelemetryHub --------------------------------------------------------

TelemetryHub::TelemetryHub(TelemetryOptions options, Collector collector,
                           HealthProvider health)
    : options_(std::move(options)),
      collector_(std::move(collector)),
      health_(std::move(health)),
      flight_(options_.flight_capacity),
      start_(std::chrono::steady_clock::now()) {
  options_.sample_interval_ms = std::max(1.0, options_.sample_interval_ms);
  options_.ring_capacity = std::max<std::size_t>(1, options_.ring_capacity);
  push_sample();  // /metrics and latest() are never empty
  sampler_ = std::thread([this] { sampler_loop(); });
  if (options_.port >= 0) {
    start_listener();
  }
}

TelemetryHub::~TelemetryHub() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
  }
  stop_cv_.notify_all();
  if (sampler_.joinable()) {
    sampler_.join();
  }
  if (server_.joinable()) {
    server_.join();  // the poll timeout notices stop_
  }
#if TILQ_TELEMETRY_HAVE_SOCKETS
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
#endif
  if (!options_.dump_path.empty()) {
    std::ofstream out(options_.dump_path);
    if (out) {
      out << flight_.to_json() << '\n';
    } else {
      std::fprintf(stderr, "tilq telemetry: cannot write flight dump to %s\n",
                   options_.dump_path.c_str());
    }
  }
}

const TelemetryOptions& TelemetryHub::options() const noexcept {
  return options_;
}

FlightRecorder& TelemetryHub::flight() noexcept { return flight_; }

const FlightRecorder& TelemetryHub::flight() const noexcept { return flight_; }

std::vector<TelemetrySample> TelemetryHub::samples() const {
  std::lock_guard<std::mutex> lock(ring_mutex_);
  return {ring_.begin(), ring_.end()};
}

std::optional<TelemetrySample> TelemetryHub::latest() const {
  std::lock_guard<std::mutex> lock(ring_mutex_);
  if (ring_.empty()) {
    return std::nullopt;
  }
  return ring_.back();
}

std::uint64_t TelemetryHub::sample_count() const noexcept {
  return sample_count_.load(std::memory_order_relaxed);
}

void TelemetryHub::sample_now() { push_sample(); }

EngineHealth TelemetryHub::health() const {
  return health_ ? health_() : EngineHealth::kHealthy;
}

int TelemetryHub::port() const noexcept {
  return port_.load(std::memory_order_acquire);
}

void TelemetryHub::push_sample() {
  TelemetrySample sample;
  {
    // Serialize collector calls: the engine's collector owns windowed
    // histogram baselines that must never run concurrently with
    // themselves.
    std::lock_guard<std::mutex> lock(collect_mutex_);
    if (collector_) {
      sample = collector_();
    }
  }
  sample.t_ms = static_cast<double>(now_ns_since(start_)) / 1e6;
  {
    std::lock_guard<std::mutex> lock(ring_mutex_);
    ring_.push_back(std::move(sample));
    while (ring_.size() > options_.ring_capacity) {
      ring_.pop_front();
    }
  }
  sample_count_.fetch_add(1, std::memory_order_relaxed);
#if TILQ_METRICS_ENABLED
  if (MetricCounters* const counters = metrics_thread_counters()) {
    ++counters->engine_telemetry_samples;
  }
#endif
}

void TelemetryHub::sampler_loop() {
  const auto interval = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(options_.sample_interval_ms));
  std::unique_lock<std::mutex> lock(stop_mutex_);
  for (;;) {
    stop_cv_.wait_for(lock, interval, [this] {
      return stop_.load(std::memory_order_acquire);
    });
    if (stop_.load(std::memory_order_acquire)) {
      return;
    }
    lock.unlock();
    push_sample();
    lock.lock();
  }
}

void TelemetryHub::render_prometheus(std::string& out) const {
  tilq::render_prometheus(out);  // the process-wide metrics-v3 counters
  std::optional<TelemetrySample> maybe = latest();
  const TelemetrySample s = maybe ? *maybe : TelemetrySample{};
  prom_value_u64(out, "tilq_engine_up", "gauge",
                 "1 while the engine and its telemetry hub are alive", 1);
  prom_value_double(out, "tilq_engine_uptime_seconds", "gauge",
                    "engine uptime at the last sample", s.uptime_ms / 1e3);
  prom_value_u64(out, "tilq_engine_in_flight", "gauge",
                 "jobs holding admission slots at the last sample",
                 s.in_flight);
  prom_value_u64(out, "tilq_engine_jobs_submitted", "counter",
                 "jobs ever submitted to this engine", s.jobs_submitted);
  prom_value_u64(out, "tilq_engine_jobs_completed", "counter",
                 "jobs finished successfully", s.jobs_completed);
  prom_value_u64(out, "tilq_engine_jobs_failed", "counter",
                 "jobs finished with an error", s.jobs_failed);
  prom_value_u64(out, "tilq_engine_plan_builds", "counter",
                 "plans built on a cache miss", s.plan_builds);
  prom_value_u64(out, "tilq_engine_plan_hits", "counter",
                 "plan-cache hits", s.plan_hits);
  prom_value_double(out, "tilq_engine_plan_hit_rate", "gauge",
                    "plan-cache hits per lookup at the last sample",
                    s.plan_hit_rate);
  prom_value_double(out, "tilq_engine_window_p50_ms", "gauge",
                    "windowed total-latency p50 at the last sample",
                    s.window.p50_ms);
  prom_value_double(out, "tilq_engine_window_p95_ms", "gauge",
                    "windowed total-latency p95 at the last sample",
                    s.window.p95_ms);
  prom_value_double(out, "tilq_engine_window_p99_ms", "gauge",
                    "windowed total-latency p99 at the last sample",
                    s.window.p99_ms);
  prom_value_double(out, "tilq_engine_queue_window_p99_ms", "gauge",
                    "windowed queue-latency p99 at the last sample",
                    s.queue_window.p99_ms);
  prom_value_u64(out, "tilq_engine_autotune_fingerprints", "gauge",
                 "bandit arm tables created (docs/TUNING.md)",
                 s.autotune_fingerprints);
  prom_value_u64(out, "tilq_engine_autotune_explorations", "counter",
                 "bandit draws that served a non-best arm",
                 s.autotune_explorations);
  prom_value_u64(out, "tilq_engine_autotune_arm_switches", "counter",
                 "fingerprints whose best arm changed",
                 s.autotune_arm_switches);
  prom_value_u64(out, "tilq_engine_autotune_converged", "gauge",
                 "fingerprints frozen onto their best arm",
                 s.autotune_converged);
  prom_value_u64(out, "tilq_engine_flight_events", "counter",
                 "flight-recorder events ever recorded", flight_.recorded());
  prom_value_u64(out, "tilq_engine_health", "gauge",
                 "engine health state (0 healthy, 1 degraded, 2 browned-out)",
                 static_cast<std::uint64_t>(static_cast<int>(s.health)));
  prom_value_u64(out, "tilq_engine_memory_bytes", "gauge",
                 "memory-governor ledger at the last sample",
                 s.memory_usage_bytes);
  prom_value_u64(out, "tilq_engine_memory_high_water_bytes", "gauge",
                 "memory-governor high-water mark",
                 s.memory_high_water_bytes);
  prom_value_u64(out, "tilq_engine_memory_budget_bytes", "gauge",
                 "configured memory budget (0 = unlimited)",
                 s.memory_budget_bytes);
  prom_header(out, "tilq_engine_worker_executed", "counter",
              "tasks run to completion, per pool worker");
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    prom_labeled_u64(out, "tilq_engine_worker_executed", "worker", i,
                     s.workers[i].executed);
  }
  prom_header(out, "tilq_engine_worker_stolen", "counter",
              "tasks stolen from a sibling, per pool worker");
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    prom_labeled_u64(out, "tilq_engine_worker_stolen", "worker", i,
                     s.workers[i].stolen);
  }
}

// --- HTTP listener -------------------------------------------------------

void TelemetryHub::start_listener() {
#if TILQ_TELEMETRY_HAVE_SOCKETS
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    std::fprintf(stderr, "tilq telemetry: socket() failed; exporter off\n");
    return;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 16) != 0) {
    std::fprintf(stderr,
                 "tilq telemetry: cannot listen on port %d; exporter off\n",
                 options_.port);
    ::close(fd);
    return;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_.store(static_cast<int>(ntohs(bound.sin_port)),
                std::memory_order_release);
  }
  listen_fd_ = fd;
  server_ = std::thread([this] { serve_loop(); });
#else
  std::fprintf(stderr,
               "tilq telemetry: no socket support on this platform\n");
#endif
}

void TelemetryHub::serve_loop() {
#if TILQ_TELEMETRY_HAVE_SOCKETS
  while (!stop_.load(std::memory_order_acquire)) {
    pollfd waiter{};
    waiter.fd = listen_fd_;
    waiter.events = POLLIN;
    const int ready = ::poll(&waiter, 1, 200);  // ms; bounds shutdown delay
    if (ready <= 0) {
      continue;
    }
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      continue;
    }
    handle_client(client);
    ::close(client);
  }
#endif
}

void TelemetryHub::handle_client(int client_fd) const {
#if TILQ_TELEMETRY_HAVE_SOCKETS
  char request[2048];
  const auto got = ::recv(client_fd, request, sizeof request - 1, 0);
  if (got <= 0) {
    return;
  }
  request[got] = '\0';
  // Only the request line matters: "GET <path> HTTP/1.x".
  std::string path = "/";
  if (std::strncmp(request, "GET ", 4) == 0) {
    const char* begin = request + 4;
    const char* end = std::strchr(begin, ' ');
    if (end != nullptr) {
      path.assign(begin, end);
    }
  }
  std::string body;
  const char* status = "200 OK";
  const char* content_type = "text/plain; charset=utf-8";
  if (path == "/metrics") {
    render_prometheus(body);
    content_type = "text/plain; version=0.0.4; charset=utf-8";
  } else if (path == "/healthz") {
    // 200 + state name while serving; 503 once the memory governor browned
    // the engine out, so load balancers stop routing to it
    // (docs/ROBUSTNESS.md). "ok" is kept in the healthy body for pre-
    // resilience probes that grep for it.
    const EngineHealth h = health();
    switch (h) {
      case EngineHealth::kHealthy:
        body = "ok\n";
        break;
      case EngineHealth::kDegraded:
        body = std::string(to_string(h)) + "\n";
        break;
      case EngineHealth::kBrownedOut:
        status = "503 Service Unavailable";
        body = std::string(to_string(h)) + "\n";
        break;
    }
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  char header[256];
  std::snprintf(header, sizeof header,
                "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %zu\r\n"
                "Connection: close\r\n\r\n",
                status, content_type, body.size());
  std::string response = header;
  response += body;
  std::size_t sent = 0;
  while (sent < response.size()) {
    const auto n =
        ::send(client_fd, response.data() + sent, response.size() - sent, 0);
    if (n <= 0) {
      return;
    }
    sent += static_cast<std::size_t>(n);
  }
#else
  (void)client_fd;
#endif
}

}  // namespace tilq
