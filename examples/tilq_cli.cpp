// tilq_cli — command-line driver exposing every Config dimension, for
// ad-hoc experiments without writing code:
//
//   tilq_cli --graph com-Orkut --scale 0.5 --strategy hybrid --kappa 1
//            --acc hash --marker 32 --tiling balanced --sched dynamic
//            --tiles 1024        (one line; wrapped here for readability)
//   tilq_cli --mtx my_matrix.mtx --predict      # model-chosen config
//   tilq_cli --graph circuit5M --tune           # staged Fig-12 tuning
//
// Run with --help for the full flag list. With no arguments it runs a
// small self-demo.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "tilq/tilq.hpp"

namespace {

struct CliOptions {
  std::string graph = "GAP-road";
  std::string mtx_path;
  double scale = 0.25;
  tilq::Config config;
  bool predict = false;
  bool tune = false;
  bool profile = false;
  bool engine = false;
  bool autotune = false;
  bool watch = false;
  int telemetry_port = -1;
  double serve_ms = 0.0;
  int jobs = 8;
  int repeats = 5;
  tilq::JobPriority priority = tilq::JobPriority::kAuto;
  double deadline_ms = 0.0;
  int retries = 1;
  int mem_budget_mb = 0;
};

void print_usage() {
  std::puts(
      "tilq_cli: run the masked-SpGEMM kernel C = A .* (A x A)\n"
      "\n"
      "input:\n"
      "  --graph NAME     synthetic collection analogue (default GAP-road)\n"
      "  --mtx FILE       load a Matrix Market file instead\n"
      "  --scale S        collection scale factor (default 0.25)\n"
      "configuration (the paper's three dimensions):\n"
      "  --tiling uniform|balanced      (default balanced)\n"
      "  --sched static|dynamic         (default dynamic)\n"
      "  --tiles N                      (default 2 x threads)\n"
      "  --strategy vanilla|mask-first|co-iterate|hybrid  (default mask-first)\n"
      "  --kappa K        co-iteration factor for hybrid (default 1)\n"
      "  --acc dense|hash|bitmap        (default hash)\n"
      "  --marker 8|16|32|64            (default 32)\n"
      "  --reset marker|explicit        (default marker)\n"
      "  --mode 1d|blocked              execution space (default 1d)\n"
      "  --block-cols N   blocked mode: columns per cache block (default 4096)\n"
      "  --threads N\n"
      "modes:\n"
      "  --predict        use the model-based config predictor\n"
      "  --tune           run the staged Fig-12 tuner first\n"
      "  --profile        enable metrics and print a hardware/imbalance summary\n"
      "  --engine         serve the repeated queries through the batch engine\n"
      "  --autotune       engine mode: learn the config online per repeated\n"
      "                   structure (implies --engine, docs/TUNING.md)\n"
      "  --jobs N         engine mode: concurrent in-flight queries (default 8)\n"
      "  --priority P     engine mode: high|normal|background lane request\n"
      "                   (default: auto — the cost model picks, docs/SERVING.md)\n"
      "  --deadline-ms N  engine mode: per-job deadline; late jobs are\n"
      "                   cancelled with DeadlineExpiredError (default 0 = none)\n"
      "  --retries N      engine mode: attempts per job; failed attempts\n"
      "                   replan or degrade and retry (default 1 = off,\n"
      "                   docs/ROBUSTNESS.md)\n"
      "  --mem-budget-mb M  engine mode: memory-governor budget; over it the\n"
      "                   engine browns out to reduced-footprint plans\n"
      "                   (default 0 = unlimited)\n"
      "  --repeats N      timing repetitions (default 5)\n"
      "telemetry (docs/TELEMETRY.md; implies --engine):\n"
      "  --watch             print one live sampler line per telemetry tick\n"
      "  --telemetry-port P  serve Prometheus text on 127.0.0.1:P (0 = any)\n"
      "  --serve-ms N        keep the engine and exporter alive N ms after\n"
      "                      the query stream finishes (for scraping)\n");
}

std::optional<CliOptions> parse(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (flag == "--help" || flag == "-h") {
      print_usage();
      std::exit(0);
    } else if (flag == "--graph") {
      options.graph = next();
    } else if (flag == "--mtx") {
      options.mtx_path = next();
    } else if (flag == "--scale") {
      options.scale = std::atof(next());
    } else if (flag == "--tiling") {
      const std::string v = next();
      options.config.tiling =
          v == "uniform" ? tilq::Tiling::kUniform : tilq::Tiling::kFlopBalanced;
    } else if (flag == "--sched") {
      const std::string v = next();
      options.config.schedule =
          v == "static" ? tilq::Schedule::kStatic : tilq::Schedule::kDynamic;
    } else if (flag == "--tiles") {
      options.config.num_tiles = std::atoll(next());
    } else if (flag == "--strategy") {
      const std::string v = next();
      if (v == "vanilla") {
        options.config.strategy = tilq::MaskStrategy::kVanilla;
      } else if (v == "co-iterate") {
        options.config.strategy = tilq::MaskStrategy::kCoIterate;
      } else if (v == "hybrid") {
        options.config.strategy = tilq::MaskStrategy::kHybrid;
      } else {
        options.config.strategy = tilq::MaskStrategy::kMaskFirst;
      }
    } else if (flag == "--kappa") {
      options.config.coiteration_factor = std::atof(next());
    } else if (flag == "--acc") {
      const std::string v = next();
      options.config.accumulator = v == "dense"  ? tilq::AccumulatorKind::kDense
                                   : v == "bitmap" ? tilq::AccumulatorKind::kBitmap
                                                   : tilq::AccumulatorKind::kHash;
    } else if (flag == "--marker") {
      switch (std::atoi(next())) {
        case 8:
          options.config.marker_width = tilq::MarkerWidth::k8;
          break;
        case 16:
          options.config.marker_width = tilq::MarkerWidth::k16;
          break;
        case 64:
          options.config.marker_width = tilq::MarkerWidth::k64;
          break;
        default:
          options.config.marker_width = tilq::MarkerWidth::k32;
          break;
      }
    } else if (flag == "--reset") {
      const std::string v = next();
      options.config.reset = v == "explicit" ? tilq::ResetPolicy::kExplicit
                                             : tilq::ResetPolicy::kMarker;
    } else if (flag == "--mode") {
      const std::string v = next();
      if (v == "1d") {
        options.config.mode = tilq::Strategy::k1D;
      } else if (v == "blocked") {
        options.config.mode = tilq::Strategy::kBlocked;
      } else {
        std::fprintf(stderr, "bad --mode %s (want 1d|blocked)\n", v.c_str());
        return std::nullopt;
      }
    } else if (flag == "--block-cols") {
      options.config.block_cols = std::atoll(next());
    } else if (flag == "--threads") {
      options.config.threads = std::atoi(next());
    } else if (flag == "--predict") {
      options.predict = true;
    } else if (flag == "--tune") {
      options.tune = true;
    } else if (flag == "--profile") {
      options.profile = true;
    } else if (flag == "--engine") {
      options.engine = true;
    } else if (flag == "--autotune") {
      options.autotune = true;
      options.engine = true;
    } else if (flag == "--watch") {
      options.watch = true;
      options.engine = true;
    } else if (flag == "--telemetry-port") {
      options.telemetry_port = std::atoi(next());
      options.engine = true;
    } else if (flag == "--serve-ms") {
      options.serve_ms = std::atof(next());
      options.engine = true;
    } else if (flag == "--jobs") {
      options.jobs = std::atoi(next());
    } else if (flag == "--priority") {
      const std::string v = next();
      if (v == "high") {
        options.priority = tilq::JobPriority::kHigh;
      } else if (v == "normal") {
        options.priority = tilq::JobPriority::kNormal;
      } else if (v == "background") {
        options.priority = tilq::JobPriority::kBackground;
      } else {
        std::fprintf(stderr,
                     "bad --priority %s (want high|normal|background)\n",
                     v.c_str());
        return std::nullopt;
      }
    } else if (flag == "--deadline-ms") {
      options.deadline_ms = std::atof(next());
    } else if (flag == "--retries") {
      options.retries = std::max(1, std::atoi(next()));
    } else if (flag == "--mem-budget-mb") {
      options.mem_budget_mb = std::max(0, std::atoi(next()));
    } else if (flag == "--repeats") {
      options.repeats = std::atoi(next());
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", flag.c_str());
      return std::nullopt;
    }
  }
  return options;
}

/// One-screen --profile summary: where the cycles went (hardware counters
/// when the machine grants them) and how evenly the team shared the work.
void print_profile(const tilq::MetricsSnapshot& delta,
                   const tilq::ExecutionStats& exec) {
  std::printf("\nprofile:\n");
  const tilq::HwCounters& hw = delta.hw_total;
  const tilq::MetricCounters& c = delta.total;
  if (!tilq::kMetricsCompiled) {
    std::printf("  metrics compiled out (build with -DTILQ_METRICS=ON)\n");
  } else if (hw.all_zero()) {
    std::printf(
        "  hardware: counters unavailable on this machine (records carry "
        "\"hw\":null);\n"
        "            needs perf_event_open — check "
        "/proc/sys/kernel/perf_event_paranoid\n");
  } else {
    const auto per = [](std::uint64_t num, std::uint64_t den) {
      return den == 0 ? 0.0
                      : static_cast<double>(num) / static_cast<double>(den);
    };
    std::printf("  cycles/flop:   %8.2f   (%llu cycles, %llu flops)\n",
                per(hw.cycles, c.flops),
                static_cast<unsigned long long>(hw.cycles),
                static_cast<unsigned long long>(c.flops));
    std::printf("  ipc:           %8.2f\n", per(hw.instructions, hw.cycles));
    std::printf("  llc miss rate: %7.1f%%   (%llu misses / %llu loads)\n",
                100.0 * per(hw.llc_misses, hw.llc_loads),
                static_cast<unsigned long long>(hw.llc_misses),
                static_cast<unsigned long long>(hw.llc_loads));
    std::printf("  branch misses: %8.2f   per 1k instructions\n",
                1000.0 * per(hw.branch_misses, hw.instructions));
    std::printf("  stalled:       %7.1f%%   of cycles\n",
                100.0 * per(hw.stalled_cycles, hw.cycles));
  }
  std::printf(
      "  imbalance:     %8.2f   max/mean busy over %zu threads (cv %.2f)\n",
      exec.imbalance_ratio, exec.thread_work.size(), exec.busy_cv);
  double max_busy = 0.0;
  for (const tilq::ThreadWork& t : exec.thread_work) {
    max_busy = std::max(max_busy, t.busy_ms);
  }
  for (const tilq::ThreadWork& t : exec.thread_work) {
    const int bar =
        max_busy > 0.0 ? static_cast<int>(32.0 * t.busy_ms / max_busy) : 0;
    std::printf("    thread %2d: %8.2f ms  %5lld tiles %8lld rows  |%.*s\n",
                t.thread, t.busy_ms, static_cast<long long>(t.tiles),
                static_cast<long long>(t.rows), bar,
                "################################");
  }
}

/// --engine mode: serve repeats x jobs identical queries through the batch
/// engine with up to `jobs` concurrently in flight (a sliding submission
/// window), then cross-check the last result against the single-call path.
int run_engine(const tilq::GraphMatrix& a, const CliOptions& options,
               const std::string& config_label) {
  using SR = tilq::PlusTimes<double>;
  const int jobs = std::max(1, options.jobs);
  const int total = std::max(1, options.repeats) * jobs;
  const tilq::Config& config = options.config;

  tilq::EngineOptions engine_options;
  engine_options.max_in_flight = static_cast<std::size_t>(jobs);
  engine_options.retry.max_attempts = options.retries;
  engine_options.memory_budget_bytes =
      static_cast<std::uint64_t>(options.mem_budget_mb) << 20;
  engine_options.autotune.enabled = options.autotune;
  if (options.watch || options.telemetry_port >= 0 || options.serve_ms > 0.0) {
    engine_options.telemetry.enabled = true;
  }
  if (options.telemetry_port >= 0) {
    engine_options.telemetry.port = options.telemetry_port;
  }
  tilq::Engine<SR> engine(engine_options);
  tilq::SubmitOptions submit_options;
  submit_options.priority = options.priority;
  submit_options.deadline_ms = options.deadline_ms;
  std::printf("engine: %d workers, %d jobs in flight, %d queries\n",
              engine.threads(), jobs, total);
  if (options.deadline_ms > 0.0) {
    std::printf("engine: per-job deadline %.2f ms\n", options.deadline_ms);
  }
  if (options.retries > 1) {
    std::printf("engine: up to %d attempts per job\n", options.retries);
  }
  if (options.mem_budget_mb > 0) {
    std::printf("engine: memory budget %d MiB\n", options.mem_budget_mb);
  }
  if (engine.autotune() != nullptr) {
    std::printf("engine: online tuning on, epsilon %.2f (docs/TUNING.md)\n",
                engine.autotune()->options().epsilon);
  }
  if (tilq::TelemetryHub* hub = engine.telemetry()) {
    if (hub->port() >= 0) {
      std::printf("telemetry: serving /metrics on http://127.0.0.1:%d\n",
                  hub->port());
    }
  }

  // --watch: a background printer that tails the sampler ring, one line per
  // new sample. The hub keeps ticking regardless; this only reads `latest()`.
  std::atomic<bool> watch_stop{false};
  std::thread watcher;
  if (options.watch && engine.telemetry() != nullptr) {
    watcher = std::thread([&] {
      tilq::TelemetryHub* hub = engine.telemetry();
      std::uint64_t seen = 0;
      while (!watch_stop.load(std::memory_order_relaxed)) {
        const std::uint64_t count = hub->sample_count();
        if (count > seen) {
          seen = count;
          if (const auto sample = hub->latest()) {
            const double denom = static_cast<double>(sample->plan_builds +
                                                     sample->plan_hits);
            std::printf(
                "watch: t=%8.0fms in-flight=%2llu done=%llu p50=%.2fms "
                "p99=%.2fms hit-rate=%.2f stuck=%llu tuned=%llu/%llu\n",
                sample->uptime_ms,
                static_cast<unsigned long long>(sample->in_flight),
                static_cast<unsigned long long>(sample->jobs_completed),
                sample->window.p50_ms, sample->window.p99_ms,
                denom > 0.0 ? static_cast<double>(sample->plan_hits) / denom
                            : 0.0,
                static_cast<unsigned long long>(sample->jobs_stuck),
                static_cast<unsigned long long>(sample->autotune_converged),
                static_cast<unsigned long long>(
                    sample->autotune_fingerprints));
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(
            std::max(1, static_cast<int>(hub->options().sample_interval_ms))));
      }
    });
  }

  const tilq::MetricsSnapshot metrics_before = tilq::metrics_snapshot();
  std::vector<tilq::Engine<SR>::JobHandle> window;
  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(total));
  int deadline_misses = 0;
  // A job past its --deadline-ms is an expected outcome here, not a CLI
  // failure: count it and keep serving the rest of the stream.
  const auto drain = [&](tilq::Engine<SR>::JobHandle& handle) {
    try {
      handle.wait();
      latencies_ms.push_back(handle.stats().total_ms);
    } catch (const tilq::DeadlineExpiredError&) {
      ++deadline_misses;
    }
  };
  tilq::WallTimer wall;
  for (int i = 0; i < total; ++i) {
    if (window.size() >= static_cast<std::size_t>(jobs)) {
      drain(window.front());
      window.erase(window.begin());
    }
    window.push_back(engine.submit(a, a, a, config, submit_options));
  }
  for (tilq::Engine<SR>::JobHandle& handle : window) {
    drain(handle);
  }
  const double elapsed = wall.seconds();

  std::printf("\nthroughput: %.1f queries/sec (%d queries in %.2f s)\n",
              static_cast<double>(total) / elapsed, total, elapsed);
  if (latencies_ms.empty()) {
    std::printf("latency: no jobs finished (%d deadline misses)\n",
                deadline_misses);
  } else {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    const auto quantile = [&](double q) {
      const auto index = static_cast<std::size_t>(
          q * static_cast<double>(latencies_ms.size() - 1));
      return latencies_ms[index];
    };
    std::printf("latency: p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, max %.2f ms\n",
                quantile(0.50), quantile(0.95), quantile(0.99),
                latencies_ms.back());
  }
  if (deadline_misses > 0) {
    std::printf("deadline misses: %d of %d jobs\n", deadline_misses, total);
  }
  // --serve-ms: keep the engine (and its /metrics exporter) alive so an
  // external scraper can observe the post-stream counters (CI does this).
  if (options.serve_ms > 0.0) {
    std::printf("telemetry: holding engine alive for %.0f ms\n",
                options.serve_ms);
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(
        static_cast<long long>(options.serve_ms)));
  }
  if (watcher.joinable()) {
    watch_stop.store(true, std::memory_order_relaxed);
    watcher.join();
  }

  const tilq::EngineStats engine_stats = engine.stats();
  std::printf("engine: %s\n", tilq::describe(engine_stats).c_str());
  if (options.profile) {
    // Engine-mode --profile: the serving percentile block, split into the
    // queue (submit -> first task) and run (first task -> done) phases so
    // a saturated pool reads differently from a slow kernel.
    const auto row = [](const char* label, const tilq::LatencySummary& s) {
      std::printf("  %-7s p50 %8.2f ms   p95 %8.2f ms   p99 %8.2f ms   "
                  "max %8.2f ms\n",
                  label, s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms);
    };
    std::printf("\nprofile (engine, %llu jobs):\n",
                static_cast<unsigned long long>(engine_stats.latency.count));
    row("total", engine_stats.latency);
    row("queue", engine_stats.queue_latency);
    row("run", engine_stats.run_latency);
    // Serving-health footer: cache effectiveness, admission outcomes and
    // how long this engine has been up (docs/TELEMETRY.md).
    const double plan_denom = static_cast<double>(engine_stats.plan_builds +
                                                  engine_stats.plan_hits);
    std::printf("  plan-cache hit rate: %.2f (%llu hits / %llu builds)\n",
                plan_denom > 0.0
                    ? static_cast<double>(engine_stats.plan_hits) / plan_denom
                    : 0.0,
                static_cast<unsigned long long>(engine_stats.plan_hits),
                static_cast<unsigned long long>(engine_stats.plan_builds));
    std::printf("  shed %llu, deferred %llu, deadline misses %llu\n",
                static_cast<unsigned long long>(engine_stats.jobs_shed),
                static_cast<unsigned long long>(engine_stats.jobs_deferred),
                static_cast<unsigned long long>(engine_stats.deadline_misses));
    // Resilience footer (docs/ROBUSTNESS.md): health verdict, the retry
    // layer's work, and the memory governor's high-water mark.
    std::printf("  health %s, retries %llu (%llu jobs), brownouts %llu, "
                "mem high-water %.1f MiB\n",
                to_string(engine_stats.health),
                static_cast<unsigned long long>(engine_stats.retries),
                static_cast<unsigned long long>(engine_stats.jobs_retried),
                static_cast<unsigned long long>(engine_stats.brownouts),
                static_cast<double>(engine_stats.memory_high_water_bytes) /
                    (1024.0 * 1024.0));
    if (engine_stats.autotune_fingerprints > 0) {
      // Online-tuning footer (docs/TUNING.md): how much of the stream has
      // converged onto a learned arm, and what the learning cost was.
      std::printf("  autotune: %llu/%llu fingerprints converged, "
                  "%llu explorations, %llu arm switches\n",
                  static_cast<unsigned long long>(
                      engine_stats.autotune_converged),
                  static_cast<unsigned long long>(
                      engine_stats.autotune_fingerprints),
                  static_cast<unsigned long long>(
                      engine_stats.autotune_explorations),
                  static_cast<unsigned long long>(
                      engine_stats.autotune_arm_switches));
    }
    std::printf("  uptime: %.0f ms", engine_stats.uptime_ms);
    if (engine_stats.telemetry_samples > 0) {
      std::printf("   (%llu telemetry samples)",
                  static_cast<unsigned long long>(
                      engine_stats.telemetry_samples));
    }
    std::printf("\n");
  }

  // Bit-identity spot check: engine output vs the single-call path.
  const auto oracle = tilq::masked_spgemm<SR>(a, a, a, config);
  const auto served = engine.submit(a, a, a, config).get();
  const bool identical = oracle.rows() == served.rows() &&
                         oracle.nnz() == served.nnz() &&
                         std::equal(oracle.values().begin(),
                                    oracle.values().end(),
                                    served.values().begin());
  std::printf("bit-identical vs single-call path: %s\n",
              identical ? "yes" : "NO");

  if (tilq::metrics_enabled()) {
    tilq::MetricsRecord record;
    record.source = "tilq_cli-engine";
    record.matrix = !options.mtx_path.empty() ? options.mtx_path : options.graph;
    record.config = config_label + " jobs=" + std::to_string(jobs);
    record.runs = total;
    record.median_ms = latencies_ms.empty()
                           ? 0.0
                           : latencies_ms[latencies_ms.size() / 2];
    record.engine_latency = tilq::engine_latency_record(engine_stats);
    tilq::emit_metrics_record(
        record, tilq::metrics_delta(metrics_before, tilq::metrics_snapshot()));
  }
  if (!tilq::trace_path().empty() && tilq::trace_flush()) {
    std::printf("trace: wrote %zu events to %s\n", tilq::trace_event_count(),
                tilq::trace_path().c_str());
  }
  return identical ? 0 : 1;
}

int run(CliOptions options) {
  if (options.profile) {
    // --profile implies counting; the summary needs the flop and hardware
    // deltas of the measured region.
    tilq::set_metrics_enabled(true);
  }

  // Input.
  tilq::GraphMatrix a;
  if (!options.mtx_path.empty()) {
    a = tilq::read_matrix_market_file(options.mtx_path);
    std::printf("loaded %s\n", options.mtx_path.c_str());
  } else {
    a = tilq::make_collection_graph(options.graph, options.scale);
    std::printf("generated %s analogue at scale %g\n", options.graph.c_str(),
                options.scale);
  }
  const auto stats = tilq::compute_stats(a);
  std::printf("matrix: %lld x %lld, nnz=%lld, max row=%lld\n",
              static_cast<long long>(stats.rows),
              static_cast<long long>(stats.cols),
              static_cast<long long>(stats.nnz),
              static_cast<long long>(stats.max_row_nnz));
  std::printf("environment: %s\n\n", tilq::environment_summary().c_str());

  using SR = tilq::PlusTimes<double>;

  // Mode resolution.
  if (options.predict) {
    options.config = tilq::predict_config(a, a, a, options.config.threads);
    std::printf("predicted config: %s\n", options.config.describe().c_str());
  }
  if (options.tune) {
    tilq::TunerOptions tuner_options;
    tuner_options.threads = options.config.threads;
    const tilq::TunerReport report = tilq::tune<SR>(a, a, a, tuner_options);
    options.config = report.best;
    std::printf("tuned config (%zu trials): %s\n",
                report.stage_tiling.size() + report.stage_coiteration.size() +
                    report.stage_accumulator.size(),
                options.config.describe().c_str());
  }

  // Execution + timing. The selected configuration goes into the output
  // header, before the (possibly long) measurement, so partial output is
  // already attributable to a config.
  const std::string config_label = options.config.describe();
  std::printf("config: %s\n", config_label.c_str());

  tilq::TimingOptions timing;
  timing.max_iterations = options.repeats;
  timing.min_iterations = std::min(options.repeats, 2);
  timing.budget_seconds = 60.0;

  if (options.engine) {
    return run_engine(a, options, config_label);
  }

  tilq::ExecutionStats exec;
  tilq::TimingResult result;
  const tilq::MetricsSnapshot metrics_before = tilq::metrics_snapshot();
  result = tilq::measure(
      [&] { (void)tilq::masked_spgemm<SR>(a, a, a, options.config, exec); },
      timing);

  std::printf("\ntime: median %.2f ms (min %.2f, mean %.2f, max %.2f over %lld runs)\n",
              result.median_ms, result.min_ms, result.mean_ms, result.max_ms,
              static_cast<long long>(result.iterations));
  std::printf("phases: analyze %.2f ms, compute %.2f ms, compact %.2f ms\n",
              exec.analyze_ms, exec.compute_ms, exec.compact_ms);
  std::printf("output: nnz=%lld, tiles=%lld, accumulator full resets=%llu\n",
              static_cast<long long>(exec.output_nnz),
              static_cast<long long>(exec.tiles),
              static_cast<unsigned long long>(exec.accumulator_full_resets));

  const tilq::MetricsSnapshot metrics_region =
      tilq::metrics_delta(metrics_before, tilq::metrics_snapshot());
  if (options.profile) {
    print_profile(metrics_region, exec);
  }

  // Observability sinks (docs/METRICS.md): one JSON-lines record covering
  // every run of the measurement, and the Chrome trace when requested.
  if (tilq::metrics_enabled()) {
    tilq::MetricsRecord record;
    record.source = "tilq_cli";
    record.matrix = !options.mtx_path.empty() ? options.mtx_path : options.graph;
    record.config = config_label;
    record.runs = result.iterations + (timing.warmup ? 1 : 0);
    record.median_ms = result.median_ms;
    tilq::emit_metrics_record(record, metrics_region);
  }
  if (!tilq::trace_path().empty() && tilq::trace_flush()) {
    std::printf("trace: wrote %zu events to %s\n", tilq::trace_event_count(),
                tilq::trace_path().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = parse(argc, argv);
  if (!parsed) {
    return 2;
  }
  // Every library failure is a typed tilq::Error (docs/ROBUSTNESS.md) and
  // propagates here even from inside the OpenMP regions; report it as a
  // diagnostic instead of std::terminate.
  try {
    return run(*parsed);
  } catch (const tilq::Error& e) {
    std::fprintf(stderr, "tilq_cli: %s error: %s\n", tilq::to_string(e.kind()),
                 e.message());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tilq_cli: %s\n", e.what());
    return 1;
  }
}
