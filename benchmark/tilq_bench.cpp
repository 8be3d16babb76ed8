// Benchmark program: runs one workload of the repository benchmark for a
// fixed wall-clock window and prints one JSON line describing the run.
// benchmark/run.py starts one process per (workload, round) and turns the
// lines into the metrics listed in BENCHMARK.json; see benchmark/README.md.
//
//   tilq_bench --workload W --seconds S --seed N [--trace FILE]
//
// The program calls only public entry points: masked_spgemm, Executor
// plan/execute (the exact sequence masked_spgemm runs, used when tracing),
// detail::structural_fingerprint, Engine::submit, JobHandle::get/stats and
// Engine::stats. Inputs come from --seed alone. Every output is compared
// bit for bit against the one-shot 1D oracle, outside the timed region.
// With --trace the program records spans around those calls and writes them
// as a Chrome trace to FILE when the run ends.
#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/masked_spgemm.hpp"
#include "gen/collection.hpp"
#include "span_recorder.hpp"
#include "support/rng.hpp"

namespace {

using SR = tilq::PlusTimes<double>;
using Matrix = tilq::Csr<double, std::int64_t>;
using Engine = tilq::Engine<SR>;
using tilq_bench::now_us;
using tilq_bench::SpanRecorder;

/// Compute threads for every workload: one core of a 4-core host stays
/// free for the load generator and the operating system.
constexpr int kComputeThreads = 3;

/// Open-loop offered load and the share of heavy queries in it. At 2000
/// queries/s the pool ran about 45% busy, so host speed drift of 15% moved
/// the cheap p90 by over 30%; at 1000/s queueing stays a minor share.
constexpr double kOpenRatePerSecond = 1000.0;
constexpr std::size_t kOpenHeavyEvery = 128;

/// Repetitions behind each probed fingerprint time.
constexpr int kFingerprintReps = 21;

struct Options {
  std::string workload;
  double seconds = 0.0;
  std::uint64_t seed = 0;
  std::string trace_path;
};

/// One input structure: C = A ⊙ (A × A), the paper's M = B = A shape.
struct Input {
  const char* kind = "";  ///< graph kind, the trace category
  Matrix a;
  Matrix oracle;  ///< one-shot 1D result, the bit-identity reference
};

struct Source {
  const char* kind;
  const char* name;  ///< collection entry
  double scale;
};

constexpr Source kRoad{"road", "GAP-road", 1.0};
constexpr Source kCircuit{"circuit", "circuit5M", 0.5};
constexpr Source kWeb{"web", "uk-2002", 0.5};
constexpr Source kSocial{"social", "com-LiveJournal", 0.25};

/// Everything one run reports; printed as one JSON line.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t ops = 0;
  double measured_s = 0.0;
  double setup_s = 0.0;
  double gen_ms = 0.0;
  std::vector<double> lat_ms;  ///< per-op latency; cheap class on the open loop
  /// Exact per-run totals that must repeat across rounds of one seed.
  std::int64_t input_nnz = 0;
  std::int64_t output_nnz = 0;
  std::int64_t arrivals = 0;
  std::vector<std::string> violations;
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  tilq::SplitMix64 mix(seed * 0x9e3779b97f4a7c15ULL + stream);
  return mix.next();
}

/// A collection graph with seeded non-unit values, so the bit-identity
/// check also pins the floating-point summation order.
Matrix make_matrix(const Source& source, double scale, std::uint64_t seed) {
  Matrix a = tilq::make_collection_graph(source.name, scale, seed);
  tilq::Xoshiro256 rng(seed ^ 0x5851f42d4c957f2dULL);
  for (double& v : a.mutable_values()) {
    v = 0.5 + rng.uniform();
  }
  return a;
}

bool bit_identical(const Matrix& x, const Matrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() && x.nnz() == y.nnz() &&
         std::memcmp(x.row_ptr().data(), y.row_ptr().data(),
                     x.row_ptr().size_bytes()) == 0 &&
         std::memcmp(x.col_idx().data(), y.col_idx().data(),
                     x.col_idx().size_bytes()) == 0 &&
         std::memcmp(x.values().data(), y.values().data(),
                     x.values().size_bytes()) == 0;
}

double ms_since(double start_us) { return (now_us() - start_us) / 1e3; }

/// The kernel configuration every workload runs: the hybrid iteration
/// space (the paper's general-purpose one, with the heaviest analyze
/// phase), κ = 1, hash accumulator.
tilq::Config workload_config(bool blocked) {
  tilq::Config config;
  config.strategy = tilq::MaskStrategy::kHybrid;
  config.coiteration_factor = 1.0;
  config.accumulator = tilq::AccumulatorKind::kHash;
  config.threads = kComputeThreads;
  if (blocked) {
    config.mode = tilq::Strategy::kBlocked;
    config.block_cols = 0;  // auto width
  }
  return config;
}

struct InputSpec {
  Source source;
  double scale;
  std::uint64_t seed;
};

/// Generates the inputs (the first part of set-up), then their oracles,
/// which set-up excludes, and totals input and output sizes.
std::vector<Input> make_inputs(const std::vector<InputSpec>& specs,
                               RunResult& result, SpanRecorder* rec) {
  const double gen_start = now_us();
  std::vector<Input> inputs(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    inputs[i].kind = specs[i].source.kind;
    inputs[i].a = make_matrix(specs[i].source, specs[i].scale, specs[i].seed);
  }
  const double gen_end = now_us();
  result.gen_ms = (gen_end - gen_start) / 1e3;

  tilq::Config reference;
  reference.threads = kComputeThreads;
  for (Input& in : inputs) {
    in.oracle = tilq::masked_spgemm<SR>(in.a, in.a, in.a, reference);
    result.input_nnz += in.a.nnz();
    result.output_nnz += in.oracle.nnz();
  }
  const double oracle_end = now_us();
  if (rec != nullptr) {
    rec->record("gen.graphs", "", 0, 0, gen_start, gen_end);
    rec->record("oracle", "", 0, 0, gen_end, oracle_end);
  }
  return inputs;
}

/// Closes set-up: generation plus everything since `warm_start` (engine
/// construction and warm-up), oracles excluded.
void finish_setup(RunResult& result, double warm_start, SpanRecorder* rec) {
  const double warm_end = now_us();
  result.setup_s = result.gen_ms / 1e3 + (warm_end - warm_start) / 1e6;
  if (rec != nullptr) {
    rec->record("warmup", "", 0, 0, warm_start, warm_end);
  }
}

void check_output(const Input& in, const Matrix& c, RunResult& result) {
  if (!bit_identical(c, in.oracle) && result.violations.size() < 8) {
    result.violations.push_back(
        std::string("output differs from the oracle on ") + in.kind);
  }
}

/// Traced-run probe of each distinct structure, outside the measured
/// window: the fingerprint time (median of kFingerprintReps) and the exact
/// plan and kernel counts of one Executor plan + execute.
void probe_structures(const std::vector<Input>& inputs,
                      const tilq::Config& config, SpanRecorder& rec) {
  const auto num = [](auto count) { return static_cast<double>(count); };
  for (const Input& in : inputs) {
    const std::uint64_t probe = rec.next_id();
    const double probe_start = now_us();
    std::vector<double> fp_us;
    std::uint64_t fingerprint = 0;
    for (int r = 0; r < kFingerprintReps; ++r) {
      const double t0 = now_us();
      fingerprint = tilq::detail::structural_fingerprint(in.a, in.a, in.a);
      fp_us.push_back(now_us() - t0);
    }
    std::nth_element(fp_us.begin(), fp_us.begin() + kFingerprintReps / 2,
                     fp_us.end());
    rec.record("fingerprint", in.kind, 0, probe, probe_start, now_us(),
               {{"fp_us", fp_us[kFingerprintReps / 2]}});
    tilq::Executor<SR> exec;
    const double plan_start = now_us();
    exec.plan(in.a, in.a, in.a, config);
    const tilq::PlanInfo& info = exec.info();
    if (info.fingerprint != fingerprint) {
      throw std::runtime_error("probed fingerprint differs from the plan's");
    }
    rec.record("probe.plan", in.kind, 0, probe, plan_start, now_us(),
               {{"flop_total", num(info.flop_total)},
                {"row_tiles", num(info.row_tiles)},
                {"hybrid_decisions", num(info.hybrid_decisions)},
                {"dense_tiles", num(info.dense_tiles)},
                {"sparse_tiles", num(info.sparse_tiles)},
                {"hub_splits", num(info.hub_splits)}});
    tilq::ExecutionStats stats;
    const double exec_start = now_us();
    const Matrix c = exec.execute(in.a, in.a, in.a, stats);
    rec.record("probe.execute", in.kind, 0, probe, exec_start, now_us(),
               {{"tiles", num(stats.tiles)},
                {"output_nnz", num(stats.output_nnz)},
                {"accum_inserts", num(stats.accum_inserts)},
                {"accum_rejects", num(stats.accum_rejects)},
                {"hash_probes", num(stats.hash_probes)},
                {"hash_collisions", num(stats.hash_collisions)},
                {"accum_rehashes", num(stats.accum_rehashes)},
                {"accum_degrades", num(stats.accum_degrades)}});
    rec.record("probe", in.kind, 0, 0, probe_start, now_us(), {}, probe);
  }
}

// --- one-shot workloads -------------------------------------------------

/// One masked_spgemm call. The traced form runs the same sequence the
/// one-shot entry point does (construct Executor, plan, execute) with a
/// span around each public call, so the spans partition the call.
Matrix oneshot_call(const Input& in, const tilq::Config& config,
                    std::uint64_t request, SpanRecorder* rec) {
  if (rec == nullptr) {
    return tilq::masked_spgemm<SR>(in.a, in.a, in.a, config);
  }
  const std::uint64_t call = rec->next_id();
  const double call_start = now_us();
  Matrix c;
  {
    tilq::Executor<SR> exec;
    const double plan_start = now_us();
    exec.plan(in.a, in.a, in.a, config);
    const double plan_end = now_us();
    tilq::ExecutionStats stats;
    c = exec.execute(in.a, in.a, in.a, stats);
    const double exec_end = now_us();
    rec->record("plan", in.kind, request, call, plan_start, plan_end);
    rec->record("execute", in.kind, request, call, plan_end, exec_end,
                {{"verify_ms", stats.analyze_ms},
                 {"compute_ms", stats.compute_ms},
                 {"compact_ms", stats.compact_ms},
                 {"imbalance_ratio", stats.imbalance_ratio}});
  }
  rec->record("call", in.kind, request, 0, call_start, now_us(), {}, call);
  return c;
}

RunResult run_oneshot(const Options& opt, bool blocked, SpanRecorder* rec) {
  RunResult result;
  const tilq::Config config = workload_config(blocked);
  std::vector<InputSpec> specs;
  for (const Source& source : {kRoad, kCircuit, kWeb, kSocial}) {
    specs.push_back(
        {source, source.scale, derive_seed(opt.seed, specs.size())});
  }
  const std::vector<Input> inputs = make_inputs(specs, result, rec);

  const double warm_start = now_us();
  for (const Input& in : inputs) {
    check_output(in, tilq::masked_spgemm<SR>(in.a, in.a, in.a, config),
                 result);
  }
  finish_setup(result, warm_start, rec);
  if (rec != nullptr) {
    probe_structures(inputs, config, *rec);
  }

  // One op is one rotation: a call on each of the four kinds, back to
  // back, so every op carries the same work mix.
  const double start = now_us();
  const double end = start + opt.seconds * 1e6;
  std::uint64_t request = 0;
  while (now_us() < end) {
    double rotation_ms = 0.0;
    bool failed = false;
    for (const Input& in : inputs) {
      try {
        const double t0 = now_us();
        const Matrix c = oneshot_call(in, config, ++request, rec);
        rotation_ms += ms_since(t0);
        check_output(in, c, result);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "tilq_bench: %s call failed: %s\n", in.kind,
                     e.what());
        failed = true;
      }
    }
    ++result.attempted;
    if (failed) {
      ++result.failed;
    } else {
      ++result.ops;
      result.lat_ms.push_back(rotation_ms);
    }
  }
  result.measured_s = (now_us() - start) / 1e6;
  return result;
}

// --- engine workloads ---------------------------------------------------

tilq::EngineOptions engine_options(std::size_t max_in_flight) {
  tilq::EngineOptions options;
  options.threads = kComputeThreads;
  options.max_in_flight = max_in_flight;
  return options;
}

/// Engine warm-up: `passes` passes over every structure, `window` queries
/// in flight at a time (no more than the workload itself keeps, so the
/// lifetime in-flight peak stays the workload's), so plans are cached,
/// every pool worker has built its workspaces and the adaptive cost model
/// has a baseline.
void warm_up(Engine& engine, const std::vector<Input>& inputs,
             const tilq::Config& config, int passes, std::size_t window,
             RunResult& result) {
  for (int pass = 0; pass < passes; ++pass) {
    for (std::size_t begin = 0; begin < inputs.size(); begin += window) {
      const std::size_t end = std::min(inputs.size(), begin + window);
      std::vector<Engine::JobHandle> handles;
      for (std::size_t i = begin; i < end; ++i) {
        handles.push_back(
            engine.submit(inputs[i].a, inputs[i].a, inputs[i].a, config));
      }
      for (std::size_t i = begin; i < end; ++i) {
        check_output(inputs[i], handles[i - begin].get(), result);
      }
    }
  }
}

/// Engine-lifetime counters over the measured window, as one span.
void record_window(SpanRecorder* rec, const tilq::EngineStats& before,
                   const tilq::EngineStats& after, double start_us,
                   double end_us) {
  if (rec == nullptr) {
    return;
  }
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  rec->record(
      "window", "", 0, 0, start_us, end_us,
      {{"jobs_submitted", delta(after.jobs_submitted, before.jobs_submitted)},
       {"jobs_completed", delta(after.jobs_completed, before.jobs_completed)},
       {"jobs_failed", delta(after.jobs_failed, before.jobs_failed)},
       {"jobs_rejected", delta(after.jobs_rejected, before.jobs_rejected)},
       {"jobs_shed", delta(after.jobs_shed, before.jobs_shed)},
       {"jobs_deferred", delta(after.jobs_deferred, before.jobs_deferred)},
       {"jobs_expensive", delta(after.jobs_expensive, before.jobs_expensive)},
       {"plan_builds", delta(after.plan_builds, before.plan_builds)},
       {"plan_hits", delta(after.plan_hits, before.plan_hits)},
       {"tasks_executed", delta(after.tasks_executed, before.tasks_executed)},
       {"tasks_stolen", delta(after.tasks_stolen, before.tasks_stolen)},
       {"peak_in_flight", static_cast<double>(after.peak_in_flight)},
       {"memory_high_water_bytes",
        static_cast<double>(after.memory_high_water_bytes)},
       {"workspace_constructions",
        delta(after.workspace.constructions, before.workspace.constructions)}});
}

/// Closed-loop clients: each submits, waits for the result with get(),
/// checks it, and submits its next query. With `shared`, every client
/// cycles the same `structures_per_client` road structures; otherwise each
/// client cycles its own.
RunResult run_closed_loop(const Options& opt, double scale,
                          std::size_t clients,
                          std::size_t structures_per_client, bool shared,
                          SpanRecorder* rec) {
  RunResult result;
  const tilq::Config config = workload_config(false);
  const std::size_t structures =
      shared ? structures_per_client : clients * structures_per_client;

  std::vector<InputSpec> specs;
  for (std::size_t s = 0; s < structures; ++s) {
    specs.push_back({kRoad, scale, derive_seed(opt.seed, s)});
  }
  const std::vector<Input> inputs = make_inputs(specs, result, rec);

  const double warm_start = now_us();
  Engine engine(engine_options(16));
  warm_up(engine, inputs, config, 2, clients, result);
  finish_setup(result, warm_start, rec);
  if (rec != nullptr) {
    probe_structures(inputs, config, *rec);
  }

  const auto structure_of = [&](std::size_t client, std::size_t i) {
    return shared ? (client + i) % structures
                  : client * structures_per_client + i % structures_per_client;
  };
  std::vector<RunResult> logs(clients);
  const tilq::EngineStats before = engine.stats();
  const double start = now_us();
  const double end = start + opt.seconds * 1e6;
  std::vector<double> finished(clients, start);
  {
    std::vector<std::jthread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        RunResult& log = logs[c];
        for (std::size_t i = 0; now_us() < end; ++i) {
          const Input& in = inputs[structure_of(c, i)];
          ++log.attempted;
          try {
            const std::uint64_t op = rec != nullptr ? rec->next_id() : 0;
            const double t0 = now_us();
            Engine::JobHandle handle =
                engine.submit(in.a, in.a, in.a, config);
            const double t1 = now_us();
            const Matrix out = handle.get();
            const double t2 = now_us();
            log.lat_ms.push_back((t2 - t0) / 1e3);
            ++log.ops;
            if (rec != nullptr) {
              const tilq::JobStats js = handle.stats();
              rec->record(
                  "submit", in.kind, js.id, op, t0, t1,
                  {{"plan_ms", js.plan_ms},
                   {"plan_cache_hit", js.plan_cache_hit ? 1.0 : 0.0}});
              rec->record("get", in.kind, js.id, op, t1, t2,
                          {{"queue_ms", js.queue_ms},
                           {"run_ms", js.run_ms},
                           {"total_ms", js.total_ms}});
              rec->record("op", in.kind, js.id, 0, t0, t2, {}, op);
            }
            check_output(in, out, log);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "tilq_bench: query failed: %s\n", e.what());
            ++log.failed;
          }
        }
        finished[c] = now_us();
      });
    }
  }
  const tilq::EngineStats after = engine.stats();
  const double stop = *std::max_element(finished.begin(), finished.end());
  record_window(rec, before, after, start, stop);
  result.measured_s = (stop - start) / 1e6;

  for (RunResult& log : logs) {
    result.attempted += log.attempted;
    result.failed += log.failed;
    result.ops += log.ops;
    result.lat_ms.insert(result.lat_ms.end(), log.lat_ms.begin(),
                         log.lat_ms.end());
    result.violations.insert(result.violations.end(), log.violations.begin(),
                             log.violations.end());
  }
  // Exact plan-cache invariants: a repeat stream always hits, a stream of
  // more distinct structures than the cache holds always misses.
  const std::uint64_t submitted = after.jobs_submitted - before.jobs_submitted;
  const std::uint64_t hits = after.plan_hits - before.plan_hits;
  if (shared ? hits != submitted : hits != 0) {
    result.violations.push_back("plan-cache hits " + std::to_string(hits) +
                                " of " + std::to_string(submitted) +
                                " submits break the workload's hit invariant");
  }
  return result;
}

/// Seeded Poisson arrival offsets, in microseconds from the window start.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate,
                                     double seconds) {
  tilq::Xoshiro256 rng(seed);
  std::vector<double> due_us;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) {
      return due_us;
    }
    due_us.push_back(t * 1e6);
  }
}

/// Open loop: one generator thread submits on a seeded Poisson schedule,
/// whether or not earlier queries finished. A query's latency runs from
/// its scheduled arrival: (submit return - due) + JobStats::total_ms, so
/// when the generator collects a result never enters a latency. Between
/// arrivals the same thread collects and checks finished queries in
/// completion order; a separate collector thread would compete with the
/// three pool workers and the generator for the four cores and make the
/// generator late.
RunResult run_open_loop(const Options& opt, SpanRecorder* rec) {
  constexpr std::size_t kCheapStructures = 4;
  /// Collection stops this long before the next arrival is due.
  constexpr double kCollectMarginUs = 50.0;
  RunResult result;
  const tilq::Config config = workload_config(false);

  std::vector<InputSpec> specs;
  for (std::size_t s = 0; s < kCheapStructures; ++s) {
    specs.push_back({kRoad, 0.25, derive_seed(opt.seed, s)});
  }
  specs.push_back(
      {kCircuit, kCircuit.scale, derive_seed(opt.seed, kCheapStructures)});
  const std::vector<Input> inputs = make_inputs(specs, result, rec);
  const Input& heavy = inputs.back();

  const double warm_start = now_us();
  Engine engine(engine_options(256));
  warm_up(engine, inputs, config, 4, 2, result);
  finish_setup(result, warm_start, rec);
  if (rec != nullptr) {
    probe_structures(inputs, config, *rec);
  }

  const std::vector<double> due_us = poisson_schedule(
      derive_seed(opt.seed, 0xa441), kOpenRatePerSecond, opt.seconds);
  result.arrivals = static_cast<std::int64_t>(due_us.size());

  struct Pending {
    const Input* input = nullptr;
    double due_us = 0.0;
    double submit_start_us = 0.0;
    double submit_end_us = 0.0;
    Engine::JobHandle handle;
  };
  std::vector<Pending> pending;
  double last_done_us = 0.0;
  const auto collect = [&](Pending& p) {
    const Input& in = *p.input;
    try {
      const Matrix out = p.handle.get();
      const tilq::JobStats js = p.handle.stats();
      const double done_us = p.submit_end_us + js.total_ms * 1e3;
      if (&in != &heavy) {
        result.lat_ms.push_back((done_us - p.due_us) / 1e3);
      }
      ++result.ops;
      last_done_us = std::max(last_done_us, done_us);
      if (rec != nullptr) {
        const std::uint64_t op = rec->next_id();
        rec->record("submit", in.kind, js.id, op, p.submit_start_us,
                    p.submit_end_us,
                    {{"plan_ms", js.plan_ms},
                     {"plan_cache_hit", js.plan_cache_hit ? 1.0 : 0.0}});
        rec->record("op", in.kind, js.id, 0, p.due_us, done_us,
                    {{"lag_ms", (p.submit_start_us - p.due_us) / 1e3},
                     {"queue_ms", js.queue_ms},
                     {"run_ms", js.run_ms},
                     {"total_ms", js.total_ms}},
                    op);
      }
      check_output(in, out, result);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tilq_bench: query failed: %s\n", e.what());
      ++result.failed;
    }
  };

  // A 1 ns timer slack keeps sleeps from overshooting their due times by
  // the default 50 us.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const tilq::EngineStats before = engine.stats();
  const auto start_tp = std::chrono::steady_clock::now();
  const double start = now_us();
  last_done_us = start;
  for (std::size_t i = 0; i < due_us.size(); ++i) {
    const double due = start + due_us[i];
    for (auto it = pending.begin();
         it != pending.end() && now_us() + kCollectMarginUs < due;) {
      if (it->handle.done()) {
        collect(*it);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
    std::this_thread::sleep_until(
        start_tp + std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::duration<double, std::micro>(due_us[i])));
    Pending p;
    p.input = (i + 1) % kOpenHeavyEvery == 0 ? &heavy
                                             : &inputs[i % kCheapStructures];
    p.due_us = due;
    p.submit_start_us = now_us();
    ++result.attempted;
    try {
      p.handle = engine.submit(p.input->a, p.input->a, p.input->a, config);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tilq_bench: submit refused: %s\n", e.what());
      ++result.failed;
      continue;
    }
    p.submit_end_us = now_us();
    pending.push_back(std::move(p));
  }
  for (Pending& p : pending) {
    collect(p);
  }
  const tilq::EngineStats after = engine.stats();
  record_window(rec, before, after, start, last_done_us);
  result.measured_s = (last_done_us - start) / 1e6;
  if (result.attempted != result.arrivals) {
    result.violations.push_back("generator submitted " +
                                std::to_string(result.attempted) + " of " +
                                std::to_string(result.arrivals) + " arrivals");
  }
  return result;
}

// --- output -------------------------------------------------------------

/// Peak resident set of this process image. VmHWM, unlike ru_maxrss,
/// starts afresh at exec, so the parent runner's own size never shows.
double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  long long kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lld kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

void print_result(const Options& opt, const RunResult& r) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,"
              "\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"ops\":%lld,\"measured_s\":%.9g,\"setup_s\":%.9g,"
              "\"peak_rss_mb\":%.9g,\"input_nnz\":%lld,\"output_nnz\":%lld,"
              "\"arrivals\":%lld,\"lat_ms\":[",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              r.violations.empty() ? "true" : "false",
              static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), static_cast<long long>(r.ops),
              r.measured_s, r.setup_s, peak_rss_mb(),
              static_cast<long long>(r.input_nnz),
              static_cast<long long>(r.output_nnz),
              static_cast<long long>(r.arrivals));
  for (std::size_t i = 0; i < r.lat_ms.size(); ++i) {
    std::printf(i == 0 ? "%.9g" : ",%.9g", r.lat_ms[i]);
  }
  std::printf("],\"violations\":[");
  for (std::size_t i = 0; i < r.violations.size(); ++i) {
    std::printf(i == 0 ? "\"%s\"" : ",\"%s\"", r.violations[i].c_str());
  }
  std::printf("]}\n");
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload oneshot-1d|oneshot-blocked|engine-repeat|"
               "engine-distinct|engine-open --seconds S --seed N "
               "[--trace FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value);
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--trace") {
      opt.trace_path = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || opt.seconds <= 0.0) {
    return usage(argv[0]);
  }

  SpanRecorder recorder;
  SpanRecorder* rec = opt.trace_path.empty() ? nullptr : &recorder;
  RunResult result;
  try {
    if (opt.workload == "oneshot-1d") {
      result = run_oneshot(opt, false, rec);
    } else if (opt.workload == "oneshot-blocked") {
      result = run_oneshot(opt, true, rec);
    } else if (opt.workload == "engine-repeat") {
      result = run_closed_loop(opt, 0.25, 4, 4, true, rec);
    } else if (opt.workload == "engine-distinct") {
      result = run_closed_loop(opt, 0.1, 2, 128, false, rec);
    } else if (opt.workload == "engine-open") {
      result = run_open_loop(opt, rec);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tilq_bench: %s\n", e.what());
    return 1;
  }
  if (rec != nullptr && !rec->write_chrome_trace(opt.trace_path)) {
    std::fprintf(stderr, "tilq_bench: cannot write %s\n",
                 opt.trace_path.c_str());
    return 1;
  }
  print_result(opt, result);
  return result.violations.empty() ? 0 : 1;
}
