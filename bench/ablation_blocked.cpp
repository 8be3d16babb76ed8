// Ablation: the cache-blocked execution space vs the paper's 1D row
// tiling — column tiling, the experiment §V-A defers to future work.
//
// This is the CI gate for the blocked plan stage: on every graph of all
// four kinds (road, circuit, web, social) it runs both spaces at a fixed
// row tiling (FLOP-balanced, dynamic, intermediate count), verifies
// bit-identity against the 1D reference, and reports two timings per
// space: one-shot (masked_spgemm, planning on every call) and plan-once
// (Executor: plan once, execute many). The per-kind geometric-mean
// plan-once speedup must clear --min-speedup (default 1.2).
#include <cmath>
#include <cstring>

#include "bench_util.hpp"

namespace {

using SR = tilq::PlusTimes<double>;

tilq::Config base_config(const tilq::GraphMatrix& a, int threads) {
  tilq::Config config;
  config.strategy = tilq::MaskStrategy::kHybrid;
  config.coiteration_factor = 1.0;
  config.tiling = tilq::Tiling::kFlopBalanced;
  config.schedule = tilq::Schedule::kDynamic;
  config.num_tiles = std::min<std::int64_t>(1024, a.rows());
  config.threads = threads;
  return config;
}

bool bit_identical(const tilq::GraphMatrix& x, const tilq::GraphMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() && x.nnz() == y.nnz() &&
         std::equal(x.row_ptr().begin(), x.row_ptr().end(),
                    y.row_ptr().begin()) &&
         std::equal(x.col_idx().begin(), x.col_idx().end(),
                    y.col_idx().begin()) &&
         std::equal(x.values().begin(), x.values().end(), y.values().begin());
}

/// Fastest one-shot call (plan + execute) for one config. Scheduler
/// preemption only ever slows a run, so on a shared box the minimum is the
/// noise-robust estimator for a speedup.
double time_oneshot(const tilq::GraphMatrix& a, const tilq::Config& config,
                    const tilq::TimingOptions& timing,
                    const std::string& name) {
  const tilq::TimingResult result = tilq::bench::measure_with_metrics(
      [&] { (void)tilq::masked_spgemm<SR>(a, a, a, config); }, timing, name,
      config.describe());
  return result.min_ms;
}

/// Fastest plan-once / execute-many iteration for one config (the
/// iterative-workload regime; plan build is amortized).
double time_planned(const tilq::GraphMatrix& a, const tilq::Config& config,
                    const tilq::TimingOptions& timing,
                    const std::string& name) {
  tilq::Executor<SR> exec;
  exec.plan(a, a, a, config);
  const tilq::TimingResult result = tilq::bench::measure_with_metrics(
      [&] { (void)exec.execute(a, a, a); }, timing, name, config.describe());
  return result.min_ms;
}

int run_blocked_gate(double scale, double min_speedup) {
  tilq::bench::print_header("Ablation: blocked tiles vs 1D (gate)", scale);
  tilq::bench::GraphCache cache(scale);
  const int threads = tilq::bench::bench_threads();
  auto timing = tilq::bench::bench_timing();
  timing.max_iterations = 24;
  timing.min_iterations = 5;

  std::printf("%-16s %-8s %9s %9s %8s %9s %9s %8s  %s\n", "graph", "kind",
              "1d call", "blk call", "speedup", "1d exec", "blk exec",
              "speedup", "bit-identical");

  // kind -> (sum of log plan-once speedups, count)
  std::map<std::string, std::pair<double, int>> by_kind;
  bool all_identical = true;

  for (const auto& entry : tilq::collection_entries()) {
    const tilq::GraphMatrix& a = cache.get(entry.name);
    const tilq::Config one_d = base_config(a, threads);
    tilq::Config blocked = one_d;
    blocked.mode = tilq::Strategy::kBlocked;

    const auto reference = tilq::masked_spgemm<SR>(a, a, a, one_d);
    const auto candidate = tilq::masked_spgemm<SR>(a, a, a, blocked);
    const bool identical = bit_identical(reference, candidate);
    all_identical = all_identical && identical;

    const double call_1d = time_oneshot(a, one_d, timing, entry.name);
    const double call_blocked = time_oneshot(a, blocked, timing, entry.name);
    const double exec_1d = time_planned(a, one_d, timing, entry.name);
    const double exec_blocked = time_planned(a, blocked, timing, entry.name);
    const double call_speedup =
        call_blocked > 0.0 ? call_1d / call_blocked : 1.0;
    const double exec_speedup =
        exec_blocked > 0.0 ? exec_1d / exec_blocked : 1.0;
    auto& [log_sum, count] = by_kind[tilq::to_string(entry.kind)];
    log_sum += std::log(exec_speedup);
    ++count;

    std::printf("%-16s %-8s %9.2f %9.2f %7.2fx %9.2f %9.2f %7.2fx  %s\n",
                entry.name.c_str(), tilq::to_string(entry.kind), call_1d,
                call_blocked, call_speedup, exec_1d, exec_blocked,
                exec_speedup, identical ? "yes" : "NO");
    std::printf("CSV,ablation_blocked,%s,%s,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%d\n",
                entry.name.c_str(), tilq::to_string(entry.kind), call_1d,
                call_blocked, call_speedup, exec_1d, exec_blocked,
                exec_speedup, identical ? 1 : 0);
  }

  bool gate_ok = all_identical;
  std::printf("\n");
  for (const auto& [kind, acc] : by_kind) {
    const double geomean = std::exp(acc.first / std::max(1, acc.second));
    const bool ok = geomean >= min_speedup;
    gate_ok = gate_ok && ok;
    std::printf("%-8s plan-once geomean %5.2fx over %d graphs (gate %.2fx): %s\n",
                kind.c_str(), geomean, acc.second, min_speedup,
                ok ? "PASS" : "FAIL");
    std::printf("CSV,ablation_blocked_geomean,%s,%.4f,%d\n", kind.c_str(),
                geomean, ok ? 1 : 0);
  }
  if (!all_identical) {
    std::printf("blocked output diverged from the 1D reference\n");
  }
  std::printf("gate: %s\n", gate_ok ? "PASS" : "FAIL");
  return gate_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  double min_speedup = 1.2;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    }
  }
  return run_blocked_gate(tilq::bench::bench_scale(0.7), min_speedup);
}
