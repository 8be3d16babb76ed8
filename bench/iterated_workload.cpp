// Iterated fixed-mask workload: the plan/execute runtime's headline number.
// Repeats the paper's kernel C = A ⊙ (A × A) with unchanging sparsity —
// the k-truss / triangle-census / fixed-graph pattern — and compares
//
//   per-call  one-shot masked_spgemm per iteration (analyze every call)
//   planned   Executor::plan once, execute per iteration (pooled
//             accumulators + reused driver buffers, analyze amortized)
//
// Prints per-matrix medians and speedups, checks the two paths produce
// bit-identical outputs, and asserts the workspace pool builds each
// thread's accumulator at most once: a thread builds it on the first task
// it draws, never rebuilds it, and the driver buffers stop growing after
// warm-up. With --min-speedup X the process
// exits non-zero unless every matrix's planned speedup reaches X and the
// correctness/pooling checks hold — CI's plan-reuse smoke contract.
//
// Flags: --min-speedup <x>   gate (default: report only)
//        --iterations <n>    kernel iterations per timed sample (default 8)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace {

using tilq::Config;
using tilq::Csr;
using SR = tilq::PlusTimes<double>;

/// Exact structural + bitwise value equality (csr_equal in the tests allows
/// nothing less; the bench enforces the same contract on real inputs).
bool bit_identical(const Csr<double, std::int64_t>& x,
                   const Csr<double, std::int64_t>& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() && x.nnz() == y.nnz() &&
         std::memcmp(x.row_ptr().data(), y.row_ptr().data(),
                     x.row_ptr().size_bytes()) == 0 &&
         std::memcmp(x.col_idx().data(), y.col_idx().data(),
                     x.col_idx().size_bytes()) == 0 &&
         std::memcmp(x.values().data(), y.values().data(),
                     x.values().size_bytes()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  double min_speedup = 0.0;
  int iterations = 8;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-speedup") == 0 && i + 1 < argc) {
      min_speedup = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--iterations") == 0 && i + 1 < argc) {
      iterations = std::max(1, std::atoi(argv[++i]));
    } else {
      std::fprintf(stderr,
                   "usage: %s [--min-speedup x] [--iterations n]\n", argv[0]);
      return 2;
    }
  }

  const double scale = tilq::bench::bench_scale(1.0);
  tilq::bench::print_header("iterated_workload", scale);
  tilq::bench::GraphCache cache(scale);
  const auto timing = tilq::bench::bench_timing();

  Config config;
  config.strategy = tilq::MaskStrategy::kHybrid;  // the paper's pick (§V-B)
  config.threads = tilq::bench::bench_threads();

  std::printf("config: %s, %d iterations per sample\n\n", config.describe().c_str(),
              iterations);
  std::printf("%-14s %14s %14s %9s %6s %6s\n", "matrix", "per-call ms/it",
              "planned ms/it", "speedup", "ident", "pool");

  bool gate_ok = true;
  for (const char* name : {"GAP-road", "circuit5M"}) {
    const auto& a = cache.get(name);

    tilq::Executor<SR> exec;
    exec.plan(a, a, a, config);
    const auto planned_out = exec.execute(a, a, a);
    const auto one_shot_out = tilq::masked_spgemm<SR>(a, a, a, config);
    const bool identical = bit_identical(one_shot_out, planned_out);

    const double per_call_ms =
        tilq::bench::measure_with_metrics(
            [&] {
              for (int k = 0; k < iterations; ++k) {
                (void)tilq::masked_spgemm<SR>(a, a, a, config);
              }
            },
            timing, name, "per-call")
            .median_ms /
        iterations;

    const auto warm = exec.pool_stats();
    const auto warm_grows = exec.buffer_grows();
    const double planned_ms =
        tilq::bench::measure_with_metrics(
            [&] {
              for (int k = 0; k < iterations; ++k) {
                (void)exec.execute(a, a, a);
              }
            },
            timing, name, "planned")
            .median_ms /
        iterations;
    const auto after = exec.pool_stats();

    const int team = config.threads > 0 ? config.threads : tilq::max_threads();
    const bool pool_flat =
        after.retunes == warm.retunes &&
        after.constructions <= static_cast<std::uint64_t>(team) &&
        exec.buffer_grows() == warm_grows;
    const double speedup = planned_ms > 0.0 ? per_call_ms / planned_ms : 0.0;
    std::printf("%-14s %14.3f %14.3f %8.2fx %6s %6s\n", name, per_call_ms,
                planned_ms, speedup, identical ? "yes" : "NO",
                pool_flat ? "flat" : "GREW");
    std::printf("CSV,iterated,%s,%d,%.6f,%.6f,%.4f,%d,%d\n", name, iterations,
                per_call_ms, planned_ms, speedup, identical ? 1 : 0,
                pool_flat ? 1 : 0);

    if (!identical || !pool_flat ||
        (min_speedup > 0.0 && speedup < min_speedup)) {
      gate_ok = false;
    }
  }

  if (min_speedup > 0.0) {
    std::printf("\ngate: min-speedup %.2fx, pooling flat, bit-identical => %s\n",
                min_speedup, gate_ok ? "PASS" : "FAIL");
    return gate_ok ? 0 : 1;
  }
  return 0;
}
