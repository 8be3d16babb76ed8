// Row kernels for the saxpy masked-SpGEMM — one per algorithm figure in the
// paper. Each computes a single output row C[i,:] into `emit(col, value)`
// using a per-thread accumulator, and leaves the accumulator reset for the
// next row. All operate on CSR operands with sorted columns.
//
//   kVanilla   (Fig 3) — merge all scaled B rows unmasked, then intersect
//                        with M[i,:] at gather time. Requires a large
//                        accumulator (per-row FLOP bound) and wastes work on
//                        products outside the mask.
//   kMaskFirst (Fig 5) — GrB: load M[i,:] into the accumulator first; each
//                        B[k,:] nonzero probes the mask and is discarded on
//                        a miss. Reads all of every B[k,:].
//   kCoIterate (Fig 7) — iterate M[i,:] and binary-search each mask column
//                        in B[k,:]; loads only matching B entries. Wins when
//                        nnz(M[i,:]) << nnz(B[k,:]).
//   kHybrid    (Fig 9) — per (i,k) choose co-iteration iff
//                        nnz(M[i,:])·log2(nnz(B[k,:])) < κ·nnz(B[k,:]),
//                        κ = the co-iteration factor. SS:GB's "push-pull".
//                        The test runs inline, in the kernel, on every
//                        path; a plan stores no per-(i,k) picks.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <span>

#include "accum/accumulator.hpp"
#include "core/semiring.hpp"
#include "core/work_estimate.hpp"
#include "sparse/csr.hpp"
#include "support/common.hpp"
#include "support/metrics.hpp"

namespace tilq {

/// Iteration-space strategy (§III-B).
enum class MaskStrategy {
  kVanilla,    ///< Fig 3: unmasked merge, post-hoc intersection
  kMaskFirst,  ///< Fig 5: mask loaded first, linear scan of B rows
  kCoIterate,  ///< Fig 7: co-iterate mask with B rows via binary search
  kHybrid,     ///< Fig 9: per-(i,k) choice driven by κ
};

[[nodiscard]] constexpr const char* to_string(MaskStrategy strategy) noexcept {
  switch (strategy) {
    case MaskStrategy::kVanilla:
      return "vanilla";
    case MaskStrategy::kMaskFirst:
      return "mask-first";
    case MaskStrategy::kCoIterate:
      return "co-iterate";
    case MaskStrategy::kHybrid:
      return "hybrid";
  }
  return "?";
}

namespace detail {

/// B-row lengths below this read their log2 from an 8 KB table instead of
/// calling std::log2.
inline constexpr std::size_t kLog2TableSize = 1024;

/// log2(max(2, n)) as a double. Below kLog2TableSize the value comes from
/// a table filled once with the very std::log2 call made above it, so the
/// two branches agree bit for bit and no κ decision can change.
[[nodiscard]] inline double log2_at_least_2(std::int64_t n) noexcept {
  static const std::array<double, kLog2TableSize> table = [] {
    std::array<double, kLog2TableSize> t{};
    for (std::size_t v = 0; v < t.size(); ++v) {
      t[v] = std::log2(static_cast<double>(std::max<std::size_t>(2, v)));
    }
    return t;
  }();
  if (static_cast<std::uint64_t>(n) < kLog2TableSize) {
    return table[static_cast<std::size_t>(n)];
  }
  return std::log2(static_cast<double>(std::max<std::int64_t>(2, n)));
}

/// The hybrid switch: co-iterate iff
/// mask_nnz * log2(b_nnz) < kappa * b_nnz  (Eq 3 vs the linear cost).
/// b_nnz == 0 rows are skipped by callers.
[[nodiscard]] inline bool prefer_coiteration(std::int64_t mask_nnz,
                                             std::int64_t b_nnz,
                                             double kappa) noexcept {
  const double co_cost =
      static_cast<double>(mask_nnz) * log2_at_least_2(b_nnz);
  return co_cost < kappa * static_cast<double>(b_nnz);
}

/// Per-row scratch for the observability counters (docs/METRICS.md). The
/// kernels batch into these locals and flush() adds them to the calling
/// thread's registered slot once per row; with TILQ_METRICS_ENABLED=0 (or
/// metrics runtime-disabled) flush is a no-op and the dead stores vanish.
struct KernelRowMetrics {
  std::uint64_t flops = 0;
  std::uint64_t binary_search_steps = 0;
  std::uint64_t hybrid_coiter_picks = 0;
  std::uint64_t hybrid_linear_picks = 0;

  void flush() const {
#if TILQ_METRICS_ENABLED
    if (MetricCounters* counters = metrics_thread_counters()) {
      counters->flops += flops;
      counters->binary_search_steps += binary_search_steps;
      counters->hybrid_coiter_picks += hybrid_coiter_picks;
      counters->hybrid_linear_picks += hybrid_linear_picks;
    }
#endif
  }
};

/// lower_bound over `cols[from..)` that counts its halving steps — same
/// algorithm as std::lower_bound, with the step count feeding the
/// `binary_search_steps` counter. Returns the index of the first element
/// >= key (cols.size() if none).
template <class I>
[[nodiscard]] inline std::size_t lower_bound_index(std::span<const I> cols,
                                                   std::size_t from, I key,
                                                   std::uint64_t& steps) noexcept {
  std::size_t lo = from;
  std::size_t n = cols.size() - from;
  while (n > 0) {
    const std::size_t half = n / 2;
    ++steps;
    if (cols[lo + half] < key) {
      lo += half + 1;
      n -= half + 1;
    } else {
      n = half;
    }
  }
  return lo;
}

}  // namespace detail

/// Fig 3. The accumulator must also provide the unmasked protocol
/// (begin_unmasked_row / accumulate_any / gather_unmasked).
template <Semiring SR, class T, class I, class Acc, class Emit>
void row_vanilla(const Csr<T, I>& mask, const Csr<T, I>& a, const Csr<T, I>& b,
                 I i, Acc& acc, Emit&& emit) {
  const auto mask_cols = mask.row_cols(i);
  acc.begin_unmasked_row(row_flop_bound(a, b, i));
  detail::KernelRowMetrics metrics;
  const auto a_cols = a.row_cols(i);
  const auto a_vals = a.row_vals(i);
  for (std::size_t p = 0; p < a_cols.size(); ++p) {
    const I k = a_cols[p];
    const T scale = a_vals[p];
    const auto b_cols = b.row_cols(k);
    const auto b_vals = b.row_vals(k);
    metrics.flops += b_cols.size();
    for (std::size_t q = 0; q < b_cols.size(); ++q) {
      acc.accumulate_any(b_cols[q], SR::mul(scale, b_vals[q]));
    }
  }
  // Intersection with the mask: only slots that are both touched and in
  // M[i,:] are emitted (Fig 3 lines 14-16).
  acc.gather(mask_cols, emit);
  acc.finish_row(mask_cols);
  metrics.flush();
}

/// Fig 5 (GrB / modern SS:GB).
template <Semiring SR, class T, class I, class Acc, class Emit>
void row_mask_first(const Csr<T, I>& mask, const Csr<T, I>& a,
                    const Csr<T, I>& b, I i, Acc& acc, Emit&& emit) {
  const auto mask_cols = mask.row_cols(i);
  if (mask_cols.empty()) {
    return;  // C[i,:] is structurally empty; skip the row entirely
  }
  acc.set_mask(mask_cols);
  detail::KernelRowMetrics metrics;
  const auto a_cols = a.row_cols(i);
  const auto a_vals = a.row_vals(i);
  for (std::size_t p = 0; p < a_cols.size(); ++p) {
    const I k = a_cols[p];
    const T scale = a_vals[p];
    const auto b_cols = b.row_cols(k);
    const auto b_vals = b.row_vals(k);
    metrics.flops += b_cols.size();
    for (std::size_t q = 0; q < b_cols.size(); ++q) {
      acc.accumulate(b_cols[q], SR::mul(scale, b_vals[q]));
    }
  }
  acc.gather(mask_cols, emit);
  acc.finish_row(mask_cols);
  metrics.flush();
}

/// Fig 7.
template <Semiring SR, class T, class I, class Acc, class Emit>
void row_coiterate(const Csr<T, I>& mask, const Csr<T, I>& a,
                   const Csr<T, I>& b, I i, Acc& acc, Emit&& emit) {
  const auto mask_cols = mask.row_cols(i);
  if (mask_cols.empty()) {
    return;
  }
  acc.set_mask(mask_cols);
  detail::KernelRowMetrics metrics;
  const auto a_cols = a.row_cols(i);
  const auto a_vals = a.row_vals(i);
  for (std::size_t p = 0; p < a_cols.size(); ++p) {
    const I k = a_cols[p];
    const T scale = a_vals[p];
    const auto b_cols = b.row_cols(k);
    const auto b_vals = b.row_vals(k);
    for (const I j : mask_cols) {
      // Binary search j in B[k,:] (Fig 7 line 11).
      const std::size_t q = detail::lower_bound_index(
          b_cols, 0, j, metrics.binary_search_steps);
      if (q < b_cols.size() && b_cols[q] == j) {
        ++metrics.flops;
        acc.accumulate(j, SR::mul(scale, b_vals[q]));
      }
    }
  }
  acc.gather(mask_cols, emit);
  acc.finish_row(mask_cols);
  metrics.flush();
}

/// Fig 9: hybrid linear scan / co-iteration with co-iteration factor κ.
template <Semiring SR, class T, class I, class Acc, class Emit>
void row_hybrid(const Csr<T, I>& mask, const Csr<T, I>& a, const Csr<T, I>& b,
                I i, double kappa, Acc& acc, Emit&& emit) {
  const auto mask_cols = mask.row_cols(i);
  if (mask_cols.empty()) {
    return;
  }
  acc.set_mask(mask_cols);
  detail::KernelRowMetrics metrics;
  const auto mask_nnz = static_cast<std::int64_t>(mask_cols.size());
  const auto a_cols = a.row_cols(i);
  const auto a_vals = a.row_vals(i);
  for (std::size_t p = 0; p < a_cols.size(); ++p) {
    const I k = a_cols[p];
    const T scale = a_vals[p];
    const auto b_cols = b.row_cols(k);
    const auto b_vals = b.row_vals(k);
    if (detail::prefer_coiteration(mask_nnz,
                                   static_cast<std::int64_t>(b_cols.size()),
                                   kappa)) {
      ++metrics.hybrid_coiter_picks;
      for (const I j : mask_cols) {
        const std::size_t q = detail::lower_bound_index(
            b_cols, 0, j, metrics.binary_search_steps);
        if (q < b_cols.size() && b_cols[q] == j) {
          ++metrics.flops;
          acc.accumulate(j, SR::mul(scale, b_vals[q]));
        }
      }
    } else {
      ++metrics.hybrid_linear_picks;
      metrics.flops += b_cols.size();
      for (std::size_t q = 0; q < b_cols.size(); ++q) {
        acc.accumulate(b_cols[q], SR::mul(scale, b_vals[q]));
      }
    }
  }
  acc.gather(mask_cols, emit);
  acc.finish_row(mask_cols);
  metrics.flush();
}

/// Dispatches one row to the kernel selected by `strategy`.
template <Semiring SR, class T, class I, class Acc, class Emit>
void compute_row(MaskStrategy strategy, double kappa, const Csr<T, I>& mask,
                 const Csr<T, I>& a, const Csr<T, I>& b, I i, Acc& acc,
                 Emit&& emit) {
  switch (strategy) {
    case MaskStrategy::kVanilla:
      row_vanilla<SR>(mask, a, b, i, acc, emit);
      break;
    case MaskStrategy::kMaskFirst:
      row_mask_first<SR>(mask, a, b, i, acc, emit);
      break;
    case MaskStrategy::kCoIterate:
      row_coiterate<SR>(mask, a, b, i, acc, emit);
      break;
    case MaskStrategy::kHybrid:
      row_hybrid<SR>(mask, a, b, i, kappa, acc, emit);
      break;
  }
}

}  // namespace tilq
