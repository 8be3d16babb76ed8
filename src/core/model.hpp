// Model-based configuration prediction — the paper's closing direction:
// "Ideally, this data will enable us to build models which can
// intelligently tune the parameters at execution time, rather than offline
// for the average case" (§VII). extract_features summarizes a problem in
// O(nnz); predict_config maps the features straight to a Config using the
// decision rules the paper's experiments support, with no measurement:
//
//   * FLOP-balanced tiling, DYNAMIC scheduling, intermediate tile count
//     (§V-A observations 1-4);
//   * the hybrid kernel with κ = 1 (§V-B: "no significant scaling factor
//     is needed"), degrading to mask-first when B rows are uniformly tiny
//     (binary search can never win there);
//   * dense accumulator when the dense state fits comfortably in cache or
//     the writes are dense, hash otherwise, 32-bit markers (§V-C).
//
// bench/model_vs_tuned validates the predictor against the staged tuner.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/config.hpp"
#include "core/work_estimate.hpp"
#include "sparse/csr.hpp"
#include "sparse/stats.hpp"

namespace tilq {

/// O(nnz)-extractable features of a masked-SpGEMM problem.
struct ProblemFeatures {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t mask_nnz = 0;
  std::int64_t a_nnz = 0;
  std::int64_t b_nnz = 0;
  std::int64_t flops = 0;          ///< Σ_{A[i,k]≠0} nnz(B[k,:])
  double mean_mask_row = 0.0;      ///< nnz(M)/rows
  std::int64_t max_mask_row = 0;
  double mean_b_row = 0.0;         ///< nnz(B)/rows(B)
  std::int64_t max_b_row = 0;
  /// Coefficient of variation of the Eq-2 per-row work — the load-imbalance
  /// signal (road graphs ~0, social/web graphs >> 1).
  double row_work_cv = 0.0;
  /// mean_mask_row·log2(max_b_row) / max_b_row: < 1 means co-iterating the
  /// heaviest B rows beats scanning them (the Eq-3 test at the extreme).
  double coiteration_signal = 0.0;
};

/// Runs serially and opens no OpenMP team: the batch engine calls it on
/// client threads, beside its pool workers.
template <class T, class I>
ProblemFeatures extract_features(const Csr<T, I>& mask, const Csr<T, I>& a,
                                 const Csr<T, I>& b) {
  ProblemFeatures f;
  f.rows = a.rows();
  f.cols = b.cols();
  f.mask_nnz = mask.nnz();
  f.a_nnz = a.nnz();
  f.b_nnz = b.nnz();
  f.flops = total_flops(a, b, /*parallel=*/false);
  f.mean_mask_row =
      f.rows > 0 ? static_cast<double>(f.mask_nnz) / static_cast<double>(f.rows)
                 : 0.0;
  f.max_mask_row = max_row_nnz(mask);
  f.mean_b_row = b.rows() > 0 ? static_cast<double>(f.b_nnz) /
                                    static_cast<double>(b.rows())
                              : 0.0;
  f.max_b_row = max_row_nnz(b);

  const auto work = row_work(mask, a, b, /*parallel=*/false);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const std::int64_t w : work) {
    sum += static_cast<double>(w);
    sum_sq += static_cast<double>(w) * static_cast<double>(w);
  }
  if (!work.empty() && sum > 0.0) {
    const double n = static_cast<double>(work.size());
    const double mean = sum / n;
    const double variance = std::max(0.0, sum_sq / n - mean * mean);
    f.row_work_cv = std::sqrt(variance) / mean;
  }

  if (f.max_b_row > 1 && f.mean_mask_row > 0.0) {
    f.coiteration_signal = f.mean_mask_row *
                           std::log2(static_cast<double>(f.max_b_row)) /
                           static_cast<double>(f.max_b_row);
  }
  return f;
}

/// Maps features to a Config without any measurement. `threads` <= 0 uses
/// the OpenMP default.
Config predict_config(const ProblemFeatures& features, int threads = 0);

/// Convenience: extract + predict in one call.
template <class T, class I>
Config predict_config(const Csr<T, I>& mask, const Csr<T, I>& a,
                      const Csr<T, I>& b, int threads = 0) {
  return predict_config(extract_features(mask, a, b), threads);
}

}  // namespace tilq
