// FLOP / work estimation for the masked-SpGEMM (§III-A). For each output
// row, following the mask-first algorithm of Fig 5, the estimated work is
//
//     W[i] = nnz(M[i,:]) + Σ_{A[i,k] != 0} nnz(B[k,:])          (Eq 2)
//
// computable in O(nnz(A)) because CSR gives nnz(B[k,:]) in constant time.
// The prefix sum of W drives the FLOP-balanced tiler, and the co-iteration
// cost model (Eq 3) compares
//
//     W_co[i,k] = nnz(M[i,:]) · log2 nnz(B[k,:])                 (Eq 3)
//
// against κ · nnz(B[k,:]) per (i,k) in the hybrid kernel.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/csr.hpp"
#include "support/common.hpp"
#include "support/parallel.hpp"

namespace tilq {

/// Per-row work estimates W[i] (Eq 2). `mask` and `a` must have the same
/// row count; `b` supplies nnz(B[k,:]). `parallel` = false never opens an
/// OpenMP region (see the four-argument parallel_for).
template <class T, class I>
std::vector<std::int64_t> row_work(const Csr<T, I>& mask, const Csr<T, I>& a,
                                   const Csr<T, I>& b, bool parallel = true) {
  require(mask.rows() == a.rows(), "row_work: mask/a row mismatch");
  require(a.cols() == b.rows(), "row_work: inner dimension mismatch");
  std::vector<std::int64_t> work(static_cast<std::size_t>(a.rows()));
  parallel_for(I{0}, a.rows(), parallel, [&](I i) {
    std::int64_t w = mask.row_nnz(i);
    for (const I k : a.row_cols(i)) {
      w += b.row_nnz(k);
    }
    work[static_cast<std::size_t>(i)] = w;
  });
  return work;
}

/// Inclusive-prefix view over row work: prefix[i] = W[0] + ... + W[i-1],
/// prefix[rows] = total. Used by the FLOP-balanced tiler to split rows at
/// equal-work boundaries via binary search.
template <class T, class I>
std::vector<std::int64_t> row_work_prefix(const Csr<T, I>& mask,
                                          const Csr<T, I>& a,
                                          const Csr<T, I>& b,
                                          bool parallel = true) {
  const std::vector<std::int64_t> work = row_work(mask, a, b, parallel);
  std::vector<std::int64_t> prefix(work.size() + 1);
  if (parallel) {
    exclusive_scan<std::int64_t>(work, prefix);
  } else {
    exclusive_scan_serial<std::int64_t>(work, prefix);
  }
  return prefix;
}

/// Total FLOPs for the unmasked product A×B: Σ_i Σ_{A[i,k]≠0} nnz(B[k,:]).
/// This is the operation count SS:GB/GrB use for accumulator sizing, which
/// the paper replaces with max_i nnz(M[i,:]) (§III-C).
template <class T, class I>
std::int64_t total_flops(const Csr<T, I>& a, const Csr<T, I>& b,
                         bool parallel = true) {
  require(a.cols() == b.rows(), "total_flops: inner dimension mismatch");
  std::int64_t flops = 0;
  // if(false) runs the loop on a team of one: no worker threads spawned.
#pragma omp parallel for schedule(static) reduction(+ : flops) if (parallel)
  for (I i = 0; i < a.rows(); ++i) {
    for (const I k : a.row_cols(i)) {
      flops += b.row_nnz(k);
    }
  }
  return flops;
}

/// Upper bound on distinct columns produced by row i of the unmasked
/// product — sizes the vanilla kernel's accumulator.
template <class T, class I>
I row_flop_bound(const Csr<T, I>& a, const Csr<T, I>& b, I i) {
  std::int64_t bound = 0;
  for (const I k : a.row_cols(i)) {
    bound += b.row_nnz(k);
  }
  return static_cast<I>(std::min<std::int64_t>(bound, b.cols()));
}

}  // namespace tilq
