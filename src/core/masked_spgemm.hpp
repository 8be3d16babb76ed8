// The tilq masked-SpGEMM: C = M ⊙ (A × B) over an arbitrary semiring, with
// every performance dimension of the paper exposed through Config.
//
// Execution pipeline (implemented by the plan/execute runtime in
// core/plan.hpp; this header is the one-shot convenience entry point —
// plan once, execute once):
//   1. analyze  — per-row work estimates (Eq 2) when FLOP-balanced tiling is
//                 requested; tile construction; accumulator sizing.
//                 This is Executor::plan().
//   2. compute  — one OpenMP parallel region; tiles dispatched with
//                 schedule(runtime) so STATIC/DYNAMIC is a runtime switch;
//                 each thread owns one pooled accumulator; every output row
//                 is written into a slot of size nnz(M[i,:]) inside a buffer
//                 allocated at the mask's row-pointer bound (masked output
//                 rows can never exceed the mask row).
//   3. compact  — parallel prefix sum over actual row sizes + parallel copy
//                 into the final CSR arrays.
//
// Iterative callers with a fixed sparsity pattern should hold a
// tilq::Executor (or tilq::PlanCache) instead and pay phase 1 once — see
// docs/API.md.
#pragma once

#include "core/config.hpp"
#include "core/plan.hpp"
#include "sparse/csr.hpp"

namespace tilq {

/// Masked sparse matrix-matrix product C = M ⊙ (A × B) over semiring SR.
/// The mask is structural: its values are ignored, only its pattern filters
/// the product (GraphBLAS boolean-mask semantics, §IV-A). Output rows are
/// sorted; nnz(C[i,:]) <= nnz(M[i,:]).
template <Semiring SR, class T = typename SR::value_type, class I>
Csr<T, I> masked_spgemm(const Csr<T, I>& mask, const Csr<T, I>& a,
                        const Csr<T, I>& b, const Config& config = {}) {
  static_assert(std::is_same_v<T, typename SR::value_type>,
                "matrix value type must match the semiring");
  Executor<SR, T, I> exec;
  exec.plan(mask, a, b, config);
  return exec.execute(mask, a, b);
}

/// As above, filling `stats` with this call's execution statistics (the
/// plan-build time is reported as the analyze phase).
template <Semiring SR, class T = typename SR::value_type, class I>
Csr<T, I> masked_spgemm(const Csr<T, I>& mask, const Csr<T, I>& a,
                        const Csr<T, I>& b, const Config& config,
                        ExecutionStats& stats) {
  static_assert(std::is_same_v<T, typename SR::value_type>,
                "matrix value type must match the semiring");
  Executor<SR, T, I> exec;
  exec.plan(mask, a, b, config);
  Csr<T, I> result = exec.execute(mask, a, b, stats);
  stats.analyze_ms += exec.info().build_ms;
  return result;
}

}  // namespace tilq
