// Shared test utilities: the dense reference oracle for the masked product,
// random sparse matrix builders, comparison helpers, and a scoped
// environment override. The oracle shares no code with the sparse kernels
// (it multiplies dense expansions), so agreement is meaningful evidence of
// correctness.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/semiring.hpp"
#include "sparse/build.hpp"
#include "sparse/csr.hpp"
#include "sparse/dense.hpp"
#include "support/rng.hpp"

namespace tilq::test {

/// Reference masked product over an arbitrary semiring, computed densely:
/// C[i,j] = Σ_k A[i,k]·B[k,j] wherever M has an entry AND at least one
/// product term exists structurally (GraphBLAS structural semantics: an
/// output entry exists iff the mask allows it and the intersection of
/// A[i,:] and B[:,j] patterns is non-empty, even if the sum equals the
/// semiring zero).
template <Semiring SR, class T = typename SR::value_type, class I>
Csr<T, I> reference_masked_spgemm(const Csr<T, I>& mask, const Csr<T, I>& a,
                                  const Csr<T, I>& b) {
  const I rows = a.rows();
  const I cols = b.cols();
  std::vector<I> row_ptr(static_cast<std::size_t>(rows) + 1, I{0});
  std::vector<I> col_idx;
  std::vector<T> values;

  for (I i = 0; i < rows; ++i) {
    for (const I j : mask.row_cols(i)) {
      T sum = SR::zero();
      bool structural = false;
      for (const I k : a.row_cols(i)) {
        if (b.contains(k, j)) {
          structural = true;
          sum = SR::add(sum, SR::mul(a.at(i, k), b.at(k, j)));
        }
      }
      if (structural) {
        col_idx.push_back(j);
        values.push_back(sum);
      }
    }
    row_ptr[static_cast<std::size_t>(i) + 1] = static_cast<I>(col_idx.size());
  }
  return Csr<T, I>(rows, cols, std::move(row_ptr), std::move(col_idx),
                   std::move(values));
}

/// Uniform random sparse matrix with ~density fraction of entries, values
/// in {1, ..., 9} (exact in double and int alike, so semiring results
/// compare exactly).
template <class T = double, class I = std::int64_t>
Csr<T, I> random_matrix(I rows, I cols, double density, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo<T, I> coo(rows, cols);
  for (I i = 0; i < rows; ++i) {
    for (I j = 0; j < cols; ++j) {
      if (rng.bernoulli(density)) {
        coo.push_unchecked(i, j, static_cast<T>(1 + rng.uniform_below(9)));
      }
    }
  }
  return build_csr(coo, DupPolicy::kError);
}

/// Scoped setenv/unsetenv so a test's environment cannot leak into the
/// next test, and a variable set around the suite (CI runs engine_test
/// with TILQ_TELEMETRY set) cannot leak into a test that pins it.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      old_ = old;
      had_old_ = true;
    }
    ::setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), /*overwrite=*/1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

/// GoogleTest helper: asserts two CSR matrices are identical (shape,
/// pattern, values) with a readable failure message.
template <class T, class I>
::testing::AssertionResult csr_equal(const Csr<T, I>& expected,
                                     const Csr<T, I>& actual) {
  if (expected.rows() != actual.rows() || expected.cols() != actual.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: expected " << expected.rows() << "x"
           << expected.cols() << ", got " << actual.rows() << "x"
           << actual.cols();
  }
  for (I i = 0; i < expected.rows(); ++i) {
    const auto e_cols = expected.row_cols(i);
    const auto a_cols = actual.row_cols(i);
    if (!std::ranges::equal(e_cols, a_cols)) {
      return ::testing::AssertionFailure()
             << "pattern mismatch in row " << i << ": expected "
             << e_cols.size() << " entries, got " << a_cols.size();
    }
    const auto e_vals = expected.row_vals(i);
    const auto a_vals = actual.row_vals(i);
    for (std::size_t p = 0; p < e_vals.size(); ++p) {
      if (e_vals[p] != a_vals[p]) {
        return ::testing::AssertionFailure()
               << "value mismatch at (" << i << ", " << e_cols[p]
               << "): expected " << e_vals[p] << ", got " << a_vals[p];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace tilq::test
