// Row-kernel tests: each of the four iteration strategies (Figs 3/5/7/9)
// against the dense oracle at single-row granularity, with both accumulator
// implementations, the hybrid switch behaviour at extreme κ, and the
// co-iteration search against std::lower_bound.
#include "core/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "accum/dense_accumulator.hpp"
#include "accum/hash_accumulator.hpp"
#include "sparse/stats.hpp"
#include "test_util.hpp"

namespace tilq {
namespace {

using I = std::int64_t;
using SR = PlusTimes<double>;

struct RowCase {
  Csr<double, I> mask;
  Csr<double, I> a;
  Csr<double, I> b;
};

RowCase make_case(std::uint64_t seed) {
  return {test::random_matrix<double, I>(12, 16, 0.25, seed),
          test::random_matrix<double, I>(12, 14, 0.25, seed + 100),
          test::random_matrix<double, I>(14, 16, 0.25, seed + 200)};
}

template <class Acc>
std::vector<std::pair<I, double>> run_row(MaskStrategy strategy, double kappa,
                                          const RowCase& c, I row, Acc& acc) {
  std::vector<std::pair<I, double>> out;
  compute_row<SR>(strategy, kappa, c.mask, c.a, c.b, row, acc,
                  [&](I col, double value) { out.emplace_back(col, value); });
  return out;
}

std::vector<std::pair<I, double>> oracle_row(const RowCase& c, I row) {
  const auto ref = test::reference_masked_spgemm<SR>(c.mask, c.a, c.b);
  std::vector<std::pair<I, double>> out;
  const auto cols = ref.row_cols(row);
  const auto vals = ref.row_vals(row);
  for (std::size_t p = 0; p < cols.size(); ++p) {
    out.emplace_back(cols[p], vals[p]);
  }
  return out;
}

class KernelStrategies
    : public ::testing::TestWithParam<std::tuple<MaskStrategy, bool>> {};

TEST_P(KernelStrategies, EveryRowMatchesOracle) {
  const auto [strategy, use_hash] = GetParam();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const RowCase c = make_case(seed);
    DenseAccumulator<SR, I, std::uint32_t> dense(c.b.cols());
    HashAccumulator<SR, I, std::uint32_t> hash(
        std::max<I>(max_row_nnz(c.mask), 64));
    for (I row = 0; row < c.a.rows(); ++row) {
      const auto expected = oracle_row(c, row);
      const auto actual = use_hash ? run_row(strategy, 1.0, c, row, hash)
                                   : run_row(strategy, 1.0, c, row, dense);
      ASSERT_EQ(actual, expected)
          << "strategy=" << to_string(strategy) << " hash=" << use_hash
          << " seed=" << seed << " row=" << row;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, KernelStrategies,
    ::testing::Combine(::testing::Values(MaskStrategy::kVanilla,
                                         MaskStrategy::kMaskFirst,
                                         MaskStrategy::kCoIterate,
                                         MaskStrategy::kHybrid),
                       ::testing::Bool()),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param));
      for (auto& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name + (std::get<1>(param_info.param) ? "_hash" : "_dense");
    });

TEST(HybridKernel, ExtremeKappaMatchesPureStrategies) {
  // κ -> 0 must behave exactly like mask-first (all linear scans); κ -> ∞
  // exactly like co-iterate. All three must agree with the oracle, so
  // equality between them is implied — this checks they take the intended
  // branch by comparing against each other on every row.
  const RowCase c = make_case(42);
  DenseAccumulator<SR, I, std::uint32_t> acc(c.b.cols());
  for (I row = 0; row < c.a.rows(); ++row) {
    const auto linear = run_row(MaskStrategy::kMaskFirst, 1.0, c, row, acc);
    const auto hybrid_linear = run_row(MaskStrategy::kHybrid, 0.0, c, row, acc);
    const auto coiter = run_row(MaskStrategy::kCoIterate, 1.0, c, row, acc);
    const auto hybrid_coiter = run_row(MaskStrategy::kHybrid, 1e18, c, row, acc);
    EXPECT_EQ(hybrid_linear, linear) << "row " << row;
    EXPECT_EQ(hybrid_coiter, coiter) << "row " << row;
  }
}

TEST(PreferCoiteration, CostModelCrossover) {
  // mask_nnz * log2(b_nnz) < kappa * b_nnz
  EXPECT_TRUE(detail::prefer_coiteration(1, 1024, 1.0));    // 10 < 1024
  EXPECT_FALSE(detail::prefer_coiteration(1024, 1024, 1.0));  // 10240 > 1024
  EXPECT_FALSE(detail::prefer_coiteration(1, 1024, 0.001));   // 10 > 1.024
  EXPECT_TRUE(detail::prefer_coiteration(1024, 1024, 100.0));
}

TEST(PreferCoiteration, Log2TableMatchesTheLog2Formula) {
  // The table must reproduce std::log2 bit for bit, so no κ decision (and
  // no result bit) depends on which branch served the value.
  const auto formula = [](std::int64_t mask_nnz, std::int64_t b_nnz,
                          double kappa) {
    const double log2_b =
        std::log2(static_cast<double>(std::max<std::int64_t>(2, b_nnz)));
    return static_cast<double>(mask_nnz) * log2_b <
           kappa * static_cast<double>(b_nnz);
  };
  std::vector<std::int64_t> b_values;
  const auto table_size = static_cast<std::int64_t>(detail::kLog2TableSize);
  for (std::int64_t b = 0; b < table_size + 64; ++b) {
    b_values.push_back(b);
  }
  for (const std::int64_t b : {std::int64_t{1} << 12, std::int64_t{123457},
                               std::int64_t{1} << 40}) {
    b_values.push_back(b);
  }
  for (const std::int64_t b : b_values) {
    ASSERT_EQ(detail::log2_at_least_2(b),
              std::log2(static_cast<double>(std::max<std::int64_t>(2, b))))
        << "b_nnz " << b;
    for (const std::int64_t mask_nnz : {0, 1, 2, 3, 7, 64, 1000}) {
      for (const double kappa : {0.0, 0.25, 1.0, 3.0, 1e18}) {
        ASSERT_EQ(detail::prefer_coiteration(mask_nnz, b, kappa),
                  formula(mask_nnz, b, kappa))
            << "mask_nnz " << mask_nnz << " b_nnz " << b << " kappa " << kappa;
      }
    }
  }
}

template <class Index>
class LowerBoundIndex : public ::testing::Test {};

using IndexTypes = ::testing::Types<std::int32_t, std::int64_t>;
TYPED_TEST_SUITE(LowerBoundIndex, IndexTypes);

TYPED_TEST(LowerBoundIndex, MatchesStdLowerBoundInAFixedStepCount) {
  using Index = TypeParam;
  // Seeded sorted rows: the empty row, one entry, every length up to 70
  // and a few past a power of two; every other length draws from a value
  // range narrower than the row, so it holds runs of equal keys.
  Xoshiro256 rng(20240527);
  std::vector<std::vector<Index>> rows = {{}, {Index{5}}};
  std::vector<std::size_t> lengths;
  for (std::size_t n = 2; n <= 70; ++n) {
    lengths.push_back(n);
  }
  for (const std::size_t n : {255u, 256u, 257u, 1000u}) {
    lengths.push_back(n);
  }
  for (const std::size_t n : lengths) {
    const std::uint64_t range = n % 2 == 0 ? n / 3 + 1 : 4 * n;
    std::vector<Index> row(n);
    for (Index& v : row) {
      v = static_cast<Index>(rng.uniform_below(range));
    }
    std::ranges::sort(row);
    rows.push_back(std::move(row));
  }
  for (const std::vector<Index>& row : rows) {
    // A search over n >= 1 entries takes ceil(log2 n) = bit_width(n - 1)
    // halving steps plus the final compare, whatever the key.
    const std::uint64_t want_steps =
        row.empty()
            ? 0
            : static_cast<std::uint64_t>(std::bit_width(row.size() - 1)) + 1;
    // Keys below and above every entry, each entry and its neighbours
    // (the ends of every run), and random keys in and past the range.
    std::vector<Index> keys = {Index{-1}, Index{0}};
    for (const Index v : row) {
      keys.insert(keys.end(), {static_cast<Index>(v - 1), v,
                               static_cast<Index>(v + 1)});
    }
    for (int r = 0; r < 16; ++r) {
      keys.push_back(static_cast<Index>(rng.uniform_below(5 * row.size() + 8)));
    }
    for (const Index key : keys) {
      std::uint64_t steps = 3;  // the search adds to what is there
      const std::size_t got = detail::lower_bound_index(
          std::span<const Index>(row), key, steps);
      const auto want = static_cast<std::size_t>(
          std::ranges::lower_bound(row, key) - row.begin());
      ASSERT_EQ(got, want) << "n " << row.size() << " key " << key;
      ASSERT_EQ(steps - 3, want_steps) << "n " << row.size() << " key " << key;
    }
  }
}

TEST(Kernels, EmptyMaskRowEmitsNothing) {
  // Mask with an empty row: every strategy must emit nothing for it.
  const auto mask = csr_from_triplets<double, I>(2, 2, {{0, 0, 1.0}});
  const auto a = csr_from_triplets<double, I>(2, 2, {{1, 0, 2.0}, {1, 1, 2.0}});
  const auto b = csr_from_triplets<double, I>(2, 2, {{0, 0, 3.0}, {1, 1, 3.0}});
  const RowCase c{mask, a, b};
  DenseAccumulator<SR, I, std::uint32_t> acc(2);
  for (const MaskStrategy strategy :
       {MaskStrategy::kVanilla, MaskStrategy::kMaskFirst,
        MaskStrategy::kCoIterate, MaskStrategy::kHybrid}) {
    EXPECT_TRUE(run_row(strategy, 1.0, c, I{1}, acc).empty())
        << to_string(strategy);
  }
}

TEST(Kernels, StrategyNamesRoundTrip) {
  EXPECT_STREQ(to_string(MaskStrategy::kVanilla), "vanilla");
  EXPECT_STREQ(to_string(MaskStrategy::kMaskFirst), "mask-first");
  EXPECT_STREQ(to_string(MaskStrategy::kCoIterate), "co-iterate");
  EXPECT_STREQ(to_string(MaskStrategy::kHybrid), "hybrid");
}

}  // namespace
}  // namespace tilq
