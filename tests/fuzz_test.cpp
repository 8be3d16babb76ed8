// Randomized stress tests ("fuzz"): random shapes, densities, and Configs
// against the dense oracle, plus determinism and cross-implementation
// agreement sweeps. These are the tests that caught real bugs during
// development (the hash explicit-reset chain-break surfaced under exactly
// this kind of load), so they run wide by design.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/blocked.hpp"
#include "core/masked_spgemm.hpp"
#include "core/spgemm.hpp"
#include "sparse/ops.hpp"
#include "sparse/validate.hpp"
#include "test_util.hpp"

namespace tilq {
namespace {

using I = std::int64_t;
using SR = PlusTimes<double>;

Config random_config(Xoshiro256& rng) {
  Config config;
  config.strategy = static_cast<MaskStrategy>(rng.uniform_below(4));
  config.accumulator = static_cast<AccumulatorKind>(rng.uniform_below(3));
  switch (rng.uniform_below(4)) {
    case 0:
      config.marker_width = MarkerWidth::k8;
      break;
    case 1:
      config.marker_width = MarkerWidth::k16;
      break;
    case 2:
      config.marker_width = MarkerWidth::k32;
      break;
    default:
      config.marker_width = MarkerWidth::k64;
      break;
  }
  config.reset = rng.bernoulli(0.5) ? ResetPolicy::kMarker : ResetPolicy::kExplicit;
  config.tiling = rng.bernoulli(0.5) ? Tiling::kUniform : Tiling::kFlopBalanced;
  config.schedule = rng.bernoulli(0.5) ? Schedule::kStatic : Schedule::kDynamic;
  config.num_tiles = static_cast<std::int64_t>(1 + rng.uniform_below(300));
  config.coiteration_factor = std::pow(10.0, rng.uniform() * 6.0 - 3.0);
  config.threads = static_cast<int>(1 + rng.uniform_below(4));
  return config;
}

class FuzzRounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzRounds, RandomProblemRandomConfigMatchesOracle) {
  Xoshiro256 rng(GetParam() * 7919);
  for (int round = 0; round < 8; ++round) {
    const I rows = static_cast<I>(1 + rng.uniform_below(64));
    const I inner = static_cast<I>(1 + rng.uniform_below(64));
    const I cols = static_cast<I>(1 + rng.uniform_below(64));
    const double density = 0.02 + 0.3 * rng.uniform();
    const auto mask =
        test::random_matrix<double, I>(rows, cols, density, rng());
    const auto a = test::random_matrix<double, I>(rows, inner, density, rng());
    const auto b = test::random_matrix<double, I>(inner, cols, density, rng());
    const Config config = random_config(rng);

    const auto expected = test::reference_masked_spgemm<SR>(mask, a, b);
    const auto actual = masked_spgemm<SR>(mask, a, b, config);
    ASSERT_TRUE(actual.check()) << config.describe();
    ASSERT_TRUE(test::csr_equal(expected, actual))
        << config.describe() << " shape " << rows << "x" << inner << "x"
        << cols << " density " << density;
  }
}

TEST_P(FuzzRounds, BlockedTilingAgreesWithOneDee) {
  Xoshiro256 rng(GetParam() * 49979687);
  for (int round = 0; round < 6; ++round) {
    const I n = static_cast<I>(8 + rng.uniform_below(80));
    const auto a = test::random_matrix<double, I>(n, n, 0.1 + 0.2 * rng.uniform(),
                                                  rng());
    Config config = random_config(rng);
    if (config.strategy == MaskStrategy::kVanilla) {
      config.strategy = MaskStrategy::kHybrid;  // unsupported when blocked
    }
    Config one_d_config = config;
    config.mode = Strategy::kBlocked;
    config.block_cols = static_cast<std::int64_t>(1 + rng.uniform_below(
                                                          static_cast<std::uint64_t>(n) + 8));

    const auto one_d = masked_spgemm<SR>(a, a, a, one_d_config);
    const auto blocked = masked_spgemm<SR>(a, a, a, config);
    ASSERT_TRUE(test::csr_equal(one_d, blocked))
        << one_d_config.describe() << " block_cols " << config.block_cols;
  }
}

// Block-boundary fuzzer: random (including degenerate, zero-width) column
// blocks must slice any valid CSR into segments that reassemble the source
// exactly — local columns remap back via the block origin, and entry_begin
// recovers every value segment. The reassembled matrix must also pass the
// structural validator, closing the loop with CorruptedStructureIsAlways-
// CaughtByValidate below.
TEST_P(FuzzRounds, BlockSliceExtractionRoundTrips) {
  Xoshiro256 rng(GetParam() * 67867967);
  for (int round = 0; round < 12; ++round) {
    const I rows = static_cast<I>(1 + rng.uniform_below(48));
    const I cols = static_cast<I>(1 + rng.uniform_below(96));
    const auto m = test::random_matrix<double, I>(
        rows, cols, 0.02 + 0.3 * rng.uniform(), rng());
    // Random sorted boundaries: 0 and cols always present; interior cuts
    // may collide, producing empty blocks on purpose.
    std::vector<I> block_begin{0};
    const std::uint64_t cuts = rng.uniform_below(6);
    for (std::uint64_t c = 0; c < cuts; ++c) {
      block_begin.push_back(
          static_cast<I>(rng.uniform_below(static_cast<std::uint64_t>(cols) + 1)));
    }
    block_begin.push_back(cols);
    std::sort(block_begin.begin(), block_begin.end());

    const auto slices =
        extract_block_slices(m, std::span<const I>(block_begin));
    ASSERT_EQ(slices.size(), block_begin.size() - 1);

    // Reassemble row by row, in block order.
    std::vector<I> out_row_ptr{0};
    std::vector<I> out_cols;
    std::vector<double> out_vals;
    for (I i = 0; i < rows; ++i) {
      for (std::size_t t = 0; t + 1 < block_begin.size(); ++t) {
        const auto seg = slices[t].row_local_cols(i);
        const auto base = static_cast<std::size_t>(
            slices[t].entry_begin[static_cast<std::size_t>(i)]);
        for (std::size_t q = 0; q < seg.size(); ++q) {
          out_cols.push_back(static_cast<I>(seg[q] + block_begin[t]));
          out_vals.push_back(m.values()[base + q]);
        }
      }
      out_row_ptr.push_back(static_cast<I>(out_cols.size()));
    }
    const Csr<double, I> rebuilt(rows, cols, std::move(out_row_ptr),
                                 std::move(out_cols), std::move(out_vals));
    ASSERT_TRUE(rebuilt.check());
    ASSERT_TRUE(validate(rebuilt).ok()) << validate(rebuilt).summary();
    ASSERT_TRUE(test::csr_equal(m, rebuilt)) << "blocks " << slices.size();
  }
}

TEST_P(FuzzRounds, AllStrategiesAgreeWithEachOther) {
  Xoshiro256 rng(GetParam() * 15485863);
  const I n = static_cast<I>(16 + rng.uniform_below(48));
  const auto a = test::random_matrix<double, I>(n, n, 0.15, rng());
  Csr<double, I> reference;
  bool first = true;
  for (const MaskStrategy strategy :
       {MaskStrategy::kVanilla, MaskStrategy::kMaskFirst,
        MaskStrategy::kCoIterate, MaskStrategy::kHybrid}) {
    for (const AccumulatorKind acc :
         {AccumulatorKind::kDense, AccumulatorKind::kHash}) {
      Config config;
      config.strategy = strategy;
      config.accumulator = acc;
      const auto c = masked_spgemm<SR>(a, a, a, config);
      if (first) {
        reference = c;
        first = false;
      } else {
        ASSERT_TRUE(test::csr_equal(reference, c)) << config.describe();
      }
    }
  }
  // The two-phase pipeline computed with disjoint code must agree too.
  ASSERT_TRUE(test::csr_equal(reference, two_phase_masked_spgemm<SR>(a, a, a)));
}

TEST_P(FuzzRounds, RepeatedRunsAreDeterministic) {
  Xoshiro256 rng(GetParam() * 32452843);
  const auto a = test::random_matrix<double, I>(50, 50, 0.2, rng());
  Config config = random_config(rng);
  config.threads = 4;  // oversubscribed: exercises the parallel path
  const auto first = masked_spgemm<SR>(a, a, a, config);
  for (int run = 0; run < 5; ++run) {
    ASSERT_TRUE(test::csr_equal(first, masked_spgemm<SR>(a, a, a, config)))
        << "run " << run << " " << config.describe();
  }
}

// Structure-corruption fuzzer (docs/ROBUSTNESS.md): mutate one structural
// array of a valid CSR at random and assert the validator reports the
// damage — so the plan()-boundary validation (Config::validate_inputs)
// rejects the operand instead of handing corrupt extents to the kernels.
TEST_P(FuzzRounds, CorruptedStructureIsAlwaysCaughtByValidate) {
  Xoshiro256 rng(GetParam() * 86028121);
  for (int round = 0; round < 24; ++round) {
    const I rows = static_cast<I>(2 + rng.uniform_below(40));
    const I cols = rows;  // square: the corrupt operand fits every slot
    auto m = test::random_matrix<double, I>(rows, cols, 0.25, rng());
    if (m.nnz() < 2) {
      continue;
    }
    ASSERT_TRUE(validate(m).ok());

    bool corrupted = true;
    switch (rng.uniform_below(5)) {
      case 0: {  // column out of range (high)
        const auto p = rng.uniform_below(static_cast<std::uint64_t>(m.nnz()));
        m.mutable_col_idx()[p] = cols + static_cast<I>(rng.uniform_below(100));
        break;
      }
      case 1: {  // column out of range (negative)
        const auto p = rng.uniform_below(static_cast<std::uint64_t>(m.nnz()));
        m.mutable_col_idx()[p] = -1 - static_cast<I>(rng.uniform_below(100));
        break;
      }
      case 2: {  // rowptr non-monotone
        const auto r =
            1 + rng.uniform_below(static_cast<std::uint64_t>(rows));
        auto& ptr = m.mutable_row_ptr();
        if (ptr[r] == 0) {
          corrupted = false;  // decrement would go negative of front()==0
          break;
        }
        ptr[r] = static_cast<I>(-ptr[r]);
        break;
      }
      case 3: {  // unsorted / duplicate columns inside one row
        I victim = -1;
        for (I i = 0; i < rows; ++i) {
          if (m.row_nnz(i) >= 2) {
            victim = i;
            break;
          }
        }
        if (victim < 0) {
          corrupted = false;
          break;
        }
        auto& idx = m.mutable_col_idx();
        const auto p = static_cast<std::size_t>(
            m.row_ptr()[static_cast<std::size_t>(victim)]);
        if (rng.bernoulli(0.5)) {
          std::swap(idx[p], idx[p + 1]);  // order violation
        } else {
          idx[p + 1] = idx[p];  // duplicate
        }
        break;
      }
      default: {  // length mismatch between col_idx and row_ptr.back()
        m.mutable_col_idx().pop_back();
        break;
      }
    }
    if (!corrupted) {
      continue;
    }

    const auto report = validate(m);
    ASSERT_FALSE(report.ok()) << "round " << round;
    ASSERT_FALSE(report.summary().empty());

    Config config;
    config.validate_inputs = true;
    Executor<SR> exec;
    const auto ok = test::random_matrix<double, I>(rows, cols, 0.25, rng());
    // Validation runs before any kernel touches the operand's extents, so
    // the corrupt matrix is safe to hand to plan() — it must be rejected.
    EXPECT_THROW(exec.plan(m, ok, ok, config), PreconditionError)
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzRounds,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

}  // namespace
}  // namespace tilq
