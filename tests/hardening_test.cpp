// The hardened execution layer end-to-end (docs/ROBUSTNESS.md): the error
// taxonomy, ParallelGuard exception propagation out of OpenMP regions,
// deterministic fault injection at every site, graceful hash-accumulator
// degradation with bit-identical output, structural validation at plan
// boundaries, and the TILQ_CHECK promotion.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "core/masked_spgemm.hpp"
#include "core/plan.hpp"
#include "sparse/validate.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/panic.hpp"
#include "support/parallel.hpp"
#include "test_util.hpp"

namespace tilq {
namespace {

using I = std::int64_t;
using SR = PlusTimes<double>;

// Every test leaves the fault framework clean even on assertion failure.
class Hardening : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

// Declared first so it observes the static-init arming before any other
// test's TearDown clears it. The sanitizer CI runs the suite once with
// TILQ_FAULT=pool-alloc:2 to drive this; without the variable it skips.
TEST_F(Hardening, EnvSpecArmsAtStaticInit) {
  const char* spec = std::getenv("TILQ_FAULT");
  if (spec == nullptr || std::string(spec) != "pool-alloc:2") {
    GTEST_SKIP() << "TILQ_FAULT=pool-alloc:2 not set";
  }
  EXPECT_TRUE(fault::armed(FaultSite::kPoolAllocation));
  EXPECT_FALSE(fault::armed(FaultSite::kHashSaturation));
}

// ---------------------------------------------------------------- taxonomy

TEST_F(Hardening, TaxonomyKindsAndStdBases) {
  const PreconditionError pre("p");
  EXPECT_EQ(pre.kind(), ErrorKind::kPrecondition);
  const CapacityError cap("c");
  EXPECT_EQ(cap.kind(), ErrorKind::kCapacity);
  const StaleError stale("s");
  EXPECT_EQ(stale.kind(), ErrorKind::kStale);
  const IoError io("i");
  EXPECT_EQ(io.kind(), ErrorKind::kIo);
  const InternalError internal("x");
  EXPECT_EQ(internal.kind(), ErrorKind::kInternal);

  // The standard bases the taxonomy promises (pre-taxonomy catch sites).
  EXPECT_THROW(throw PreconditionError("p"), std::invalid_argument);
  EXPECT_THROW(throw CapacityError("c"), std::runtime_error);
  EXPECT_THROW(throw StaleError("s"), std::invalid_argument);
  EXPECT_THROW(throw IoError("i"), std::runtime_error);
  EXPECT_THROW(throw InternalError("x"), std::runtime_error);

  // StaleError narrows kind() but stays a PreconditionError.
  EXPECT_THROW(throw StaleError("s"), PreconditionError);

  // One catch clause for the whole taxonomy, kind() to branch.
  try {
    throw CapacityError("over budget");
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCapacity);
    EXPECT_STREQ(e.message(), "over budget");
  }

  EXPECT_STREQ(to_string(ErrorKind::kStale), "stale");
  EXPECT_STREQ(to_string(ErrorKind::kInternal), "internal");
}

TEST_F(Hardening, ErrorMixinDoesNotAmbiguateStdException) {
  // catch (const std::exception&) must stay unambiguous — the mixin has no
  // std::exception base of its own.
  try {
    throw InternalError("broken invariant");
  } catch (const std::exception& e) {
    EXPECT_NE(std::string(e.what()).find("broken"), std::string::npos);
  }
}

// ------------------------------------------------------------ ParallelGuard

TEST_F(Hardening, GuardCapturesFirstExceptionAndCancels) {
  ParallelGuard guard;
  EXPECT_FALSE(guard.cancelled());
  guard.run([] { throw PreconditionError("first"); });
  EXPECT_TRUE(guard.cancelled());
  // Later bodies are skipped entirely once cancelled.
  bool second_ran = false;
  guard.run([&] { second_ran = true; });
  EXPECT_FALSE(second_ran);
  try {
    guard.rethrow_if_failed();
    FAIL() << "expected rethrow";
  } catch (const PreconditionError& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST_F(Hardening, GuardMapsForeignExceptionsIntoTaxonomy) {
  {
    ParallelGuard guard;
    guard.run([] { throw std::logic_error("user payload"); });
    try {
      guard.rethrow_if_failed();
      FAIL() << "expected rethrow";
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find("user payload"), std::string::npos);
    }
  }
  {
    ParallelGuard guard;
    guard.run([] { throw std::bad_alloc(); });
    EXPECT_THROW(guard.rethrow_if_failed(), CapacityError);
  }
  {
    ParallelGuard guard;
    guard.run([] { throw 42; });  // not even a std::exception
    EXPECT_THROW(guard.rethrow_if_failed(), InternalError);
  }
}

TEST_F(Hardening, GuardNoFailureIsNoOp) {
  ParallelGuard guard;
  int runs = 0;
  guard.run([&] { ++runs; });
  guard.run([&] { ++runs; });
  EXPECT_EQ(runs, 2);
  EXPECT_NO_THROW(guard.rethrow_if_failed());
}

// A semiring whose mul throws once a sentinel value shows up — the "user
// callback throws inside the parallel region" scenario. The sentinel rides
// in the matrix values, so the throw happens deep inside the numeric phase
// on whichever thread owns that row.
struct ThrowingSemiring {
  using value_type = double;
  static double zero() noexcept { return 0.0; }
  static double add(double a, double b) noexcept { return a + b; }
  static double mul(double a, double b) {
    if (a == kPoison || b == kPoison) {
      throw std::runtime_error("semiring callback exploded");
    }
    return a * b;
  }
  static constexpr double kPoison = 255.0;
};
static_assert(Semiring<ThrowingSemiring>);

TEST_F(Hardening, ThrowingSemiringCallbackPropagatesFromParallelExecute) {
  auto a = test::random_matrix<double, I>(96, 96, 0.2, 11);
  ASSERT_GT(a.nnz(), 0);
  // Poison one value somewhere in the middle so a worker thread hits it.
  a.mutable_values()[a.nnz() / 2] = ThrowingSemiring::kPoison;

  Config config;
  config.threads = 8;
  for (const AccumulatorKind acc :
       {AccumulatorKind::kDense, AccumulatorKind::kHash}) {
    config.accumulator = acc;
    try {
      masked_spgemm<ThrowingSemiring>(a, a, a, config);
      FAIL() << "expected the callback exception to propagate";
    } catch (const Error& e) {
      // Foreign std::runtime_error -> InternalError, payload preserved.
      EXPECT_EQ(e.kind(), ErrorKind::kInternal);
      EXPECT_NE(std::string(e.message()).find("semiring callback exploded"),
                std::string::npos);
    }
  }
}

TEST_F(Hardening, ThrowingBodyPropagatesFromParallelFor) {
  EXPECT_THROW(parallel_for(I{0}, I{1000},
                            [](I i) {
                              if (i == 637) {
                                throw CapacityError("worker 637");
                              }
                            }),
               CapacityError);
}

// ------------------------------------------------------------ fault sites

TEST_F(Hardening, FaultArmDisarmAndCounters) {
  EXPECT_FALSE(fault::armed(FaultSite::kPoolAllocation));
  fault::arm(FaultSite::kPoolAllocation, 2);
  EXPECT_TRUE(fault::armed(FaultSite::kPoolAllocation));
  EXPECT_FALSE(fault::should_fire(FaultSite::kPoolAllocation));  // hit 1 of 2
  EXPECT_TRUE(fault::should_fire(FaultSite::kPoolAllocation));   // hit 2 fires
  // One-shot: fired once, self-disarmed.
  EXPECT_FALSE(fault::armed(FaultSite::kPoolAllocation));
  EXPECT_FALSE(fault::should_fire(FaultSite::kPoolAllocation));
  EXPECT_EQ(fault::hits(FaultSite::kPoolAllocation), 2u);
  EXPECT_EQ(fault::triggered(FaultSite::kPoolAllocation), 1u);
  fault::disarm_all();
  EXPECT_EQ(fault::hits(FaultSite::kPoolAllocation), 0u);
  EXPECT_EQ(fault::triggered(FaultSite::kPoolAllocation), 0u);
}

TEST_F(Hardening, FaultSpecGrammar) {
  fault::configure("pool-alloc:3,hash-sat");
  EXPECT_TRUE(fault::armed(FaultSite::kPoolAllocation));
  EXPECT_TRUE(fault::armed(FaultSite::kHashSaturation));
  EXPECT_FALSE(fault::armed(FaultSite::kMarkerWrap));
  fault::disarm_all();

  fault::configure("");  // empty spec is a no-op
  for (const FaultSite site :
       {FaultSite::kPoolAllocation, FaultSite::kMarkerWrap,
        FaultSite::kHashSaturation, FaultSite::kPlanFingerprint}) {
    EXPECT_FALSE(fault::armed(site)) << to_string(site);
  }

  EXPECT_THROW(fault::configure("no-such-site"), PreconditionError);
  EXPECT_THROW(fault::configure("pool-alloc:"), PreconditionError);
  EXPECT_THROW(fault::configure("pool-alloc:0"), PreconditionError);
  EXPECT_THROW(fault::configure("pool-alloc:abc"), PreconditionError);
}

TEST_F(Hardening, PoolAllocFaultIsCleanCapacityErrorAndRecoverable) {
  const auto a = test::random_matrix<double, I>(64, 64, 0.15, 21);
  const auto expected = test::reference_masked_spgemm<SR>(a, a, a);
  Config config;
  config.threads = 2;

  fault::arm(FaultSite::kPoolAllocation);
  try {
    masked_spgemm<SR>(a, a, a, config);
    FAIL() << "expected the injected pool fault to surface";
  } catch (const CapacityError& e) {
    EXPECT_NE(std::string(e.what()).find("pool-alloc"), std::string::npos);
  }
  EXPECT_EQ(fault::triggered(FaultSite::kPoolAllocation), 1u);

  // The fault self-disarmed; the very next call must succeed and be right.
  EXPECT_TRUE(test::csr_equal(expected, masked_spgemm<SR>(a, a, a, config)));
}

TEST_F(Hardening, PlanFingerprintFaultRaisesStalePlanError) {
  const auto a = test::random_matrix<double, I>(40, 40, 0.2, 31);
  Executor<SR> exec;
  exec.plan(a, a, a);
  fault::arm(FaultSite::kPlanFingerprint);
  try {
    exec.execute(a, a, a);
    FAIL() << "expected StalePlanError";
  } catch (const StalePlanError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kStale);
  }
  // Recovery: the plan itself is fine once the fault has fired.
  EXPECT_TRUE(test::csr_equal(test::reference_masked_spgemm<SR>(a, a, a),
                              exec.execute(a, a, a)));
}

TEST_F(Hardening, MarkerWrapFaultForcesFullResetNotAnError) {
  // marker-wrap is the one site that exercises a correctness-preserving
  // path instead of an error: the forced wrap must cost a full reset and
  // nothing else.
  const auto a = test::random_matrix<double, I>(48, 48, 0.2, 41);
  const auto expected = test::reference_masked_spgemm<SR>(a, a, a);
  for (const AccumulatorKind acc :
       {AccumulatorKind::kDense, AccumulatorKind::kHash}) {
    Config config;
    config.accumulator = acc;
    config.reset = ResetPolicy::kMarker;
    config.threads = 1;
    fault::arm(FaultSite::kMarkerWrap);
    ExecutionStats stats;
    const auto c = masked_spgemm<SR>(a, a, a, config, stats);
    EXPECT_TRUE(test::csr_equal(expected, c)) << to_string(acc);
    EXPECT_GE(stats.accumulator_full_resets, 1u) << to_string(acc);
    EXPECT_EQ(fault::triggered(FaultSite::kMarkerWrap), 1u);
    fault::disarm_all();
  }
}

TEST_F(Hardening, HashSaturationEscalatesWhenDegradationDisabled) {
  const auto a = test::random_matrix<double, I>(64, 64, 0.15, 51);
  Config config;
  config.accumulator = AccumulatorKind::kHash;
  config.degrade_on_saturation = false;
  config.threads = 1;
  fault::arm(FaultSite::kHashSaturation);
  try {
    masked_spgemm<SR>(a, a, a, config);
    FAIL() << "expected AccumulatorSaturatedError";
  } catch (const AccumulatorSaturatedError& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kCapacity);
  }
  // Recovery after the one-shot fault.
  EXPECT_TRUE(test::csr_equal(test::reference_masked_spgemm<SR>(a, a, a),
                              masked_spgemm<SR>(a, a, a, config)));
}

// ------------------------------------------------------------- degradation

TEST_F(Hardening, SaturationDegradesToDenseBitIdentical) {
  const auto a = test::random_matrix<double, I>(80, 80, 0.2, 61);
  const auto expected = test::reference_masked_spgemm<SR>(a, a, a);
  Config config;
  config.accumulator = AccumulatorKind::kHash;
  config.threads = 2;
  ASSERT_TRUE(config.degrade_on_saturation);  // the default

  fault::arm(FaultSite::kHashSaturation);
  ExecutionStats stats;
  const auto c = masked_spgemm<SR>(a, a, a, config, stats);
  EXPECT_EQ(fault::triggered(FaultSite::kHashSaturation), 1u);
  EXPECT_TRUE(test::csr_equal(expected, c));
  EXPECT_TRUE(stats.degraded);
  EXPECT_GE(stats.accum_degrades, 1u);
}

TEST_F(Hardening, DegradedExecutorStaysHealthyAfterwards) {
  const auto a = test::random_matrix<double, I>(64, 64, 0.2, 81);
  const auto expected = test::reference_masked_spgemm<SR>(a, a, a);
  Config config;
  config.accumulator = AccumulatorKind::kHash;
  config.threads = 1;
  Executor<SR> exec;
  exec.plan(a, a, a, config);

  fault::arm(FaultSite::kHashSaturation);
  ExecutionStats degraded_stats;
  EXPECT_TRUE(
      test::csr_equal(expected, exec.execute(a, a, a, degraded_stats)));
  EXPECT_TRUE(degraded_stats.degraded);

  // The hash workspace survived abort_row(): later executes run clean.
  ExecutionStats clean_stats;
  EXPECT_TRUE(test::csr_equal(expected, exec.execute(a, a, a, clean_stats)));
  EXPECT_FALSE(clean_stats.degraded);
  EXPECT_EQ(clean_stats.accum_degrades, 0u);
}

TEST_F(Hardening, DegradationShowsUpInMetricsJson) {
  if (!kMetricsCompiled) {
    GTEST_SKIP() << "metrics instrumentation compiled out";
  }
  const auto a = test::random_matrix<double, I>(64, 64, 0.2, 91);
  Config config;
  config.accumulator = AccumulatorKind::kHash;
  config.threads = 1;

  set_metrics_enabled(true);
  metrics_reset();
  fault::arm(FaultSite::kHashSaturation);
  masked_spgemm<SR>(a, a, a, config);
  const MetricsSnapshot snapshot = metrics_snapshot();
  set_metrics_enabled(false);

  EXPECT_GE(snapshot.total.accum_degrades, 1u);
  MetricsRecord record;
  record.source = "hardening_test";
  const std::string json = format_metrics_record(record, snapshot);
  EXPECT_NE(json.find("\"accum_degrades\":"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"accum_degrades\":0,"), std::string::npos) << json;
}

// -------------------------------------------------------------- validation

Csr<double, I> small_valid() {
  return test::random_matrix<double, I>(12, 12, 0.3, 101);
}

TEST_F(Hardening, ValidateAcceptsHealthyMatrix) {
  const auto report = validate(small_valid());
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.summary(), "structurally valid");
}

TEST_F(Hardening, ValidateLocatesUnsortedColumns) {
  auto m = small_valid();
  auto row_with_two = I{-1};
  for (I i = 0; i < m.rows(); ++i) {
    if (m.row_nnz(i) >= 2) {
      row_with_two = i;
      break;
    }
  }
  ASSERT_GE(row_with_two, 0);
  auto& cols = m.mutable_col_idx();
  const auto p = static_cast<std::size_t>(m.row_ptr()[static_cast<std::size_t>(row_with_two)]);
  std::swap(cols[p], cols[p + 1]);

  const auto report = validate(m);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.defects.front().kind, DefectKind::kUnsortedColumns);
  EXPECT_EQ(report.defects.front().row, row_with_two);
  EXPECT_NE(report.summary().find("unsorted-columns"), std::string::npos);
}

TEST_F(Hardening, ValidateLocatesOutOfRangeColumn) {
  auto m = small_valid();
  ASSERT_GT(m.nnz(), 0);
  m.mutable_col_idx()[0] = m.cols() + 5;
  const auto report = validate(m);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.defects.front().kind, DefectKind::kColumnOutOfRange);
}

TEST_F(Hardening, ValidateStopsAtBrokenRowPtr) {
  auto m = small_valid();
  ASSERT_GE(m.rows(), 3);
  m.mutable_row_ptr()[2] = I{-7};
  const auto report = validate(m);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.defects.front().kind, DefectKind::kRowPtrNonMonotone);
}

TEST_F(Hardening, ValidateReportsLengthMismatchAsNnzOverflow) {
  auto m = small_valid();
  ASSERT_GT(m.nnz(), 0);
  m.mutable_col_idx().pop_back();
  const auto report = validate(m);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.defects.front().kind, DefectKind::kNnzOverflow);
}

TEST_F(Hardening, ValidateCapsCollectedDefectsButCountsAll) {
  auto m = small_valid();
  auto& cols = m.mutable_col_idx();
  for (auto& c : cols) {
    c = m.cols() + 1;  // every entry out of range
  }
  const auto report = validate(m, 4);
  EXPECT_EQ(report.defects.size(), 4u);
  EXPECT_EQ(report.defect_count, static_cast<std::int64_t>(cols.size()));
}

TEST_F(Hardening, PlanRejectsCorruptOperandWhenValidationOn) {
  const auto good = small_valid();
  auto bad = small_valid();
  ASSERT_GT(bad.nnz(), 0);
  bad.mutable_col_idx()[0] = bad.cols() + 9;

  Config config;
  config.validate_inputs = true;
  Executor<SR> exec;
  try {
    exec.plan(good, bad, good, config);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'A'"), std::string::npos) << what;
    EXPECT_NE(what.find("column-out-of-range"), std::string::npos) << what;
  }
}

TEST_F(Hardening, ValidationOffSkipsTheScan) {
  // Unsorted (but in-range) columns: safe to hand to plan(), yet a defect
  // the validator must flag. With the knob off, plan() accepts it.
  auto unsorted = small_valid();
  I row_with_two = -1;
  for (I i = 0; i < unsorted.rows(); ++i) {
    if (unsorted.row_nnz(i) >= 2) {
      row_with_two = i;
      break;
    }
  }
  ASSERT_GE(row_with_two, 0);
  auto& cols = unsorted.mutable_col_idx();
  const auto p = static_cast<std::size_t>(
      unsorted.row_ptr()[static_cast<std::size_t>(row_with_two)]);
  std::swap(cols[p], cols[p + 1]);

  Executor<SR> exec;
  Config config;
  config.validate_inputs = true;
  EXPECT_THROW(exec.plan(unsorted, small_valid(), small_valid(), config),
               PreconditionError);
  config.validate_inputs = false;
  EXPECT_NO_THROW(exec.plan(unsorted, small_valid(), small_valid(), config));
}

// ----------------------------------------------------- TILQ_CHECK promotion

TEST_F(Hardening, HardenedBoundsChecksThrowTyped) {
#if TILQ_HARDENED
  const auto m = small_valid();
  EXPECT_THROW((void)m.row_cols(m.rows()), PreconditionError);
  EXPECT_THROW((void)m.row_vals(I{-1}), PreconditionError);
  DenseMatrix<double, I> dense(2, 2);
  EXPECT_THROW((void)dense(I{9}, I{0}), PreconditionError);
#else
  GTEST_SKIP() << "TILQ_HARDENED is off in this build";
#endif
}

// ------------------------------------------------------- marker wrap sweep

// An 8-bit marker wraps mid-batch on any matrix with enough rows; the
// wrap must cost full resets, never correctness, for both accumulators.
TEST_F(Hardening, EightBitMarkerWrapsMidBatchStaysExact) {
  const I n = 400;  // > 2*127 rows: several wraps per thread
  const auto a = test::random_matrix<double, I>(n, n, 0.03, 111);

  Config reference_config;
  reference_config.marker_width = MarkerWidth::k64;
  reference_config.reset = ResetPolicy::kMarker;
  reference_config.accumulator = AccumulatorKind::kDense;
  const auto expected = masked_spgemm<SR>(a, a, a, reference_config);

  for (const AccumulatorKind acc :
       {AccumulatorKind::kDense, AccumulatorKind::kHash}) {
    Config config;
    config.accumulator = acc;
    config.marker_width = MarkerWidth::k8;
    config.reset = ResetPolicy::kMarker;
    config.threads = 2;
    ExecutionStats stats;
    const auto c = masked_spgemm<SR>(a, a, a, config, stats);
    EXPECT_TRUE(test::csr_equal(expected, c)) << to_string(acc);
    EXPECT_GE(stats.accumulator_full_resets, 1u)
        << to_string(acc) << ": expected the 8-bit marker to wrap";
  }
}

}  // namespace
}  // namespace tilq
