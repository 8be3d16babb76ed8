// Batch engine tests: bit-identity of both drivers with the oracle across
// every workspace type (including the blocked space, whose cached one-block
// plans must outlive their operands, and degradation), exact plan-cache
// accounting under serial and concurrent submission and across configs
// that differ only where the plan ignores them, serial cold plans that
// start no OpenMP team, the once-latch that builds a cold (structure,
// config) key once, backpressure
// (EngineSaturatedError + jobs_rejected), per-job failure isolation under
// fault injection, run_batch ordering, JobStats sanity, and the metrics-v3
// engine counters — plus the serving layer (docs/SERVING.md): deadline
// expiry, the shed/defer overload policies, cost-model classification,
// and the per-job latency histograms. The concurrent sections double as
// the PlanCache and mixed-priority hammers for the TSan CI job.
#include "core/engine.hpp"

#include <gtest/gtest.h>
#include <omp.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/masked_spgemm.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "test_util.hpp"

namespace tilq {
namespace {

using I = std::int64_t;
using SR = PlusTimes<double>;

struct Problem {
  Csr<double, I> mask;
  Csr<double, I> a;
  Csr<double, I> b;
};

Problem make_problem(std::uint64_t seed, I rows = 48, I inner = 40, I cols = 44,
                     double density = 0.12) {
  return {test::random_matrix<double, I>(rows, cols, density, seed),
          test::random_matrix<double, I>(rows, inner, density, seed + 1000),
          test::random_matrix<double, I>(inner, cols, density, seed + 2000)};
}

/// Same sparsity, different values — the cache-hit case that must still be
/// numerically correct (plans capture structure only).
Csr<double, I> scale_values(const Csr<double, I>& m, double factor) {
  std::vector<I> row_ptr(m.row_ptr().begin(), m.row_ptr().end());
  std::vector<I> col_idx(m.col_idx().begin(), m.col_idx().end());
  std::vector<double> values(m.values().begin(), m.values().end());
  for (double& v : values) {
    v *= factor;
  }
  return Csr<double, I>(m.rows(), m.cols(), std::move(row_ptr),
                        std::move(col_idx), std::move(values));
}

class EngineTest : public ::testing::Test {
 protected:
  void TearDown() override { fault::disarm_all(); }
};

TEST_F(EngineTest, BitIdenticalToSingleCallPathAcrossConfigs) {
  const Problem p = make_problem(7);
  std::vector<Config> configs;
  for (const MaskStrategy strategy :
       {MaskStrategy::kMaskFirst, MaskStrategy::kCoIterate,
        MaskStrategy::kHybrid, MaskStrategy::kVanilla}) {
    for (const AccumulatorKind acc :
         {AccumulatorKind::kHash, AccumulatorKind::kDense,
          AccumulatorKind::kBitmap}) {
      Config config;
      config.strategy = strategy;
      config.accumulator = acc;
      configs.push_back(config);
    }
  }
  // Every workspace type the binding names: both marker-typed
  // accumulators at every marker width and reset policy (bitmap is above),
  // and the window at the auto width (one block) and a narrow one.
  for (const AccumulatorKind acc :
       {AccumulatorKind::kDense, AccumulatorKind::kHash}) {
    for (const MarkerWidth marker : {MarkerWidth::k8, MarkerWidth::k16,
                                     MarkerWidth::k32, MarkerWidth::k64}) {
      for (const ResetPolicy reset :
           {ResetPolicy::kMarker, ResetPolicy::kExplicit}) {
        Config config;
        config.strategy = MaskStrategy::kHybrid;
        config.accumulator = acc;
        config.marker_width = marker;
        config.reset = reset;
        configs.push_back(config);
      }
    }
  }
  for (const std::int64_t width : {0, 9}) {
    for (const AccumulatorKind acc :
         {AccumulatorKind::kHash, AccumulatorKind::kDense,
          AccumulatorKind::kBitmap}) {
      Config blocked;
      blocked.mode = Strategy::kBlocked;
      blocked.block_cols = width;
      blocked.accumulator = acc;
      configs.push_back(blocked);
    }
  }
  // Both drivers share one binding, so each is checked against the
  // independent oracle rather than against the other.
  const Csr<double, I> oracle =
      test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
  Engine<SR> engine;
  for (const Config& config : configs) {
    EXPECT_TRUE(test::csr_equal(oracle,
                                masked_spgemm<SR>(p.mask, p.a, p.b, config)))
        << "masked_spgemm, config: " << config.describe();
    EXPECT_TRUE(
        test::csr_equal(oracle, engine.submit(p.mask, p.a, p.b, config).get()))
        << "engine, config: " << config.describe();
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_completed, configs.size());
  EXPECT_EQ(stats.jobs_failed, 0u);
}

TEST_F(EngineTest, PlanCacheAccountingIsExact) {
  const Problem p = make_problem(11);
  const Problem q = make_problem(23, 32, 28, 30);
  Config hash_config;
  hash_config.accumulator = AccumulatorKind::kHash;
  Config dense_config;
  dense_config.accumulator = AccumulatorKind::kDense;

  Engine<SR> engine;
  // 3 distinct (structure, config) keys, each resubmitted twice.
  for (int round = 0; round < 3; ++round) {
    (void)engine.submit(p.mask, p.a, p.b, hash_config).get();
    (void)engine.submit(p.mask, p.a, p.b, dense_config).get();
    (void)engine.submit(q.mask, q.a, q.b, hash_config).get();
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.plan_builds, 3u);
  EXPECT_EQ(stats.plan_hits, 6u);
  EXPECT_EQ(stats.jobs_submitted, 9u);
  EXPECT_EQ(stats.jobs_completed, 9u);
}

TEST_F(EngineTest, CallerThreadCountDoesNotFragmentTheCache) {
  const Problem p = make_problem(13);
  const Csr<double, I> oracle =
      test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
  // Each group shares one plan. Engine mode pins the tile grid to the pool
  // width and schedules every task itself, so Config::threads and
  // Config::schedule do not key the cache; neither does any field the
  // plan and its workspace ignore (detail::canonical).
  std::vector<std::vector<Config>> groups(4);
  Config first;
  first.threads = 3;
  Config second;
  second.threads = 7;
  second.schedule = Schedule::kStatic;
  Config unread;  // mask-first ignores κ, and a 1D plan has no blocks
  unread.coiteration_factor = 4.0;
  unread.block_cols = 64;
  groups[0] = {first, second, unread};
  // Blocked plans run the window whatever the accumulator settings.
  for (const AccumulatorKind acc :
       {AccumulatorKind::kHash, AccumulatorKind::kDense,
        AccumulatorKind::kBitmap}) {
    Config blocked;
    blocked.mode = Strategy::kBlocked;
    blocked.accumulator = acc;
    groups[1].push_back(blocked);
  }
  groups[1].back().marker_width = MarkerWidth::k8;
  groups[1].back().reset = ResetPolicy::kExplicit;
  groups[1].back().degrade_on_saturation = false;
  // Bitmap has no marker or reset policy; dense never saturates.
  for (const MarkerWidth marker : {MarkerWidth::k8, MarkerWidth::k64}) {
    Config bitmap;
    bitmap.accumulator = AccumulatorKind::kBitmap;
    bitmap.marker_width = marker;
    groups[2].push_back(bitmap);
  }
  groups[2].back().reset = ResetPolicy::kExplicit;
  for (const bool degrade : {true, false}) {
    Config dense;
    dense.accumulator = AccumulatorKind::kDense;
    dense.degrade_on_saturation = degrade;
    groups[3].push_back(dense);
  }
  Engine<SR> engine;
  std::uint64_t submits = 0;
  for (const std::vector<Config>& group : groups) {
    for (const Config& config : group) {
      EXPECT_TRUE(test::csr_equal(
          oracle, engine.submit(p.mask, p.a, p.b, config).get()))
          << config.describe();
      ++submits;
    }
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.plan_builds, groups.size());
  EXPECT_EQ(stats.plan_hits, submits - groups.size());
}

/// Threads of this process right now.
std::size_t process_threads() {
  std::size_t threads = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++threads;
  }
  return threads;
}

TEST_F(EngineTest, ColdSubmitAboveTheSerialCutoffStartsNoOpenMPTeam) {
  // Large enough that a one-shot plan would open an OpenMP team, on a
  // client thread that asks for one: the engine still plans serially, so
  // the client starts no threads beside the pool's.
  const Problem p = make_problem(37, 1200, 1100, 1150, 0.02);
  ASSERT_GE(p.mask.nnz() + p.a.nnz(), detail::kSerialPlanCutoff);
  const Csr<double, I> oracle =
      test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
  Engine<SR> engine;
  std::size_t before = 0;
  std::size_t after = 0;
  Csr<double, I> got;
  std::thread client([&] {
    omp_set_num_threads(4);
    before = process_threads();
    got = engine.submit(p.mask, p.a, p.b).get();
    after = process_threads();
  });
  client.join();
  EXPECT_EQ(after, before);
  EXPECT_TRUE(test::csr_equal(oracle, got));
  EXPECT_EQ(engine.stats().plan_builds, 1u);
}

TEST_F(EngineTest, ValueOnlyUpdatesHitTheCacheAndStayCorrect) {
  const Problem p = make_problem(17);
  Engine<SR> engine;
  auto first = engine.submit(p.mask, p.a, p.b);
  EXPECT_TRUE(
      test::csr_equal(test::reference_masked_spgemm<SR>(p.mask, p.a, p.b),
                      first.get()));
  const Csr<double, I> a2 = scale_values(p.a, 2.0);
  const Csr<double, I> b2 = scale_values(p.b, 0.5);
  auto second = engine.submit(p.mask, a2, b2);
  EXPECT_TRUE(test::csr_equal(
      test::reference_masked_spgemm<SR>(p.mask, a2, b2), second.get()));
  EXPECT_TRUE(second.stats().plan_cache_hit);
  EXPECT_FALSE(first.stats().plan_cache_hit);
  EXPECT_EQ(engine.stats().plan_builds, 1u);
}

TEST_F(EngineTest, BlockedValueOnlyUpdatesHitTheCacheAndStayCorrect) {
  const Problem p = make_problem(19);
  Config config;
  config.mode = Strategy::kBlocked;
  config.block_cols = 11;
  Engine<SR> engine;
  auto first = engine.submit(p.mask, p.a, p.b, config);
  EXPECT_TRUE(
      test::csr_equal(test::reference_masked_spgemm<SR>(p.mask, p.a, p.b),
                      first.get()));
  const Csr<double, I> a2 = scale_values(p.a, -3.0);
  const Csr<double, I> b2 = scale_values(p.b, 0.25);
  auto second = engine.submit(p.mask, a2, b2, config);
  EXPECT_TRUE(test::csr_equal(
      test::reference_masked_spgemm<SR>(p.mask, a2, b2), second.get()));
  EXPECT_TRUE(second.stats().plan_cache_hit);
  EXPECT_EQ(engine.stats().plan_builds, 1u);
}

TEST_F(EngineTest, BlockedOneBlockPlanOutlivesItsOperands) {
  // The auto width plans one block that reads the operands in place. The
  // cached plan must hold no view of the operands it was built from: X is
  // freed before a structurally identical Y with new values hits the plan.
  // Y is allocated while X is alive, so it cannot reuse X's storage.
  const Problem base = make_problem(29);
  Config config;
  config.mode = Strategy::kBlocked;
  config.block_cols = 0;
  Engine<SR> engine;
  auto x = std::make_unique<Problem>(
      Problem{scale_values(base.mask, 1.0), scale_values(base.a, 2.0),
              scale_values(base.b, -1.0)});
  EXPECT_TRUE(
      test::csr_equal(test::reference_masked_spgemm<SR>(x->mask, x->a, x->b),
                      engine.submit(x->mask, x->a, x->b, config).get()));
  const Problem y{scale_values(base.mask, 1.0), scale_values(base.a, 0.5),
                  scale_values(base.b, 3.0)};
  x.reset();
  auto handle = engine.submit(y.mask, y.a, y.b, config);
  EXPECT_TRUE(
      test::csr_equal(test::reference_masked_spgemm<SR>(y.mask, y.a, y.b),
                      handle.get()));
  EXPECT_TRUE(handle.stats().plan_cache_hit);
  EXPECT_EQ(engine.stats().plan_builds, 1u);
}

TEST_F(EngineTest, RunBatchReturnsResultsInQueryOrder) {
  std::vector<Problem> problems;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    problems.push_back(make_problem(100 + seed, 24 + static_cast<I>(seed), 20,
                                    22 + static_cast<I>(seed)));
  }
  std::vector<Engine<SR>::Query> queries;
  for (const Problem& p : problems) {
    queries.push_back({&p.mask, &p.a, &p.b, Config{}});
  }
  EngineOptions options;
  options.max_in_flight = 2;  // force the blocking admission path
  Engine<SR> engine(options);
  const std::vector<Csr<double, I>> results = engine.run_batch(queries);
  ASSERT_EQ(results.size(), problems.size());
  for (std::size_t i = 0; i < problems.size(); ++i) {
    EXPECT_TRUE(test::csr_equal(
        test::reference_masked_spgemm<SR>(problems[i].mask, problems[i].a,
                                          problems[i].b),
        results[i]))
        << "query " << i;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_completed, problems.size());
  EXPECT_LE(stats.peak_in_flight, 2u);
}

TEST_F(EngineTest, SaturationThrowsAndIsCounted) {
  // A deliberately heavy first job (one pool worker, many rows) so the
  // immediate second submit finds the admission slot still taken.
  const Problem heavy = make_problem(29, 600, 400, 500, 0.08);
  const Problem light = make_problem(31, 16, 12, 14);
  EngineOptions options;
  options.threads = 1;
  options.max_in_flight = 1;
  Engine<SR> engine(options);
  auto handle = engine.submit(heavy.mask, heavy.a, heavy.b);
  std::uint64_t rejected = 0;
  try {
    auto second = engine.submit(light.mask, light.a, light.b);
    second.wait();  // raced past the heavy job: legal, just not rejected
  } catch (const EngineSaturatedError&) {
    ++rejected;
  }
  handle.wait();
  engine.wait_idle();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_rejected, rejected);
  EXPECT_EQ(stats.jobs_submitted + stats.jobs_rejected, 2u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  // The rejection is also a CapacityError — callers may catch at taxonomy
  // granularity.
  static_assert(std::is_base_of_v<CapacityError, EngineSaturatedError>);
}

TEST_F(EngineTest, FaultedJobFailsAloneAndTheEngineSurvives) {
  const Problem p = make_problem(37);
  EngineOptions options;
  options.threads = 1;  // one workspace slot => the armed fault hits job 1
  Engine<SR> engine(options);
  fault::arm(FaultSite::kPoolAllocation, 1);
  auto doomed = engine.submit(p.mask, p.a, p.b);
  EXPECT_THROW(doomed.wait(), CapacityError);
  EXPECT_THROW(doomed.wait(), CapacityError);  // repeatable rethrow
  fault::disarm_all();
  auto healthy = engine.submit(p.mask, p.a, p.b);
  EXPECT_TRUE(
      test::csr_equal(test::reference_masked_spgemm<SR>(p.mask, p.a, p.b),
                      healthy.get()));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
  EXPECT_TRUE(doomed.stats().plan_cache_hit == false);
  EXPECT_EQ(doomed.stats().output_nnz, 0);
}

TEST_F(EngineTest, DegradedJobsStayBitIdentical) {
  const Problem p = make_problem(41, 64, 48, 56, 0.2);
  Config config;
  config.accumulator = AccumulatorKind::kHash;
  const Csr<double, I> oracle = masked_spgemm<SR>(p.mask, p.a, p.b, config);
  EngineOptions one_thread;
  one_thread.threads = 1;
  Engine<SR> engine(one_thread);
  // First submit warms the plan + workspace; the second runs with the
  // saturation fault armed so at least one row degrades to the dense
  // fallback mid-flight.
  (void)engine.submit(p.mask, p.a, p.b, config).get();
  fault::arm(FaultSite::kHashSaturation, 3);
  auto handle = engine.submit(p.mask, p.a, p.b, config);
  const Csr<double, I> got = handle.get();
  fault::disarm_all();
  EXPECT_TRUE(test::csr_equal(oracle, got));
  EXPECT_GE(handle.stats().degrades, 1u);
}

TEST_F(EngineTest, EmptyMaskCompletesThroughTheFinalizerOnlyPath) {
  Csr<double, I> empty_mask(24, 22, std::vector<I>(25, I{0}), {}, {});
  const Csr<double, I> a = test::random_matrix<double, I>(24, 20, 0.2, 5);
  const Csr<double, I> b = test::random_matrix<double, I>(20, 22, 0.2, 6);
  Engine<SR> engine;
  const Csr<double, I> got = engine.submit(empty_mask, a, b).get();
  EXPECT_EQ(got.nnz(), 0);
  EXPECT_EQ(got.rows(), 24);
  EXPECT_EQ(got.cols(), 22);
}

TEST_F(EngineTest, JobStatsAreCoherent) {
  const Problem p = make_problem(43);
  Engine<SR> engine;
  auto handle = engine.submit(p.mask, p.a, p.b);
  const Csr<double, I> got = handle.get();
  const JobStats stats = handle.stats();
  EXPECT_GT(stats.id, 0u);
  EXPECT_GT(stats.tasks, 0);
  EXPECT_EQ(stats.output_nnz, got.nnz());
  EXPECT_GE(stats.queue_ms, 0.0);
  EXPECT_GE(stats.run_ms, 0.0);
  EXPECT_GE(stats.total_ms, stats.queue_ms);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST_F(EngineTest, GetIsSingleUse) {
  const Problem p = make_problem(47);
  Engine<SR> engine;
  auto handle = engine.submit(p.mask, p.a, p.b);
  (void)handle.get();
  EXPECT_THROW((void)handle.get(), PreconditionError);
}

TEST_F(EngineTest, ShapeDefectsFailOnTheCallingThread) {
  const Problem p = make_problem(53);
  const Csr<double, I> wrong = test::random_matrix<double, I>(8, 8, 0.3, 9);
  Engine<SR> engine;
  EXPECT_THROW((void)engine.submit(p.mask, p.a, wrong), PreconditionError);
  engine.wait_idle();
  // The failed admission was rolled back: the engine is still serviceable.
  EXPECT_EQ(engine.stats().jobs_submitted, 0u);
  (void)engine.submit(p.mask, p.a, p.b).get();
}

// The PlanCache hammer: N submitter threads mixing cache hits, replans
// (fresh structures), and config changes against one engine. Runs under
// TSan in CI. Accounting must come out exact because the plan cache's
// once-latch builds each key exactly once.
TEST_F(EngineTest, ConcurrentSubmittersKeepCacheAccountingExact) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 5;
  std::vector<Problem> shared;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    shared.push_back(make_problem(200 + seed, 40, 36, 38));
  }
  Config hash_config;
  hash_config.accumulator = AccumulatorKind::kHash;
  Config dense_config;
  dense_config.accumulator = AccumulatorKind::kDense;
  const std::vector<Config> configs = {hash_config, dense_config};

  Engine<SR> engine;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const Problem& p = shared[static_cast<std::size_t>(
            (t + round) % static_cast<int>(shared.size()))];
        const Config& config =
            configs[static_cast<std::size_t>(round % 2)];
        try {
          const Csr<double, I> got =
              engine.run_batch(std::vector<Engine<SR>::Query>{
                                   {&p.mask, &p.a, &p.b, config}})
                  .front();
          if (!test::csr_equal(
                  test::reference_masked_spgemm<SR>(p.mask, p.a, p.b), got)) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (...) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  engine.wait_idle();
  EXPECT_EQ(failures.load(), 0);
  const EngineStats stats = engine.stats();
  const auto total = static_cast<std::uint64_t>(kThreads * kRounds);
  EXPECT_EQ(stats.jobs_completed, total);
  // 3 structures x 2 configs, built exactly once each no matter the
  // interleaving; every other submission is a hit.
  EXPECT_EQ(stats.plan_builds, 6u);
  EXPECT_EQ(stats.plan_hits, total - 6u);
}

TEST_F(EngineTest, InterleavedJobsShareThePoolWithoutCrosstalk) {
  const Problem p = make_problem(61, 80, 64, 72, 0.1);
  const Problem q = make_problem(67, 56, 48, 52, 0.15);
  const Csr<double, I> p_oracle =
      test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
  const Csr<double, I> q_oracle =
      test::reference_masked_spgemm<SR>(q.mask, q.a, q.b);
  Engine<SR> engine;
  std::vector<Engine<SR>::JobHandle> handles;
  for (int i = 0; i < 8; ++i) {
    const Problem& prob = (i % 2 == 0) ? p : q;
    handles.push_back(engine.submit(prob.mask, prob.a, prob.b));
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(
        test::csr_equal((i % 2 == 0) ? p_oracle : q_oracle, handles[i].get()))
        << "job " << i;
  }
}

TEST_F(EngineTest, DeadlineExpiryCancelsTheJobAndCountsTheMiss) {
  // A deadline no tile can meet: the first tile to start finds it past
  // and cancels the job through its guard, so the handle rethrows the
  // taxonomy type and the engine counts exactly one miss.
  const Problem heavy = make_problem(29, 600, 400, 500, 0.08);
  EngineOptions options;
  options.threads = 1;
  Engine<SR> engine(options);
  SubmitOptions impossible;
  impossible.deadline_ms = 1e-6;
  auto doomed = engine.submit(heavy.mask, heavy.a, heavy.b, Config{},
                              impossible);
  EXPECT_THROW(doomed.wait(), DeadlineExpiredError);
  EXPECT_THROW(doomed.wait(), DeadlineExpiredError);  // repeatable rethrow
  EXPECT_DOUBLE_EQ(doomed.stats().deadline_ms, 1e-6);
  // A missed deadline is a capacity signal, not a defect.
  static_assert(std::is_base_of_v<CapacityError, DeadlineExpiredError>);

  // The engine survives and keeps serving: same structure, no deadline.
  auto healthy = engine.submit(heavy.mask, heavy.a, heavy.b);
  EXPECT_GT(healthy.get().nnz(), 0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.deadline_misses, 1u);
  EXPECT_EQ(stats.jobs_failed, 1u);
  EXPECT_EQ(stats.jobs_completed, 1u);
}

TEST_F(EngineTest, GenerousDeadlineDoesNotFire) {
  const Problem p = make_problem(73);
  Engine<SR> engine;
  SubmitOptions generous;
  generous.deadline_ms = 60'000.0;
  auto handle = engine.submit(p.mask, p.a, p.b, Config{}, generous);
  EXPECT_TRUE(
      test::csr_equal(test::reference_masked_spgemm<SR>(p.mask, p.a, p.b),
                      handle.get()));
  EXPECT_EQ(engine.stats().deadline_misses, 0u);
}

TEST_F(EngineTest, ShedPolicyRefusesExpensiveJobsAtTheShedBound) {
  // expensive_flops=1 prices every job expensive; with max_in_flight=4
  // the shed bound is 3. Three heavy jobs on a one-worker pool hold the
  // slots while the fourth submit arrives — it should be shed, though a
  // fast pool may legally finish a heavy job first (racy-tolerant, the
  // SaturationThrowsAndIsCounted pattern).
  const Problem heavy = make_problem(79, 400, 300, 350, 0.08);
  EngineOptions options;
  options.threads = 1;
  options.max_in_flight = 4;
  options.expensive_flops = 1;
  options.overload_policy = OverloadPolicy::kShed;
  Engine<SR> engine(options);
  std::vector<Engine<SR>::JobHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(engine.submit(heavy.mask, heavy.a, heavy.b));
  }
  std::uint64_t shed = 0;
  try {
    handles.push_back(engine.submit(heavy.mask, heavy.a, heavy.b));
  } catch (const EngineSaturatedError&) {
    ++shed;
  }
  for (auto& handle : handles) {
    handle.wait();
  }
  engine.wait_idle();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_shed, shed);
  EXPECT_EQ(stats.jobs_submitted + stats.jobs_shed, 4u);
  EXPECT_EQ(stats.jobs_failed, 0u);
  // Every admitted job priced expensive under the 1-FLOP threshold.
  EXPECT_EQ(stats.jobs_expensive, stats.jobs_submitted);
}

TEST_F(EngineTest, DeferPolicyDemotesExpensiveJobsButCompletesThem) {
  const Problem heavy = make_problem(83, 400, 300, 350, 0.08);
  const Csr<double, I> oracle =
      test::reference_masked_spgemm<SR>(heavy.mask, heavy.a, heavy.b);
  EngineOptions options;
  options.threads = 1;
  options.max_in_flight = 4;
  options.expensive_flops = 1;
  options.overload_policy = OverloadPolicy::kDefer;
  Engine<SR> engine(options);
  std::vector<Engine<SR>::JobHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(engine.submit(heavy.mask, heavy.a, heavy.b));
  }
  std::uint64_t deferred = 0;
  for (auto& handle : handles) {
    EXPECT_TRUE(test::csr_equal(oracle, handle.get()));
    if (handle.stats().deferred) {
      ++deferred;
    }
  }
  engine.wait_idle();
  const EngineStats stats = engine.stats();
  // Deferral demotes, never drops: everything completed, and the books
  // match the per-job flags exactly.
  EXPECT_EQ(stats.jobs_completed, 4u);
  EXPECT_EQ(stats.jobs_deferred, deferred);
  EXPECT_EQ(stats.jobs_shed, 0u);
}

TEST_F(EngineTest, ExplicitPriorityIsNeverDeferred) {
  const Problem heavy = make_problem(89, 400, 300, 350, 0.08);
  EngineOptions options;
  options.threads = 1;
  options.max_in_flight = 4;
  options.expensive_flops = 1;
  options.overload_policy = OverloadPolicy::kDefer;
  Engine<SR> engine(options);
  std::vector<Engine<SR>::JobHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(engine.submit(heavy.mask, heavy.a, heavy.b));
  }
  // kDefer only touches kAuto submissions; a pinned lane is honored even
  // for an expensive job past the shed bound.
  SubmitOptions pinned;
  pinned.priority = JobPriority::kHigh;
  auto high = engine.submit(heavy.mask, heavy.a, heavy.b, Config{}, pinned);
  for (auto& handle : handles) {
    handle.wait();
  }
  high.wait();
  EXPECT_FALSE(high.stats().deferred);
}

TEST_F(EngineTest, AdaptiveCostModelPricesTheOutlier) {
  // No explicit threshold: the first two jobs build the baseline, then a
  // job pricing more than twice the running mean classifies expensive.
  const Problem cheap = make_problem(97, 24, 20, 22);
  const Problem heavy = make_problem(101, 600, 400, 500, 0.08);
  Engine<SR> engine;
  auto first = engine.submit(cheap.mask, cheap.a, cheap.b);
  (void)first.get();
  auto second = engine.submit(cheap.mask, cheap.a, cheap.b);
  (void)second.get();
  EXPECT_FALSE(first.stats().expensive);
  EXPECT_FALSE(second.stats().expensive);
  EXPECT_GT(first.stats().flop_estimate, 0);
  auto outlier = engine.submit(heavy.mask, heavy.a, heavy.b);
  (void)outlier.get();
  EXPECT_TRUE(outlier.stats().expensive);
  EXPECT_GT(outlier.stats().flop_estimate, first.stats().flop_estimate);
  EXPECT_EQ(engine.stats().jobs_expensive, 1u);
}

TEST_F(EngineTest, LatencyHistogramsCoverEveryFinishedJob) {
  const Problem p = make_problem(103);
  Engine<SR> engine;
  constexpr int kJobs = 6;
  for (int i = 0; i < kJobs; ++i) {
    (void)engine.submit(p.mask, p.a, p.b).get();
  }
  engine.wait_idle();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.latency.count, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.queue_latency.count, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(stats.run_latency.count, static_cast<std::uint64_t>(kJobs));
  EXPECT_GT(stats.latency.p50_ms, 0.0);
  EXPECT_GE(stats.latency.p99_ms, stats.latency.p50_ms);
  EXPECT_GE(stats.latency.max_ms, 0.0);
  // The percentile block round-trips into the metrics record object.
  const EngineLatencyRecord record = engine_latency_record(stats);
  EXPECT_TRUE(record.present);
  EXPECT_EQ(record.jobs, static_cast<std::uint64_t>(kJobs));
  EXPECT_DOUBLE_EQ(record.p99_ms, stats.latency.p99_ms);
}

// The serving-path hammer: submitter threads mixing every lane request,
// deadlines that never fire, and both cheap and heavy structures against
// one priority-scheduling engine. Results must stay bit-identical no
// matter the lane interleaving. Runs under TSan in CI.
TEST_F(EngineTest, MixedPrioritySubmittersStayBitIdentical) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 6;
  const Problem small = make_problem(107, 40, 36, 38);
  const Problem big = make_problem(109, 96, 80, 88, 0.1);
  const Csr<double, I> small_oracle =
      test::reference_masked_spgemm<SR>(small.mask, small.a, small.b);
  const Csr<double, I> big_oracle =
      test::reference_masked_spgemm<SR>(big.mask, big.a, big.b);
  const JobPriority lanes[] = {JobPriority::kAuto, JobPriority::kHigh,
                               JobPriority::kNormal,
                               JobPriority::kBackground};

  Engine<SR> engine;
  std::atomic<int> failures{0};
  std::vector<std::thread> submitters;
  submitters.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        const bool use_big = (t + round) % 3 == 0;
        const Problem& p = use_big ? big : small;
        SubmitOptions sopts;
        sopts.priority = lanes[(t + round) % 4];
        sopts.deadline_ms = (round % 2 == 0) ? 0.0 : 60'000.0;
        try {
          auto handle =
              engine.submit(p.mask, p.a, p.b, Config{}, sopts);
          if (!test::csr_equal(use_big ? big_oracle : small_oracle,
                               handle.get())) {
            failures.fetch_add(1, std::memory_order_relaxed);
          }
        } catch (...) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : submitters) {
    t.join();
  }
  engine.wait_idle();
  EXPECT_EQ(failures.load(), 0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_completed,
            static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_EQ(stats.deadline_misses, 0u);
  EXPECT_EQ(stats.latency.count, stats.jobs_completed);
}

#if TILQ_METRICS_ENABLED
TEST_F(EngineTest, EngineCountersFlowIntoTheMetricsRegistry) {
  const Problem p = make_problem(71);
  set_metrics_enabled(true);
  const MetricsSnapshot before = metrics_snapshot();
  Engine<SR> engine;
  constexpr int kJobs = 5;
  for (int i = 0; i < kJobs; ++i) {
    (void)engine.submit(p.mask, p.a, p.b).get();
  }
  engine.wait_idle();
  const MetricsSnapshot delta = metrics_delta(before, metrics_snapshot());
  set_metrics_enabled(false);
  EXPECT_EQ(delta.total.engine_jobs, static_cast<std::uint64_t>(kJobs));
  EXPECT_GT(delta.total.engine_job_ns, 0u);
  // Tiles + one finalizer-bearing task accounting: every pool task is an
  // engine task.
  EXPECT_GE(delta.total.engine_tasks, static_cast<std::uint64_t>(kJobs));
  EXPECT_GT(delta.total.tiles_executed, 0u);
  EXPECT_GT(delta.total.rows_processed, 0u);
}
#endif

TEST_F(EngineTest, TelemetryEnabledEngineStaysBitIdenticalAndRecordsFlights) {
  const Problem p = make_problem(41);
  const Csr<double, I> oracle = masked_spgemm<SR>(p.mask, p.a, p.b, Config{});

  EngineOptions options;
  options.telemetry.enabled = true;
  options.telemetry.sample_interval_ms = 5.0;
  Engine<SR> engine(options);
  ASSERT_NE(engine.telemetry(), nullptr);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        test::csr_equal(oracle, engine.submit(p.mask, p.a, p.b).get()));
  }

  // Every job left a full lifecycle trail in the flight recorder.
  const FlightRecorder& flight = engine.telemetry()->flight();
  std::uint64_t submitted = 0;
  std::uint64_t finalized = 0;
  std::uint64_t first_tiles = 0;
  for (const FlightEvent& event : flight.events()) {
    submitted += event.kind == FlightEventKind::kSubmitted ? 1 : 0;
    finalized += event.kind == FlightEventKind::kFinalized ? 1 : 0;
    first_tiles += event.kind == FlightEventKind::kFirstTile ? 1 : 0;
  }
  EXPECT_EQ(submitted, 4u);
  EXPECT_EQ(finalized, 4u);
  EXPECT_EQ(first_tiles, 4u);

  // The sampler ticked (the constructor takes an eager first sample) and
  // its totals flow into EngineStats and the latest sample.
  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.telemetry_samples, 1u);
  EXPECT_EQ(stats.jobs_stuck, 0u);
  EXPECT_GT(stats.uptime_ms, 0.0);
  engine.telemetry()->sample_now();
  const auto sample = engine.telemetry()->latest();
  ASSERT_TRUE(sample.has_value());
  EXPECT_EQ(sample->jobs_completed, 4u);
  EXPECT_EQ(sample->in_flight, 0u);
  EXPECT_FALSE(sample->workers.empty());
}

TEST_F(EngineTest, TelemetryDisabledLeavesNoHub) {
  // The engine applies the TILQ_TELEMETRY overlay at construction; pin it
  // off so the suite can also run with telemetry switched on around it.
  const test::ScopedEnv telemetry_off("TILQ_TELEMETRY", "0");
  Engine<SR> engine;
  EXPECT_EQ(engine.telemetry(), nullptr);
  const Problem p = make_problem(43);
  (void)engine.submit(p.mask, p.a, p.b).get();
  EXPECT_EQ(engine.stats().telemetry_samples, 0u);
}

/// Kill switch for the watchdog test: while set, every multiply blocks, so
/// an in-flight job wedges deterministically without burning CPU.
std::atomic<bool> g_wedge{false};

struct WedgeSemiring {
  using value_type = double;
  static double zero() noexcept { return 0.0; }
  static double add(double a, double b) noexcept { return a + b; }
  static double mul(double a, double b) {
    while (g_wedge.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return a * b;
  }
};

TEST_F(EngineTest, WatchdogFlagsWedgedJobAndFlightRecordNamesIt) {
  const Problem p = make_problem(47);
  EngineOptions options;
  options.telemetry.enabled = true;
  options.telemetry.sample_interval_ms = 5.0;
  options.telemetry.watchdog_factor = 2.0;
  options.telemetry.watchdog_floor_ms = 25.0;
  Engine<WedgeSemiring> engine(options);

  // Clean completions first: the watchdog refuses to flag until it has a
  // FLOPs/ms baseline, so a cold engine cannot false-positive.
  for (int i = 0; i < 3; ++i) {
    (void)engine.submit(p.mask, p.a, p.b).get();
  }
  ASSERT_EQ(engine.stats().jobs_stuck, 0u);

  g_wedge.store(true, std::memory_order_release);
  auto handle = engine.submit(p.mask, p.a, p.b);
  bool flagged = false;
  for (int i = 0; i < 2000 && !flagged; ++i) {
    flagged = engine.stats().jobs_stuck >= 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  g_wedge.store(false, std::memory_order_release);
  (void)handle.get();
  ASSERT_TRUE(flagged) << "watchdog never fired on a wedged job";
  EXPECT_EQ(engine.stats().jobs_stuck, 1u);  // flagged once, not per scan

  // The flight record pins the flag on the right job: the one stuck event
  // belongs to the fourth (wedged) submission.
  ASSERT_NE(engine.telemetry(), nullptr);
  const FlightRecorder& flight = engine.telemetry()->flight();
  std::vector<std::uint64_t> submitted_jobs;
  std::vector<FlightEvent> stuck_events;
  for (const FlightEvent& event : flight.events()) {
    if (event.kind == FlightEventKind::kSubmitted) {
      submitted_jobs.push_back(event.job);
    } else if (event.kind == FlightEventKind::kStuck) {
      stuck_events.push_back(event);
    }
  }
  ASSERT_EQ(stuck_events.size(), 1u);
  ASSERT_EQ(submitted_jobs.size(), 4u);
  EXPECT_EQ(stuck_events[0].job, submitted_jobs.back());
  const std::string dump = flight.to_json(stuck_events[0].job);
  EXPECT_NE(dump.find("\"event\":\"stuck\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("\"event\":\"submitted\""), std::string::npos);
  EXPECT_NE(dump.find("\"event\":\"finalized\""), std::string::npos);
}

// --- Retry layer (docs/ROBUSTNESS.md) ---------------------------------
// Suite name matters: CI's sanitizer matrix runs --gtest_filter=*Retry*.

class EngineRetryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::disarm_all();
    fault::set_seed(0);
  }
};

TEST_F(EngineRetryTest, StaleErrorAutoReplansBitIdenticalToFreshSubmit) {
  const Problem p = make_problem(53);
  const Csr<double, I> oracle =
      test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
  EngineOptions options;
  options.threads = 1;  // one worker => the armed fault hits this job
  options.retry.max_attempts = 3;
  options.retry.backoff_base_ms = 0.0;  // no sleeping in tests
  Engine<SR> engine(options);
  fault::arm(FaultSite::kPlanFingerprint, 1);
  auto handle = engine.submit(p.mask, p.a, p.b);
  EXPECT_TRUE(test::csr_equal(oracle, handle.get()));
  const JobStats stats = handle.stats();
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_TRUE(stats.retried);
  EXPECT_FALSE(stats.degraded_config);  // replan keeps the config
  const EngineStats es = engine.stats();
  EXPECT_EQ(es.retries, 1u);
  EXPECT_EQ(es.jobs_retried, 1u);
  EXPECT_EQ(es.jobs_failed, 0u);
  EXPECT_EQ(es.jobs_completed, 1u);
  // The replan rebuilt the plan instead of reusing the stale entry.
  EXPECT_EQ(es.plan_builds, 2u);
}

TEST_F(EngineRetryTest, TransientCapacityErrorRetriesOnDegradedConfig) {
  const Problem p = make_problem(59);
  Config config;
  config.accumulator = AccumulatorKind::kDense;
  const Csr<double, I> oracle = masked_spgemm<SR>(p.mask, p.a, p.b, config);
  EngineOptions options;
  options.threads = 1;
  options.retry.max_attempts = 3;
  options.retry.backoff_base_ms = 0.0;
  Engine<SR> engine(options);
  fault::arm(FaultSite::kEngineSubmitAlloc, 1);
  auto handle = engine.submit(p.mask, p.a, p.b, config);
  EXPECT_TRUE(test::csr_equal(oracle, handle.get()));
  const JobStats stats = handle.stats();
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_TRUE(stats.retried);
  // The memory-degradation ladder stepped dense -> hash (bit-identical
  // output either way — the repo's accumulator contract).
  EXPECT_TRUE(stats.degraded_config);
}

TEST_F(EngineRetryTest, SaturationPastDegradationRetriesOnDense) {
  const Problem p = make_problem(61, 64, 48, 56, 0.2);
  Config config;
  config.accumulator = AccumulatorKind::kHash;
  config.degrade_on_saturation = false;  // saturation is terminal per-attempt
  const Csr<double, I> oracle = masked_spgemm<SR>(p.mask, p.a, p.b, config);
  EngineOptions options;
  options.threads = 1;
  options.retry.max_attempts = 2;
  options.retry.backoff_base_ms = 0.0;
  Engine<SR> engine(options);
  fault::arm(FaultSite::kHashSaturation, 3);
  auto handle = engine.submit(p.mask, p.a, p.b, config);
  EXPECT_TRUE(test::csr_equal(oracle, handle.get()));
  const JobStats stats = handle.stats();
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_TRUE(stats.degraded_config);  // hash -> dense, which never saturates
}

TEST_F(EngineRetryTest, MemoryRetryKeepsTheSubmittedSaturationSetting) {
  // The plan cache keys dense jobs without degrade_on_saturation, but the
  // retry's hash attempt must still honour the submitted `false`: its
  // saturation surfaces instead of degrading rows silently.
  const Problem p = make_problem(61, 64, 48, 56, 0.2);
  Config config;
  config.accumulator = AccumulatorKind::kDense;
  config.degrade_on_saturation = false;
  EngineOptions options;
  options.threads = 1;
  options.retry.max_attempts = 2;
  options.retry.backoff_base_ms = 0.0;
  Engine<SR> engine(options);
  fault::arm(FaultSite::kEnginePoolReserve, 1);  // attempt 1: dense -> hash
  fault::arm(FaultSite::kHashSaturation, 1);     // attempt 2's first row
  auto handle = engine.submit(p.mask, p.a, p.b, config);
  EXPECT_THROW(handle.wait(), AccumulatorSaturatedError);
  const JobStats stats = handle.stats();
  EXPECT_EQ(stats.attempts, 2u);
  EXPECT_TRUE(stats.degraded_config);
  EXPECT_EQ(stats.degrades, 0u);
}

TEST_F(EngineRetryTest, ExhaustedAttemptsSurfaceTheFailureAndEngineSurvives) {
  const Problem p = make_problem(67);
  EngineOptions options;
  options.threads = 1;
  options.retry.max_attempts = 3;
  options.retry.backoff_base_ms = 0.0;
  Engine<SR> engine(options);
  fault::arm_rate(FaultSite::kEnginePoolReserve, 1.0);  // every probe fires
  auto doomed = engine.submit(p.mask, p.a, p.b);
  EXPECT_THROW(doomed.wait(), CapacityError);
  EXPECT_EQ(doomed.stats().attempts, 3u);
  const EngineStats after = engine.stats();
  EXPECT_EQ(after.retries, 2u);
  EXPECT_EQ(after.jobs_failed, 1u);
  fault::disarm_all();
  auto healthy = engine.submit(p.mask, p.a, p.b);
  EXPECT_TRUE(
      test::csr_equal(test::reference_masked_spgemm<SR>(p.mask, p.a, p.b),
                      healthy.get()));
}

TEST_F(EngineRetryTest, ReplanFaultSurfacesTheOriginalError) {
  const Problem p = make_problem(71);
  EngineOptions options;
  options.threads = 1;
  options.retry.max_attempts = 3;
  options.retry.backoff_base_ms = 0.0;
  Engine<SR> engine(options);
  fault::arm(FaultSite::kPlanFingerprint, 1);
  fault::arm(FaultSite::kEngineRetryReplan, 1);
  auto handle = engine.submit(p.mask, p.a, p.b);
  // The recovery path failed, so the caller sees the ORIGINAL staleness,
  // not the replan's CapacityError.
  EXPECT_THROW(handle.wait(), StaleError);
  EXPECT_EQ(handle.stats().attempts, 1u);
}

TEST_F(EngineRetryTest, DeadlineExpiryIsNeverRetried) {
  const Problem p = make_problem(73);
  EngineOptions options;
  options.threads = 1;
  options.retry.max_attempts = 5;
  options.retry.backoff_base_ms = 0.0;
  Engine<SR> engine(options);
  SubmitOptions sopts;
  sopts.deadline_ms = 1e-6;  // expires before the first tile starts
  auto handle = engine.submit(p.mask, p.a, p.b, Config{}, sopts);
  EXPECT_THROW(handle.wait(), DeadlineExpiredError);
  EXPECT_EQ(handle.stats().attempts, 1u);
  EXPECT_EQ(engine.stats().retries, 0u);
}

TEST_F(EngineRetryTest, PerSubmitMaxAttemptsOverridesThePolicy) {
  const Problem p = make_problem(79);
  EngineOptions options;
  options.threads = 1;
  options.retry.max_attempts = 1;  // engine-wide: retries off
  options.retry.backoff_base_ms = 0.0;
  Engine<SR> engine(options);
  fault::arm(FaultSite::kPlanFingerprint, 1);
  SubmitOptions sopts;
  sopts.max_attempts = 2;  // ...but this job may retry once
  auto handle = engine.submit(p.mask, p.a, p.b, Config{}, sopts);
  EXPECT_TRUE(
      test::csr_equal(test::reference_masked_spgemm<SR>(p.mask, p.a, p.b),
                      handle.get()));
  EXPECT_EQ(handle.stats().attempts, 2u);
}

// The determinism contract (docs/ROBUSTNESS.md): same retry seed + same
// fault schedule => identical attempt counts, identical backoff sleeps,
// bit-identical outputs across two independent runs.
TEST_F(EngineRetryTest, SameSeedAndFaultScheduleIsFullyDeterministic) {
  const Problem p = make_problem(83);
  struct RunRecord {
    std::vector<std::uint32_t> attempts;
    std::vector<double> backoff_ms;
    std::vector<Csr<double, I>> results;  // successes only
    std::vector<bool> failed;  // jobs that exhausted every attempt
  };
  const auto run_stream = [&]() {
    RunRecord record;
    fault::disarm_all();
    fault::set_seed(7);
    fault::arm_rate(FaultSite::kEnginePoolReserve, 0.5);
    EngineOptions options;
    options.threads = 1;  // serial probes => a reproducible probe sequence
    options.retry.max_attempts = 4;
    options.retry.backoff_base_ms = 0.01;  // exercise the jitter math
    options.retry.backoff_cap_ms = 0.05;
    options.retry.seed = 42;
    Engine<SR> engine(options);
    for (int i = 0; i < 8; ++i) {
      auto handle = engine.submit(p.mask, p.a, p.b);
      try {
        record.results.push_back(handle.get());
        record.failed.push_back(false);
      } catch (const CapacityError&) {
        // At rate 0.5 a job can deterministically exhaust all 4 attempts;
        // which jobs do so is part of the reproducibility contract.
        record.failed.push_back(true);
      }
      record.attempts.push_back(handle.stats().attempts);
      record.backoff_ms.push_back(handle.stats().backoff_total_ms);
    }
    return record;
  };
  const RunRecord first = run_stream();
  const RunRecord second = run_stream();
  ASSERT_EQ(first.attempts, second.attempts);
  ASSERT_EQ(first.backoff_ms, second.backoff_ms);  // exact, not approximate
  ASSERT_EQ(first.failed, second.failed);
  EXPECT_TRUE(std::any_of(first.attempts.begin(), first.attempts.end(),
                          [](std::uint32_t a) { return a > 1; }))
      << "fault rate 0.5 never fired; the determinism check was vacuous";
  const Csr<double, I> oracle =
      test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
  for (std::size_t i = 0; i < first.results.size(); ++i) {
    EXPECT_TRUE(test::csr_equal(first.results[i], second.results[i]));
    EXPECT_TRUE(test::csr_equal(oracle, first.results[i]));
  }
}

// --- Memory governor + health (docs/ROBUSTNESS.md) --------------------

TEST_F(EngineRetryTest, MemoryBudgetBrownoutDegradesPlansInsteadOfFailing) {
  const Problem p = make_problem(89, 96, 80, 88, 0.15);
  Config config;
  config.accumulator = AccumulatorKind::kDense;
  const Csr<double, I> oracle = masked_spgemm<SR>(p.mask, p.a, p.b, config);
  EngineOptions options;
  options.threads = 2;
  options.memory_budget_bytes = 1024;  // absurdly small: trips immediately
  Engine<SR> engine(options);
  // Two submissions: the first trips the brownout while running; the
  // second is planned in reduced-footprint mode. Both must still complete
  // bit-identically — brownout changes footprint, never results.
  EXPECT_TRUE(test::csr_equal(oracle, engine.submit(p.mask, p.a, p.b,
                                                    config).get()));
  EXPECT_TRUE(test::csr_equal(oracle, engine.submit(p.mask, p.a, p.b,
                                                    config).get()));
  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.brownouts, 1u);
  EXPECT_GT(stats.memory_high_water_bytes, stats.memory_budget_bytes);
  EXPECT_EQ(stats.memory_budget_bytes, 1024u);
  EXPECT_EQ(stats.jobs_failed, 0u);
}

TEST_F(EngineRetryTest, BlockedWindowChargesItsRealBytes) {
  // The governor charges a blocked worker its window (map + slots +
  // touch), computed from the plan's shape, not from the pool key.
  const Problem p = make_problem(91, 400, 400, 2000, 0.01);
  Config config;
  config.mode = Strategy::kBlocked;
  config.strategy = MaskStrategy::kHybrid;
  EngineOptions options;
  options.threads = 2;
  options.memory_budget_bytes = std::uint64_t{64} << 20;
  Engine<SR> engine(options);
  EXPECT_TRUE(
      test::csr_equal(test::reference_masked_spgemm<SR>(p.mask, p.a, p.b),
                      engine.submit(p.mask, p.a, p.b, config).get()));
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.brownouts, 0u);
  EXPECT_LE(stats.memory_usage_bytes, stats.memory_budget_bytes);
  // At least one worker's column map over the one 2000-column block.
  EXPECT_GE(stats.memory_usage_bytes,
            static_cast<std::uint64_t>(p.b.cols()) * sizeof(I));
}

TEST_F(EngineRetryTest, UnlimitedBudgetStillTracksUsage) {
  const Problem p = make_problem(97);
  Engine<SR> engine;
  (void)engine.submit(p.mask, p.a, p.b).get();
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.memory_budget_bytes, 0u);
  EXPECT_EQ(stats.brownouts, 0u);
  EXPECT_GT(stats.memory_high_water_bytes, 0u);
  EXPECT_EQ(stats.health, EngineHealth::kHealthy);
}

TEST_F(EngineRetryTest, HealthDegradesUnderRetryStormAndRecovers) {
  const Problem p = make_problem(101);
  EngineOptions options;
  options.threads = 1;
  options.retry.max_attempts = 2;
  options.retry.backoff_base_ms = 0.0;
  options.health.epoch_events = 4;  // small window: the test stays fast
  Engine<SR> engine(options);
  EXPECT_EQ(engine.stats().health, EngineHealth::kHealthy);
  fault::arm_rate(FaultSite::kEnginePoolReserve, 1.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_THROW(engine.submit(p.mask, p.a, p.b).wait(), CapacityError);
  }
  EXPECT_EQ(engine.stats().health, EngineHealth::kDegraded);
  fault::disarm_all();
  // Two clean epochs retire the burst from the rate window.
  for (int i = 0; i < 8; ++i) {
    (void)engine.submit(p.mask, p.a, p.b).get();
  }
  EXPECT_EQ(engine.stats().health, EngineHealth::kHealthy);
}

// --- Plan-cache once-latch (docs/CONCURRENCY.md) ----------------------
// Suite name matters: CI's sanitizer matrix runs --gtest_filter=*Latch*.

class EngineLatchTest : public ::testing::Test {
 protected:
  // Few enough to all run at once on a 4-core host, so misses overlap.
  static constexpr int kSubmitters = 4;

  /// Runs body(t) on kSubmitters threads released together, so their
  /// cold submits reach the plan cache while the first build is running.
  static void run_together(const std::function<void(int)>& body) {
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kSubmitters);
    for (int t = 0; t < kSubmitters; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1, std::memory_order_acq_rel);
        while (ready.load(std::memory_order_acquire) < kSubmitters) {
          std::this_thread::yield();
        }
        body(t);
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
};

TEST_F(EngineLatchTest, ConcurrentColdSubmitsForOneKeyBuildOnce) {
  // Several cold keys, each raced by every submitter: one build per key.
  // Below detail::kSerialPlanCutoff, so the build is serial and slow
  // enough that the other submitters arrive while it runs.
  constexpr int kKeys = 4;
  Config config;
  config.strategy = MaskStrategy::kHybrid;
  Engine<SR> engine;
  for (int key = 0; key < kKeys; ++key) {
    const Problem p =
        make_problem(301 + static_cast<std::uint64_t>(key), 1000, 900, 950,
                     0.015);
    ASSERT_LT(p.mask.nnz() + p.a.nnz(), detail::kSerialPlanCutoff);
    const Csr<double, I> oracle = masked_spgemm<SR>(p.mask, p.a, p.b, config);
    std::vector<std::optional<Csr<double, I>>> results(kSubmitters);
    std::vector<JobStats> stats(kSubmitters);
    std::atomic<int> failures{0};
    run_together([&](int t) {
      try {
        auto handle = engine.submit(p.mask, p.a, p.b, config);
        results[static_cast<std::size_t>(t)] = handle.get();
        stats[static_cast<std::size_t>(t)] = handle.stats();
      } catch (...) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
    ASSERT_EQ(failures.load(), 0);
    const EngineStats es = engine.stats();
    const auto keys = static_cast<std::uint64_t>(key + 1);
    EXPECT_EQ(es.plan_builds, keys);
    EXPECT_EQ(es.plan_hits, keys * (kSubmitters - 1));
    int misses = 0;
    for (int t = 0; t < kSubmitters; ++t) {
      const auto slot = static_cast<std::size_t>(t);
      ASSERT_TRUE(results[slot].has_value());
      EXPECT_TRUE(test::csr_equal(oracle, *results[slot]))
          << "key " << key << " submitter " << t;
      misses += stats[slot].plan_cache_hit ? 0 : 1;
    }
    EXPECT_EQ(misses, 1) << "key " << key;  // the builder; waiters hit
  }
}

TEST_F(EngineLatchTest, FailedColdBuildReachesEveryWaiterAndLeavesNoLatch) {
  const Problem p = make_problem(307);
  const Csr<double, I> wrong = test::random_matrix<double, I>(8, 8, 0.3, 9);
  Engine<SR> engine;
  std::atomic<int> preconditions{0};
  std::atomic<int> others{0};
  run_together([&](int) {
    try {
      (void)engine.submit(p.mask, p.a, wrong);
      others.fetch_add(1, std::memory_order_relaxed);
    } catch (const PreconditionError&) {
      preconditions.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      others.fetch_add(1, std::memory_order_relaxed);
    }
  });
  EXPECT_EQ(preconditions.load(), kSubmitters);
  EXPECT_EQ(others.load(), 0);
  // The same key fails again on its own build, not on a leftover latch.
  EXPECT_THROW((void)engine.submit(p.mask, p.a, wrong), PreconditionError);
  EngineStats es = engine.stats();
  EXPECT_EQ(es.plan_builds, 0u);
  EXPECT_EQ(es.plan_hits, 0u);  // waiting on a failed build is no hit
  EXPECT_EQ(es.jobs_submitted, 0u);
  // A valid submit with the same config then builds normally.
  const Csr<double, I> oracle =
      test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
  EXPECT_TRUE(test::csr_equal(oracle, engine.submit(p.mask, p.a, p.b).get()));
  es = engine.stats();
  EXPECT_EQ(es.plan_builds, 1u);
  EXPECT_EQ(es.jobs_completed, 1u);
}

}  // namespace
}  // namespace tilq
