// Online-tuning tests (docs/TUNING.md): the ConfigBandit in isolation —
// deterministic convergence onto a synthetic cost model's best arm,
// dead-arm handling, budget freezing, same-seed determinism — and the
// engine integration: arm switches stay bit-identical to the single-call
// oracle, deadline jobs and opted-out submissions never explore, the
// TILQ_AUTOTUNE overlay parses, and a concurrent-submitter hammer shares
// one arm table for the TSan CI job.
#include "core/autotune.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/masked_spgemm.hpp"
#include "core/model.hpp"
#include "test_util.hpp"

namespace tilq {
namespace {

using I = std::int64_t;
using SR = PlusTimes<double>;

/// Synthetic cost model: the blocked space runs 10x faster than
/// everything else. Keyed on the mode alone: every blocked cell runs one
/// kernel, whatever the accumulator.
double synthetic_cost(const Config& config) {
  return config.mode == Strategy::kBlocked ? 0.1 : 1.0;
}

class AutotuneBanditTest : public ::testing::Test {};

TEST_F(AutotuneBanditTest, CandidateArmsStartWithSubmittedAndDeduplicate) {
  const Config submitted;
  const Config heuristic = submitted;  // degenerate: fully deduped
  const std::vector<Config> arms = candidate_arm_configs(submitted, heuristic);
  ASSERT_FALSE(arms.empty());
  EXPECT_TRUE(arms.front() == submitted);
  bool has_blocked = false;
  bool has_hybrid = false;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    for (std::size_t j = i + 1; j < arms.size(); ++j) {
      EXPECT_FALSE(arms[i] == arms[j]) << "duplicate arms " << i << "," << j;
    }
    has_blocked |= arms[i].mode == Strategy::kBlocked;
    has_hybrid |= arms[i].strategy == MaskStrategy::kHybrid;
  }
  EXPECT_TRUE(has_blocked);
  EXPECT_TRUE(has_hybrid);

  // A blocked submission at auto width runs the window whatever its
  // accumulator and marker, so those sweeps add no arm: only the hybrid
  // iteration space is left to try.
  Config blocked;
  blocked.mode = Strategy::kBlocked;
  const std::vector<Config> blocked_arms =
      candidate_arm_configs(blocked, blocked);
  ASSERT_EQ(blocked_arms.size(), 2u);
  EXPECT_TRUE(blocked_arms[0] == blocked);
  EXPECT_EQ(blocked_arms[1].mode, Strategy::kBlocked);
  EXPECT_EQ(blocked_arms[1].strategy, MaskStrategy::kHybrid);
}

TEST_F(AutotuneBanditTest, ConvergesOntoSyntheticBestArm) {
  AutotuneOptions options;
  options.enabled = true;
  options.min_pulls = 2;
  ConfigBandit bandit(options);
  const Config submitted;
  const Config heuristic = predict_config(ProblemFeatures{}, 4);
  const std::uint64_t fp = 42;
  int draws = 0;
  while (!bandit.converged(fp) && draws < 500) {
    const ArmDecision d = bandit.select(fp, submitted, heuristic,
                                        /*allow_explore=*/true);
    ASSERT_GE(d.arm, 0);
    bandit.report(fp, d.arm, synthetic_cost(d.config) * 10.0,
                  /*flop_estimate=*/10'000'000, /*degrades=*/0,
                  /*failed=*/false);
    ++draws;
  }
  ASSERT_TRUE(bandit.converged(fp)) << "no convergence in " << draws;
  const int best = bandit.best_arm(fp);
  const std::vector<ArmStats> arms = bandit.arms(fp);
  ASSERT_GE(best, 0);
  const Config& winner = arms[static_cast<std::size_t>(best)].config;
  EXPECT_EQ(winner.mode, Strategy::kBlocked);
  // Frozen: every further select serves the winner without exploring.
  for (int i = 0; i < 20; ++i) {
    const ArmDecision d = bandit.select(fp, submitted, heuristic, true);
    EXPECT_EQ(d.arm, best);
    EXPECT_FALSE(d.exploration);
  }
  EXPECT_EQ(bandit.stats().converged, 1u);
}

TEST_F(AutotuneBanditTest, FailedArmIsDeadForever) {
  AutotuneOptions options;
  options.enabled = true;
  options.epsilon = 1.0;  // explore as hard as possible
  options.min_pulls = 3;
  ConfigBandit bandit(options);
  const Config submitted;
  const std::uint64_t fp = 7;
  ArmDecision first = bandit.select(fp, submitted, submitted, true);
  ASSERT_TRUE(first.first_sighting);
  // Kill arm 1, then hammer: it must never be served again.
  bandit.report(fp, 1, 1.0, 1'000'000, 0, /*failed=*/true);
  for (int i = 0; i < 200; ++i) {
    const ArmDecision d = bandit.select(fp, submitted, submitted, true);
    EXPECT_NE(d.arm, 1);
    bandit.report(fp, d.arm, 1.0, 1'000'000, 0, false);
  }
  // A dead arm never blocks convergence either.
  EXPECT_TRUE(bandit.converged(fp));
}

TEST_F(AutotuneBanditTest, DisallowedDrawsNeverExplore) {
  AutotuneOptions options;
  options.enabled = true;
  options.epsilon = 1.0;
  ConfigBandit bandit(options);
  const Config submitted;
  const std::uint64_t fp = 11;
  (void)bandit.select(fp, submitted, submitted, true);
  bandit.report(fp, 0, 1.0, 1'000'000, 0, false);
  for (int i = 0; i < 100; ++i) {
    const ArmDecision d = bandit.select(fp, submitted, submitted,
                                        /*allow_explore=*/false);
    EXPECT_FALSE(d.exploration);
    EXPECT_EQ(d.arm, bandit.best_arm(fp));
  }
  EXPECT_EQ(bandit.stats().explorations, 0u);
}

TEST_F(AutotuneBanditTest, ExplorationBudgetFreezesTheFingerprint) {
  AutotuneOptions options;
  options.enabled = true;
  options.epsilon = 1.0;
  options.min_pulls = 1'000'000;  // unreachable: only the budget can freeze
  options.explore_budget = 4;
  ConfigBandit bandit(options);
  const Config submitted;
  const std::uint64_t fp = 3;
  for (int i = 0; i < 50 && !bandit.converged(fp); ++i) {
    const ArmDecision d = bandit.select(fp, submitted, submitted, true);
    bandit.report(fp, d.arm, 1.0, 1'000'000, 0, false);
  }
  EXPECT_TRUE(bandit.converged(fp));
  EXPECT_LE(bandit.stats().explorations, 4u);
}

TEST_F(AutotuneBanditTest, DegradesPenalizeAnOtherwiseFasterArm) {
  AutotuneOptions options;
  options.enabled = true;
  ConfigBandit bandit(options);
  const Config submitted;
  const std::uint64_t fp = 13;
  (void)bandit.select(fp, submitted, submitted, true);
  // Arm 1 is 20% faster on wall time but degraded; the 1.5x penalty must
  // make arm 0 the best.
  bandit.report(fp, 0, 10.0, 1'000'000, /*degrades=*/0, false);
  bandit.report(fp, 1, 8.0, 1'000'000, /*degrades=*/3, false);
  EXPECT_EQ(bandit.best_arm(fp), 0);
}

TEST_F(AutotuneBanditTest, SameSeedSameStreamSameChoices) {
  const auto run = [](std::uint64_t seed) {
    AutotuneOptions options;
    options.enabled = true;
    options.seed = seed;
    ConfigBandit bandit(options);
    const Config submitted;
    std::vector<int> arms;
    for (int i = 0; i < 120; ++i) {
      const ArmDecision d = bandit.select(9, submitted, submitted, true);
      arms.push_back(d.arm);
      bandit.report(9, d.arm, 1.0 + 0.01 * d.arm, 1'000'000, 0, false);
    }
    return arms;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));  // the seed actually feeds the draws
}

TEST_F(AutotuneBanditTest, EnvOverlayParses) {
  AutotuneOptions base;
  base.epsilon = 0.2;
  ::setenv("TILQ_AUTOTUNE", "on", 1);
  EXPECT_TRUE(autotune_options_from_env(base).enabled);
  ::setenv("TILQ_AUTOTUNE", "off", 1);
  EXPECT_FALSE(autotune_options_from_env(base).enabled);
  ::setenv("TILQ_AUTOTUNE", "0.35", 1);
  const AutotuneOptions eps = autotune_options_from_env(base);
  EXPECT_TRUE(eps.enabled);
  EXPECT_DOUBLE_EQ(eps.epsilon, 0.35);
  ::setenv("TILQ_AUTOTUNE", "garbage", 1);
  const AutotuneOptions bad = autotune_options_from_env(base);
  EXPECT_FALSE(bad.enabled);
  EXPECT_DOUBLE_EQ(bad.epsilon, 0.2);
  ::unsetenv("TILQ_AUTOTUNE");
  EXPECT_FALSE(autotune_options_from_env(base).enabled);
}

struct Problem {
  Csr<double, I> mask;
  Csr<double, I> a;
  Csr<double, I> b;
};

Problem make_problem(std::uint64_t seed, I rows = 48, I inner = 40,
                     I cols = 44, double density = 0.12) {
  return {test::random_matrix<double, I>(rows, cols, density, seed),
          test::random_matrix<double, I>(rows, inner, density, seed + 1000),
          test::random_matrix<double, I>(inner, cols, density, seed + 2000)};
}

class AutotuneEngineTest : public ::testing::Test {};

TEST_F(AutotuneEngineTest, OffByDefault) {
  Engine<SR> engine{};
  EXPECT_EQ(engine.autotune(), nullptr);
  const Problem p = make_problem(1);
  (void)engine.submit(p.mask, p.a, p.b).get();
  EXPECT_EQ(engine.stats().autotune_fingerprints, 0u);
}

TEST_F(AutotuneEngineTest, ArmSwitchesStayBitIdenticalToOracle) {
  const Problem p = make_problem(2);
  const Csr<double, I> oracle = masked_spgemm<SR>(p.mask, p.a, p.b);
  EngineOptions options;
  options.autotune.enabled = true;
  options.autotune.epsilon = 1.0;  // explore every eligible draw
  Engine<SR> engine(options);
  ASSERT_NE(engine.autotune(), nullptr);
  for (int i = 0; i < 60; ++i) {
    const Csr<double, I> got = engine.submit(p.mask, p.a, p.b).get();
    EXPECT_TRUE(test::csr_equal(oracle, got)) << "submission " << i;
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.autotune_fingerprints, 1u);
  EXPECT_GT(stats.autotune_explorations, 0u);
  EXPECT_EQ(stats.autotune_converged, 1u);
  // Converged: the bandit froze onto a best arm for this fingerprint.
  const std::uint64_t fp = detail::structural_fingerprint(p.mask, p.a, p.b);
  EXPECT_TRUE(engine.autotune()->converged(fp));
  EXPECT_GE(engine.autotune()->best_arm(fp), 0);
}

TEST_F(AutotuneEngineTest, DeadlineJobsNeverExplore) {
  const Problem p = make_problem(3);
  EngineOptions options;
  options.autotune.enabled = true;
  options.autotune.epsilon = 1.0;
  Engine<SR> engine(options);
  SubmitOptions sopts;
  sopts.deadline_ms = 60'000.0;  // generous: carried, never missed
  for (int i = 0; i < 40; ++i) {
    (void)engine.submit(p.mask, p.a, p.b, Config{}, sopts).get();
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.autotune_fingerprints, 1u);
  EXPECT_EQ(stats.autotune_explorations, 0u);
}

TEST_F(AutotuneEngineTest, PerSubmissionOptOutBypassesTheBandit) {
  const Problem p = make_problem(4);
  EngineOptions options;
  options.autotune.enabled = true;
  Engine<SR> engine(options);
  SubmitOptions sopts;
  sopts.autotune = false;
  for (int i = 0; i < 10; ++i) {
    (void)engine.submit(p.mask, p.a, p.b, Config{}, sopts).get();
  }
  EXPECT_EQ(engine.stats().autotune_fingerprints, 0u);
}

TEST_F(AutotuneEngineTest, SameSeedStreamsAreFullyDeterministic) {
  const Problem p = make_problem(5);
  const std::uint64_t fp = detail::structural_fingerprint(p.mask, p.a, p.b);
  const auto run = [&] {
    EngineOptions options;
    options.autotune.enabled = true;
    options.autotune.seed = 77;
    // At epsilon = 1.0 every eligible learning draw explores the
    // fewest-pulled live arm, so the served-arm sequence up to
    // convergence depends only on the seed and the stream — never on the
    // measured costs. (Post-freeze draws exploit the measured-best arm,
    // which IS timing-dependent, so the stream stops at convergence.)
    options.autotune.epsilon = 1.0;
    Engine<SR> engine(options);
    for (int i = 0; i < 200 && !engine.autotune()->converged(fp); ++i) {
      (void)engine.submit(p.mask, p.a, p.b).get();
    }
    EXPECT_TRUE(engine.autotune()->converged(fp));
    std::vector<std::uint64_t> pulls;
    for (const ArmStats& arm : engine.autotune()->arms(fp)) {
      pulls.push_back(arm.pulls);
    }
    return pulls;
  };
  // Sequential same-seed streams make identical learning choices, so the
  // arm tables end the learning phase with identical pull counts.
  EXPECT_EQ(run(), run());
}

TEST_F(AutotuneEngineTest, ConcurrentSubmittersShareOneArmTable) {
  // The TSan hammer: many threads, two fingerprints, aggressive
  // exploration — select() and report() race from submitters and pool
  // workers against one bandit.
  const Problem p1 = make_problem(6);
  const Problem p2 = make_problem(7, 52, 36, 40);
  const Csr<double, I> oracle1 = masked_spgemm<SR>(p1.mask, p1.a, p1.b);
  const Csr<double, I> oracle2 = masked_spgemm<SR>(p2.mask, p2.a, p2.b);
  EngineOptions options;
  options.autotune.enabled = true;
  options.autotune.epsilon = 1.0;
  options.max_in_flight = 64;
  Engine<SR> engine(options);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 30;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const bool first = (t + i) % 2 == 0;
        const Problem& p = first ? p1 : p2;
        const Csr<double, I>& oracle = first ? oracle1 : oracle2;
        const Csr<double, I> got = engine.submit(p.mask, p.a, p.b).get();
        if (!test::csr_equal(oracle, got)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.autotune_fingerprints, 2u);
  EXPECT_EQ(stats.jobs_completed,
            static_cast<std::uint64_t>(kThreads * kPerThread));
}

}  // namespace
}  // namespace tilq
