// Chaos soak (docs/ROBUSTNESS.md): replay a mixed submission stream
// through the batch engine while several fault sites fire probabilistically
// at ~1% rates, and assert the resilience contract end to end:
//
//   * every job either completes BIT-IDENTICAL to its fault-free oracle or
//     fails with a typed taxonomy error (tilq::Error) — never a foreign
//     exception, never std::terminate;
//   * the engine's counters conserve: submitted = completed + failed, and
//     nothing is left in flight;
//   * after the fault burst plus two clean health epochs, the engine
//     reports kHealthy again.
//
// The rates are seeded (fault::set_seed), so a failure here replays
// exactly. The standalone bench/chaos_soak binary runs the same contract
// at larger scale under ASan in CI. Suite name matters: the sanitizer
// matrix runs --gtest_filter=*Chaos*.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/masked_spgemm.hpp"
#include "support/fault.hpp"
#include "test_util.hpp"

namespace tilq {
namespace {

using I = std::int64_t;
using SR = PlusTimes<double>;

struct Problem {
  Csr<double, I> mask;
  Csr<double, I> a;
  Csr<double, I> b;
  Csr<double, I> oracle;
  Config config;
};

class ChaosSoakTest : public ::testing::Test {
 protected:
  void TearDown() override {
    fault::disarm_all();
    fault::set_seed(0);
  }
};

TEST_F(ChaosSoakTest, MixedStreamUnderRandomFaultsKeepsTheContract) {
  // A small zoo of shapes x configs so the stream exercises the 1D and
  // blocked execution spaces (narrow and auto block widths) and all three
  // accumulators.
  std::vector<Problem> problems;
  std::uint64_t seed = 300;
  const AccumulatorKind accumulators[] = {
      AccumulatorKind::kHash, AccumulatorKind::kDense,
      AccumulatorKind::kBitmap};
  for (int shape = 0; shape < 2; ++shape) {
    const I rows = shape == 0 ? 48 : 72;
    const I inner = shape == 0 ? 40 : 64;
    const I cols = shape == 0 ? 44 : 56;
    for (int mode = 0; mode < 3; ++mode) {
      Problem p;
      p.mask = test::random_matrix<double, I>(rows, cols, 0.12, seed);
      p.a = test::random_matrix<double, I>(rows, inner, 0.12, seed + 1);
      p.b = test::random_matrix<double, I>(inner, cols, 0.12, seed + 2);
      seed += 10;
      p.config.accumulator = accumulators[mode];
      if (mode == 1) {
        p.config.mode = Strategy::kBlocked;
        p.config.block_cols = 9;
      } else if (mode == 2) {
        p.config.mode = Strategy::kBlocked;
      }
      p.oracle = masked_spgemm<SR>(p.mask, p.a, p.b, p.config);
      problems.push_back(std::move(p));
    }
  }

  EngineOptions options;
  options.retry.max_attempts = 3;
  options.retry.backoff_base_ms = 0.0;  // soak throughput over realism
  options.memory_budget_bytes = 8ull << 20;
  options.health.epoch_events = 32;
  Engine<SR> engine(options);

  fault::set_seed(20240808);
  // >= 3 engine-level sites at ~1% rates, via the TILQ_FAULT grammar so
  // the env path is exercised too.
  fault::configure(
      "engine-submit-alloc@0.01,engine-pool-reserve@0.02,"
      "plan-fingerprint@0.01,engine-retry-replan@0.01");

  constexpr int kJobs = 512;
  constexpr std::size_t kWindow = 8;  // < shed bound: no admission sheds
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<Engine<SR>::JobHandle, std::size_t>> window;
  const auto drain_one = [&](std::pair<Engine<SR>::JobHandle, std::size_t>& slot) {
    try {
      const Csr<double, I> got = slot.first.get();
      ASSERT_TRUE(test::csr_equal(problems[slot.second].oracle, got))
          << "job survived faults but was not bit-identical";
      ++completed;
    } catch (const Error&) {
      ++failed;  // typed taxonomy error: the allowed failure outcome
    }
    // Anything else (std::bad_alloc, foreign exceptions) escapes and
    // fails the test — that IS the assertion.
  };
  for (int i = 0; i < kJobs; ++i) {
    const std::size_t which = static_cast<std::size_t>(i) % problems.size();
    const Problem& p = problems[which];
    window.emplace_back(engine.submit(p.mask, p.a, p.b, p.config), which);
    if (window.size() >= kWindow) {
      drain_one(window.front());
      window.erase(window.begin());
    }
  }
  for (auto& slot : window) {
    drain_one(slot);
  }
  window.clear();

  EXPECT_GT(failed, 0u) << "no job ever failed: the soak tested nothing";
  EXPECT_GT(completed, failed) << "most of the stream should survive";
  EngineStats stats = engine.stats();
  EXPECT_GT(stats.retries, 0u);
  // Counter conservation: every admitted job is accounted exactly once.
  EXPECT_EQ(stats.jobs_submitted, completed + failed);
  EXPECT_EQ(stats.jobs_completed, completed);
  EXPECT_EQ(stats.jobs_failed, failed);
  EXPECT_EQ(stats.in_flight, 0u);

  // Recovery: disarm everything and run two clean health epochs.
  fault::disarm_all();
  const Problem& p = problems.front();
  for (std::uint64_t i = 0; i < 2 * options.health.epoch_events; ++i) {
    EXPECT_TRUE(test::csr_equal(p.oracle,
                                engine.submit(p.mask, p.a, p.b, p.config)
                                    .get()));
  }
  EXPECT_EQ(engine.stats().health, EngineHealth::kHealthy);
}

}  // namespace
}  // namespace tilq
