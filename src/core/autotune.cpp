#include "core/autotune.hpp"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "support/rng.hpp"

namespace tilq {

namespace {

/// Strips the fields that must not differentiate arms: robustness knobs
/// and the thread count are the engine's call, not the bandit's.
Config normalized(Config config, const Config& base) {
  config.threads = base.threads;
  config.validate_inputs = base.validate_inputs;
  config.degrade_on_saturation = base.degrade_on_saturation;
  return config;
}

void push_unique(std::vector<Config>& arms, Config config) {
  for (const Config& existing : arms) {
    if (existing == config) {
      return;
    }
  }
  arms.push_back(std::move(config));
}

/// The degrade penalty: a run that escalated rows to the dense fallback
/// paid hidden rehash/copy costs its wall time understates under load.
double penalized(double cost, std::uint64_t degrades) {
  return degrades > 0 ? cost * 1.5 : cost;
}

/// Incumbent margin: a challenger arm must beat the current best by this
/// fraction to displace it. Ties-within-noise stay with the incumbent —
/// and since arm 0 (the caller's config) is priced first, a fingerprint
/// whose arms all measure alike converges onto the caller's own config
/// rather than whichever equal arm drew the luckiest sample. Sized to
/// sit above scheduling jitter on sub-millisecond jobs (min_pulls is
/// small, so one lucky sample IS an arm's estimate) while far below the
/// execution-space wins the table exists to find (1.2–3x).
constexpr double kIncumbentMargin = 0.10;

}  // namespace

AutotuneOptions autotune_options_from_env(AutotuneOptions base) {
  const char* raw = std::getenv("TILQ_AUTOTUNE");
  if (raw == nullptr || raw[0] == '\0') {
    return base;
  }
  if (std::strcmp(raw, "off") == 0 || std::strcmp(raw, "0") == 0 ||
      std::strcmp(raw, "false") == 0) {
    base.enabled = false;
    return base;
  }
  if (std::strcmp(raw, "on") == 0 || std::strcmp(raw, "1") == 0 ||
      std::strcmp(raw, "true") == 0) {
    base.enabled = true;
    return base;
  }
  char* end = nullptr;
  const double epsilon = std::strtod(raw, &end);
  if (end != raw && epsilon > 0.0 && epsilon <= 1.0) {
    base.enabled = true;
    base.epsilon = epsilon;
  }
  return base;
}

std::vector<Config> candidate_arm_configs(const Config& submitted,
                                          const Config& heuristic) {
  std::vector<Config> arms;
  arms.push_back(submitted);  // arm 0: the caller's baseline, always first
  push_unique(arms, normalized(heuristic, submitted));

  // Accumulator sweep on the submitted shape (§III-C: the dominant knob
  // on skewed matrices).
  for (const AccumulatorKind kind :
       {AccumulatorKind::kHash, AccumulatorKind::kDense,
        AccumulatorKind::kBitmap}) {
    Config arm = submitted;
    arm.accumulator = kind;
    push_unique(arms, std::move(arm));
  }

  // Execution-space sweep: the cache-blocked space at auto width. Its
  // cells run one kernel whatever the accumulator, so one arm covers it.
  // The vanilla kernel has no column-restricted formulation, so that arm
  // falls back to mask-first.
  {
    Config arm = submitted;
    arm.mode = Strategy::kBlocked;
    arm.block_cols = 0;  // auto width
    if (arm.strategy == MaskStrategy::kVanilla) {
      arm.strategy = MaskStrategy::kMaskFirst;
    }
    push_unique(arms, std::move(arm));
  }

  // Narrow markers (Fig 13) and the hybrid iteration space at κ = 1
  // (§V-B: no significant scaling factor is needed).
  {
    Config arm = submitted;
    arm.marker_width = MarkerWidth::k16;
    push_unique(arms, std::move(arm));
  }
  if (submitted.strategy != MaskStrategy::kHybrid) {
    Config arm = submitted;
    arm.strategy = MaskStrategy::kHybrid;
    arm.coiteration_factor = 1.0;
    push_unique(arms, std::move(arm));
  }
  return arms;
}

ConfigBandit::ConfigBandit(AutotuneOptions options) : options_(options) {
  options_.epsilon = std::clamp(options_.epsilon, 0.0, 1.0);
  options_.min_pulls = std::max(1, options_.min_pulls);
  options_.explore_budget = std::max(0, options_.explore_budget);
}

int ConfigBandit::exploit_arm_locked(const Table& table) const {
  int best = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < table.arms.size(); ++i) {
    const ArmStats& arm = table.arms[i];
    if (arm.failures > 0 || arm.pulls == 0) {
      continue;
    }
    // Compare best-observed costs: latency noise only inflates samples,
    // so the minimum is the robust estimator of an arm's true cost.
    if (arm.min_cost < best_cost * (1.0 - kIncumbentMargin)) {
      best_cost = arm.min_cost;
      best = static_cast<int>(i);
    }
  }
  return best;  // arm 0 (the submitted config) when nothing is priced yet
}

bool ConfigBandit::freeze_ready_locked(const Table& table) const {
  if (table.explorations >=
      static_cast<std::uint64_t>(options_.explore_budget)) {
    return true;
  }
  for (const ArmStats& arm : table.arms) {
    if (arm.failures > 0) {
      continue;  // dead arms never block convergence
    }
    if (arm.pulls < static_cast<std::uint64_t>(options_.min_pulls)) {
      return false;
    }
  }
  return true;
}

ArmDecision ConfigBandit::select(std::uint64_t fingerprint,
                                 const Config& submitted,
                                 const Config& heuristic,
                                 bool allow_explore) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto [it, created] = tables_.try_emplace(fingerprint);
  Table& table = it->second;
  ArmDecision decision;
  if (created) {
    const std::vector<Config> configs =
        candidate_arm_configs(submitted, heuristic);
    table.arms.reserve(configs.size());
    for (const Config& config : configs) {
      ArmStats arm;
      arm.config = config;
      table.arms.push_back(std::move(arm));
    }
    decision.first_sighting = true;
  }
  ++table.draws;
  if (decision.first_sighting || table.frozen || !allow_explore) {
    // First sighting serves the caller's own config (it doubles as the
    // Eq-2 pricing run); frozen and explore-ineligible draws exploit.
    const int arm = decision.first_sighting ? 0 : exploit_arm_locked(table);
    decision.arm = arm;
    decision.config = table.arms[static_cast<std::size_t>(arm)].config;
    return decision;
  }
  const int exploit = exploit_arm_locked(table);
  // Round-robin first: every live arm gets priced once before the ε draw
  // takes over. The draw itself is splitmix64(seed, fingerprint, draw
  // count) — no wall clock, no entropy, so replays make the same choices.
  int explore_arm = -1;
  if (table.explorations <
      static_cast<std::uint64_t>(options_.explore_budget)) {
    std::uint64_t fewest = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t i = 0; i < table.arms.size(); ++i) {
      const ArmStats& arm = table.arms[i];
      if (arm.failures > 0 ||
          arm.pulls >= static_cast<std::uint64_t>(options_.min_pulls)) {
        continue;
      }
      if (arm.pulls < fewest) {
        fewest = arm.pulls;
        explore_arm = static_cast<int>(i);
      }
    }
    if (explore_arm >= 0 && fewest > 0) {
      // Every arm priced once: from here exploration is the ε coin.
      SplitMix64 rng(options_.seed ^ fingerprint ^
                     (0x9e3779b97f4a7c15ULL * table.draws));
      const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
      if (u >= options_.epsilon) {
        explore_arm = -1;
      }
    }
  }
  if (explore_arm >= 0 && explore_arm != exploit) {
    ++table.explorations;
    ++explorations_;
    decision.arm = explore_arm;
    decision.exploration = true;
  } else {
    decision.arm = exploit;
  }
  decision.config =
      table.arms[static_cast<std::size_t>(decision.arm)].config;
  return decision;
}

RewardOutcome ConfigBandit::report(std::uint64_t fingerprint, int arm,
                                   double run_ms, std::int64_t flop_estimate,
                                   std::uint64_t degrades, bool failed) {
  RewardOutcome outcome;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tables_.find(fingerprint);
  if (it == tables_.end() || arm < 0 ||
      static_cast<std::size_t>(arm) >= it->second.arms.size()) {
    return outcome;
  }
  Table& table = it->second;
  table.flops = std::max<std::int64_t>(table.flops, flop_estimate);
  ArmStats& stats = table.arms[static_cast<std::size_t>(arm)];
  if (failed) {
    ++stats.failures;  // dead: a failing config can never be the answer
  } else {
    const double mflops =
        std::max(1.0, static_cast<double>(flop_estimate) / 1e6);
    const double cost =
        penalized(std::max(0.0, run_ms) / mflops, degrades);
    stats.mean_cost = (stats.mean_cost * static_cast<double>(stats.pulls) +
                       cost) /
                      static_cast<double>(stats.pulls + 1);
    stats.min_cost = stats.pulls == 0 ? cost : std::min(stats.min_cost, cost);
    ++stats.pulls;
    stats.degrades += degrades;
  }
  const int best = exploit_arm_locked(table);
  if (best != table.best) {
    table.best = best;
    ++arm_switches_;
    outcome.arm_switched = true;
  }
  if (!table.frozen && freeze_ready_locked(table)) {
    table.frozen = true;
    ++converged_count_;
    outcome.converged = true;
  }
  return outcome;
}

bool ConfigBandit::known(std::uint64_t fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tables_.count(fingerprint) != 0;
}

std::int64_t ConfigBandit::last_flops(std::uint64_t fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tables_.find(fingerprint);
  return it == tables_.end() ? 0 : it->second.flops;
}

bool ConfigBandit::converged(std::uint64_t fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tables_.find(fingerprint);
  return it != tables_.end() && it->second.frozen;
}

std::vector<ArmStats> ConfigBandit::arms(std::uint64_t fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tables_.find(fingerprint);
  return it == tables_.end() ? std::vector<ArmStats>{} : it->second.arms;
}

int ConfigBandit::best_arm(std::uint64_t fingerprint) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tables_.find(fingerprint);
  return it == tables_.end() ? -1 : it->second.best;
}

AutotuneStats ConfigBandit::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  AutotuneStats s;
  s.fingerprints = tables_.size();
  s.explorations = explorations_;
  s.arm_switches = arm_switches_;
  s.converged = converged_count_;
  return s;
}

}  // namespace tilq
