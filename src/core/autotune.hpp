// Online per-fingerprint config learning (docs/TUNING.md): the serving
// engine's answer to the paper's closing direction — "models which can
// intelligently tune the parameters at execution time". Where the offline
// tuner (core/tuner.hpp) sweeps Configs against one problem under a
// measurement protocol, the ConfigBandit refines the choice *while
// serving*, from signals the engine already collects for free:
//
//   * each plan-cache structural fingerprint gets a small table of config
//     arms — execution-space strategy (1D / blocked), accumulator
//     kind, marker width, hybrid κ — seeded from the submitted config and
//     the heuristic model's prediction (core/model.hpp);
//   * every finished job reports its reward: measured run latency
//     normalized by the plan's Eq-2 FLOP total (time-per-FLOP, so arms
//     compared across jobs of different sizes), penalized when the run
//     degraded to the dense fallback;
//   * selection is ε-greedy with a deterministic SplitMix64 draw keyed on
//     (seed, fingerprint, draw count) — two runs of the same stream make
//     the same choices — plus a first round-robin pass so every arm is
//     priced at least once before the greedy phase narrows;
//   * exploration is budgeted and gated: the engine never explores jobs
//     with deadlines, expensive jobs, or anything while degraded or
//     browned out (eligibility is the engine's call — see
//     Engine::submit's allow_explore plumbing); once every live arm has
//     min_pulls samples or the budget is spent, the fingerprint freezes
//     onto its best arm (convergence) and selection costs one map lookup.
//
// Every arm runs through the same PlanCache machinery, so results stay
// bit-identical across arms — an arm switch changes time, never values
// (tests/autotune_test.cpp proves it against the one-shot oracle).
//
// Thread-safety: ConfigBandit is internally locked; select() and report()
// may race from any number of submitting threads and pool workers.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "core/config.hpp"

namespace tilq {

/// Knobs for the online tuning layer, a member of EngineOptions. The
/// defaults keep it off; enabling costs one mutex-guarded map lookup per
/// submission plus one report per finished job.
struct AutotuneOptions {
  /// Master switch: off means the engine never consults the bandit and
  /// serves every submission on its caller-provided config, exactly as
  /// before.
  bool enabled = false;
  /// Exploration probability per eligible draw once every arm has been
  /// priced once; clamped to [0, 1].
  double epsilon = 0.2;
  /// Samples per live arm before a fingerprint may freeze (converge).
  int min_pulls = 2;
  /// Hard cap on exploration draws per fingerprint; spending it freezes
  /// the fingerprint onto the best arm priced so far.
  int explore_budget = 32;
  /// Seed for the deterministic ε draws (no entropy is ever mixed in).
  std::uint64_t seed = 0;
};

/// Applies the TILQ_AUTOTUNE environment variable on top of `base`:
/// "off"/"0" disables, "on"/"1" enables with the base knobs, and a
/// decimal in (0, 1] enables with that exploration ε. Unset leaves the
/// base untouched.
[[nodiscard]] AutotuneOptions autotune_options_from_env(AutotuneOptions base);

/// One config arm's running estimate, in milliseconds per million Eq-2
/// FLOPs. `min_cost` — the best cost ever observed — is what selection
/// compares: latency noise is one-sided (samples only inflate), so the
/// minimum converges on an arm's true cost far faster than the mean,
/// which is kept for reporting. An arm whose attempt ever failed is dead
/// — never selected again.
struct ArmStats {
  Config config;
  std::uint64_t pulls = 0;     ///< rewards folded into the costs
  std::uint64_t failures = 0;  ///< failed attempts (> 0 marks the arm dead)
  std::uint64_t degrades = 0;  ///< dense-fallback escalations, summed
  double mean_cost = 0.0;      ///< mean ms per MFLOP, degrade-penalized
  double min_cost = 0.0;       ///< best observed cost; 0 until first pull
};

/// One select() verdict: which Config to serve and how it was chosen.
/// `arm < 0` means the bandit was bypassed (unknown failure state) and
/// `config` echoes the submitted one.
struct ArmDecision {
  Config config;
  int arm = -1;
  bool exploration = false;     ///< an ε/round-robin draw, not the best arm
  bool first_sighting = false;  ///< this select created the arm table
};

/// What one report() changed, for the engine's counters and flight record.
struct RewardOutcome {
  bool arm_switched = false;  ///< the exploit-best arm changed
  bool converged = false;     ///< the fingerprint froze on this report
};

/// Lifetime totals across every fingerprint (EngineStats / telemetry).
struct AutotuneStats {
  std::uint64_t fingerprints = 0;  ///< arm tables created
  std::uint64_t explorations = 0;  ///< non-greedy draws served
  std::uint64_t arm_switches = 0;  ///< exploit-best changes
  std::uint64_t converged = 0;     ///< fingerprints frozen
};

/// The candidate arm set for one fingerprint: the submitted config, the
/// heuristic model's prediction, and structured variants across the
/// paper's dimensions (accumulator kind, blocked execution space,
/// marker width, hybrid κ), deduplicated, submitted config first.
/// Exposed for tests and the TUNING.md examples.
[[nodiscard]] std::vector<Config> candidate_arm_configs(
    const Config& submitted, const Config& heuristic);

/// The per-fingerprint ε-greedy bandit. One instance per Engine; all
/// methods are thread-safe.
class ConfigBandit {
 public:
  explicit ConfigBandit(AutotuneOptions options = {});

  ConfigBandit(const ConfigBandit&) = delete;
  ConfigBandit& operator=(const ConfigBandit&) = delete;

  /// Picks the arm to serve for `fingerprint`. The first select for a
  /// fingerprint creates its arm table from candidate_arm_configs(
  /// submitted, heuristic) and returns the submitted config (arm 0) — the
  /// caller's choice is always the baseline every other arm must beat.
  /// `allow_explore` false restricts the draw to the best-priced arm.
  [[nodiscard]] ArmDecision select(std::uint64_t fingerprint,
                                   const Config& submitted,
                                   const Config& heuristic,
                                   bool allow_explore);

  /// Feeds one finished job's signal back into its arm: `run_ms` over
  /// `flop_estimate` becomes the normalized cost, `degrades` applies the
  /// dense-fallback penalty, `failed` kills the arm. Returns what changed.
  RewardOutcome report(std::uint64_t fingerprint, int arm, double run_ms,
                       std::int64_t flop_estimate, std::uint64_t degrades,
                       bool failed);

  /// True once select() has seen the fingerprint (its arm table exists).
  [[nodiscard]] bool known(std::uint64_t fingerprint) const;

  /// The fingerprint's last reported Eq-2 FLOP estimate (0 when none) —
  /// what the engine's exploration gate prices expensiveness against.
  [[nodiscard]] std::int64_t last_flops(std::uint64_t fingerprint) const;

  /// True once the fingerprint froze onto its best arm.
  [[nodiscard]] bool converged(std::uint64_t fingerprint) const;

  /// Copy of the fingerprint's arm table (empty when unknown).
  [[nodiscard]] std::vector<ArmStats> arms(std::uint64_t fingerprint) const;

  /// The arm a frozen or warm fingerprint exploits right now (-1 unknown).
  [[nodiscard]] int best_arm(std::uint64_t fingerprint) const;

  /// Lifetime totals across every fingerprint.
  [[nodiscard]] AutotuneStats stats() const;

  [[nodiscard]] const AutotuneOptions& options() const noexcept {
    return options_;
  }

 private:
  struct Table {
    std::vector<ArmStats> arms;
    std::uint64_t draws = 0;         ///< select() calls served
    std::uint64_t explorations = 0;  ///< spent against explore_budget
    std::int64_t flops = 0;          ///< last reported Eq-2 estimate
    int best = 0;                    ///< exploit arm index
    bool frozen = false;             ///< converged: always serve `best`
  };

  [[nodiscard]] int exploit_arm_locked(const Table& table) const;
  [[nodiscard]] bool freeze_ready_locked(const Table& table) const;

  AutotuneOptions options_;
  mutable std::mutex mutex_;
  std::map<std::uint64_t, Table> tables_;
  std::uint64_t explorations_ = 0;
  std::uint64_t arm_switches_ = 0;
  std::uint64_t converged_count_ = 0;
};

}  // namespace tilq
