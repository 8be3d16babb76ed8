// Runtime configuration of the masked-SpGEMM — the cross product of the
// paper's three performance dimensions plus thread count. A Config fully
// determines the executed code path; the benchmark harness sweeps Config
// fields to regenerate each figure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "accum/accumulator.hpp"
#include "core/kernels.hpp"
#include "core/tiling.hpp"
#include "support/common.hpp"
#include "support/env.hpp"

namespace tilq {

/// Execution-space strategy: how plan() decomposes the iteration space.
/// One Config field selects it — a new space cannot ship as yet another
/// config-type-and-entry-point pair.
enum class Strategy {
  k1D,       ///< row tiles over the full column range (the reference path)
  kBlocked,  ///< column blocks whose cells run the mask-indexed window
};

[[nodiscard]] constexpr const char* to_string(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::k1D:
      return "1d";
    case Strategy::kBlocked:
      return "blocked";
  }
  return "?";
}

struct Config {
  // Dimension 1: tiling & scheduling (§III-A, Figs 10/11).
  Tiling tiling = Tiling::kFlopBalanced;
  Schedule schedule = Schedule::kDynamic;
  /// Number of row tiles; 0 selects the default of 2 x threads (the
  /// SS:GB-observed policy).
  std::int64_t num_tiles = 0;

  // Execution-space strategy (docs/ARCHITECTURE.md). The vanilla mask
  // strategy is rejected for blocked plans (its unmasked merge phase has
  // no column-restricted formulation that preserves its semantics).
  Strategy mode = Strategy::k1D;
  /// Column-block width for Strategy::kBlocked; 0 picks the auto width:
  /// one block that reads the operands in place, cut into blocks of
  /// kMaxWindowCols only on wider matrices. Explicit widths are clamped
  /// to kMaxColumnBlocks blocks.
  std::int64_t block_cols = 0;

  // Dimension 2: iteration space (§III-B, Fig 14).
  MaskStrategy strategy = MaskStrategy::kMaskFirst;
  /// Co-iteration factor κ; only used by MaskStrategy::kHybrid.
  double coiteration_factor = 1.0;

  // Dimension 3: accumulator (§III-C, Fig 13).
  AccumulatorKind accumulator = AccumulatorKind::kHash;
  MarkerWidth marker_width = MarkerWidth::k32;
  ResetPolicy reset = ResetPolicy::kMarker;

  /// Threads for the parallel region; 0 uses the OpenMP default.
  int threads = 0;

  // Robustness knobs (docs/ROBUSTNESS.md). Deliberately NOT part of
  // describe(): they change error handling, never the executed kernel path,
  // and benchmark config strings must stay comparable across versions.
  /// Run the structural validator over mask/A/B at plan() boundaries and
  /// throw PreconditionError with a defect report on broken operands.
  /// Defaults on in hardened (Debug / sanitizer) builds.
  bool validate_inputs = TILQ_HARDENED != 0;
  /// When the hash accumulator saturates beyond its growth bound, fall back
  /// to a dense accumulator for the offending row (bit-identical results,
  /// `accum_degrades` counts it). When false the saturation escalates as
  /// CapacityError instead. Blocked plans never saturate: their cells run
  /// the direct window.
  bool degrade_on_saturation = true;

  [[nodiscard]] bool operator==(const Config&) const = default;

  [[nodiscard]] std::string describe() const {
    std::string out;
    out += "strategy=";
    out += to_string(strategy);
    out += " acc=";
    out += to_string(accumulator);
    out += " marker=";
    out += std::to_string(bits(marker_width));
    out += " reset=";
    out += to_string(reset);
    out += " tiling=";
    out += to_string(tiling);
    out += " sched=";
    out += to_string(schedule);
    out += " tiles=";
    out += std::to_string(num_tiles);
    if (strategy == MaskStrategy::kHybrid) {
      out += " kappa=";
      out += std::to_string(coiteration_factor);
    }
    // Strategy tokens only when the config leaves the 1D default, so 1D
    // bench config strings stay comparable across versions.
    if (mode == Strategy::kBlocked) {
      out += " mode=";
      out += to_string(Strategy::kBlocked);
      out += " block-cols=";
      out += std::to_string(block_cols);
    }
    return out;
  }
};

/// One thread's share of a driver's compute phase — the measured side of
/// the load-imbalance story (the model's predicted CV lives in
/// ProblemFeatures::row_work_cv). busy_ms covers the thread's tile loop
/// only — including the workspace it builds on its first tile — and
/// excludes the region's entry/exit barriers, so ragged tile schedules
/// show up undiluted.
struct ThreadWork {
  int thread = 0;           ///< OpenMP thread number inside the region
  double busy_ms = 0.0;     ///< wall time spent executing tiles
  std::int64_t tiles = 0;   ///< tiles (1D) or cells (blocked) this thread ran
  std::int64_t rows = 0;    ///< row visits this thread performed
};

/// Per-call execution statistics, filled in when the caller passes a
/// non-null pointer to masked_spgemm. The accumulator counters below the
/// timing fields are summed over threads; the ones past `hash_probes` are
/// populated only when the library is built with TILQ_METRICS (they stay
/// zero otherwise — see docs/METRICS.md). The per-thread work breakdown
/// and the derived imbalance statistics are always populated.
struct ExecutionStats {
  double analyze_ms = 0.0;  ///< work estimation + tiling
  double compute_ms = 0.0;  ///< parallel row computation
  double compact_ms = 0.0;  ///< output compaction
  std::int64_t tiles = 0;
  std::int64_t output_nnz = 0;
  std::uint64_t accumulator_full_resets = 0;  ///< summed over threads
  std::uint64_t hash_probes = 0;              ///< summed over threads
  std::uint64_t accum_inserts = 0;       ///< mask-hitting accumulate calls
  std::uint64_t accum_rejects = 0;       ///< accumulate calls outside the mask
  std::uint64_t hash_collisions = 0;     ///< hash inserts needing >=1 probe
  std::uint64_t marker_row_resets = 0;   ///< marker-policy epoch bumps
  std::uint64_t explicit_reset_slots = 0;  ///< slots cleared by explicit resets
  std::uint64_t accum_rehashes = 0;  ///< hash grow-and-rehash events
  std::uint64_t accum_degrades = 0;  ///< rows escalated to dense
  /// True when any row of this execute ran on the dense fallback after
  /// hash saturation (accum_degrades > 0).
  bool degraded = false;

  /// Compute-phase share of every thread in the team, indexed by OpenMP
  /// thread number (threads that drew no tiles appear with zero work —
  /// that IS the imbalance signal under static scheduling).
  std::vector<ThreadWork> thread_work;
  /// max(busy) / mean(busy) over the team: 1.0 is perfectly balanced, the
  /// team's wall time is the max, so ratio ~= achievable speedup left on
  /// the table. 0 when the team had one thread or never ran.
  double imbalance_ratio = 0.0;
  /// Coefficient of variation (stddev/mean) of per-thread busy time — the
  /// measured counterpart of the model's predicted row-work CV.
  double busy_cv = 0.0;
};

}  // namespace tilq
