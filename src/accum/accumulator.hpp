// Sparse-accumulator interface shared by the dense and hash implementations
// (§III-C). An accumulator stores the partial sums for one output row and
// encodes the mask row so the linear-scan kernels can test membership in
// O(1).
//
// Row protocol (masked kernels, Figs 5/7/9):
//   1. set_mask(M.row_cols(i))        — load the mask into the accumulator
//   2. accumulate(col, product) ...   — add products that hit the mask
//   3. gather(M.row_cols(i), emit)    — emit touched entries in mask order
//   4. finish_row(M.row_cols(i))      — reset state for the next row
//
// Row protocol (vanilla kernel, Fig 3 — no mask pre-load):
//   1. begin_unmasked_row(flop_upper_bound)
//   2. accumulate_any(col, product) ...
//   3. gather_unmasked(emit)          — sorted by column
//   4. finish_row({})
//
// State reset (§III-C):
//   - ResetPolicy::kMarker    — SuiteSparse:GraphBLAS style: a per-slot
//     epoch marker is bumped per row; slots become implicitly invalid.
//     Marker width is tunable (Fig 13); overflow triggers a full reset.
//   - ResetPolicy::kExplicit  — GrB style: all mask slots are cleared
//     explicitly after each row.
#pragma once

#include <concepts>
#include <cstdint>
#include <span>

#include "support/errors.hpp"
#include "support/metrics.hpp"  // the counters' gate and registry slot

namespace tilq {

/// How accumulator state is invalidated between output rows.
enum class ResetPolicy {
  kMarker,    ///< epoch marker, implicit invalidation, overflow => full reset
  kExplicit,  ///< clear every mask slot after each row
};

[[nodiscard]] constexpr const char* to_string(ResetPolicy policy) noexcept {
  return policy == ResetPolicy::kMarker ? "marker" : "explicit";
}

/// Which accumulator implementation to use (runtime selector).
enum class AccumulatorKind {
  kDense,   ///< value/state vectors of length n (matrix columns)
  kHash,    ///< open-addressing table sized by max mask row nnz
  kBitmap,  ///< 1-bit flags + dense values; explicit reset (tilq extension)
};

[[nodiscard]] constexpr const char* to_string(AccumulatorKind kind) noexcept {
  switch (kind) {
    case AccumulatorKind::kDense:
      return "dense";
    case AccumulatorKind::kHash:
      return "hash";
    case AccumulatorKind::kBitmap:
      return "bitmap";
  }
  return "?";
}

/// Marker bit-width for the lazy-reset state arrays (Fig 13 sweep).
enum class MarkerWidth : int {
  k8 = 8,
  k16 = 16,
  k32 = 32,
  k64 = 64,
};

[[nodiscard]] constexpr int bits(MarkerWidth width) noexcept {
  return static_cast<int>(width);
}

/// Statistics an accumulator optionally reports — used by tests asserting
/// the overflow/reset trade-off, by the microbenchmarks, and flushed into
/// the global metrics registry (support/metrics.hpp) by the SpGEMM
/// drivers. `full_resets` and `probes` are always maintained; the rest are
/// compiled in only with TILQ_METRICS_ENABLED (docs/METRICS.md).
struct AccumulatorCounters {
  std::uint64_t full_resets = 0;     ///< marker overflows => whole-array resets
  std::uint64_t probes = 0;          ///< hash probe steps (collision metric)
  std::uint64_t inserts = 0;         ///< accumulate calls that hit the mask
  std::uint64_t rejects = 0;         ///< accumulate calls outside the mask
  std::uint64_t collisions = 0;      ///< hash insertions needing >=1 probe step
  std::uint64_t row_resets = 0;      ///< marker-policy finish_row epoch bumps
  std::uint64_t explicit_clears = 0; ///< slots cleared by explicit resets
  std::uint64_t rehashes = 0;        ///< hash grow-and-rehash events (saturation)

  AccumulatorCounters& operator+=(const AccumulatorCounters& o) noexcept {
    full_resets += o.full_resets;
    probes += o.probes;
    inserts += o.inserts;
    rejects += o.rejects;
    collisions += o.collisions;
    row_resets += o.row_resets;
    explicit_clears += o.explicit_clears;
    rehashes += o.rehashes;
    return *this;
  }

  /// Field-wise difference: pooled accumulators keep counting across
  /// executes, so a driver reports counters() minus an entry snapshot.
  [[nodiscard]] AccumulatorCounters operator-(
      const AccumulatorCounters& o) const noexcept {
    AccumulatorCounters d;
    d.full_resets = full_resets - o.full_resets;
    d.probes = probes - o.probes;
    d.inserts = inserts - o.inserts;
    d.rejects = rejects - o.rejects;
    d.collisions = collisions - o.collisions;
    d.row_resets = row_resets - o.row_resets;
    d.explicit_clears = explicit_clears - o.explicit_clears;
    d.rehashes = rehashes - o.rehashes;
    return d;
  }
};

namespace detail {

/// Adds one accumulator's counters into a thread's metrics slot, under the
/// registry's names (docs/METRICS.md).
inline void add_accumulator_counters(MetricCounters& slot,
                                     const AccumulatorCounters& c) noexcept {
  slot.hash_probes += c.probes;
  slot.hash_collisions += c.collisions;
  slot.accum_inserts += c.inserts;
  slot.accum_rejects += c.rejects;
  slot.marker_row_resets += c.row_resets;
  slot.marker_overflow_resets += c.full_resets;
  slot.explicit_reset_slots += c.explicit_clears;
  slot.accum_rehashes += c.rehashes;
}

}  // namespace detail

/// Thrown (CapacityError subtype) when the hash accumulator's probe chains
/// breach its limit and growing the table past its bound would not help —
/// or when the hash-sat fault site (support/fault.hpp) forces that path.
/// The 1D driver catches this and degrades the offending row to the dense
/// accumulator when Config::degrade_on_saturation is set (the default).
class AccumulatorSaturatedError : public CapacityError {
 public:
  using CapacityError::CapacityError;
};

/// Compile-time interface check used by the kernels.
template <class Acc, class I>
concept MaskedAccumulator = requires(Acc acc, I col,
                                     typename Acc::value_type value,
                                     std::span<const I> mask_cols) {
  typename Acc::value_type;
  acc.set_mask(mask_cols);
  { acc.accumulate(col, value) } -> std::same_as<bool>;
  { acc.is_masked(col) } -> std::same_as<bool>;
  acc.finish_row(mask_cols);
};

}  // namespace tilq
