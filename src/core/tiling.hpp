// Row-dimension tiling (§III-A). Tiles are contiguous row ranges of the
// output C (equivalently of M and A; B is never tiled — §II-C). Two
// strategies, matching Fig 6:
//   1. uniform        — equal row counts per tile, work-oblivious
//   2. FLOP-balanced  — equal estimated work (Eq 2) per tile
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace tilq {

/// Half-open row range [row_begin, row_end) processed by one task.
struct Tile {
  std::int64_t row_begin = 0;
  std::int64_t row_end = 0;

  [[nodiscard]] std::int64_t rows() const noexcept { return row_end - row_begin; }
  friend bool operator==(const Tile&, const Tile&) = default;
};

/// Tiling strategy selector (Fig 6).
enum class Tiling {
  kUniform,       ///< homogeneous: each tile has ~rows/ntiles rows
  kFlopBalanced,  ///< each tile has ~total_work/ntiles estimated FLOPs
};

[[nodiscard]] constexpr const char* to_string(Tiling tiling) noexcept {
  return tiling == Tiling::kUniform ? "uniform" : "flop-balanced";
}

/// Splits [0, rows) into at most `num_tiles` tiles of near-equal row count.
/// Returns fewer tiles when rows < num_tiles. Tiles are non-empty,
/// contiguous, and cover [0, rows).
std::vector<Tile> make_uniform_tiles(std::int64_t rows, std::int64_t num_tiles);

/// Splits [0, rows) into at most `num_tiles` tiles of near-equal estimated
/// work, given the exclusive prefix `work_prefix` (size rows+1, from
/// row_work_prefix). Cut points are found by binary search for the
/// quantiles of total work; empty tiles are elided, so heavy single rows
/// can reduce the tile count. Tiles are non-empty, contiguous, and cover
/// [0, rows).
std::vector<Tile> make_flop_balanced_tiles(std::span<const std::int64_t> work_prefix,
                                           std::int64_t num_tiles);

/// Work assigned to `tile` under `work_prefix` — test/diagnostic helper.
std::int64_t tile_work(const Tile& tile, std::span<const std::int64_t> work_prefix);

/// Splits hub rows out of `tiles`: every row whose estimated work exceeds
/// `hub_threshold` becomes a singleton tile of its own, preserving row
/// order and coverage. Under the blocked space's column blocks a
/// singleton row tile still fans out into one task per block, so a
/// circuit-style ultra-dense row parallelizes INSIDE the row instead of
/// serializing one task. Returns the refined tiling; `splits` (when
/// non-null) receives the number of hub rows split out.
std::vector<Tile> split_hub_rows(std::vector<Tile> tiles,
                                 std::span<const std::int64_t> work_prefix,
                                 std::int64_t hub_threshold,
                                 std::int64_t* splits = nullptr);

}  // namespace tilq
