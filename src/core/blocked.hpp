// Cache-blocked column tiles with per-tile kernel specialization (§III-A/C
// and the Nagasaka-style column blocking in PAPERS.md): the plan() stage
// splits the column range of B/M into blocks narrow enough that a dense
// accumulator over one block fits in cache, extracts per-block CSR slices
// with block-local (remapped) column indices, and classifies every
// (row tile × column block) tile dense or sparse by mask density. Dense
// tiles run on a branchless DirectWindow (compact slots plus a
// column-to-slot map with a sink for rejected products), sparse tiles on
// the configured accumulator sized by the largest mask segment — the
// per-tile choice the paper argues a single per-matrix pick cannot make.
//
// The slices are structure-only, like every other plan artifact: values
// are read live from the source matrix through `entry_begin` (a mask/B row
// intersected with one column block is a CONTIGUOUS run of its sorted CSR
// row, so one flat start index recovers the value segment). A plan built
// over these slices therefore survives value-only updates, and the plan
// cache amortizes the extraction across Engine executes.
//
// Bit-identity to the 1D reference path: every output entry lives in
// exactly one column block, the A row is traversed in order per cell, and
// each B-row block segment preserves the source order — so each output
// slot receives exactly the contributions the 1D kernels would add, in the
// same order. The accumulator KIND never changes per-slot summation order
// (all accumulators add in arrival order and gather in mask order), which
// is what makes the per-tile dense/sparse choice a pure performance knob.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "accum/accumulator.hpp"
#include "accum/bitmap_accumulator.hpp"
#include "accum/dense_accumulator.hpp"
#include "accum/hash_accumulator.hpp"
#include "core/kernels.hpp"
#include "core/semiring.hpp"
#include "core/tiling.hpp"
#include "sparse/csr.hpp"
#include "support/common.hpp"
#include "support/parallel.hpp"

namespace tilq {

/// Auto width for Config::block_cols == 0: 4096 columns keeps a dense
/// block accumulator (values + 32-bit markers) around 48 KiB for double
/// semirings — inside L1/L2 on every target we bench.
inline constexpr std::int64_t kDefaultBlockCols = 4096;

/// Upper bound on column blocks per plan. The per-block slice row
/// pointers cost O(rows) each, so an explicit tiny Config::block_cols on
/// a wide matrix is clamped to this many (wider) blocks instead of
/// exploding plan memory.
inline constexpr std::int64_t kMaxColumnBlocks = 64;

/// Mask density at or above which a tile classifies dense. The block
/// width is capped (kMaxColumnBlocks clamps plan memory, and the auto
/// width keeps the dense segment cache-resident), so the dense
/// accumulator's direct indexing wins down to very thin masks; only
/// near-empty tiles stay on the sparse accumulator, where set_mask over
/// a dense segment would dominate the handful of real entries.
inline constexpr double kDenseTileDensity = 0.002;

/// Branchless window state for dense tiles (compute_block_cell_direct).
/// `map` (block width) sends every block-local column to a slot in a
/// COMPACT window: slot s+1 for the row's s-th mask column, slot 0 — the
/// *sink* — for everything else, which is also `map`'s rest state. The
/// linear kernel then runs with zero branches (a product outside the
/// mask lands in the sink and is discarded when the row closes), and the
/// live slots/touch span only mask-row-length entries, so they stay
/// L1-resident no matter how wide the block is. All three arrays are
/// restored to their rest state (zero / sink) after every row, so no
/// epoch markers are needed.
template <Semiring SR, class I>
struct DirectWindow {
  using value_type = typename SR::value_type;

  explicit DirectWindow(I width)
      : slots(static_cast<std::size_t>(width) + 1, SR::zero()),
        touch(static_cast<std::size_t>(width) + 1, 0),
        map(static_cast<std::size_t>(width), I{0}) {}

  std::vector<value_type> slots;
  std::vector<std::uint8_t> touch;
  std::vector<I> map;
};

/// One matrix restricted to one column block, as a structure-only CSR
/// slice. `row_ptr` (rows + 1) prefixes the per-row segment lengths;
/// `local_cols` holds the block-local column indices (source column minus
/// the block's first column), packed in slice order; `entry_begin` (rows)
/// is the flat index into the SOURCE matrix where row i's segment starts,
/// so values are read live as source.values()[entry_begin[i] + q].
template <class I>
struct BlockSlice {
  std::vector<I> row_ptr;
  std::vector<I> entry_begin;
  std::vector<I> local_cols;

  /// Block-local columns of row i's segment.
  [[nodiscard]] std::span<const I> row_local_cols(I i) const noexcept {
    const auto begin = static_cast<std::size_t>(
        row_ptr[static_cast<std::size_t>(i)]);
    const auto end = static_cast<std::size_t>(
        row_ptr[static_cast<std::size_t>(i) + 1]);
    return {local_cols.data() + begin, end - begin};
  }
};

/// Column-block boundaries for `cols` columns: uniform blocks of
/// `block_cols` columns (kDefaultBlockCols when <= 0), clamped to at most
/// kMaxColumnBlocks blocks. Returns nb + 1 boundaries starting at 0 and
/// ending at `cols`; always at least one block.
template <class I>
[[nodiscard]] std::vector<I> make_column_blocks(I cols,
                                                std::int64_t block_cols) {
  require(cols >= 0, "make_column_blocks: negative column count");
  const auto total = static_cast<std::int64_t>(cols);
  std::int64_t width = block_cols > 0 ? block_cols : kDefaultBlockCols;
  std::int64_t count = total <= 0 ? 1 : ceil_div(total, width);
  if (count > kMaxColumnBlocks) {
    count = kMaxColumnBlocks;
    width = ceil_div(total, count);
  }
  std::vector<I> begin(static_cast<std::size_t>(count) + 1);
  for (std::int64_t t = 0; t <= count; ++t) {
    begin[static_cast<std::size_t>(t)] =
        static_cast<I>(std::min(total, t * width));
  }
  begin.back() = cols;
  return begin;
}

/// Extracts one BlockSlice per column block of `source`. Because CSR rows
/// are sorted, each row is walked exactly once, splitting at the block
/// boundaries; total cost O(nnz + rows × blocks). `parallel` = false keeps
/// both passes serial (see the four-argument parallel_for).
template <class T, class I>
[[nodiscard]] std::vector<BlockSlice<I>> extract_block_slices(
    const Csr<T, I>& source, std::span<const I> block_begin,
    bool parallel = true) {
  require(block_begin.size() >= 2,
          "extract_block_slices: need at least one block");
  const std::size_t blocks = block_begin.size() - 1;
  const I rows = source.rows();
  std::vector<BlockSlice<I>> slices(blocks);
  for (BlockSlice<I>& slice : slices) {
    slice.row_ptr.assign(static_cast<std::size_t>(rows) + 1, I{0});
    slice.entry_begin.assign(static_cast<std::size_t>(rows), I{0});
  }
  const auto row_ptr = source.row_ptr();
  const auto cols = source.col_idx();
  // Pass 1 (parallel over rows): segment boundaries. Row i's count for
  // block t lands in row_ptr[i + 1] (prefixed in pass 2); entry_begin is
  // final immediately.
  parallel_for(I{0}, rows, parallel, [&](I i) {
    const auto r = static_cast<std::size_t>(i);
    auto p = static_cast<std::size_t>(row_ptr[r]);
    const auto end = static_cast<std::size_t>(row_ptr[r + 1]);
    for (std::size_t t = 0; t < blocks; ++t) {
      const I hi = block_begin[t + 1];
      slices[t].entry_begin[r] = static_cast<I>(p);
      std::size_t q = p;
      while (q < end && cols[q] < hi) {
        ++q;
      }
      slices[t].row_ptr[r + 1] = static_cast<I>(q - p);
      p = q;
    }
  });
  // Pass 2 (parallel over blocks): prefix the counts and pack the
  // block-local columns.
  parallel_for(std::size_t{0}, blocks, parallel, [&](std::size_t t) {
    BlockSlice<I>& slice = slices[t];
    for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
      slice.row_ptr[r + 1] =
          static_cast<I>(slice.row_ptr[r] + slice.row_ptr[r + 1]);
    }
    slice.local_cols.resize(
        static_cast<std::size_t>(slice.row_ptr[static_cast<std::size_t>(rows)]));
    const I lo = block_begin[t];
    for (std::size_t r = 0; r < static_cast<std::size_t>(rows); ++r) {
      const auto out = static_cast<std::size_t>(slice.row_ptr[r]);
      const auto len =
          static_cast<std::size_t>(slice.row_ptr[r + 1]) - out;
      const auto src = static_cast<std::size_t>(slice.entry_begin[r]);
      for (std::size_t q = 0; q < len; ++q) {
        slice.local_cols[out + q] = static_cast<I>(cols[src + q] - lo);
      }
    }
  });
  return slices;
}

/// The blocked plan stage's output: column-block boundaries, the B and
/// mask slices, and the dense/sparse verdict per (row tile × block) tile.
/// Structure-only and immutable after build — shared by every execute
/// against the owning plan.
template <class I>
struct BlockedLayout {
  I block_width = 0;            ///< widest block (dense accumulator size)
  std::vector<I> block_begin;   ///< nb + 1 column boundaries
  std::vector<BlockSlice<I>> b_blocks;
  std::vector<BlockSlice<I>> m_blocks;
  /// Row-tile-major dense flags: tile_dense[rt * num_blocks() + t].
  std::vector<std::uint8_t> tile_dense;
  I max_seg_entries = 0;        ///< largest mask (row, block) segment
  std::int64_t dense_tiles = 0;
  std::int64_t sparse_tiles = 0;

  [[nodiscard]] std::int64_t num_blocks() const noexcept {
    return static_cast<std::int64_t>(block_begin.size()) - 1;
  }
  [[nodiscard]] bool dense_tile(std::size_t row_tile,
                                std::size_t block) const noexcept {
    return tile_dense[row_tile * static_cast<std::size_t>(num_blocks()) +
                      block] != 0;
  }
};

/// Builds the full blocked layout for one plan: column blocks over
/// b.cols(), B/M slices, the per-tile density classification against
/// `row_tiles`, and the sparse-accumulator bound.
template <class T, class I>
[[nodiscard]] BlockedLayout<I> build_blocked_layout(
    const Csr<T, I>& mask, const Csr<T, I>& b, std::span<const Tile> row_tiles,
    std::int64_t block_cols, bool parallel = true) {
  BlockedLayout<I> layout;
  layout.block_begin = make_column_blocks(b.cols(), block_cols);
  const auto blocks = static_cast<std::size_t>(layout.num_blocks());
  for (std::size_t t = 0; t < blocks; ++t) {
    layout.block_width = std::max<I>(
        layout.block_width,
        layout.block_begin[t + 1] - layout.block_begin[t]);
  }
  layout.b_blocks = extract_block_slices(
      b, std::span<const I>(layout.block_begin), parallel);
  layout.m_blocks = extract_block_slices(
      mask, std::span<const I>(layout.block_begin), parallel);
  const auto rows = static_cast<std::size_t>(mask.rows());
  for (std::size_t t = 0; t < blocks; ++t) {
    const BlockSlice<I>& slice = layout.m_blocks[t];
    for (std::size_t r = 0; r < rows; ++r) {
      layout.max_seg_entries = std::max<I>(
          layout.max_seg_entries, slice.row_ptr[r + 1] - slice.row_ptr[r]);
    }
  }
  layout.tile_dense.assign(row_tiles.size() * blocks, 0);
  for (std::size_t rt = 0; rt < row_tiles.size(); ++rt) {
    const Tile& tile = row_tiles[rt];
    for (std::size_t t = 0; t < blocks; ++t) {
      const BlockSlice<I>& slice = layout.m_blocks[t];
      const auto nnz = static_cast<double>(
          slice.row_ptr[static_cast<std::size_t>(tile.row_end)] -
          slice.row_ptr[static_cast<std::size_t>(tile.row_begin)]);
      const double area =
          static_cast<double>(tile.rows()) *
          static_cast<double>(layout.block_begin[t + 1] - layout.block_begin[t]);
      const bool dense = area > 0.0 && nnz >= kDenseTileDensity * area;
      layout.tile_dense[rt * blocks + t] = dense ? 1 : 0;
      if (dense) {
        ++layout.dense_tiles;
      } else {
        ++layout.sparse_tiles;
      }
    }
  }
  return layout;
}

/// Per-thread workspace for the blocked driver: a block-width dense
/// accumulator (dense tiles, and the saturation fallback) plus the
/// configured sparse-tile accumulator. Pooled via WorkspacePool like any
/// single accumulator; capability() orders (block width, sparse bound)
/// lexicographically so a wider resident workspace always covers — the
/// hash accumulator self-grows if its bound component was smaller.
template <Semiring SR, class I, class Marker, class SparseAcc>
class BlockedWorkspace {
 public:
  using value_type = typename SR::value_type;
  using dense_type = DenseAccumulator<SR, I, Marker>;

  BlockedWorkspace(I block_width, I seg_bound, ResetPolicy policy)
      : dense_(block_width, policy),
        direct_(block_width),
        sparse_(make_sparse(block_width, seg_bound, policy)) {}

  [[nodiscard]] dense_type& dense() noexcept { return dense_; }
  [[nodiscard]] DirectWindow<SR, I>& direct() noexcept { return direct_; }
  [[nodiscard]] SparseAcc& sparse() noexcept { return sparse_; }

  /// Resets the sparse accumulator's partial row state after a saturation
  /// abort (hash only; the dense/bitmap sparse variants cannot saturate).
  void abort_sparse_row() noexcept {
    if constexpr (requires(SparseAcc& acc) { acc.abort_row(); }) {
      sparse_.abort_row();
    }
  }

  /// Both accumulators' counters, summed (the drivers fold one delta per
  /// task, exactly as for a single accumulator).
  [[nodiscard]] AccumulatorCounters counters() const noexcept {
    AccumulatorCounters total = dense_.counters();
    total += sparse_.counters();
    return total;
  }

  [[nodiscard]] static std::uint64_t capability(I block_width,
                                                I seg_bound) noexcept {
    const auto bound = static_cast<std::uint64_t>(seg_bound);
    return (static_cast<std::uint64_t>(block_width) << 32) |
           std::min<std::uint64_t>(bound, 0xffffffffULL);
  }

 private:
  [[nodiscard]] static SparseAcc make_sparse(I block_width, I seg_bound,
                                             ResetPolicy policy) {
    if constexpr (std::is_same_v<SparseAcc, BitmapAccumulator<SR, I>>) {
      (void)seg_bound;
      (void)policy;
      return SparseAcc(block_width);
    } else if constexpr (std::is_same_v<SparseAcc,
                                        DenseAccumulator<SR, I, Marker>>) {
      (void)seg_bound;
      return SparseAcc(block_width, policy);
    } else {
      (void)block_width;
      return SparseAcc(seg_bound, policy);
    }
  }

  dense_type dense_;
  DirectWindow<SR, I> direct_;
  SparseAcc sparse_;
};

namespace detail {

/// Trait steering run_tile_task's compile-time dispatch: a
/// BlockedWorkspace runs the blocked branch, a plain accumulator the 1D
/// branch.
template <class Acc>
struct is_blocked_workspace : std::false_type {};
template <Semiring SR, class I, class Marker, class SparseAcc>
struct is_blocked_workspace<BlockedWorkspace<SR, I, Marker, SparseAcc>>
    : std::true_type {};
template <class Acc>
inline constexpr bool is_blocked_workspace_v = is_blocked_workspace<Acc>::value;

/// Computes one (row, column-block) cell over the extracted slices, with
/// every per-cell lookup an O(1) slice access instead of a binary search
/// over global CSR. Values are read live from `b` through the slice's
/// entry_begin indirection; emitted columns are translated back to global
/// (col_base + local). Returns the number of outputs written at
/// out_cols/out_vals.
///
/// Per-slot contribution order is the A-row order, exactly as in the 1D
/// kernels, so results are bit-identical regardless of the strategy pick
/// or the accumulator handed in.
template <Semiring SR, class T, class I, class Acc>
I compute_block_cell(const BlockSlice<I>& mslice, const BlockSlice<I>& bslice,
                     const Csr<T, I>& a, const Csr<T, I>& b, I i, I col_base,
                     MaskStrategy strategy, double kappa, Acc& acc,
                     I* out_cols, T* out_vals) {
  const std::span<const I> mask_seg = mslice.row_local_cols(i);
  if (mask_seg.empty()) {
    return 0;
  }
  acc.set_mask(mask_seg);
  detail::KernelRowMetrics metrics;
  const auto mask_nnz = static_cast<std::int64_t>(mask_seg.size());
  const auto a_cols = a.row_cols(i);
  const auto a_vals = a.row_vals(i);
  const T* b_values = b.values().data();
  for (std::size_t p = 0; p < a_cols.size(); ++p) {
    const I k = a_cols[p];
    const T scale = a_vals[p];
    const std::span<const I> b_seg = bslice.row_local_cols(k);
    if (b_seg.empty()) {
      continue;
    }
    const T* b_vals =
        b_values + static_cast<std::size_t>(
                       bslice.entry_begin[static_cast<std::size_t>(k)]);
    const bool coiterate =
        strategy == MaskStrategy::kCoIterate ||
        (strategy == MaskStrategy::kHybrid &&
         detail::prefer_coiteration(
             mask_nnz, static_cast<std::int64_t>(b_seg.size()), kappa));
    if (coiterate) {
      if (strategy == MaskStrategy::kHybrid) {
        ++metrics.hybrid_coiter_picks;
      }
      for (const I j : mask_seg) {
        const std::size_t q = detail::lower_bound_index(
            b_seg, 0, j, metrics.binary_search_steps);
        if (q < b_seg.size() && b_seg[q] == j) {
          ++metrics.flops;
          acc.accumulate(j, SR::mul(scale, b_vals[q]));
        }
      }
    } else {
      if (strategy == MaskStrategy::kHybrid) {
        ++metrics.hybrid_linear_picks;
      }
      metrics.flops += b_seg.size();
      for (std::size_t q = 0; q < b_seg.size(); ++q) {
        acc.accumulate(b_seg[q], SR::mul(scale, b_vals[q]));
      }
    }
  }
  I count = 0;
  acc.gather(mask_seg, [&](I j, T value) {
    out_cols[count] = static_cast<I>(col_base + j);
    out_vals[count] = value;
    ++count;
  });
  acc.finish_row(mask_seg);
  metrics.flush();
  return count;
}

/// The dense-tile specialization of compute_block_cell: instead of the
/// accumulator interface (marker load + compare + branch per product),
/// the linear kernel routes every product through the DirectWindow's
/// column map — the row's s-th mask column to compact slot s+1,
/// everything else to the sink at slot 0 — as one unconditional indexed
/// add. The co-iteration branch walks the mask by position, so it
/// indexes the compact window directly and never reads the map at all.
/// Emission is gated by the touch flags exactly like
/// DenseAccumulator::gather (touched slots, mask order), and per-slot
/// adds arrive in A-row order, so the result stays bit-identical to the
/// 1D reference.
template <Semiring SR, class T, class I>
I compute_block_cell_direct(const BlockSlice<I>& mslice,
                            const BlockSlice<I>& bslice, const Csr<T, I>& a,
                            const Csr<T, I>& b, I i, I col_base,
                            MaskStrategy strategy, double kappa,
                            DirectWindow<SR, I>& win, I* out_cols,
                            T* out_vals) {
  const std::span<const I> mask_seg = mslice.row_local_cols(i);
  if (mask_seg.empty()) {
    return 0;
  }
  T* const slots = win.slots.data();
  std::uint8_t* const touch = win.touch.data();
  I* const map = win.map.data();
  for (std::size_t s = 0; s < mask_seg.size(); ++s) {
    map[static_cast<std::size_t>(mask_seg[s])] = static_cast<I>(s + 1);
  }
  detail::KernelRowMetrics metrics;
  const auto mask_nnz = static_cast<std::int64_t>(mask_seg.size());
  const auto a_cols = a.row_cols(i);
  const auto a_vals = a.row_vals(i);
  const T* b_values = b.values().data();
  for (std::size_t p = 0; p < a_cols.size(); ++p) {
    const I k = a_cols[p];
    const T scale = a_vals[p];
    const std::span<const I> b_seg = bslice.row_local_cols(k);
    if (b_seg.empty()) {
      continue;
    }
    const T* b_vals =
        b_values + static_cast<std::size_t>(
                       bslice.entry_begin[static_cast<std::size_t>(k)]);
    const bool coiterate =
        strategy == MaskStrategy::kCoIterate ||
        (strategy == MaskStrategy::kHybrid &&
         detail::prefer_coiteration(
             mask_nnz, static_cast<std::int64_t>(b_seg.size()), kappa));
    if (coiterate) {
      if (strategy == MaskStrategy::kHybrid) {
        ++metrics.hybrid_coiter_picks;
      }
      for (std::size_t s = 0; s < mask_seg.size(); ++s) {
        const std::size_t q = detail::lower_bound_index(
            b_seg, 0, mask_seg[s], metrics.binary_search_steps);
        if (q < b_seg.size() && b_seg[q] == mask_seg[s]) {
          ++metrics.flops;
          slots[s + 1] = SR::add(slots[s + 1], SR::mul(scale, b_vals[q]));
          touch[s + 1] = 1;
        }
      }
    } else {
      if (strategy == MaskStrategy::kHybrid) {
        ++metrics.hybrid_linear_picks;
      }
      metrics.flops += b_seg.size();
      for (std::size_t q = 0; q < b_seg.size(); ++q) {
        const auto s =
            static_cast<std::size_t>(map[static_cast<std::size_t>(b_seg[q])]);
        slots[s] = SR::add(slots[s], SR::mul(scale, b_vals[q]));
        touch[s] = 1;
      }
    }
  }
  I count = 0;
  for (std::size_t s = 0; s < mask_seg.size(); ++s) {
    if (touch[s + 1] != 0) {
      out_cols[count] = static_cast<I>(col_base + mask_seg[s]);
      out_vals[count] = slots[s + 1];
      ++count;
    }
    slots[s + 1] = SR::zero();
    touch[s + 1] = 0;
    map[static_cast<std::size_t>(mask_seg[s])] = I{0};
  }
  slots[0] = SR::zero();
  touch[0] = 0;
  metrics.flush();
  return count;
}

}  // namespace detail

}  // namespace tilq
