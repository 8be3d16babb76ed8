// Cache-blocked column tiles (§III-A/C and the Nagasaka-style column
// blocking in PAPERS.md), answering the paper's "to tile or not" per plan:
// the plan() stage tiles the column range of B/M only when the cell
// kernel's column map would not fit otherwise. The auto width is one block
// of up to kMaxWindowCols columns, which covers every graph the benches
// generate; such a plan stores no slices and reads the live operands
// directly. Wider matrices (or an explicit Config::block_cols) split into
// blocks with per-block CSR slices of block-local column indices.
//
// Every (row tile × column block) cell runs one kernel: a branchless
// DirectWindow (compact slots plus a column-to-slot map with a sink for
// rejected products) — the mask-indexed accumulator of Milaković et al.
// (PAPERS.md). Its slots span one mask segment, so they stay L1-resident
// however wide the block is.
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
// same order, and the window gathers in mask order like every accumulator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "accum/accumulator.hpp"
#include "core/kernels.hpp"
#include "core/semiring.hpp"
#include "sparse/csr.hpp"
#include "sparse/stats.hpp"
#include "support/common.hpp"
#include "support/parallel.hpp"

namespace tilq {

/// Widest column block the auto width (Config::block_cols == 0) picks:
/// 2^19 columns is a 4 MiB DirectWindow column map per thread with 64-bit
/// indices. Matrices up to this width plan as one block that aliases the
/// operands; only wider ones are tiled.
inline constexpr std::int64_t kMaxWindowCols = std::int64_t{1} << 19;

/// Upper bound on column blocks per plan. The per-block slice row
/// pointers cost O(rows) each, so an explicit tiny Config::block_cols on
/// a wide matrix is clamped to this many (wider) blocks instead of
/// exploding plan memory.
inline constexpr std::int64_t kMaxColumnBlocks = 64;

/// Branchless window state for one blocked cell (compute_block_cell).
/// `map` (block width) sends every block-local column to a slot in a
/// COMPACT window: slot s+1 for the row's s-th mask column, slot 0 — the
/// *sink* — for everything else, which is also `map`'s rest state. The
/// linear kernel then runs with zero branches (a product outside the
/// mask lands in the sink and is discarded when the row closes), and the
/// live slots/touch span only `seg_bound` + 1 entries — the kernel never
/// indexes past the mask segment. All three arrays are restored to their
/// rest state (zero / sink) after every row, so no epoch markers are
/// needed.
template <Semiring SR, class I>
struct DirectWindow {
  using value_type = typename SR::value_type;

  DirectWindow(I width, I seg_bound)
      : slots(static_cast<std::size_t>(seg_bound) + 1, SR::zero()),
        touch(static_cast<std::size_t>(seg_bound) + 1, 0),
        map(static_cast<std::size_t>(width), I{0}) {}

  std::vector<value_type> slots;
  std::vector<std::uint8_t> touch;
  std::vector<I> map;

  /// The window counts no accumulator events; the drivers fold a zero
  /// delta, exactly as for any pooled accumulator.
  [[nodiscard]] AccumulatorCounters counters() const noexcept { return {}; }

  /// WorkspacePool key: (width, seg_bound) packed into one word.
  [[nodiscard]] static std::uint64_t capability(I width,
                                                I seg_bound) noexcept {
    return (static_cast<std::uint64_t>(width) << 32) |
           std::min<std::uint64_t>(static_cast<std::uint64_t>(seg_bound),
                                   0xffffffffULL);
  }
  /// A resident window serves a request only if it is at least as wide
  /// AND has at least as many slots.
  [[nodiscard]] static bool covers(std::uint64_t have,
                                   std::uint64_t want) noexcept {
    constexpr std::uint64_t kLow = 0xffffffffULL;
    return (have >> 32) >= (want >> 32) && (have & kLow) >= (want & kLow);
  }
  /// Bytes one window of this shape holds: map + slots + touch.
  [[nodiscard]] static std::uint64_t bytes(I width, I seg_bound) noexcept {
    return static_cast<std::uint64_t>(width) * sizeof(I) +
           (static_cast<std::uint64_t>(seg_bound) + 1) *
               (sizeof(value_type) + sizeof(std::uint8_t));
  }
};

/// Non-owning CSR view of one matrix restricted to one column block.
/// `row_ptr` (rows + 1) bounds row i's segment in `cols` (block-local
/// columns); `entry_begin` (rows) is the flat index into the SOURCE matrix
/// where that segment starts, so values are read live as
/// source.values()[entry_begin[i] + q]. A one-block plan views the source
/// itself ({row_ptr, row_ptr, col_idx}). Built per task from the operands
/// at hand and never stored in a plan: engine plans are shared across
/// submits and outlive their operands.
template <class I>
struct BlockView {
  std::span<const I> row_ptr;
  std::span<const I> entry_begin;
  std::span<const I> cols;

  /// Block-local columns of row i's segment.
  [[nodiscard]] std::span<const I> row(I i) const noexcept {
    const auto begin = static_cast<std::size_t>(
        row_ptr[static_cast<std::size_t>(i)]);
    const auto end = static_cast<std::size_t>(
        row_ptr[static_cast<std::size_t>(i) + 1]);
    return cols.subspan(begin, end - begin);
  }
};

/// One matrix restricted to one column block, as an owned structure-only
/// CSR slice: the storage behind a multi-block plan's BlockViews.
/// `local_cols` holds the block-local column indices (source column minus
/// the block's first column), packed in slice order.
template <class I>
struct BlockSlice {
  std::vector<I> row_ptr;
  std::vector<I> entry_begin;
  std::vector<I> local_cols;

  [[nodiscard]] BlockView<I> view() const noexcept {
    return {row_ptr, entry_begin, local_cols};
  }
};

/// Column-block boundaries for `cols` columns: uniform blocks of
/// `block_cols` columns (one block of up to kMaxWindowCols when <= 0),
/// clamped to at most kMaxColumnBlocks blocks. Returns nb + 1 boundaries
/// starting at 0 and ending at `cols`; always at least one block.
template <class I>
[[nodiscard]] std::vector<I> make_column_blocks(I cols,
                                                std::int64_t block_cols) {
  require(cols >= 0, "make_column_blocks: negative column count");
  const auto total = static_cast<std::int64_t>(cols);
  std::int64_t width = block_cols > 0 ? block_cols : kMaxWindowCols;
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
/// mask slices of a multi-block plan, and the window's slot bound.
/// Structure-only and immutable after build — shared by every execute
/// against the owning plan.
template <class I>
struct BlockedLayout {
  I block_width = 0;            ///< widest block (the window's map size)
  std::vector<I> block_begin;   ///< nb + 1 column boundaries
  /// Per-block slices; empty on a one-block plan, whose cells read the
  /// operands themselves (block_view).
  std::vector<BlockSlice<I>> b_blocks;
  std::vector<BlockSlice<I>> m_blocks;
  I max_seg_entries = 0;        ///< largest mask (row, block) segment

  [[nodiscard]] std::int64_t num_blocks() const noexcept {
    return static_cast<std::int64_t>(block_begin.size()) - 1;
  }
};

/// Block t of `source` through its plan's `slices` (b_blocks or
/// m_blocks): the slice when the plan has several blocks, the source
/// itself when it has one.
template <class T, class I>
[[nodiscard]] BlockView<I> block_view(const std::vector<BlockSlice<I>>& slices,
                                      const Csr<T, I>& source,
                                      std::size_t t) noexcept {
  if (slices.empty()) {
    return {source.row_ptr(), source.row_ptr(), source.col_idx()};
  }
  return slices[t].view();
}

/// Builds the blocked layout for one plan: column blocks over b.cols(),
/// the B/M slices when there is more than one block, and the window's
/// slot bound.
template <class T, class I>
[[nodiscard]] BlockedLayout<I> build_blocked_layout(const Csr<T, I>& mask,
                                                    const Csr<T, I>& b,
                                                    std::int64_t block_cols,
                                                    bool parallel = true) {
  BlockedLayout<I> layout;
  layout.block_begin = make_column_blocks(b.cols(), block_cols);
  const auto blocks = static_cast<std::size_t>(layout.num_blocks());
  for (std::size_t t = 0; t < blocks; ++t) {
    layout.block_width = std::max<I>(
        layout.block_width,
        layout.block_begin[t + 1] - layout.block_begin[t]);
  }
  if (blocks == 1) {
    layout.max_seg_entries = max_row_nnz(mask);
    return layout;
  }
  layout.b_blocks = extract_block_slices(
      b, std::span<const I>(layout.block_begin), parallel);
  layout.m_blocks = extract_block_slices(
      mask, std::span<const I>(layout.block_begin), parallel);
  const auto rows = static_cast<std::size_t>(mask.rows());
  for (const BlockSlice<I>& slice : layout.m_blocks) {
    for (std::size_t r = 0; r < rows; ++r) {
      layout.max_seg_entries = std::max<I>(
          layout.max_seg_entries, slice.row_ptr[r + 1] - slice.row_ptr[r]);
    }
  }
  return layout;
}

namespace detail {

/// Computes one (row, column-block) cell through the block views, with
/// every per-cell lookup an O(1) view access instead of a binary search
/// over global CSR. Values are read live from `b` through the view's
/// entry_begin indirection; emitted columns are translated back to global
/// (col_base + local). Returns the number of outputs written at
/// out_cols/out_vals.
///
/// Instead of an accumulator interface (marker load + compare + branch per
/// product), the linear kernel routes every product through the
/// DirectWindow's column map — the row's s-th mask column to compact slot
/// s+1, everything else to the sink at slot 0 — as one unconditional
/// indexed add. The co-iteration branch walks the mask by position, so it
/// indexes the compact window directly and never reads the map at all.
/// Emission is gated by the touch flags (touched slots, mask order), and
/// per-slot adds arrive in A-row order, so the result stays bit-identical
/// to the 1D reference.
template <Semiring SR, class T, class I>
I compute_block_cell(const BlockView<I>& mview, const BlockView<I>& bview,
                     const Csr<T, I>& a, const Csr<T, I>& b, I i, I col_base,
                     MaskStrategy strategy, double kappa,
                     DirectWindow<SR, I>& win, I* out_cols, T* out_vals) {
  const std::span<const I> mask_seg = mview.row(i);
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
    const std::span<const I> b_seg = bview.row(k);
    if (b_seg.empty()) {
      continue;
    }
    const T* b_vals =
        b_values + static_cast<std::size_t>(
                       bview.entry_begin[static_cast<std::size_t>(k)]);
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
            b_seg, mask_seg[s], metrics.binary_search_steps);
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
