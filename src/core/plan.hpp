// Plan/execute split for the masked-SpGEMM — the symbolic/numeric
// separation of Milaković et al. and Deveci et al., applied to the paper's
// three performance dimensions. Iterative workloads (k-truss, triangle
// census, BFS levels) call the kernel repeatedly with the SAME mask/operand
// sparsity; everything that depends only on structure is computed once by
// plan() and amortized across execute() calls:
//
//   plan(M, A, B, config)      — structure phase, runs once:
//     * per-row work estimates (Eq 2) + FLOP-balanced tile boundaries
//     * accumulator sizing (mask row bound; FLOP bound for vanilla)
//     * structural fingerprint (rowptr/colidx hash) of all three operands
//   execute(M, A, B [, stats]) — numeric phase, runs per iteration:
//     * compute + compact only, against pooled per-slot workspaces
//       (src/accum/workspace_pool.hpp) and reused bound buffers; the
//       workspace type is bound once per plan by detail::bind_workspace,
//       the one binding the OpenMP driver and the batch engine share
//     * verifies the fingerprint first; a structure change since plan()
//       raises StalePlanError instead of computing garbage
//
// Values may change freely between executes — only the sparsity pattern is
// fingerprinted. Outputs are bit-identical to the one-shot masked_spgemm
// path: the planned execute runs the same row kernels, whose hybrid κ test
// is evaluated inline (a table lookup, as cheap as reading a stored flag,
// so the plan keeps none), and pooled accumulators gather in mask order, so
// their reuse (continued marker epochs, retained hash capacity) cannot
// reorder sums.
//
// masked_spgemm is a thin wrapper over this machinery (plan once, execute
// once); see docs/API.md for the lifecycle and the migration table.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "accum/bitmap_accumulator.hpp"
#include "accum/dense_accumulator.hpp"
#include "accum/hash_accumulator.hpp"
#include "accum/workspace_pool.hpp"
#include "core/blocked.hpp"
#include "core/config.hpp"
#include "core/kernels.hpp"
#include "core/tiling.hpp"
#include "core/work_estimate.hpp"
#include "sparse/csr.hpp"
#include "sparse/stats.hpp"
#include "sparse/validate.hpp"
#include "support/common.hpp"
#include "support/env.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/panic.hpp"
#include "support/parallel.hpp"
#include "support/perf.hpp"
#include "support/timer.hpp"
#include "support/trace.hpp"

namespace tilq {

/// Thrown by Executor::execute when the operands' structure no longer
/// matches the fingerprint recorded at plan() time. A StaleError
/// (kind() == kStale) that remains catchable as PreconditionError.
class StalePlanError : public StaleError {
 public:
  using StaleError::StaleError;
};

/// Structure-phase diagnostics, filled by plan().
struct PlanInfo {
  std::uint64_t fingerprint = 0;      ///< rowptr/colidx hash of M, A, B
  std::int64_t row_tiles = 0;
  std::int64_t accumulator_bound = 0; ///< per-row accumulator sizing
  /// A nonzeros whose (i,k) κ test the 1D hybrid kernel runs: nnz(A) on a
  /// 1D hybrid plan, 0 otherwise.
  std::int64_t hybrid_decisions = 0;
  std::int64_t flop_total = 0;        ///< Eq-2 work total Σ_i W[i]
  /// Blocked: the plan's cells (row tiles x column blocks), all of which
  /// run the direct window; `sparse_tiles` is always 0. Both stay only
  /// because the repository benchmark reads them; dropping them belongs
  /// to a change whose scope covers benchmark/.
  std::int64_t dense_tiles = 0;
  std::int64_t sparse_tiles = 0;
  std::int64_t hub_splits = 0;        ///< blocked: hub rows split out
  double build_ms = 0.0;              ///< wall time of the plan() call
};

namespace detail {

/// Mixes `size` bytes into `seed` (64-bit splitmix-style, word at a time);
/// defined in plan.cpp.
[[nodiscard]] std::uint64_t hash_bytes(const void* data, std::size_t size,
                                       std::uint64_t seed) noexcept;

/// Hash of everything structural about the triple (M, A, B): dimensions,
/// nnz, row pointers, and column indices. Values are deliberately excluded —
/// a plan stays valid under value-only updates.
template <class T, class I>
[[nodiscard]] std::uint64_t structural_fingerprint(const Csr<T, I>& mask,
                                                   const Csr<T, I>& a,
                                                   const Csr<T, I>& b) noexcept {
  const auto digest = [](const Csr<T, I>& m) {
    const std::int64_t dims[3] = {static_cast<std::int64_t>(m.rows()),
                                  static_cast<std::int64_t>(m.cols()),
                                  static_cast<std::int64_t>(m.nnz())};
    std::uint64_t h = hash_bytes(dims, sizeof dims, 0x9e3779b97f4a7c15ULL);
    h = hash_bytes(m.row_ptr().data(), m.row_ptr().size_bytes(), h);
    return hash_bytes(m.col_idx().data(), m.col_idx().size_bytes(), h);
  };
  // The triangle-census shape C = A ⊙ (A × A) passes one object three
  // times; same object now means same structure now, so digest it once.
  // Per-operand digests are combined through a seed chain, so the key
  // stays position-sensitive (swapping A and B changes it).
  const std::uint64_t dm = digest(mask);
  const std::uint64_t da = (&a == &mask) ? dm : digest(a);
  const std::uint64_t db =
      (&b == &mask) ? dm : ((&b == &a) ? da : digest(b));
  std::uint64_t h = hash_bytes(&dm, sizeof dm, 0x243f6a8885a308d3ULL);
  h = hash_bytes(&da, sizeof da, h);
  return hash_bytes(&db, sizeof db, h);
}

}  // namespace detail

/// Everything plan() derives from structure. Immutable between plan() calls;
/// indexed by the operand triple's fingerprint.
template <class I = std::int64_t>
struct Plan {
  PlanInfo info;
  I rows = 0;
  I inner = 0;
  I cols = 0;
  std::int64_t mask_nnz = 0;
  std::vector<Tile> row_tiles;
  /// Eq-2 work total Σ_i (nnz(M[i,:]) + Σ_{A[i,k]≠0} nnz(B[k,:])) — the
  /// cost model's per-query price tag. The batch engine's admission stage
  /// classifies jobs cheap/expensive from it (docs/SERVING.md), so a plan
  /// cache hit prices a repeat structure for free.
  std::int64_t flop_total = 0;
  I accumulator_bound = 0;
  /// Blocked-strategy artifacts (column blocks, and their slices when
  /// there is more than one); null unless the plan was built with
  /// Strategy::kBlocked. Shared so plan copies (the engine's cache hands
  /// plans around) do not duplicate the slices.
  std::shared_ptr<const BlockedLayout<I>> blocked;

  [[nodiscard]] bool is_blocked() const noexcept { return blocked != nullptr; }
  /// Cells one row tile fans out into: column blocks (blocked) or 1 (1D).
  [[nodiscard]] std::size_t cells_per_row_tile() const noexcept {
    return blocked != nullptr ? static_cast<std::size_t>(blocked->num_blocks())
                              : 1;
  }
  /// Tasks one execute runs: every row tile times its cells.
  [[nodiscard]] std::int64_t task_count() const noexcept {
    return static_cast<std::int64_t>(row_tiles.size() * cells_per_row_tile());
  }
};

namespace detail {

/// Reused driver-level scratch (distinct from the workspaces, which live
/// in a WorkspacePool): the mask-bounded output slots and per-row/cell
/// counts. ensure() only reallocates on growth, so steady-state executes
/// perform zero allocations here.
template <class T, class I>
struct DriverBuffers {
  std::vector<I> bound_cols;
  std::vector<T> bound_vals;
  std::vector<I> row_counts;
  std::vector<I> cell_counts;  ///< multi-block plans: rows x blocks, row-major
  std::uint64_t grows = 0;     ///< how many ensure() calls had to grow

  /// Sizes the buffers for one execute of `plan` against a mask of
  /// `mask_nnz` entries: a slot per mask entry, a count per row, and on
  /// multi-block plans a count per (row, block) cell.
  void ensure(const Plan<I>& plan, std::size_t mask_nnz) {
    const auto rows = static_cast<std::size_t>(plan.rows);
    const std::size_t blocks = plan.cells_per_row_tile();
    const std::size_t cells = blocks > 1 ? rows * blocks : 0;
    const bool grew = mask_nnz > bound_cols.capacity() ||
                      rows > row_counts.capacity() ||
                      cells > cell_counts.capacity();
    bound_cols.resize(mask_nnz);
    bound_vals.resize(mask_nnz);
    row_counts.assign(rows, I{0});
    cell_counts.assign(cells, I{0});
    if (grew) {
      ++grows;
    }
  }
};

/// Accumulator sizing (§III-C): the hash table is bounded by the maximal
/// mask-row nnz, except the vanilla strategy which fills the accumulator
/// before masking and therefore needs the per-row FLOP bound.
template <class T, class I>
I accumulator_row_bound(const Csr<T, I>& mask, const Csr<T, I>& a,
                        const Csr<T, I>& b, MaskStrategy strategy) {
  if (strategy != MaskStrategy::kVanilla) {
    return max_row_nnz(mask);
  }
  I bound = 0;
  for (I i = 0; i < a.rows(); ++i) {
    bound = std::max(bound, row_flop_bound(a, b, i));
  }
  return std::max(bound, max_row_nnz(mask));
}

/// Operand size, nnz(M) + nnz(A), below which build_plan keeps its loops
/// serial even when allowed a team (the role kSerialCutoff plays in
/// exclusive_scan): on small operands an OpenMP team costs more than it
/// saves. Only Executor::plan (and so one-shot masked_spgemm) plans with a
/// team; the batch engine always plans serially.
inline constexpr std::int64_t kSerialPlanCutoff = std::int64_t{1} << 15;

/// The structure phase as a free function: validates shapes (and, under
/// Config::validate_inputs, the operands themselves), builds the
/// FLOP-balanced tile grid, and sizes the accumulator. `fingerprint` is the
/// caller's structural_fingerprint of (mask, a, b), stored as
/// PlanInfo::fingerprint, so a caller that already hashed the operands does
/// not hash them twice. `parallel` = false starts no OpenMP threads (the
/// batch engine passes it: it plans on client threads and pool workers,
/// beside the pool's own threads); otherwise operands below
/// kSerialPlanCutoff still plan serially. Both give the same plan.
/// Executor::plan and the batch engine's shared plan
/// cache (core/engine.hpp) both delegate here, so a cached engine plan is
/// the plan the Executor would have built. Fills everything but
/// PlanInfo::build_ms, which the caller times.
template <class T, class I>
[[nodiscard]] Plan<I> build_plan(const Csr<T, I>& mask, const Csr<T, I>& a,
                                 const Csr<T, I>& b, const Config& config,
                                 std::uint64_t fingerprint,
                                 bool parallel = true) {
  require(a.cols() == b.rows(), "plan: inner dimensions must agree");
  require(mask.rows() == a.rows() && mask.cols() == b.cols(),
          "plan: mask shape must equal output shape");
  const bool blocked = config.mode == Strategy::kBlocked;
  require(!(blocked && config.strategy == MaskStrategy::kVanilla),
          "plan: the vanilla strategy has no column-tiled (blocked) "
          "formulation");
  if (config.validate_inputs) {
    // Structural validation at the plan boundary (Config::validate_inputs,
    // on by default in hardened builds): a defect report beats the UB a
    // corrupt rowptr/colidx would cause inside the parallel kernels.
    require_valid(mask, "mask");
    require_valid(a, "A");
    require_valid(b, "B");
  }

  parallel = parallel && static_cast<std::int64_t>(mask.nnz() + a.nnz()) >=
                             kSerialPlanCutoff;
  Plan<I> plan;
  plan.info.fingerprint = fingerprint;
  plan.rows = a.rows();
  plan.inner = a.cols();
  plan.cols = b.cols();
  plan.mask_nnz = static_cast<std::int64_t>(mask.nnz());

  const int threads = config.threads > 0 ? config.threads : max_threads();
  const std::int64_t num_tiles =
      config.num_tiles > 0 ? config.num_tiles
                           : 2 * static_cast<std::int64_t>(threads);
  {
    TraceSpan span(blocked ? "spgemmblk.analyze" : "spgemm.analyze");
    if (config.tiling == Tiling::kFlopBalanced || blocked) {
      // The blocked strategy needs the per-row Eq-2 work even under uniform
      // tiling: hub-row splitting reads it.
      const std::vector<std::int64_t> prefix =
          row_work_prefix(mask, a, b, parallel);
      plan.flop_total = prefix.empty() ? 0 : prefix.back();
      plan.row_tiles = config.tiling == Tiling::kFlopBalanced
                           ? make_flop_balanced_tiles(prefix, num_tiles)
                           : make_uniform_tiles(plan.rows, num_tiles);
      if (blocked && !plan.row_tiles.empty()) {
        // Hub rows (circuit-style ultra-dense rows holding more than twice
        // a tile's work quota) become singleton tiles: the column blocks
        // then fan each hub into one task per block, parallelizing INSIDE
        // the row instead of serializing one straggler task.
        const std::int64_t quota =
            std::max<std::int64_t>(1, plan.flop_total / std::max<std::int64_t>(
                                                            1, num_tiles));
        std::int64_t splits = 0;
        plan.row_tiles = split_hub_rows(std::move(plan.row_tiles), prefix,
                                        2 * quota, &splits);
        plan.info.hub_splits = splits;
      }
    } else {
      // Same Eq-2 total the prefix sums to, without materializing it.
      plan.flop_total = plan.mask_nnz + total_flops(a, b, parallel);
      plan.row_tiles = make_uniform_tiles(plan.rows, num_tiles);
    }
    if (blocked) {
      auto layout = std::make_shared<BlockedLayout<I>>(
          build_blocked_layout(mask, b, config.block_cols, parallel));
      // The window only ever holds one mask (row, block) segment, so its
      // slot bound is the largest segment, not the full row.
      plan.accumulator_bound = std::max<I>(I{1}, layout->max_seg_entries);
      plan.info.dense_tiles =
          static_cast<std::int64_t>(plan.row_tiles.size()) *
          layout->num_blocks();
      plan.blocked = std::move(layout);
    } else {
      plan.accumulator_bound =
          detail::accumulator_row_bound(mask, a, b, config.strategy);
    }
  }

  plan.info.row_tiles = static_cast<std::int64_t>(plan.row_tiles.size());
  plan.info.accumulator_bound =
      static_cast<std::int64_t>(plan.accumulator_bound);
  plan.info.hybrid_decisions =
      !blocked && config.strategy == MaskStrategy::kHybrid
          ? static_cast<std::int64_t>(a.nnz())
          : 0;
  plan.info.flop_total = plan.flop_total;
  return plan;
}

/// Folds the team's per-thread compute shares into `stats`: the raw
/// breakdown plus the derived imbalance statistics (max/mean busy ratio
/// and the coefficient of variation — the measured counterpart of the
/// model's predicted row-work CV). `work` is indexed by OpenMP thread
/// number and sized for the requested team; `team_size` is how many
/// threads the runtime actually granted.
inline void finalize_thread_work(std::vector<ThreadWork>&& work,
                                 int team_size, ExecutionStats* stats) {
  if (stats == nullptr) {
    return;
  }
  if (team_size > 0 &&
      static_cast<std::size_t>(team_size) < work.size()) {
    work.resize(static_cast<std::size_t>(team_size));
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  double max = 0.0;
  for (const ThreadWork& t : work) {
    sum += t.busy_ms;
    sum_sq += t.busy_ms * t.busy_ms;
    max = std::max(max, t.busy_ms);
  }
  if (!work.empty() && sum > 0.0) {
    const double n = static_cast<double>(work.size());
    const double mean = sum / n;
    const double variance = std::max(0.0, sum_sq / n - mean * mean);
    stats->imbalance_ratio = max / mean;
    stats->busy_cv = std::sqrt(variance) / mean;
  }
  stats->thread_work = std::move(work);
}

/// Degradation target when an accumulator saturates: the hash accumulator
/// escalates the offending row to a dense accumulator with the same
/// marker type (identical accumulate-and-gather order => bit-identical
/// results). Dense and bitmap accumulators cannot saturate.
template <class Acc>
struct FallbackAccumulator {
  using type = std::monostate;
  static constexpr bool available = false;
};

template <Semiring SR, class I, class Marker>
struct FallbackAccumulator<HashAccumulator<SR, I, Marker>> {
  using type = DenseAccumulator<SR, I, Marker>;
  static constexpr bool available = true;
};

/// Accounting one tile task reports back to its driver.
struct TileTaskStats {
  std::int64_t rows = 0;       ///< row visits performed by this task
  std::uint64_t degrades = 0;  ///< rows replayed on the dense fallback
  /// The task's accumulator events, dense fallback included (zero on the
  /// window, which counts none).
  AccumulatorCounters counters;
};

/// One (row tile x column block) task of the blocked driver: every cell
/// runs the direct window, reading the live mask and B through per-task
/// views (block_view). Output slots come straight from the mask view's
/// entry_begin — the view IS the slot map, no binary search. With one
/// block a cell is a row, so the counts land in row_counts and compact
/// needs no stitching.
template <Semiring SR, class T, class I>
TileTaskStats run_blocked_tile_task(const Plan<I>& plan, const Config& config,
                                    const Csr<T, I>& mask, const Csr<T, I>& a,
                                    const Csr<T, I>& b, std::int64_t task,
                                    DirectWindow<SR, I>& win,
                                    DriverBuffers<T, I>& buffers) {
  const BlockedLayout<I>& layout = *plan.blocked;
  const auto blocks = static_cast<std::size_t>(layout.num_blocks());
  const std::size_t rt = static_cast<std::size_t>(task) / blocks;
  const std::size_t t = static_cast<std::size_t>(task) % blocks;
  const Tile row_tile = plan.row_tiles[rt];
  const BlockView<I> mview = block_view(layout.m_blocks, mask, t);
  const BlockView<I> bview = block_view(layout.b_blocks, b, t);
  const I col_base = layout.block_begin[t];
  I* const counts = blocks == 1 ? buffers.row_counts.data()
                                : buffers.cell_counts.data();
  TraceSpan tile_span("tileblk", task);
  TileTaskStats out;
  out.rows += row_tile.row_end - row_tile.row_begin;
  for (I i = static_cast<I>(row_tile.row_begin);
       i < static_cast<I>(row_tile.row_end); ++i) {
    const auto slot = static_cast<std::size_t>(
        mview.entry_begin[static_cast<std::size_t>(i)]);
    counts[static_cast<std::size_t>(i) * blocks + t] = compute_block_cell<SR>(
        mview, bview, a, b, i, col_base, config.strategy,
        config.coiteration_factor, win, buffers.bound_cols.data() + slot,
        buffers.bound_vals.data() + slot);
  }
  return out;
}

/// One tile task of the 1D driver: task index `task` of `plan`, run
/// against `acc`, writing into `buffers`' mask-bounded slots. A saturated
/// row replays on a dense fallback with the same marker type, built on the
/// task's first degrade (most tasks never build it).
template <Semiring SR, class T, class I, class Acc>
TileTaskStats run_scalar_tile_task(const Plan<I>& plan, const Config& config,
                                   const Csr<T, I>& mask, const Csr<T, I>& a,
                                   const Csr<T, I>& b, std::int64_t task,
                                   Acc& acc, DriverBuffers<T, I>& buffers) {
  using Fallback = FallbackAccumulator<Acc>;
  const auto mask_row_ptr = mask.row_ptr();
  const Tile tile = plan.row_tiles[static_cast<std::size_t>(task)];
  TraceSpan tile_span("tile", task);
  TileTaskStats out;
  out.rows += tile.row_end - tile.row_begin;
  // Pooled accumulators keep counting across tasks, so the task reports
  // its delta.
  const AccumulatorCounters at_entry = acc.counters();
  std::optional<typename Fallback::type> fallback;
  for (I i = static_cast<I>(tile.row_begin); i < static_cast<I>(tile.row_end);
       ++i) {
    I* out_cols =
        buffers.bound_cols.data() + mask_row_ptr[static_cast<std::size_t>(i)];
    T* out_vals =
        buffers.bound_vals.data() + mask_row_ptr[static_cast<std::size_t>(i)];
    I count = 0;
    const auto emit = [&](I col, T value) {
      out_cols[count] = col;
      out_vals[count] = value;
      ++count;
    };
    if constexpr (Fallback::available) {
      try {
        compute_row<SR>(config.strategy, config.coiteration_factor, mask, a, b,
                        i, acc, emit);
      } catch (const AccumulatorSaturatedError&) {
        if (!config.degrade_on_saturation) {
          throw;
        }
        // The kernels emit only while gathering at the end of a row, so a
        // saturation mid-row has produced no output yet; discard the hash
        // accumulator's partial epoch and replay the whole row on the
        // dense fallback. Accumulation and gather order are unchanged
        // => bit-identical values.
        acc.abort_row();
        count = 0;
        if (!fallback.has_value()) {
          fallback.emplace(plan.cols, config.reset);
        }
        compute_row<SR>(config.strategy, config.coiteration_factor, mask, a, b,
                        i, *fallback, emit);
        ++out.degrades;
      }
    } else {
      compute_row<SR>(config.strategy, config.coiteration_factor, mask, a, b,
                      i, acc, emit);
    }
    buffers.row_counts[static_cast<std::size_t>(i)] = count;
  }
  out.counters = acc.counters() - at_entry;
  if constexpr (Fallback::available) {
    if (fallback.has_value()) {
      out.counters += fallback->counters();
    }
  }
  return out;
}

/// Compile-time dispatch over the workspace type: a DirectWindow runs the
/// blocked driver, an accumulator the 1D one. Instantiating only the
/// matching branch is what lets one task runner (bind_workspace) serve
/// both execution spaces.
template <Semiring SR, class T, class I, class Acc>
TileTaskStats run_tile_task(const Plan<I>& plan, const Config& config,
                            const Csr<T, I>& mask, const Csr<T, I>& a,
                            const Csr<T, I>& b, std::int64_t task, Acc& acc,
                            DriverBuffers<T, I>& buffers) {
  if constexpr (std::is_same_v<Acc, DirectWindow<SR, I>>) {
    return run_blocked_tile_task<SR>(plan, config, mask, a, b, task, acc,
                                     buffers);
  } else {
    return run_scalar_tile_task<SR>(plan, config, mask, a, b, task, acc,
                                    buffers);
  }
}

/// One tile task of a bound plan (bind_workspace) on workspace slot
/// `slot`, the OpenMP thread number or the pool worker index. This is the
/// single task body behind both schedulers — planned_execute's worksharing
/// loop and the batch engine's pool tasks (core/engine.hpp) call it — so
/// the two paths stay bit-identical by construction.
template <class T, class I>
using TaskRunner = std::function<TileTaskStats(
    const Plan<I>& plan, const Config& config, const Csr<T, I>& mask,
    const Csr<T, I>& a, const Csr<T, I>& b, std::int64_t task, int slot,
    DriverBuffers<T, I>& buffers)>;

/// A workspace's pool key (its WorkspacePool capability) and the bytes the
/// memory governor charges for one.
struct WorkspaceKey {
  std::uint64_t capability = 0;
  std::uint64_t bytes = 0;
};

/// Key of an accumulator sized by `units` (columns, or the hash row
/// bound), priced at a value and an index per unit.
template <class T, class I>
[[nodiscard]] WorkspaceKey accumulator_key(I units) noexcept {
  const auto n = static_cast<std::uint64_t>(units);
  return {n, n * (sizeof(T) + sizeof(I))};
}

/// The runner of workspace type Acc, drawing from Acc's pool in
/// `registry`: per task it acquires the slot's workspace — built by
/// `make(plan, config)`, keyed and priced by `key(plan)` — and runs the
/// task on it. Both callables are captureless, so the runner holds only the
/// pool and binding it allocates nothing.
template <Semiring SR, class T, class I, class Acc, class Make, class Key>
TaskRunner<T, I> bind_pool(WorkspaceRegistry& registry, Make make, Key key) {
  WorkspacePool<Acc>* const pool = &registry.pool<Acc>();
  return [pool, make, key](const Plan<I>& plan, const Config& config,
                           const Csr<T, I>& mask, const Csr<T, I>& a,
                           const Csr<T, I>& b, std::int64_t task, int slot,
                           DriverBuffers<T, I>& buffers) {
    const WorkspaceKey k = key(plan);
    Acc& acc = pool->acquire(
        slot, k.capability, [&] { return make(plan, config); }, k.bytes);
    return run_tile_task<SR>(plan, config, mask, a, b, task, acc, buffers);
  };
}

/// The accumulators of one marker type: dense (sized by the columns) or
/// hash (sized by the plan's row bound).
template <Semiring SR, class T, class I, class Marker>
TaskRunner<T, I> bind_marked(const Config& config,
                             WorkspaceRegistry& registry) {
  switch (config.accumulator) {
    case AccumulatorKind::kDense:
      return bind_pool<SR, T, I, DenseAccumulator<SR, I, Marker>>(
          registry,
          [](const Plan<I>& p, const Config& c) {
            return DenseAccumulator<SR, I, Marker>(p.cols, c.reset);
          },
          [](const Plan<I>& p) { return accumulator_key<T>(p.cols); });
    case AccumulatorKind::kHash:
      return bind_pool<SR, T, I, HashAccumulator<SR, I, Marker>>(
          registry,
          [](const Plan<I>& p, const Config& c) {
            return HashAccumulator<SR, I, Marker>(p.accumulator_bound,
                                                  c.reset);
          },
          [](const Plan<I>& p) {
            return accumulator_key<T>(p.accumulator_bound);
          });
    case AccumulatorKind::kBitmap:
      break;  // markerless: bind_workspace binds it
  }
  require(false, "bind_workspace: invalid accumulator kind");
  return {};
}

/// The workspace binding both drivers share: the only code that names a
/// workspace type, builds one, keys it in its pool and prices it for the
/// governor. A blocked plan runs the direct window whatever the
/// accumulator, marker and reset settings say — its map spans the widest
/// block and its slots the largest mask segment, and the governor charges
/// its real bytes (the packed key is not a size). A 1D plan runs
/// Config::accumulator: bitmap (1-bit flags, no marker or reset policy),
/// or dense or hash at Config::marker_width.
template <Semiring SR, class T, class I>
[[nodiscard]] TaskRunner<T, I> bind_workspace(const Plan<I>& plan,
                                              const Config& config,
                                              WorkspaceRegistry& registry) {
  if (plan.is_blocked()) {
    using Window = DirectWindow<SR, I>;
    return bind_pool<SR, T, I, Window>(
        registry,
        [](const Plan<I>& p, const Config&) {
          return Window(p.blocked->block_width, p.accumulator_bound);
        },
        [](const Plan<I>& p) {
          const I width = p.blocked->block_width;
          return WorkspaceKey{Window::capability(width, p.accumulator_bound),
                              Window::bytes(width, p.accumulator_bound)};
        });
  }
  if (config.accumulator == AccumulatorKind::kBitmap) {
    using Bitmap = BitmapAccumulator<SR, I>;
    return bind_pool<SR, T, I, Bitmap>(
        registry,
        [](const Plan<I>& p, const Config&) { return Bitmap(p.cols); },
        [](const Plan<I>& p) { return accumulator_key<T>(p.cols); });
  }
  switch (config.marker_width) {
    case MarkerWidth::k8:
      return bind_marked<SR, T, I, std::uint8_t>(config, registry);
    case MarkerWidth::k16:
      return bind_marked<SR, T, I, std::uint16_t>(config, registry);
    case MarkerWidth::k32:
      return bind_marked<SR, T, I, std::uint32_t>(config, registry);
    case MarkerWidth::k64:
      return bind_marked<SR, T, I, std::uint64_t>(config, registry);
  }
  require(false, "bind_workspace: invalid marker width");
  return {};
}

/// `config` with every field the plan and its workspace binding ignore set
/// to its default, so configs that build the same plan and bind the same
/// workspace compare equal. It keys the batch engine's plan cache,
/// PlanCache's replan test and the bandit's arm deduplication. Blocked
/// plans ignore the accumulator, marker, reset and saturation settings
/// (every cell runs the window); 1D plans ignore block_cols; bitmap has no
/// marker or reset policy; only hash saturates; κ matters only to hybrid.
/// Config::threads and Config::schedule stay: the OpenMP driver reads
/// both, and the engine pins them itself.
[[nodiscard]] inline Config canonical(Config config) {
  const Config defaults;
  if (config.mode == Strategy::kBlocked) {
    config.accumulator = defaults.accumulator;
    config.marker_width = defaults.marker_width;
    config.reset = defaults.reset;
    config.degrade_on_saturation = defaults.degrade_on_saturation;
  } else {
    config.block_cols = defaults.block_cols;
    if (config.accumulator == AccumulatorKind::kBitmap) {
      config.marker_width = defaults.marker_width;
      config.reset = defaults.reset;
    }
    if (config.accumulator != AccumulatorKind::kHash) {
      config.degrade_on_saturation = defaults.degrade_on_saturation;
    }
  }
  if (config.strategy != MaskStrategy::kHybrid) {
    config.coiteration_factor = defaults.coiteration_factor;
  }
  return config;
}

/// The compact phase against filled driver buffers. `parallel` selects the
/// OpenMP row loop (planned_execute) or a plain serial one (the batch
/// engine's pool workers, which must not open a nested OpenMP team). Rows
/// are independent, so both orders produce the same output.
template <class T, class I>
Csr<T, I> compact_planned(const Plan<I>& plan, const Csr<T, I>& mask,
                          DriverBuffers<T, I>& buffers, bool parallel) {
  const I rows = plan.rows;
  const auto mask_row_ptr = mask.row_ptr();
  const std::size_t cells = plan.cells_per_row_tile();
  if (cells > 1) {
    parallel_for(I{0}, rows, parallel, [&](I i) {
      I total = 0;
      for (std::size_t ct = 0; ct < cells; ++ct) {
        total += buffers.cell_counts[static_cast<std::size_t>(i) * cells + ct];
      }
      buffers.row_counts[static_cast<std::size_t>(i)] = total;
    });
  }
  std::vector<I> out_row_ptr(static_cast<std::size_t>(rows) + 1);
  const I out_nnz =
      parallel ? exclusive_scan<I>(buffers.row_counts, out_row_ptr)
               : exclusive_scan_serial<I>(buffers.row_counts, out_row_ptr);
  std::vector<I> out_cols(static_cast<std::size_t>(out_nnz));
  std::vector<T> out_vals(static_cast<std::size_t>(out_nnz));
  if (cells > 1) {
    // Stitch the per-block segments in block order; the mask slice's
    // entry_begin is the slot map, so no per-cell search is needed.
    const BlockedLayout<I>& layout = *plan.blocked;
    parallel_for(I{0}, rows, parallel, [&](I i) {
      auto dst = static_cast<std::size_t>(out_row_ptr[static_cast<std::size_t>(i)]);
      for (std::size_t ct = 0; ct < cells; ++ct) {
        const auto slot = static_cast<std::size_t>(
            layout.m_blocks[ct].entry_begin[static_cast<std::size_t>(i)]);
        const auto len = static_cast<std::size_t>(
            buffers.cell_counts[static_cast<std::size_t>(i) * cells + ct]);
        for (std::size_t p = 0; p < len; ++p) {
          out_cols[dst + p] = buffers.bound_cols[slot + p];
          out_vals[dst + p] = buffers.bound_vals[slot + p];
        }
        dst += len;
      }
    });
  } else {
    parallel_for(I{0}, rows, parallel, [&](I i) {
      const auto src = static_cast<std::size_t>(mask_row_ptr[static_cast<std::size_t>(i)]);
      const auto dst = static_cast<std::size_t>(out_row_ptr[static_cast<std::size_t>(i)]);
      const auto len = static_cast<std::size_t>(buffers.row_counts[static_cast<std::size_t>(i)]);
      for (std::size_t p = 0; p < len; ++p) {
        out_cols[dst + p] = buffers.bound_cols[src + p];
        out_vals[dst + p] = buffers.bound_vals[src + p];
      }
    });
  }
  return Csr<T, I>(rows, plan.cols, std::move(out_row_ptr),
                   std::move(out_cols), std::move(out_vals));
}

/// Lets planned_execute's team reduce whole counter sets.
#pragma omp declare reduction(+ : AccumulatorCounters : omp_out += omp_in) \
    initializer(omp_priv = AccumulatorCounters{})

/// The numeric phase (compute + compact) of a plan bound to `run`
/// (bind_workspace), on an OpenMP team: each thread runs the tasks it
/// draws on its own workspace slot of `registry`, so a thread that draws
/// no task builds no workspace. Handles the 1D and blocked drivers; trace
/// span names stay those of the original 1D driver ("spgemm.*" / "tile")
/// so existing trace consumers keep working; the blocked path adds
/// "spgemmblk.*" / "tileblk".
template <class T, class I>
Csr<T, I> planned_execute(const Plan<I>& plan, const Config& config,
                          const Csr<T, I>& mask, const Csr<T, I>& a,
                          const Csr<T, I>& b, const TaskRunner<T, I>& run,
                          WorkspaceRegistry& registry,
                          DriverBuffers<T, I>& buffers,
                          ExecutionStats* stats) {
  const bool blocked = plan.is_blocked();
  WallTimer phase;
  const int threads = config.threads > 0 ? config.threads : max_threads();

  buffers.ensure(plan, static_cast<std::size_t>(mask.nnz()));
  registry.reserve(threads);

  set_runtime_schedule(config.schedule);
  const std::int64_t task_count = plan.task_count();

  AccumulatorCounters totals;
  std::uint64_t total_degrades = 0;

  // Per-thread compute shares, indexed by OpenMP thread number; the
  // measured load-imbalance signal next to the model's predicted CV.
  std::vector<ThreadWork> thread_work(static_cast<std::size_t>(threads));
  int team_size = threads;

  // First worker exception is captured here and rethrown after the join;
  // remaining tiles become no-ops. No exception may cross the region
  // boundary (that would be std::terminate under OpenMP).
  ParallelGuard guard;

  {
    TraceSpan compute_span(blocked ? "spgemmblk.compute" : "spgemm.compute");

#pragma omp parallel num_threads(threads) reduction(+ : totals, total_degrades)
    {
      const int thread_num = omp_get_thread_num();
#pragma omp single
      team_size = omp_get_num_threads();

#if TILQ_METRICS_ENABLED
      MetricCounters* const thread_counters = metrics_thread_counters();
      // Hardware counters for this thread's share of the region; inactive
      // (zero-cost) when metrics are off or perf_event_open failed.
      const PerfScope perf_scope(thread_counters != nullptr);
#endif
      std::int64_t my_tiles = 0;
      std::int64_t my_rows = 0;
      std::uint64_t my_degrades = 0;
      AccumulatorCounters my_counters;
      WallTimer busy;

#pragma omp for schedule(runtime) nowait
      for (std::int64_t task = 0; task < task_count; ++task) {
        if (guard.cancelled()) {
          continue;  // cooperative cancellation: skip the body, not the loop
        }
        guard.run([&] {
          const TileTaskStats tile =
              run(plan, config, mask, a, b, task, thread_num, buffers);
          ++my_tiles;
          my_rows += tile.rows;
          my_degrades += tile.degrades;
          my_counters += tile.counters;
        });
      }
      const double busy_ms = busy.milliseconds();
      if (thread_num >= 0 && thread_num < threads) {
        thread_work[static_cast<std::size_t>(thread_num)] = {
            thread_num, busy_ms, my_tiles, my_rows};
      }
      totals += my_counters;
      total_degrades += my_degrades;
#if TILQ_METRICS_ENABLED
      // Per-task counters fold into the owning thread's global slot so the
      // metrics registry sees the same totals as ExecutionStats.
      if (thread_counters != nullptr) {
        thread_counters->tiles_executed += static_cast<std::uint64_t>(my_tiles);
        thread_counters->rows_processed += static_cast<std::uint64_t>(my_rows);
        thread_counters->busy_ns += static_cast<std::uint64_t>(busy_ms * 1e6);
        add_accumulator_counters(*thread_counters, my_counters);
        thread_counters->accum_degrades += my_degrades;
        if (HwCounters* const hw = metrics_thread_hw()) {
          *hw += perf_scope.delta();
        }
      }
#endif
    }
  }
  guard.rethrow_if_failed();
  if (stats != nullptr) {
    stats->compute_ms = phase.milliseconds();
    stats->tiles = task_count;
    stats->accumulator_full_resets = totals.full_resets;
    stats->hash_probes = totals.probes;
    stats->accum_inserts = totals.inserts;
    stats->accum_rejects = totals.rejects;
    stats->hash_collisions = totals.collisions;
    stats->marker_row_resets = totals.row_resets;
    stats->explicit_reset_slots = totals.explicit_clears;
    stats->accum_rehashes = totals.rehashes;
    stats->accum_degrades = total_degrades;
    stats->degraded = total_degrades > 0;
  }
  finalize_thread_work(std::move(thread_work), team_size, stats);

  // --- compact -----------------------------------------------------------
  phase.reset();
  TraceSpan compact_span(blocked ? "spgemmblk.compact" : "spgemm.compact");
  Csr<T, I> result = compact_planned(plan, mask, buffers, /*parallel=*/true);
  if (stats != nullptr) {
    stats->compact_ms = phase.milliseconds();
    stats->output_nnz = static_cast<std::int64_t>(result.nnz());
  }
  return result;
}

}  // namespace detail

/// Reusable execution engine: plan() runs the structure phase and binds the
/// plan's workspace once (detail::bind_workspace); execute() runs the
/// numeric phase against pooled per-thread workspaces. One Executor serves
/// one operand structure at a time; replanning (same Executor, new
/// structure or config) keeps the workspace pool warm whenever the
/// workspace type is unchanged.
template <Semiring SR, class T = typename SR::value_type,
          class I = std::int64_t>
class Executor {
 public:
  /// Structure phase. Config::mode selects the 1D or blocked driver.
  void plan(const Csr<T, I>& mask, const Csr<T, I>& a, const Csr<T, I>& b,
            const Config& config = {}) {
    static_assert(std::is_same_v<T, typename SR::value_type>,
                  "matrix value type must match the semiring");
    WallTimer build;
    config_ = config;
    plan_ = detail::build_plan(mask, a, b, config,
                               detail::structural_fingerprint(mask, a, b));
    run_ = detail::bind_workspace<SR, T>(plan_, config_, *registry_);
    plan_.info.build_ms = build.milliseconds();
    planned_ = true;
  }

  /// Numeric phase. Throws PreconditionError if no plan was built and
  /// StalePlanError if the operands' structure changed since plan().
  Csr<T, I> execute(const Csr<T, I>& mask, const Csr<T, I>& a,
                    const Csr<T, I>& b) {
    return execute_impl(mask, a, b, nullptr);
  }

  Csr<T, I> execute(const Csr<T, I>& mask, const Csr<T, I>& a,
                    const Csr<T, I>& b, ExecutionStats& stats) {
    return execute_impl(mask, a, b, &stats);
  }

  [[nodiscard]] bool planned() const noexcept { return planned_; }

  /// True when a plan exists and `mask`/`a`/`b` carry the planned
  /// structure (same fingerprint). The non-throwing form of the execute()
  /// staleness check.
  [[nodiscard]] bool matches(const Csr<T, I>& mask, const Csr<T, I>& a,
                             const Csr<T, I>& b) const noexcept {
    return planned_ &&
           detail::structural_fingerprint(mask, a, b) == plan_.info.fingerprint;
  }

  [[nodiscard]] const Plan<I>& plan_data() const noexcept { return plan_; }
  [[nodiscard]] const PlanInfo& info() const noexcept { return plan_.info; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Workspace-pool counters summed over every workspace type this
  /// Executor has run (zero until the first execute).
  [[nodiscard]] WorkspacePoolStats pool_stats() const {
    return registry_->stats();
  }

  /// Driver-buffer growth count: flat across executes once warmed up.
  [[nodiscard]] std::uint64_t buffer_grows() const noexcept {
    return buffers_->grows;
  }

  /// Drops the plan and every pooled workspace.
  void reset() {
    plan_ = Plan<I>{};
    config_ = Config{};
    run_ = nullptr;
    registry_->release();
    *buffers_ = detail::DriverBuffers<T, I>{};
    planned_ = false;
  }

 private:
  Csr<T, I> execute_impl(const Csr<T, I>& mask, const Csr<T, I>& a,
                         const Csr<T, I>& b, ExecutionStats* stats) {
    require(planned_, "Executor::execute: no plan built — call plan() first");
    TraceSpan span("plan.execute");
    WallTimer verify;
    // The plan-fingerprint fault site corrupts this comparison, forcing the
    // staleness path without touching real operands.
    if (detail::structural_fingerprint(mask, a, b) != plan_.info.fingerprint ||
        fault::should_fire(FaultSite::kPlanFingerprint)) {
      throw StalePlanError(
          "Executor::execute: operand structure does not match the plan "
          "(rowptr/colidx fingerprint mismatch) — re-plan() after any "
          "sparsity change; only values may differ between executes");
    }
    if (stats != nullptr) {
      // The structure phase ran at plan() time; what is left of "analyze"
      // per execute is the staleness check.
      stats->analyze_ms = verify.milliseconds();
    }
    return detail::planned_execute(plan_, config_, mask, a, b, run_,
                                   *registry_, *buffers_, stats);
  }

  Plan<I> plan_{};
  Config config_{};
  detail::TaskRunner<T, I> run_;
  // Shared, like the buffers, so that Executor copies stay copies of one
  // warm runtime; run_ points into the registry.
  std::shared_ptr<WorkspaceRegistry> registry_ =
      std::make_shared<WorkspaceRegistry>();
  std::shared_ptr<detail::DriverBuffers<T, I>> buffers_ =
      std::make_shared<detail::DriverBuffers<T, I>>();
  bool planned_ = false;
};

/// Plan-reuse convenience for iterative algorithms: execute() replans
/// automatically when the operand structure or the config changes
/// (compared canonically, so a field the plan ignores forces no replan)
/// and runs the cached plan otherwise. Replans keep the workspace pool warm
/// (same workspace type => zero reallocation), which is exactly the
/// k-truss / BFS-loop pattern where the matrix shrinks every few
/// iterations.
template <Semiring SR, class T = typename SR::value_type,
          class I = std::int64_t>
class PlanCache {
 public:
  Csr<T, I> execute(const Csr<T, I>& mask, const Csr<T, I>& a,
                    const Csr<T, I>& b, const Config& config = {}) {
    return execute_impl(mask, a, b, config, nullptr);
  }

  Csr<T, I> execute(const Csr<T, I>& mask, const Csr<T, I>& a,
                    const Csr<T, I>& b, const Config& config,
                    ExecutionStats& stats) {
    return execute_impl(mask, a, b, config, &stats);
  }

  [[nodiscard]] const Executor<SR, T, I>& executor() const noexcept {
    return exec_;
  }
  [[nodiscard]] std::uint64_t replans() const noexcept { return replans_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }

 private:
  Csr<T, I> execute_impl(const Csr<T, I>& mask, const Csr<T, I>& a,
                         const Csr<T, I>& b, const Config& config,
                         ExecutionStats* stats) {
    if (!exec_.planned() ||
        !(detail::canonical(exec_.config()) == detail::canonical(config)) ||
        !exec_.matches(mask, a, b)) {
      exec_.plan(mask, a, b, config);
      ++replans_;
    } else {
      ++hits_;
    }
    return stats != nullptr ? exec_.execute(mask, a, b, *stats)
                            : exec_.execute(mask, a, b);
  }

  Executor<SR, T, I> exec_;
  std::uint64_t replans_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace tilq
