// Plan/execute runtime tests: bit-identity of the planned numeric phase
// against the oracle and across repeated executes, value-only updates on a
// fixed sparsity pattern, staleness detection, workspace-pool reuse (zero
// per-iteration accumulator constructions after warm-up), and the PlanCache
// replan/hit accounting the iterative algorithms rely on.
#include "core/plan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "accum/workspace_pool.hpp"
#include "algos/ktruss.hpp"
#include "algos/triangle_count.hpp"
#include "core/masked_spgemm.hpp"
#include "sparse/build.hpp"
#include "sparse/ops.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace tilq {
namespace {

using I = std::int64_t;
using SR = PlusTimes<double>;

struct Problem {
  Csr<double, I> mask;
  Csr<double, I> a;
  Csr<double, I> b;
};

Problem make_problem(std::uint64_t seed, I rows = 48, I inner = 40, I cols = 44,
                     double density = 0.12) {
  return {test::random_matrix<double, I>(rows, cols, density, seed),
          test::random_matrix<double, I>(rows, inner, density, seed + 1000),
          test::random_matrix<double, I>(inner, cols, density, seed + 2000)};
}

/// Random undirected simple graph as a symmetric adjacency matrix.
Csr<double, I> random_symmetric_graph(I n, double density, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Coo<double, I> coo(n, n);
  for (I i = 0; i < n; ++i) {
    for (I j = i + 1; j < n; ++j) {
      if (rng.bernoulli(density)) {
        coo.push(i, j, 1.0);
        coo.push(j, i, 1.0);
      }
    }
  }
  return build_csr(coo);
}

/// Same sparsity, different values — the update a plan must survive.
Csr<double, I> scale_values(const Csr<double, I>& m, double factor) {
  std::vector<I> row_ptr(m.row_ptr().begin(), m.row_ptr().end());
  std::vector<I> col_idx(m.col_idx().begin(), m.col_idx().end());
  std::vector<double> values(m.values().begin(), m.values().end());
  for (double& v : values) {
    v *= factor;
  }
  return {m.rows(), m.cols(), std::move(row_ptr), std::move(col_idx),
          std::move(values)};
}

// ---------------------------------------------------------------------------
// Bit-identity: planned executes match the oracle and each other, across the
// strategy x accumulator x marker-width grid.
// ---------------------------------------------------------------------------

using PlanTuple = std::tuple<MaskStrategy, AccumulatorKind, MarkerWidth>;

class PlannedExecute : public ::testing::TestWithParam<PlanTuple> {};

TEST_P(PlannedExecute, RepeatedExecutesAreBitIdenticalToOracle) {
  Config config;
  config.strategy = std::get<0>(GetParam());
  config.accumulator = std::get<1>(GetParam());
  config.marker_width = std::get<2>(GetParam());
  config.num_tiles = 6;

  const Problem p = make_problem(5);
  const auto expected = test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
  const auto one_shot = masked_spgemm<SR>(p.mask, p.a, p.b, config);

  Executor<SR> exec;
  exec.plan(p.mask, p.a, p.b, config);
  const auto first = exec.execute(p.mask, p.a, p.b);
  EXPECT_TRUE(test::csr_equal(expected, first)) << config.describe();
  EXPECT_TRUE(test::csr_equal(one_shot, first)) << config.describe();
  // Reused pooled accumulators (continued epochs, retained capacity) must
  // not perturb a single bit of the output.
  for (int round = 0; round < 4; ++round) {
    EXPECT_TRUE(test::csr_equal(first, exec.execute(p.mask, p.a, p.b)))
        << config.describe() << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PlannedExecute,
    ::testing::Combine(
        ::testing::Values(MaskStrategy::kVanilla, MaskStrategy::kMaskFirst,
                          MaskStrategy::kCoIterate, MaskStrategy::kHybrid),
        ::testing::Values(AccumulatorKind::kDense, AccumulatorKind::kHash,
                          AccumulatorKind::kBitmap),
        ::testing::Values(MarkerWidth::k8, MarkerWidth::k64)),
    [](const auto& param_info) {
      std::string name;
      name += to_string(std::get<0>(param_info.param));
      name += '_';
      name += to_string(std::get<1>(param_info.param));
      name += std::to_string(bits(std::get<2>(param_info.param)));
      for (auto& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Value-only updates: the planned structure survives new numeric values.
// ---------------------------------------------------------------------------

TEST(PlanValueUpdates, NewValuesSameSparsityExecuteWithoutReplanning) {
  const Problem p = make_problem(7);
  Config config;
  config.strategy = MaskStrategy::kHybrid;

  Executor<SR> exec;
  exec.plan(p.mask, p.a, p.b, config);
  (void)exec.execute(p.mask, p.a, p.b);

  for (const double factor : {2.0, -0.5, 10.0}) {
    const auto a2 = scale_values(p.a, factor);
    const auto b2 = scale_values(p.b, factor);
    EXPECT_TRUE(exec.matches(p.mask, a2, b2));
    const auto planned = exec.execute(p.mask, a2, b2);
    const auto fresh = masked_spgemm<SR>(p.mask, a2, b2, config);
    EXPECT_TRUE(test::csr_equal(fresh, planned)) << "factor=" << factor;
  }
}

// ---------------------------------------------------------------------------
// Staleness: a structure change after plan() must raise, not compute.
// ---------------------------------------------------------------------------

TEST(PlanStaleness, StructureChangeRaisesStalePlanError) {
  const Problem p = make_problem(11);
  Executor<SR> exec;
  exec.plan(p.mask, p.a, p.b);
  (void)exec.execute(p.mask, p.a, p.b);

  const auto a_changed = tril(p.a);  // drops entries: new sparsity
  EXPECT_FALSE(exec.matches(p.mask, a_changed, p.b));
  EXPECT_THROW((void)exec.execute(p.mask, a_changed, p.b), StalePlanError);
  // StalePlanError is a PreconditionError, so existing catch sites work.
  EXPECT_THROW((void)exec.execute(p.mask, a_changed, p.b), PreconditionError);
  // The original operands still execute fine: the plan was not corrupted.
  EXPECT_NO_THROW((void)exec.execute(p.mask, p.a, p.b));
}

TEST(PlanStaleness, ExecuteWithoutPlanThrows) {
  const Problem p = make_problem(13);
  Executor<SR> exec;
  EXPECT_THROW((void)exec.execute(p.mask, p.a, p.b), PreconditionError);
  exec.plan(p.mask, p.a, p.b);
  EXPECT_NO_THROW((void)exec.execute(p.mask, p.a, p.b));
  exec.reset();
  EXPECT_THROW((void)exec.execute(p.mask, p.a, p.b), PreconditionError);
}

TEST(PlanStaleness, ValueOnlyChangeKeepsFingerprint) {
  const Problem p = make_problem(17);
  Executor<SR> exec;
  exec.plan(p.mask, p.a, p.b);
  const auto mask2 = scale_values(p.mask, 3.0);  // mask values are ignored
  EXPECT_TRUE(exec.matches(mask2, p.a, p.b));
}

// ---------------------------------------------------------------------------
// Workspace pooling: allocations happen once, not per execute.
// ---------------------------------------------------------------------------

TEST(PlanWorkspaces, AccumulatorConstructionsFlatAcrossExecutes) {
  const Problem p = make_problem(19);
  Config config;
  config.accumulator = AccumulatorKind::kHash;

  Executor<SR> exec;
  exec.plan(p.mask, p.a, p.b, config);
  (void)exec.execute(p.mask, p.a, p.b);  // warm-up constructs the pool

  const auto warm = exec.pool_stats();
  const auto warm_grows = exec.buffer_grows();
  EXPECT_GT(warm.constructions, 0u);

  for (int round = 0; round < 10; ++round) {
    (void)exec.execute(p.mask, p.a, p.b);
  }
  const auto after = exec.pool_stats();
  EXPECT_EQ(after.constructions, warm.constructions)
      << "pooled accumulators were rebuilt on a steady-state execute";
  EXPECT_EQ(after.retunes, warm.retunes);
  EXPECT_GT(after.acquisitions, warm.acquisitions);
  EXPECT_EQ(exec.buffer_grows(), warm_grows)
      << "driver buffers grew on a steady-state execute";
}

TEST(PlanWorkspaces, ReplanSameAccumulatorTypeKeepsPoolWarm) {
  const Problem p = make_problem(23);
  Config config;
  config.accumulator = AccumulatorKind::kDense;

  Executor<SR> exec;
  exec.plan(p.mask, p.a, p.b, config);
  (void)exec.execute(p.mask, p.a, p.b);
  const auto warm = exec.pool_stats();

  // Shrinking replan (k-truss pattern): same accumulator type, smaller
  // structure — the pooled workspaces must carry over untouched.
  const auto mask2 = tril(p.mask);
  exec.plan(mask2, p.a, p.b, config);
  (void)exec.execute(mask2, p.a, p.b);
  const auto after = exec.pool_stats();
  EXPECT_EQ(after.constructions, warm.constructions);
  EXPECT_GT(after.acquisitions, warm.acquisitions);
}

TEST(PlanWorkspaces, PoolRebuildsOnlyOnCapabilityGrowth) {
  struct Dummy {
    std::uint64_t cap;
  };
  WorkspacePool<Dummy> pool;
  pool.reserve(1);
  const auto make_for = [](std::uint64_t cap) {
    return [cap] { return Dummy{cap}; };
  };
  (void)pool.acquire(0, 100, make_for(100));
  (void)pool.acquire(0, 50, make_for(50));   // smaller demand: reuse
  (void)pool.acquire(0, 100, make_for(100)); // equal demand: reuse
  auto stats = pool.stats();
  EXPECT_EQ(stats.acquisitions, 3u);
  EXPECT_EQ(stats.constructions, 1u);
  EXPECT_EQ(stats.retunes, 0u);

  (void)pool.acquire(0, 200, make_for(200));  // growth: rebuild
  stats = pool.stats();
  EXPECT_EQ(stats.constructions, 2u);
  EXPECT_EQ(stats.retunes, 1u);

  pool.release();
  (void)pool.acquire(0, 10, make_for(10));  // empty slot: rebuild, no retune
  stats = pool.stats();
  EXPECT_EQ(stats.constructions, 3u);
  EXPECT_EQ(stats.retunes, 1u);
}

TEST(PlanWorkspaces, WindowPoolRebuildsWhenEitherDimensionGrows) {
  using Window = DirectWindow<SR, I>;
  WorkspacePool<Window> pool;
  pool.reserve(1);
  const auto acquire = [&](I width, I seg) {
    return pool.acquire(0, Window::capability(width, seg),
                        [&] { return Window(width, seg); })
        .slots.size();
  };
  EXPECT_EQ(acquire(100, 10), 11u);
  EXPECT_EQ(acquire(60, 10), 11u);  // narrower, same slots: reuse
  EXPECT_EQ(pool.stats().constructions, 1u);
  // Narrower but deeper: the wider window has too few slots, so rebuild.
  EXPECT_EQ(acquire(60, 20), 21u);
  EXPECT_EQ(pool.stats().constructions, 2u);
  EXPECT_EQ(pool.stats().retunes, 1u);
  EXPECT_EQ(Window::bytes(60, 20), 60 * sizeof(I) + 21 * (sizeof(double) + 1));
}

// ---------------------------------------------------------------------------
// Plan introspection.
// ---------------------------------------------------------------------------

TEST(PlanInfo, HybridPlansOneDecisionPerANonzero) {
  const Problem p = make_problem(29);
  Config config;
  config.strategy = MaskStrategy::kHybrid;
  Executor<SR> exec;
  exec.plan(p.mask, p.a, p.b, config);
  EXPECT_EQ(exec.info().hybrid_decisions, p.a.nnz());
  EXPECT_GT(exec.info().fingerprint, 0u);
  EXPECT_GE(exec.info().build_ms, 0.0);

  config.strategy = MaskStrategy::kMaskFirst;
  exec.plan(p.mask, p.a, p.b, config);
  EXPECT_EQ(exec.info().hybrid_decisions, 0);  // only hybrid tests κ
}

TEST(PlanInfo, StatsReportPhasesAndPlanBuildTime) {
  const Problem p = make_problem(31);
  Executor<SR> exec;
  exec.plan(p.mask, p.a, p.b);
  ExecutionStats stats;
  const auto c = exec.execute(p.mask, p.a, p.b, stats);
  EXPECT_EQ(stats.output_nnz, c.nnz());
  EXPECT_GE(stats.tiles, 1);
  EXPECT_GE(stats.analyze_ms, 0.0);  // per-execute: the staleness check
  EXPECT_GE(stats.compute_ms, 0.0);
  EXPECT_GE(stats.compact_ms, 0.0);
}

// ---------------------------------------------------------------------------
// Blocked plans: column blocks whose cells all run the direct window
// (docs/ARCHITECTURE.md, "The blocked plan stage"). The blocked space must
// be a pure layout change: bit-identical to the 1D reference for every
// strategy, at the auto width (one block aliasing the operands) and at a
// narrow explicit width (several sliced blocks).
// ---------------------------------------------------------------------------

using BlockedTuple = std::tuple<MaskStrategy, std::int64_t>;

class BlockedExecute : public ::testing::TestWithParam<BlockedTuple> {};

TEST_P(BlockedExecute, BitIdenticalToOneDimensionalAcrossRepeats) {
  Config config;
  config.strategy = std::get<0>(GetParam());
  config.num_tiles = 6;
  const Problem p = make_problem(61);

  const auto one_d = masked_spgemm<SR>(p.mask, p.a, p.b, config);
  EXPECT_TRUE(test::csr_equal(
      test::reference_masked_spgemm<SR>(p.mask, p.a, p.b), one_d));

  Config blocked = config;
  blocked.mode = Strategy::kBlocked;
  blocked.block_cols = std::get<1>(GetParam());
  Executor<SR> exec;
  exec.plan(p.mask, p.a, p.b, blocked);
  ASSERT_TRUE(exec.plan_data().is_blocked());
  if (blocked.block_cols == 0) {
    EXPECT_EQ(exec.plan_data().cells_per_row_tile(), 1u);
  } else {
    EXPECT_GT(exec.plan_data().cells_per_row_tile(), 1u);
  }
  const auto first = exec.execute(p.mask, p.a, p.b);
  EXPECT_TRUE(test::csr_equal(one_d, first)) << blocked.describe();
  // Pooled windows must not perturb a single bit across reuse.
  for (int round = 0; round < 3; ++round) {
    EXPECT_TRUE(test::csr_equal(first, exec.execute(p.mask, p.a, p.b)))
        << blocked.describe() << " round=" << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, BlockedExecute,
    ::testing::Combine(
        ::testing::Values(MaskStrategy::kMaskFirst, MaskStrategy::kCoIterate,
                          MaskStrategy::kHybrid),
        // 0: one block aliasing the operands; 7: several narrow blocks
        // across the 44 columns.
        ::testing::Values(std::int64_t{0}, std::int64_t{7})),
    [](const auto& param_info) {
      std::string name = to_string(std::get<0>(param_info.param));
      name += "_width" + std::to_string(std::get<1>(param_info.param));
      for (auto& ch : name) {
        if (ch == '-') {
          ch = '_';
        }
      }
      return name;
    });

TEST(BlockedPlan, AccumulatorAndMarkerSettingsGiveIdenticalOutput) {
  // Blocked cells run the direct window whatever Config::accumulator,
  // marker_width and reset say. A wide, thin mask (about 8 entries per
  // 8192-column row) at one block and at two 4096-column blocks.
  const Problem p = {test::random_matrix<double, I>(64, 8192, 0.001, 83),
                     test::random_matrix<double, I>(64, 64, 0.2, 84),
                     test::random_matrix<double, I>(64, 8192, 0.02, 85)};
  const auto expected = test::reference_masked_spgemm<SR>(p.mask, p.a, p.b);
  ASSERT_GT(expected.nnz(), 0);
  for (const std::int64_t width : {std::int64_t{0}, std::int64_t{4096}}) {
    for (const AccumulatorKind acc :
         {AccumulatorKind::kDense, AccumulatorKind::kHash,
          AccumulatorKind::kBitmap}) {
      for (const MarkerWidth marker : {MarkerWidth::k8, MarkerWidth::k64}) {
        for (const ResetPolicy reset :
             {ResetPolicy::kMarker, ResetPolicy::kExplicit}) {
          Config config;
          config.mode = Strategy::kBlocked;
          config.block_cols = width;
          config.num_tiles = 4;
          config.accumulator = acc;
          config.marker_width = marker;
          config.reset = reset;
          EXPECT_TRUE(test::csr_equal(
              expected, masked_spgemm<SR>(p.mask, p.a, p.b, config)))
              << config.describe();
        }
      }
    }
  }
}

TEST(BlockedPlan, VanillaIsRejected) {
  const Problem p = make_problem(67);
  Config config;
  config.strategy = MaskStrategy::kVanilla;
  config.mode = Strategy::kBlocked;
  Executor<SR> exec;
  EXPECT_THROW(exec.plan(p.mask, p.a, p.b, config), PreconditionError);
}

TEST(BlockedPlan, PlanInfoClassifiesTiles) {
  const Problem p = make_problem(71);
  Config config;
  config.mode = Strategy::kBlocked;
  config.block_cols = 8;
  config.num_tiles = 4;
  Executor<SR> exec;
  exec.plan(p.mask, p.a, p.b, config);
  const auto& plan = exec.plan_data();
  ASSERT_TRUE(plan.is_blocked());
  ASSERT_NE(plan.blocked, nullptr);
  const auto& info = exec.info();
  const std::int64_t cells = static_cast<std::int64_t>(plan.row_tiles.size()) *
                             plan.blocked->num_blocks();
  EXPECT_GT(cells, 0);
  EXPECT_EQ(info.dense_tiles, cells);  // every cell runs the window
  EXPECT_EQ(info.sparse_tiles, 0);
  EXPECT_EQ(plan.cells_per_row_tile(), plan.blocked->num_blocks());
  // One task per (row tile, column block) cell.
  ExecutionStats stats;
  (void)exec.execute(p.mask, p.a, p.b, stats);
  EXPECT_EQ(stats.tiles, cells);
}

TEST(BlockedPlan, EmptyMaskGivesEmptyOutput) {
  const Problem p = make_problem(79);
  const Csr<double, I> empty_mask(p.a.rows(), p.b.cols());
  Config config;
  config.mode = Strategy::kBlocked;
  config.block_cols = 9;
  const auto c = masked_spgemm<SR>(empty_mask, p.a, p.b, config);
  EXPECT_TRUE(c.check());
  EXPECT_EQ(c.nnz(), 0);
}

TEST(BlockedPlan, AutoWidthIsOneBlockWithNoSlices) {
  const Problem p = make_problem(77);
  Config config;
  config.mode = Strategy::kBlocked;
  config.block_cols = 0;
  Executor<SR> exec;
  exec.plan(p.mask, p.a, p.b, config);
  const Plan<I>& plan = exec.plan_data();
  ASSERT_TRUE(plan.is_blocked());
  EXPECT_EQ(plan.blocked->num_blocks(), 1);
  EXPECT_EQ(plan.blocked->block_begin, (std::vector<I>{0, p.b.cols()}));
  EXPECT_EQ(plan.blocked->block_width, p.b.cols());
  EXPECT_TRUE(plan.blocked->b_blocks.empty());
  EXPECT_TRUE(plan.blocked->m_blocks.empty());
  EXPECT_EQ(plan.blocked->max_seg_entries, max_row_nnz(p.mask));
  EXPECT_EQ(plan.cells_per_row_tile(), 1u);
}

TEST(BlockedPlan, AutoWidthTilesOnlyPastTheWindowCap) {
  // Pure boundary arithmetic: no operand is allocated.
  constexpr I kCols = (I{1} << 20) + 1;
  EXPECT_EQ(make_column_blocks<I>(kCols, 0),
            (std::vector<I>{0, I{1} << 19, I{1} << 20, kCols}));
  EXPECT_EQ(make_column_blocks<I>(I{1} << 19, 0),
            (std::vector<I>{0, I{1} << 19}));
  // Explicit widths keep their clamp to kMaxColumnBlocks blocks.
  EXPECT_EQ(make_column_blocks<I>(kCols, 7).size(),
            static_cast<std::size_t>(kMaxColumnBlocks) + 1);
}

TEST(BlockedPlan, HubRowsSplitIntoColumnBlockTasks) {
  // Circuit-style structure: one ultra-dense hub row dominating the flop
  // total. The blocked planner must split it into singleton row tiles so
  // its column blocks become independent tasks.
  const I rows = 32;
  const I inner = 40;
  const I cols = 44;
  Xoshiro256 rng(97);
  Coo<double, I> a_coo(rows, inner);
  for (I k = 0; k < inner; ++k) {
    a_coo.push(0, k, 1.0 + static_cast<double>(k));  // the hub row
  }
  for (I i = 1; i < rows; ++i) {
    for (I k = 0; k < inner; ++k) {
      if (rng.bernoulli(0.05)) {
        a_coo.push(i, k, rng.uniform());
      }
    }
  }
  const auto a = build_csr(a_coo);
  const auto b = test::random_matrix<double, I>(inner, cols, 0.2, 101);
  const auto mask = test::random_matrix<double, I>(rows, cols, 0.5, 103);

  Config config;
  config.mode = Strategy::kBlocked;
  config.block_cols = 11;
  config.num_tiles = 16;  // small quota => the hub clears 2x the mean
  Executor<SR> exec;
  exec.plan(mask, a, b, config);
  EXPECT_GT(exec.info().hub_splits, 0);
  EXPECT_TRUE(test::csr_equal(test::reference_masked_spgemm<SR>(mask, a, b),
                              exec.execute(mask, a, b)));
  Config one_d = config;
  one_d.mode = Strategy::k1D;
  EXPECT_TRUE(test::csr_equal(masked_spgemm<SR>(mask, a, b, one_d),
                              exec.execute(mask, a, b)));
}

TEST(BlockedPlan, ValueOnlyUpdatesReuseThePlan) {
  const Problem p = make_problem(73);
  // 0: one block reading the operands in place; 6: sliced blocks.
  for (const std::int64_t width : {std::int64_t{0}, std::int64_t{6}}) {
    Config config;
    config.mode = Strategy::kBlocked;
    config.block_cols = width;
    Executor<SR> exec;
    exec.plan(p.mask, p.a, p.b, config);
    EXPECT_TRUE(
        test::csr_equal(test::reference_masked_spgemm<SR>(p.mask, p.a, p.b),
                        exec.execute(p.mask, p.a, p.b)))
        << config.describe();
    // Same structure, new values: the slices (or the aliased operands)
    // are structure-only with entry_begin indirection into the live value
    // arrays, so no replan.
    const auto a2 = scale_values(p.a, -1.5);
    const auto b2 = scale_values(p.b, 3.0);
    EXPECT_TRUE(
        test::csr_equal(test::reference_masked_spgemm<SR>(p.mask, a2, b2),
                        exec.execute(p.mask, a2, b2)))
        << config.describe();
  }
}

// ---------------------------------------------------------------------------
// Serial structure phase: below detail::kSerialPlanCutoff build_plan never
// opens a team, and parallel = false never does. Every mode must give the
// same plan.
// ---------------------------------------------------------------------------

void expect_same_slices(const std::vector<BlockSlice<I>>& x,
                        const std::vector<BlockSlice<I>>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t t = 0; t < x.size(); ++t) {
    EXPECT_EQ(x[t].row_ptr, y[t].row_ptr) << "block " << t;
    EXPECT_EQ(x[t].entry_begin, y[t].entry_begin) << "block " << t;
    EXPECT_EQ(x[t].local_cols, y[t].local_cols) << "block " << t;
  }
}

void expect_same_plan(const Plan<I>& x, const Plan<I>& y) {
  EXPECT_EQ(x.row_tiles, y.row_tiles);
  EXPECT_EQ(x.flop_total, y.flop_total);
  EXPECT_EQ(x.accumulator_bound, y.accumulator_bound);
  EXPECT_EQ(x.info.fingerprint, y.info.fingerprint);
  EXPECT_EQ(x.info.hub_splits, y.info.hub_splits);
  ASSERT_EQ(x.is_blocked(), y.is_blocked());
  if (x.is_blocked()) {
    EXPECT_EQ(x.blocked->block_begin, y.blocked->block_begin);
    EXPECT_EQ(x.blocked->max_seg_entries, y.blocked->max_seg_entries);
    expect_same_slices(x.blocked->b_blocks, y.blocked->b_blocks);
    expect_same_slices(x.blocked->m_blocks, y.blocked->m_blocks);
  }
}

TEST(PlanSerialPhase, SerialAndParallelPlansAreIdentical) {
  const Csr<double, I> small = random_symmetric_graph(60, 0.1, 5);
  const Csr<double, I> large = random_symmetric_graph(450, 0.1, 7);
  ASSERT_LT(2 * small.nnz(), detail::kSerialPlanCutoff);
  ASSERT_GE(2 * large.nnz(), detail::kSerialPlanCutoff);
  Config hybrid;
  hybrid.strategy = MaskStrategy::kHybrid;
  hybrid.num_tiles = 7;
  Config uniform = hybrid;
  uniform.tiling = Tiling::kUniform;
  Config blocked;
  blocked.mode = Strategy::kBlocked;
  blocked.block_cols = 37;
  blocked.num_tiles = 9;
  Config one_block = blocked;
  one_block.block_cols = 0;
  for (const Csr<double, I>* g : {&small, &large}) {
    const std::uint64_t fp = detail::structural_fingerprint(*g, *g, *g);
    for (const Config& config : {hybrid, uniform, blocked, one_block}) {
      SCOPED_TRACE(config.describe() + " nnz=" + std::to_string(g->nnz()));
      const Plan<I> team = detail::build_plan(*g, *g, *g, config, fp, true);
      const Plan<I> serial = detail::build_plan(*g, *g, *g, config, fp, false);
      expect_same_plan(team, serial);
    }
  }
}

// ---------------------------------------------------------------------------
// PlanCache: the iterative-algorithm front door.
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, ReplansOnlyOnStructureOrConfigChange) {
  const Problem p = make_problem(47);
  PlanCache<SR> cache;
  const Config config;

  const auto c1 = cache.execute(p.mask, p.a, p.b, config);
  (void)cache.execute(p.mask, p.a, p.b, config);
  (void)cache.execute(p.mask, p.a, p.b, config);
  EXPECT_EQ(cache.replans(), 1u);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_TRUE(test::csr_equal(c1, cache.execute(p.mask, p.a, p.b, config)));

  // Structure change: transparent replan, correct result.
  const auto mask2 = tril(p.mask);
  const auto c2 = cache.execute(mask2, p.a, p.b, config);
  EXPECT_EQ(cache.replans(), 2u);
  EXPECT_TRUE(test::csr_equal(
      test::reference_masked_spgemm<SR>(mask2, p.a, p.b), c2));

  // Config change on the same structure: also a replan.
  Config other = config;
  other.strategy = MaskStrategy::kCoIterate;
  (void)cache.execute(mask2, p.a, p.b, other);
  EXPECT_EQ(cache.replans(), 3u);
}

TEST(PlanCacheTest, KtrussSharedCacheMatchesUncached) {
  const auto adj = random_symmetric_graph(60, 0.12, 53);
  const Config config;
  const KtrussResult plain = ktruss(adj, 4, config);

  TrianglePlanCache cache;
  const KtrussResult cached = ktruss(adj, 4, config, cache);
  EXPECT_TRUE(test::csr_equal(plain.truss, cached.truss));
  EXPECT_EQ(plain.edges, cached.edges);
  EXPECT_EQ(plain.iterations, cached.iterations);
  EXPECT_EQ(cache.replans() + cache.hits(),
            static_cast<std::uint64_t>(cached.iterations));
}

TEST(PlanCacheTest, TriangleCountSharedCacheMatchesUncached) {
  const auto adj = random_symmetric_graph(60, 0.15, 59);
  TrianglePlanCache cache;
  for (const TriangleMethod method :
       {TriangleMethod::kBurkhardt, TriangleMethod::kCohen,
        TriangleMethod::kSandia}) {
    const auto plain = count_triangles(adj, method);
    EXPECT_EQ(plain, count_triangles(adj, method, Config{}, cache))
        << to_string(method);
    // Repeating the same method is a pure cache hit.
    const auto hits_before = cache.hits();
    EXPECT_EQ(plain, count_triangles(adj, method, Config{}, cache));
    EXPECT_GT(cache.hits(), hits_before);
  }
}

// ---------------------------------------------------------------------------
// Unified Config: one struct selects 1D or blocked execution.
// ---------------------------------------------------------------------------

TEST(ConfigUnification, StrategySelectionAndDescribe) {
  Config config;
  config.strategy = MaskStrategy::kCoIterate;
  EXPECT_EQ(config.mode, Strategy::k1D);
  EXPECT_EQ(config.describe().find("mode="), std::string::npos);

  config.mode = Strategy::kBlocked;
  config.block_cols = 512;
  EXPECT_NE(config.describe().find("mode=blocked"), std::string::npos);
  EXPECT_NE(config.describe().find("block-cols=512"), std::string::npos);

  Config same = config;
  EXPECT_EQ(config, same);
  same.block_cols = 1024;
  EXPECT_FALSE(config == same);
  same = config;
  same.threads = 7;
  EXPECT_FALSE(config == same);
}

}  // namespace
}  // namespace tilq
