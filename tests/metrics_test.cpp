// Tests for the observability layer (support/metrics.hpp, support/trace.hpp):
// counter aggregation across threads against hand-computed event counts,
// agreement with ExecutionStats, the disabled mode counting nothing, the
// JSON-lines record format, and Chrome-trace JSON validity. Every test
// skips itself when the instrumentation is compiled out (TILQ_METRICS=OFF).
#include "support/metrics.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "core/engine.hpp"
#include "core/masked_spgemm.hpp"
#include "support/trace.hpp"
#include "test_util.hpp"

namespace tilq {
namespace {

using I = std::int64_t;
using SR = PlusTimes<double>;

// --- minimal JSON validator ----------------------------------------------
// Recursive-descent acceptor for the JSON grammar subset the sinks emit
// (objects, arrays, strings without escapes-beyond-\", numbers, literals).
// Shares no code with the serializers, so acceptance is meaningful.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  [[nodiscard]] bool valid() {
    skip_ws();
    if (!value()) {
      return false;
    }
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  [[nodiscard]] bool value() {
    if (pos_ >= text_.size()) {
      return false;
    }
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }

  [[nodiscard]] bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) {
        return false;
      }
      skip_ws();
      if (peek() != ':') {
        return false;
      }
      ++pos_;
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  [[nodiscard]] bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) {
        return false;
      }
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  [[nodiscard]] bool string() {
    if (peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        ++pos_;  // accept any escaped character
      }
      ++pos_;
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing '"'
    return true;
  }

  [[nodiscard]] bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

// --- hand-computed expectations ------------------------------------------

/// Mask-first FLOP count (Eq 2's dominant term): every B[k,:] entry is
/// read once per A[i,k] nonzero, for every row whose mask is non-empty.
std::uint64_t expected_mask_first_flops(const Csr<double, I>& mask,
                                        const Csr<double, I>& a,
                                        const Csr<double, I>& b) {
  std::uint64_t flops = 0;
  for (I i = 0; i < a.rows(); ++i) {
    if (mask.row_cols(i).empty()) {
      continue;
    }
    for (const I k : a.row_cols(i)) {
      flops += b.row_cols(k).size();
    }
  }
  return flops;
}

/// Hand count of the hybrid kernel's picks: Eq 3's κ test over every (i, k)
/// with A[i,k] ≠ 0 and a non-empty M[i,:], so the two kinds partition those
/// pairs.
struct HybridPicks {
  std::uint64_t coiterate = 0;
  std::uint64_t linear = 0;
};

HybridPicks expected_hybrid_picks(const Csr<double, I>& mask,
                                  const Csr<double, I>& a,
                                  const Csr<double, I>& b, double kappa) {
  HybridPicks picks;
  for (I i = 0; i < a.rows(); ++i) {
    const auto mask_nnz = static_cast<std::int64_t>(mask.row_nnz(i));
    if (mask_nnz == 0) {
      continue;
    }
    for (const I k : a.row_cols(i)) {
      const auto b_nnz = static_cast<std::int64_t>(b.row_nnz(k));
      if (detail::prefer_coiteration(mask_nnz, b_nnz, kappa)) {
        ++picks.coiterate;
      } else {
        ++picks.linear;
      }
    }
  }
  return picks;
}

/// Sparse random matrix plus a few dense hub rows and columns, so that
/// sparse rows meet hub B rows (co-iteration) and hub mask rows meet
/// sparse B rows (linear scan). Rows divisible by `empty_every` hold no
/// entries, which empties those mask rows when the matrix is the mask.
Csr<double, I> hub_matrix(I n, std::uint64_t seed, I empty_every) {
  Xoshiro256 rng(seed);
  const auto hub = [n](I v) { return v == 1 || v == n / 2 || v == n - 2; };
  Coo<double, I> coo(n, n);
  for (I i = 0; i < n; ++i) {
    if (i % empty_every == 0) {
      continue;
    }
    for (I j = 0; j < n; ++j) {
      const double density = hub(i) || hub(j) ? 0.9 : 0.04;
      if (rng.bernoulli(density)) {
        coo.push_unchecked(i, j, static_cast<double>(1 + rng.uniform_below(9)));
      }
    }
  }
  return build_csr(coo, DupPolicy::kError);
}

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kMetricsCompiled) {
      GTEST_SKIP() << "instrumentation compiled out (TILQ_METRICS=OFF)";
    }
    set_metrics_enabled(true);
    metrics_reset();
  }

  void TearDown() override {
    set_metrics_enabled(false);
    set_trace_path("");
    trace_clear();
  }
};

TEST_F(MetricsTest, MaskFirstFlopsMatchHandCount) {
  const auto a = test::random_matrix<double, I>(80, 80, 0.06, 7);
  Config config;
  config.strategy = MaskStrategy::kMaskFirst;
  (void)masked_spgemm<SR>(a, a, a, config);

  const MetricsSnapshot snapshot = metrics_snapshot();
  EXPECT_EQ(snapshot.total.flops, expected_mask_first_flops(a, a, a));
  EXPECT_EQ(snapshot.total.rows_processed,
            static_cast<std::uint64_t>(a.rows()));
  EXPECT_EQ(snapshot.total.binary_search_steps, 0u)
      << "mask-first performs no binary searches";
  EXPECT_GT(snapshot.total.accum_inserts, 0u);
}

TEST_F(MetricsTest, TotalsEqualPerThreadSumAcrossThreads) {
  const auto a = test::random_matrix<double, I>(120, 120, 0.05, 11);
  Config config;
  config.strategy = MaskStrategy::kMaskFirst;
  config.threads = 4;
  config.num_tiles = 16;
  ExecutionStats stats;
  (void)masked_spgemm<SR>(a, a, a, config, stats);

  const MetricsSnapshot snapshot = metrics_snapshot();
  MetricCounters summed;
  for (const ThreadMetrics& thread : snapshot.per_thread) {
    EXPECT_FALSE(thread.counters.all_zero())
        << "all-zero threads must be omitted from per_thread";
    summed += thread.counters;
  }
  EXPECT_EQ(summed.flops, snapshot.total.flops);
  EXPECT_EQ(summed.accum_inserts, snapshot.total.accum_inserts);
  EXPECT_EQ(summed.tiles_executed, snapshot.total.tiles_executed);
  EXPECT_EQ(summed.rows_processed, snapshot.total.rows_processed);

  // Counters and ExecutionStats are two views of the same events.
  EXPECT_EQ(snapshot.total.tiles_executed,
            static_cast<std::uint64_t>(stats.tiles));
  EXPECT_EQ(snapshot.total.accum_inserts, stats.accum_inserts);
  EXPECT_EQ(snapshot.total.accum_rejects, stats.accum_rejects);
  EXPECT_EQ(snapshot.total.hash_probes, stats.hash_probes);
  EXPECT_EQ(snapshot.total.hash_collisions, stats.hash_collisions);
  EXPECT_EQ(snapshot.total.marker_row_resets, stats.marker_row_resets);
  EXPECT_EQ(snapshot.total.explicit_reset_slots, stats.explicit_reset_slots);
  EXPECT_EQ(snapshot.total.marker_overflow_resets,
            stats.accumulator_full_resets);
}

TEST_F(MetricsTest, CoIterationCountsBinarySearchSteps) {
  const auto a = test::random_matrix<double, I>(60, 60, 0.1, 13);
  Config config;
  config.strategy = MaskStrategy::kCoIterate;
  (void)masked_spgemm<SR>(a, a, a, config);
  EXPECT_GT(metrics_snapshot().total.binary_search_steps, 0u);
}

TEST_F(MetricsTest, HybridDecisionsPartitionTheIterationPairs) {
  // The inline picks are Eq 3 itself, pair by pair, on both the one-shot
  // and the Engine path (the Engine plans and runs the same kernels).
  Config config;
  config.strategy = MaskStrategy::kHybrid;
  const Csr<double, I> mask = hub_matrix(120, 23, 11);
  const Csr<double, I> g = hub_matrix(120, 29, 1000);
  EngineOptions options;
  options.threads = 2;
  Engine<SR> engine(options);
  for (const double kappa : {0.25, 1.0, 4.0}) {
    SCOPED_TRACE(kappa);
    const HybridPicks expected = expected_hybrid_picks(mask, g, g, kappa);
    EXPECT_GT(expected.coiterate, 0u);
    EXPECT_GT(expected.linear, 0u);
    config.coiteration_factor = kappa;

    MetricsSnapshot before = metrics_snapshot();
    (void)masked_spgemm<SR>(mask, g, g, config);
    MetricsSnapshot delta = metrics_delta(before, metrics_snapshot());
    EXPECT_EQ(delta.total.hybrid_coiter_picks, expected.coiterate);
    EXPECT_EQ(delta.total.hybrid_linear_picks, expected.linear);

    before = metrics_snapshot();
    (void)engine.submit(mask, g, g, config).get();
    delta = metrics_delta(before, metrics_snapshot());
    EXPECT_EQ(delta.total.hybrid_coiter_picks, expected.coiterate);
    EXPECT_EQ(delta.total.hybrid_linear_picks, expected.linear);
  }
}

TEST_F(MetricsTest, DisabledAtRuntimeCountsNothing) {
  set_metrics_enabled(false);
  const auto a = test::random_matrix<double, I>(50, 50, 0.1, 19);
  (void)masked_spgemm<SR>(a, a, a, Config{});
  const MetricsSnapshot snapshot = metrics_snapshot();
  EXPECT_TRUE(snapshot.total.all_zero());
  EXPECT_TRUE(snapshot.per_thread.empty());
}

TEST_F(MetricsTest, ResetClearsEveryThreadSlot) {
  const auto a = test::random_matrix<double, I>(50, 50, 0.1, 23);
  Config config;
  config.threads = 2;
  (void)masked_spgemm<SR>(a, a, a, config);
  ASSERT_FALSE(metrics_snapshot().total.all_zero());
  metrics_reset();
  EXPECT_TRUE(metrics_snapshot().total.all_zero());
}

TEST_F(MetricsTest, DeltaIsolatesOneMeasuredRegion) {
  const auto a = test::random_matrix<double, I>(50, 50, 0.1, 29);
  Config config;
  config.strategy = MaskStrategy::kMaskFirst;
  (void)masked_spgemm<SR>(a, a, a, config);  // counted, then excluded
  const MetricsSnapshot before = metrics_snapshot();
  (void)masked_spgemm<SR>(a, a, a, config);
  const MetricsSnapshot delta = metrics_delta(before, metrics_snapshot());
  EXPECT_EQ(delta.total.flops, expected_mask_first_flops(a, a, a));
}

TEST_F(MetricsTest, BlockedDriverCountsCells) {
  // Every blocked cell runs the direct window, which counts flops but no
  // accumulator events.
  const auto mask = test::random_matrix<double, I>(64, 8192, 0.001, 31);
  const auto a = test::random_matrix<double, I>(64, 64, 0.2, 32);
  const auto b = test::random_matrix<double, I>(64, 8192, 0.02, 33);
  Config config;
  config.strategy = MaskStrategy::kMaskFirst;
  config.mode = Strategy::kBlocked;
  config.block_cols = 4096;
  config.num_tiles = 4;
  ExecutionStats stats;
  (void)masked_spgemm<SR>(mask, a, b, config, stats);
  ASSERT_GT(stats.tiles, 0);

  const MetricsSnapshot snapshot = metrics_snapshot();
  EXPECT_EQ(snapshot.total.tiles_executed,
            static_cast<std::uint64_t>(stats.tiles));
  EXPECT_GT(snapshot.total.flops, 0u);
  EXPECT_EQ(stats.accum_inserts, 0u);
  EXPECT_EQ(snapshot.total.accum_inserts, 0u);
}

TEST_F(MetricsTest, RecordFormatsAsSchemaFourJson) {
  const auto a = test::random_matrix<double, I>(50, 50, 0.1, 37);
  Config config;
  config.threads = 2;
  (void)masked_spgemm<SR>(a, a, a, config);

  MetricsRecord record;
  record.source = "metrics_test";
  record.matrix = "random50 \"quoted\"";  // exercises string escaping
  record.config = config.describe();
  record.runs = 1;
  record.median_ms = 1.25;
  const std::string line = format_metrics_record(record, metrics_snapshot());

  EXPECT_TRUE(JsonChecker(line).valid()) << line;
  EXPECT_EQ(line.find("{\"tilq_metrics\":4,"), 0u);
  for (const char* field :
       {"\"source\"", "\"matrix\"", "\"config\"", "\"runs\"", "\"median_ms\"",
        "\"counters\"", "\"hw\"", "\"imbalance\"", "\"threads\"", "\"flops\"",
        "\"accum_inserts\"", "\"binary_search_steps\"", "\"tiles_executed\"",
        "\"rows_processed\"", "\"busy_ns\"", "\"engine_jobs\"",
        "\"engine_steals\""}) {
    EXPECT_NE(line.find(field), std::string::npos) << "missing " << field;
  }
}

TEST_F(MetricsTest, RecordCarriesImbalanceAndExplicitHwNull) {
  const auto a = test::random_matrix<double, I>(60, 60, 0.08, 59);
  Config config;
  config.threads = 2;
  config.num_tiles = 8;
  (void)masked_spgemm<SR>(a, a, a, config);
  const MetricsSnapshot snapshot = metrics_snapshot();

  // The drivers always record per-thread busy time, so the imbalance
  // object must be a populated object, never null, after a kernel run.
  EXPECT_GT(snapshot.total.busy_ns, 0u);
  MetricsRecord record;
  record.source = "metrics_test";
  record.runs = 1;
  const std::string line = format_metrics_record(record, snapshot);
  EXPECT_TRUE(JsonChecker(line).valid()) << line;
  EXPECT_EQ(line.find("\"imbalance\":null"), std::string::npos) << line;
  EXPECT_NE(line.find("\"imbalance\":{\"threads\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"max_busy_ms\""), std::string::npos);
  EXPECT_NE(line.find("\"ratio\""), std::string::npos);
  EXPECT_NE(line.find("\"cv\""), std::string::npos);

  // hw is either a populated object (perf counters readable) or an
  // explicit null (the fallback contract) — never absent.
  if (snapshot.hw_total.all_zero()) {
    EXPECT_NE(line.find("\"hw\":null"), std::string::npos) << line;
  } else {
    EXPECT_NE(line.find("\"hw\":{\"cycles\":"), std::string::npos) << line;
  }
}

TEST_F(MetricsTest, EmptySnapshotEmitsNullHwAndImbalance) {
  metrics_reset();
  MetricsRecord record;
  record.source = "metrics_test";
  const std::string line = format_metrics_record(record, metrics_snapshot());
  EXPECT_TRUE(JsonChecker(line).valid()) << line;
  EXPECT_NE(line.find("\"hw\":null"), std::string::npos);
  EXPECT_NE(line.find("\"imbalance\":null"), std::string::npos);
}

TEST_F(MetricsTest, ExecutionStatsCarryPerThreadWork) {
  const auto a = test::random_matrix<double, I>(120, 120, 0.05, 61);
  Config config;
  config.threads = 2;
  config.num_tiles = 8;
  ExecutionStats stats;
  (void)masked_spgemm<SR>(a, a, a, config, stats);

  ASSERT_FALSE(stats.thread_work.empty());
  EXPECT_LE(stats.thread_work.size(), 2u);
  std::int64_t tiles = 0;
  std::int64_t rows = 0;
  for (std::size_t t = 0; t < stats.thread_work.size(); ++t) {
    EXPECT_EQ(stats.thread_work[t].thread, static_cast<int>(t));
    tiles += stats.thread_work[t].tiles;
    rows += stats.thread_work[t].rows;
  }
  EXPECT_EQ(tiles, stats.tiles);
  EXPECT_EQ(rows, static_cast<std::int64_t>(a.rows()));
  EXPECT_GE(stats.imbalance_ratio, 1.0);
  EXPECT_GE(stats.busy_cv, 0.0);

  // The same invariants through the blocked driver: every row is visited
  // once per column block (120 columns in 40-column blocks).
  Config blocked = config;
  blocked.mode = Strategy::kBlocked;
  blocked.block_cols = 40;
  ExecutionStats blocked_stats;
  (void)masked_spgemm<SR>(a, a, a, blocked, blocked_stats);
  std::int64_t blocked_rows = 0;
  for (const ThreadWork& t : blocked_stats.thread_work) {
    blocked_rows += t.rows;
  }
  EXPECT_EQ(blocked_rows, static_cast<std::int64_t>(a.rows()) * 3);
  EXPECT_GE(blocked_stats.imbalance_ratio, 1.0);
}

TEST_F(MetricsTest, HwDeltaMachineryIsConsistent) {
  // Whether or not the machine grants perf counters, the snapshot/delta
  // algebra over hw must hold: delta(before, after) isolates the region.
  HwCounters a;
  a.cycles = 100;
  a.llc_misses = 7;
  HwCounters b = a;
  b.cycles = 250;
  b.instructions = 40;
  const HwCounters d = b.minus(a);
  EXPECT_EQ(d.cycles, 150u);
  EXPECT_EQ(d.instructions, 40u);
  EXPECT_EQ(d.llc_misses, 0u);
  EXPECT_FALSE(d.all_zero());
  EXPECT_TRUE(a.minus(b).all_zero() || a.minus(b).cycles == 0u);

  MetricsSnapshot before;
  MetricsSnapshot after;
  after.hw_total = b;
  after.per_thread.push_back({0, MetricCounters{}, b});
  before.hw_total = a;
  before.per_thread.push_back({0, MetricCounters{}, a});
  const MetricsSnapshot delta = metrics_delta(before, after);
  EXPECT_EQ(delta.hw_total.cycles, 150u);
  ASSERT_EQ(delta.per_thread.size(), 1u);
  EXPECT_EQ(delta.per_thread[0].hw.cycles, 150u);
}

TEST_F(MetricsTest, SinkFileReceivesOneLinePerRecord) {
  const std::string path = ::testing::TempDir() + "tilq_metrics_sink.jsonl";
  std::remove(path.c_str());
  set_metrics_sink_path(path);

  const auto a = test::random_matrix<double, I>(40, 40, 0.1, 41);
  (void)masked_spgemm<SR>(a, a, a, Config{});
  MetricsRecord record;
  record.source = "metrics_test";
  record.runs = 1;
  emit_metrics_record(record, metrics_snapshot());
  emit_metrics_record(record, metrics_snapshot());
  set_metrics_sink_path("");

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_TRUE(JsonChecker(line).valid()) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2);
  std::remove(path.c_str());
}

TEST_F(MetricsTest, TraceFileIsLoadableChromeJson) {
  const std::string path = ::testing::TempDir() + "tilq_trace.json";
  std::remove(path.c_str());
  trace_clear();
  set_trace_path(path);

  const auto a = test::random_matrix<double, I>(50, 50, 0.1, 43);
  Config config;
  config.num_tiles = 4;
  (void)masked_spgemm<SR>(a, a, a, config);
  ASSERT_TRUE(trace_flush());
  EXPECT_GE(trace_event_count(), 3u) << "phases + tiles expected";

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_TRUE(JsonChecker(text).valid()) << text.substr(0, 400);
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"spgemm.compute\""), std::string::npos);
  EXPECT_NE(text.find("\"tile\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(MetricsTest, DisabledTraceRecordsNoSpans) {
  set_trace_path("");
  trace_clear();
  const auto a = test::random_matrix<double, I>(40, 40, 0.1, 47);
  (void)masked_spgemm<SR>(a, a, a, Config{});
  EXPECT_EQ(trace_event_count(), 0u);
}

// Compiled-out builds still expose the whole API as no-ops; this test runs
// in BOTH modes and pins down the "no-op mode returns zeros" contract.
TEST(MetricsNoOp, SnapshotIsZeroWhenNothingCounts) {
  set_metrics_enabled(false);
  metrics_reset();  // drop counts left behind by the gated fixture tests
  const auto a = test::random_matrix<double, I>(30, 30, 0.1, 53);
  (void)masked_spgemm<SR>(a, a, a, Config{});
  const MetricsSnapshot snapshot = metrics_snapshot();
  EXPECT_TRUE(snapshot.total.all_zero());
  EXPECT_TRUE(snapshot.per_thread.empty());
  EXPECT_TRUE(metrics_delta(snapshot, snapshot).total.all_zero());
}

}  // namespace
}  // namespace tilq
