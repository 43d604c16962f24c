// ScanStats must be a pure function of (table, query, options modulo
// parallelism): the same scan at num_threads 0 (shared pool) and 1 (inline)
// must report byte-identical stats and explain JSON
// (DESIGN.md §12). This pins down the whole reduction pipeline — per-morsel
// stats, the work_index-ordered merge, once-per-segment strategy counting —
// as scheduling-independent; TSan runs this file in CI as the stats-race
// canary.
//
// Segments here are kept at or below kDefaultMorselRows on purpose: a
// pooled scan splits larger segments into 64K-row morsels, and an RLE run
// crossing a morsel boundary is aggregated as one span per morsel — so
// runs_aggregated is partition-dependent for oversized segments. Within
// one-morsel segments every path sees identical partitions.
#include "core/scan.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "obs/plan_explain.h"
#include "storage/table.h"
#include "tests/test_util.h"

namespace bipie {
namespace {

void ExpectSameStats(const ScanStats& got, const ScanStats& base,
                     const std::string& context) {
  EXPECT_EQ(got.used_hash_fallback, base.used_hash_fallback) << context;
  EXPECT_EQ(got.segments_scanned, base.segments_scanned) << context;
  EXPECT_EQ(got.segments_eliminated, base.segments_eliminated) << context;
  EXPECT_EQ(got.batches, base.batches) << context;
  EXPECT_EQ(got.rows_scanned, base.rows_scanned) << context;
  EXPECT_EQ(got.rows_selected, base.rows_selected) << context;
  EXPECT_EQ(got.runs_aggregated, base.runs_aggregated) << context;
  EXPECT_EQ(got.rows_run_aggregated, base.rows_run_aggregated) << context;
  EXPECT_EQ(got.selection.gather, base.selection.gather) << context;
  EXPECT_EQ(got.selection.compact, base.selection.compact) << context;
  EXPECT_EQ(got.selection.special_group, base.selection.special_group)
      << context;
  EXPECT_EQ(got.selection.unfiltered, base.selection.unfiltered) << context;
  for (int a = 0; a < kNumAggregationStrategies; ++a) {
    EXPECT_EQ(got.aggregation_segments[a], base.aggregation_segments[a])
        << context << " strategy " << a;
  }
}

// Runs the scan at every parallelism model and checks stats + explain JSON
// never vary. The (thread-count-invariant) stats land in *out for extra
// checks. (ASSERT_* requires a void return, hence the out-parameter.)
void CheckDeterminism(const Table& table, const QuerySpec& query,
                      ScanStats* out, ScanOptions base_options = {}) {
  ScanStats reference{};
  std::string reference_json;
  bool first = true;
  for (const size_t threads : {size_t{0}, size_t{1}}) {
    ScanOptions options = base_options;
    options.num_threads = threads;
    BIPieScan scan(table, query, options);
    const std::string context = "num_threads=" + std::to_string(threads);

    auto explain = scan.Explain();
    ASSERT_TRUE(explain.ok()) << context;

    auto got = scan.Execute();
    ASSERT_TRUE(got.ok()) << context << ": " << got.status().ToString();
    BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());

    if (first) {
      reference = scan.stats();
      reference_json = explain.value().ToJson();
      first = false;
    } else {
      ExpectSameStats(scan.stats(), reference, context);
      EXPECT_EQ(explain.value().ToJson(), reference_json) << context;
    }
  }
  *out = reference;
}

// Mixed-width table with a dictionary group column; segments of
// `segment_rows` rows (keep <= kDefaultMorselRows, see file comment).
Table MakeMixedTable(size_t rows, size_t segment_rows, uint64_t seed) {
  Table table({
      {"g", ColumnType::kString},
      {"narrow", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"wide", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"filter_col", ColumnType::kInt64, EncodingChoice::kBitPacked},
  });
  TableAppender app(&table, segment_rows);
  Rng rng(seed);
  const char* groups[5] = {"a", "b", "c", "d", "e"};
  for (size_t i = 0; i < rows; ++i) {
    std::vector<int64_t> ints(4, 0);
    std::vector<std::string> strings(4);
    strings[0] = groups[rng.NextBounded(5)];
    ints[1] = rng.NextInRange(0, 127);
    ints[2] = rng.NextInRange(0, (1 << 24) - 1);
    ints[3] = rng.NextInRange(0, 999);
    app.AppendRow(ints, strings);
  }
  app.Flush();
  return table;
}

Table MakeRunTable(size_t rows, size_t segment_rows) {
  Table table({
      {"g", ColumnType::kInt64, EncodingChoice::kRle},
      {"f", ColumnType::kInt64, EncodingChoice::kRle},
      {"amount", ColumnType::kInt64, EncodingChoice::kRle},
  });
  TableAppender app(&table, segment_rows);
  for (size_t i = 0; i < rows; ++i) {
    app.AppendRow({static_cast<int64_t>((i / 5000) % 4),
                   static_cast<int64_t>((i / 3500) % 3),
                   static_cast<int64_t>((i / 2000) % 40)});
  }
  app.Flush();
  return table;
}

TEST(StatsDeterminismTest, FilteredGroupByAcrossThreadCounts) {
  Table table = MakeMixedTable(40000, 8192, 9001);
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("narrow"),
                      AggregateSpec::Sum("wide")};
  query.filters.emplace_back("filter_col", CompareOp::kLt, int64_t{400});
  ScanStats stats{};
  CheckDeterminism(table, query, &stats);
  EXPECT_GT(stats.batches, 0u);
  EXPECT_LT(stats.rows_selected, stats.rows_scanned);
}

TEST(StatsDeterminismTest, UnfilteredScanAcrossThreadCounts) {
  Table table = MakeMixedTable(30000, 4096, 9002);
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("narrow")};
  ScanStats stats{};
  CheckDeterminism(table, query, &stats);
  EXPECT_EQ(stats.rows_selected, stats.rows_scanned);
}

TEST(StatsDeterminismTest, RunBasedScanAcrossThreadCounts) {
  // One-morsel segments: run spans never cross a pooled morsel boundary, so
  // runs_aggregated is identical across both execution models.
  Table table = MakeRunTable(60000, size_t{1} << 16);
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("amount")};
  query.filters.emplace_back("f", CompareOp::kLt, int64_t{2});
  ScanStats stats{};
  CheckDeterminism(table, query, &stats);
  EXPECT_GT(stats.runs_aggregated, 0u);
  EXPECT_EQ(stats.batches, 0u);
}

TEST(StatsDeterminismTest, HashFallbackAcrossThreadCounts) {
  Table table({{"g1", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"g2", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4096);
  Rng rng(9003);
  for (int i = 0; i < 20000; ++i) {
    app.AppendRow({rng.NextInRange(0, 39), rng.NextInRange(0, 19),
                   rng.NextInRange(0, 99)});
  }
  app.Flush();
  QuerySpec query;
  query.group_by = {"g1", "g2"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("x")};
  ScanStats stats{};
  CheckDeterminism(table, query, &stats);
  EXPECT_TRUE(stats.used_hash_fallback);
}

TEST(StatsDeterminismTest, EliminationAcrossThreadCounts) {
  Table table = MakeMixedTable(20000, 4096, 9004);
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count()};
  query.filters.emplace_back("filter_col", CompareOp::kLt, int64_t{-1});
  ScanStats stats{};
  CheckDeterminism(table, query, &stats);
  EXPECT_EQ(stats.segments_scanned, 0u);
  EXPECT_GT(stats.segments_eliminated, 0u);
}

// Regression: under morsel execution a segment is scanned by many morsels,
// but its aggregation strategy must be counted exactly once (strategies are
// counted from the segment plans, one per scanned segment, not per morsel).
// Tiny one-batch morsels maximize the over-counting surface.
TEST(StatsDeterminismTest, AggregationSegmentsCountedOncePerSegment) {
  Table table = MakeMixedTable(60000, 8192, 9005);
  const size_t num_segments = table.num_segments();
  ASSERT_GT(num_segments, 4u);
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("narrow")};
  query.filters.emplace_back("filter_col", CompareOp::kLt, int64_t{700});

  for (const size_t morsel_rows : {size_t{4096}, size_t{8192}}) {
    ScanOptions options;
    options.num_threads = 0;  // pooled: segments split into morsels
    options.morsel_rows = morsel_rows;
    BIPieScan scan(table, query, options);
    auto got = scan.Execute();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
    const std::string context = "morsel_rows=" + std::to_string(morsel_rows);
    size_t total = 0;
    for (int a = 0; a < kNumAggregationStrategies; ++a) {
      total += scan.stats().aggregation_segments[a];
    }
    EXPECT_EQ(total, num_segments) << context;
    EXPECT_EQ(scan.stats().segments_scanned, num_segments) << context;
  }
}

}  // namespace
}  // namespace bipie
