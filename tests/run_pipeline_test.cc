// Run-level execution (DESIGN.md §11) end-to-end: scans whose group and
// filter columns are RLE-clustered must take the kRunBased path, produce
// results byte-identical to the generic hash-aggregation engine, and fall
// back cleanly (with honest stats) whenever a morsel leaves the run-span
// envelope — deleted rows, forced selection, non-run columns.
//
// The tables here are built so RLE runs are longer than kBatchRows and the
// pooled scan is pinned to one-batch morsels, so every interesting case
// crosses batch AND morsel boundaries mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baseline/hash_agg.h"
#include "common/random.h"
#include "core/scan.h"
#include "tests/test_util.h"

namespace bipie {
namespace {

void ExpectSameResults(const QueryResult& got, const QueryResult& expected,
                       const std::string& context) {
  ASSERT_EQ(got.rows.size(), expected.rows.size()) << context;
  for (size_t r = 0; r < got.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].group, expected.rows[r].group)
        << context << " row " << r;
    ASSERT_EQ(got.rows[r].count, expected.rows[r].count)
        << context << " row " << r;
    ASSERT_EQ(got.rows[r].sums, expected.rows[r].sums)
        << context << " row " << r;
  }
}

// RLE-clustered table: group, second group, filter and one aggregate column
// are long-run RLE (every run longer than kBatchRows = 4096); `x` stays
// bit-packed random so the span-unpack SUM kernel is exercised too.
Table MakeRunTable(size_t rows, size_t segment_rows, uint64_t seed) {
  Table table({
      {"g", ColumnType::kInt64, EncodingChoice::kRle},
      {"g2", ColumnType::kInt64, EncodingChoice::kRle},
      {"f", ColumnType::kInt64, EncodingChoice::kRle},
      {"amount", ColumnType::kInt64, EncodingChoice::kRle},
      {"x", ColumnType::kInt64, EncodingChoice::kBitPacked},
  });
  TableAppender app(&table, segment_rows);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    const auto g = static_cast<int64_t>((i / 10000) % 5);
    const auto g2 = static_cast<int64_t>((i / 25000) % 3);
    const auto f = static_cast<int64_t>((i / 7000) % 4);
    const auto amount = static_cast<int64_t>((i / 6000) % 100) - 50;
    app.AppendRow({g, g2, f, amount, rng.NextInRange(0, 9999)});
  }
  app.Flush();
  return table;
}

QuerySpec MakeRunQuery(bool with_filter) {
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("x"),
                      AggregateSpec::Sum("amount"),
                      AggregateSpec::Min("amount"),
                      AggregateSpec::Max("amount")};
  if (with_filter) {
    query.filters.emplace_back("f", CompareOp::kLt, int64_t{2});
  }
  return query;
}

TEST(RunPipelineTest, RunsCrossBatchAndMorselBoundaries) {
  // Two segments, runs of 10000 rows, one-batch morsels: every run spans
  // multiple batches and multiple pooled morsels.
  const size_t rows = 200000;
  Table table = MakeRunTable(rows, size_t{1} << 17, 7001);
  ASSERT_EQ(table.num_segments(), 2u);
  for (const bool with_filter : {false, true}) {
    QuerySpec query = MakeRunQuery(with_filter);
    auto expected = ExecuteQueryHashAgg(table, query);
    ASSERT_TRUE(expected.ok());
    for (const size_t threads : {size_t{0}, size_t{1}}) {
      ScanOptions options;
      options.num_threads = threads;
      options.morsel_rows = kBatchRows;
      BIPieScan scan(table, query, options);
      auto got = scan.Execute();
      ASSERT_TRUE(got.ok()) << got.status().message();
      BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
      const std::string context = "threads=" + std::to_string(threads) +
                                  " filter=" + std::to_string(with_filter);
      ExpectSameResults(got.value(), expected.value(), context);
      const ScanStats& stats = scan.stats();
      EXPECT_EQ(stats.aggregation_segments[static_cast<int>(
                    AggregationStrategy::kRunBased)],
                table.num_segments())
          << context;
      EXPECT_EQ(stats.batches, 0u) << context;
      EXPECT_GT(stats.runs_aggregated, 0u) << context;
      EXPECT_EQ(stats.rows_scanned, rows) << context;
      EXPECT_EQ(stats.rows_run_aggregated, stats.rows_selected) << context;
      if (with_filter) {
        EXPECT_LT(stats.rows_selected, rows) << context;
      } else {
        EXPECT_EQ(stats.rows_selected, rows) << context;
      }
    }
  }
}

TEST(RunPipelineTest, DeletedRowInsideRunFallsBackToRowLevel) {
  Table table = MakeRunTable(200000, size_t{1} << 17, 7002);
  ASSERT_EQ(table.num_segments(), 2u);
  // A single deleted row in the middle of a run disqualifies segment 0 from
  // the run path; segment 1 stays run-based.
  table.mutable_segment(0).DeleteRow(12345);
  QuerySpec query = MakeRunQuery(/*with_filter=*/true);
  auto expected = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(expected.ok());
  for (const size_t threads : {size_t{0}, size_t{1}}) {
    ScanOptions options;
    options.num_threads = threads;
    options.morsel_rows = kBatchRows;
    BIPieScan scan(table, query, options);
    auto got = scan.Execute();
    ASSERT_TRUE(got.ok()) << got.status().message();
    BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
    const std::string context = "threads=" + std::to_string(threads);
    ExpectSameResults(got.value(), expected.value(), context);
    const ScanStats& stats = scan.stats();
    EXPECT_EQ(stats.aggregation_segments[static_cast<int>(
                  AggregationStrategy::kRunBased)],
              1u)
        << context;
    // The deleted-row segment went through the batch loop; the clean one
    // never did.
    EXPECT_GT(stats.batches, 0u) << context;
    EXPECT_GT(stats.runs_aggregated, 0u) << context;
    EXPECT_EQ(stats.rows_scanned, 200000u) << context;
    EXPECT_LT(stats.rows_run_aggregated,
              table.segment(1).num_rows() + 1)
        << context;
  }
}

TEST(RunPipelineTest, ForcedRunBasedOnIneligibleDataIsNotSupported) {
  Table table = MakeRunTable(60000, size_t{1} << 17, 7003);
  table.mutable_segment(0).DeleteRow(1);
  QuerySpec query = MakeRunQuery(/*with_filter=*/false);
  ScanOptions options;
  options.overrides.aggregation = AggregationStrategy::kRunBased;
  auto got = test::ExecuteChecked(table, query, options);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotSupported);
}

TEST(RunPipelineTest, ForcedSelectionDisablesRunPath) {
  // A forced selection strategy pins the row-level machinery, so admission
  // must refuse the run path and the scan must still be exact.
  Table table = MakeRunTable(60000, size_t{1} << 17, 7004);
  QuerySpec query = MakeRunQuery(/*with_filter=*/true);
  auto expected = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(expected.ok());
  ScanOptions options;
  options.overrides.selection = SelectionStrategy::kGather;
  BIPieScan scan(table, query, options);
  auto got = scan.Execute();
  ASSERT_TRUE(got.ok()) << got.status().message();
  BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
  ExpectSameResults(got.value(), expected.value(), "forced-selection");
  EXPECT_EQ(scan.stats().runs_aggregated, 0u);
  EXPECT_EQ(scan.stats().aggregation_segments[static_cast<int>(
                AggregationStrategy::kRunBased)],
            0u);
}

TEST(RunPipelineTest, ForcedRunBasedMatchesHashAgg) {
  Table table = MakeRunTable(120000, size_t{1} << 17, 7005);
  for (const bool with_filter : {false, true}) {
    QuerySpec query = MakeRunQuery(with_filter);
    auto expected = ExecuteQueryHashAgg(table, query);
    ASSERT_TRUE(expected.ok());
    ScanOptions options;
    options.overrides.aggregation = AggregationStrategy::kRunBased;
    options.num_threads = 0;
    options.morsel_rows = kBatchRows;
    BIPieScan scan(table, query, options);
    auto got = scan.Execute();
    ASSERT_TRUE(got.ok()) << got.status().message();
    BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
    ExpectSameResults(got.value(), expected.value(),
                      "forced filter=" + std::to_string(with_filter));
    EXPECT_GT(scan.stats().rows_run_aggregated, 0u);
  }
}

TEST(RunPipelineTest, CountOnlyCollapsesToRunMetadata) {
  Table table = MakeRunTable(120000, size_t{1} << 17, 7006);
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count()};
  query.filters.emplace_back("f", CompareOp::kGe, int64_t{1});
  auto expected = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(expected.ok());
  BIPieScan scan(table, query, {});
  auto got = scan.Execute();
  ASSERT_TRUE(got.ok()) << got.status().message();
  BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
  ExpectSameResults(got.value(), expected.value(), "count-only");
  // No aggregate column is ever decoded: pure span arithmetic.
  EXPECT_EQ(scan.stats().batches, 0u);
  EXPECT_GT(scan.stats().runs_aggregated, 0u);
}

TEST(RunPipelineTest, TwoRleGroupColumns) {
  Table table = MakeRunTable(120000, size_t{1} << 17, 7007);
  QuerySpec query = MakeRunQuery(/*with_filter=*/true);
  query.group_by = {"g", "g2"};
  auto expected = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(expected.ok());
  BIPieScan scan(table, query, {});
  auto got = scan.Execute();
  ASSERT_TRUE(got.ok()) << got.status().message();
  BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
  ExpectSameResults(got.value(), expected.value(), "two-col");
  EXPECT_GT(scan.stats().runs_aggregated, 0u);
}

TEST(RunPipelineTest, MetadataSatisfiedFilterStaysOnRunPath) {
  Table table = MakeRunTable(120000, size_t{1} << 17, 7008);
  QuerySpec query = MakeRunQuery(/*with_filter=*/true);
  // The bit-packed column's full value range: provably all-true from
  // metadata, so it must not force the row-level path.
  query.filters.emplace_back("x", CompareOp::kLe, int64_t{10000});
  auto expected = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(expected.ok());
  BIPieScan scan(table, query, {});
  auto got = scan.Execute();
  ASSERT_TRUE(got.ok()) << got.status().message();
  BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
  ExpectSameResults(got.value(), expected.value(), "metadata-filter");
  EXPECT_GT(scan.stats().runs_aggregated, 0u);
  EXPECT_EQ(scan.stats().batches, 0u);
}

TEST(RunPipelineTest, SelectiveFilterOnBitPackedColumnFallsBack) {
  // A genuinely selective predicate on a non-RLE column has no run
  // representation; the scan must quietly use the row-level path.
  Table table = MakeRunTable(60000, size_t{1} << 17, 7009);
  QuerySpec query = MakeRunQuery(/*with_filter=*/false);
  query.filters.emplace_back("x", CompareOp::kLt, int64_t{5000});
  auto expected = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(expected.ok());
  BIPieScan scan(table, query, {});
  auto got = scan.Execute();
  ASSERT_TRUE(got.ok()) << got.status().message();
  BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
  ExpectSameResults(got.value(), expected.value(), "selective-bitpacked");
  EXPECT_EQ(scan.stats().runs_aggregated, 0u);
  EXPECT_GT(scan.stats().batches, 0u);
}

TEST(RunPipelineTest, ShuffledGroupsNeverAdmitRunPath) {
  // Random group values never encode as RLE, so the run path must not be
  // chosen (this is the zero-regression guarantee for unsorted data).
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kAuto},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, size_t{1} << 16);
  Rng rng(7010);
  for (size_t i = 0; i < 100000; ++i) {
    app.AppendRow({static_cast<int64_t>(rng.NextBounded(8)),
                   rng.NextInRange(0, 999)});
  }
  app.Flush();
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("x")};
  BIPieScan scan(table, query, {});
  auto got = scan.Execute();
  ASSERT_TRUE(got.ok()) << got.status().message();
  BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
  EXPECT_EQ(scan.stats().runs_aggregated, 0u);
  EXPECT_EQ(scan.stats().aggregation_segments[static_cast<int>(
                AggregationStrategy::kRunBased)],
            0u);
}

// Run admission reads span length only, never filter selectivity. On
// 17-row runs with a filter passing ~2% of them, the 8-row span floor
// admits run-based execution. That is the faster choice here: on this
// table (one thread, 60 000 and 2^20 rows, fastest of 201 scans in each
// of 3 rounds, 4-vCPU AVX-512 VBMI Xeon) run-based took 1.61-2.07
// clocks/row, and the sort-based plan a selectivity-aware cost model
// picked took 4.06-5.08.
TEST(RunPipelineTest, ShortSpansUnderSelectiveFilterStayRunBased) {
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kRle},
               {"f", ColumnType::kInt64, EncodingChoice::kRle},
               {"amount", ColumnType::kInt64, EncodingChoice::kRle}});
  TableAppender app(&table, size_t{1} << 16);
  for (size_t i = 0; i < 60000; ++i) {
    const auto span = static_cast<int64_t>(i / 17);
    app.AppendRow({span % 3, span % 97, (span / 2) % 50});
  }
  app.Flush();
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("amount")};
  query.filters.emplace_back("f", CompareOp::kLt, int64_t{2});
  auto expected = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(expected.ok());

  BIPieScan scan(table, query, {});
  auto got = scan.Execute();
  ASSERT_TRUE(got.ok()) << got.status().message();
  BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
  ExpectSameResults(got.value(), expected.value(), "span-17");
  EXPECT_EQ(scan.stats().aggregation_segments[static_cast<int>(
                AggregationStrategy::kRunBased)],
            1u);
  EXPECT_GT(scan.stats().runs_aggregated, 0u);
}

}  // namespace
}  // namespace bipie
