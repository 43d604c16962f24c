// Bounded differential fuzzing plus distilled regression tests for the bugs
// the harness was built to catch: scheduling-dependent error selection,
// stats of hashed segments, first-contribution detection in the merge loop,
// and non-canonical selection byte vectors.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "baseline/hash_agg.h"
#include "core/scan.h"
#include "fuzz_harness.h"
#include "storage/table.h"
#include "vector/selection_vector.h"

namespace bipie {
namespace {

// ---------------------------------------------------------------------------
// Bounded fuzz budget: a slice of the full differential matrix runs in every
// ctest invocation (CI runs a much larger slice through tools/bipie_fuzz).
// ---------------------------------------------------------------------------

TEST(FuzzDriver, BoundedSeedSweep) {
  const fuzz::FuzzResult result =
      fuzz::RunFuzz(/*seed=*/1, /*iters=*/60, /*budget_seconds=*/20.0,
                    /*verbose=*/false);
  EXPECT_GT(result.iterations, 0u);
  EXPECT_EQ(result.failures, 0u)
      << "replay: bipie_fuzz --replay '" << result.first_failing.ToString()
      << "'\n"
      << result.first_error;
}

TEST(FuzzDriver, ReplayLineRoundTrips) {
  const fuzz::CaseParams p = fuzz::MakeCaseParams(42);
  fuzz::CaseParams parsed;
  std::string error;
  ASSERT_TRUE(fuzz::ParseCaseParams(p.ToString(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.ToString(), p.ToString());
}

TEST(FuzzDriver, ParseRejectsMalformedLines) {
  fuzz::CaseParams parsed;
  std::string error;
  EXPECT_FALSE(fuzz::ParseCaseParams("seed", &parsed, &error));
  EXPECT_FALSE(fuzz::ParseCaseParams("bogus_key=1", &parsed, &error));
  EXPECT_FALSE(fuzz::ParseCaseParams("rows=abc", &parsed, &error));
  // Only the shared pool (0) and inline (1) execution models exist.
  EXPECT_FALSE(fuzz::ParseCaseParams("seed=1 num_threads=4", &parsed, &error));
  EXPECT_NE(error.find("num_threads"), std::string::npos) << error;
  EXPECT_TRUE(fuzz::ParseCaseParams("seed=1 num_threads=0", &parsed, &error))
      << error;
}

TEST(FuzzDriver, ExplicitParamsRunGreen) {
  // A directed case crossing the specialized-group envelope on the shared
  // pool, with deletions and a wide filter column all at once.
  fuzz::CaseParams p;
  p.seed = 3;
  p.rows = 4000;
  p.segment_rows = 700;
  p.group_columns = 2;
  p.group_card = 280;  // > 255: adaptive must hash-fall-back cleanly
  p.num_aggs = 3;
  p.num_filters = 2;
  p.delete_frac = 0.05;
  p.target_selectivity = 0.3;
  p.wide_bits = 51;
  p.num_threads = 0;
  std::string error;
  EXPECT_TRUE(fuzz::RunOneCase(p, &error)) << error;
}

TEST(FuzzDriver, RunClusteredCasesRunGreen) {
  // Directed run-level-execution cases: RLE-clustered groups and filters on
  // the pooled scan, so runs cross morsel boundaries and the forced
  // kRunBased plan in the matrix diffs the run pipeline against the oracle.
  fuzz::CaseParams p;
  p.seed = 11;
  p.rows = 9000;
  p.segment_rows = 4096;
  p.group_columns = 2;
  p.group_card = 6;
  p.num_aggs = 3;
  p.num_filters = 2;
  p.target_selectivity = 0.6;
  p.num_threads = 0;
  p.sorted_fraction = 0.7;
  std::string error;
  EXPECT_TRUE(fuzz::RunOneCase(p, &error)) << error;
  // Deleted rows inside runs: forced kRunBased must reject cleanly and the
  // adaptive plan must fall back per segment without losing exactness.
  p.seed = 12;
  p.delete_frac = 0.03;
  EXPECT_TRUE(fuzz::RunOneCase(p, &error)) << error;
}

// ---------------------------------------------------------------------------
// Regression: deterministic error selection in BIPieScan::Execute.
//
// Segment 0 is outside the specialized envelope (301 distinct groups > 255)
// and runs hashed; segment 1 overflows int64 during the checked-scalar
// scan. The scan used to stop at the first error (and, multithreaded,
// report whichever segment's status was written last), so segment 0's
// rejection could mask the overflow and reroute the query into the hash
// engine. The overflow must fail the query regardless of thread
// scheduling.
// ---------------------------------------------------------------------------

Table MakeOverflowAfterNotSupportedTable() {
  Schema schema;
  schema.push_back({"g", ColumnType::kInt64, EncodingChoice::kDictionary});
  schema.push_back({"v", ColumnType::kInt64, EncodingChoice::kBitPacked});
  Table table(schema);
  TableAppender app(&table, /*segment_rows=*/301);
  // Segment 0: 301 distinct groups -> GroupMapper::Bind kNotSupported.
  for (int64_t i = 0; i < 301; ++i) app.AppendRow({i, 1});
  // Segment 1: one group, two values of 2^62 -> sum is 2^63, which the
  // checked-scalar path must abort with kOverflowRisk.
  app.AppendRow({0, int64_t{1} << 62});
  app.AppendRow({0, int64_t{1} << 62});
  app.Flush();
  return table;
}

QuerySpec SumByGroupQuery() {
  QuerySpec query;
  query.group_by.push_back("g");
  query.aggregates.push_back(AggregateSpec::Count());
  query.aggregates.push_back(AggregateSpec::Sum("v"));
  return query;
}

TEST(ScanErrorPriority, HashedSegmentDoesNotMaskOverflowSingleThread) {
  const Table table = MakeOverflowAfterNotSupportedTable();
  BIPieScan scan(table, SumByGroupQuery(), ScanOptions{});
  auto result = scan.Execute();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOverflowRisk)
      << result.status().ToString();
  EXPECT_TRUE(scan.stats().used_hash_fallback);  // segment 0 ran hashed
}

TEST(ScanErrorPriority, HashedSegmentDoesNotMaskOverflowMultiThread) {
  const Table table = MakeOverflowAfterNotSupportedTable();
  for (int trial = 0; trial < 20; ++trial) {
    ScanOptions options;
    options.num_threads = 0;
    BIPieScan scan(table, SumByGroupQuery(), options);
    auto result = scan.Execute();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kOverflowRisk)
        << "trial " << trial << ": " << result.status().ToString();
    EXPECT_TRUE(scan.stats().used_hash_fallback);
  }
}

// ---------------------------------------------------------------------------
// A hashed segment runs the scan's own batch loop, so the progress counters
// describe every segment of the one scan that produced the result.
// ---------------------------------------------------------------------------

TEST(ScanHashedStats, ProgressCountsHashedAndSpecializedSegments) {
  Schema schema;
  schema.push_back({"g", ColumnType::kInt64, EncodingChoice::kDictionary});
  schema.push_back({"v", ColumnType::kInt64, EncodingChoice::kBitPacked});
  Table table(schema);
  TableAppender app(&table, /*segment_rows=*/400);
  // Segment 0 scans fine (2 groups); segment 1 rejects (301 groups).
  for (int64_t i = 0; i < 400; ++i) app.AppendRow({i % 2, i});
  for (int64_t i = 0; i < 301; ++i) app.AppendRow({i, 1});
  app.Flush();

  BIPieScan scan(table, SumByGroupQuery(), ScanOptions{});
  auto result = scan.Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const ScanStats& stats = scan.stats();
  EXPECT_TRUE(stats.used_hash_fallback);
  // One batch per segment; segment 0 holds the one planned strategy.
  EXPECT_EQ(stats.batches, 2u);
  EXPECT_EQ(stats.rows_scanned, 701u);
  EXPECT_EQ(stats.rows_selected, 701u);
  size_t planned = 0;
  for (int a = 0; a < kNumAggregationStrategies; ++a) {
    planned += stats.aggregation_segments[a];
  }
  EXPECT_EQ(planned, 1u);

  // And the merged answer matches the oracle.
  auto oracle = ExecuteQueryHashAgg(table, SumByGroupQuery());
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(result.value().rows.size(), oracle.value().rows.size());
  for (size_t r = 0; r < oracle.value().rows.size(); ++r) {
    EXPECT_EQ(result.value().rows[r].group, oracle.value().rows[r].group);
    EXPECT_EQ(result.value().rows[r].count, oracle.value().rows[r].count);
    EXPECT_EQ(result.value().rows[r].sums, oracle.value().rows[r].sums);
  }
}

// ---------------------------------------------------------------------------
// Regression: first-contribution detection in the merge loop. MIN/MAX
// seeding and group-key assignment must trigger exactly once per group, even
// when a group appears in many segments and for count-only queries.
// ---------------------------------------------------------------------------

TEST(ScanMerge, MinMaxSeedAcrossSegments) {
  Schema schema;
  schema.push_back({"g", ColumnType::kInt64, EncodingChoice::kDictionary});
  schema.push_back({"v", ColumnType::kInt64, EncodingChoice::kBitPacked});
  Table table(schema);
  TableAppender app(&table, /*segment_rows=*/4);
  // Group 0 spans three segments; its true min (-50) and max (90) each live
  // in a later segment than the first contribution. A merge that re-seeds on
  // every contribution, or that never seeds, gets one of them wrong (the
  // accumulator default of 0 would win over -50 for MIN).
  app.AppendRow({0, 10});
  app.AppendRow({0, 20});
  app.AppendRow({1, 7});
  app.AppendRow({1, 7});
  app.AppendRow({0, -50});
  app.AppendRow({0, 90});
  app.AppendRow({1, 7});
  app.AppendRow({1, 7});
  app.AppendRow({0, 15});
  app.Flush();
  ASSERT_EQ(table.num_segments(), 3u);

  QuerySpec query;
  query.group_by.push_back("g");
  query.aggregates.push_back(AggregateSpec::Min("v"));
  query.aggregates.push_back(AggregateSpec::Max("v"));
  auto result = ExecuteQuery(table, query, ScanOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 2u);
  EXPECT_EQ(result.value().rows[0].group[0].int_value, 0);
  EXPECT_EQ(result.value().rows[0].sums, (std::vector<int64_t>{-50, 90}));
  EXPECT_EQ(result.value().rows[1].group[0].int_value, 1);
  EXPECT_EQ(result.value().rows[1].sums, (std::vector<int64_t>{7, 7}));
}

TEST(ScanMerge, CountOnlyAcrossSegments) {
  Schema schema;
  schema.push_back({"g", ColumnType::kInt64, EncodingChoice::kDictionary});
  Table table(schema);
  TableAppender app(&table, /*segment_rows=*/8);
  for (int64_t i = 0; i < 30; ++i) app.AppendRow({i % 3});
  app.Flush();
  ASSERT_GT(table.num_segments(), 1u);

  QuerySpec query;
  query.group_by.push_back("g");
  query.aggregates.push_back(AggregateSpec::Count());
  auto result = ExecuteQuery(table, query, ScanOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 3u);
  for (const ResultRow& row : result.value().rows) {
    EXPECT_EQ(row.count, 10u);
    ASSERT_EQ(row.sums.size(), 1u);
    EXPECT_EQ(row.sums[0], 10);
  }
}

// ---------------------------------------------------------------------------
// Selection byte canonicality.
// ---------------------------------------------------------------------------

TEST(SelectionCanonical, Predicate) {
  EXPECT_TRUE(SelectionBytesAreCanonical(nullptr, 0));
  const uint8_t good[] = {0x00, 0xFF, 0xFF, 0x00};
  EXPECT_TRUE(SelectionBytesAreCanonical(good, sizeof(good)));
  const uint8_t low_bit[] = {0x00, 0x01};   // scalar-`&1` true, movemask false
  const uint8_t high_bit[] = {0x80, 0xFF};  // movemask true, testb != PEXT
  EXPECT_FALSE(SelectionBytesAreCanonical(low_bit, sizeof(low_bit)));
  EXPECT_FALSE(SelectionBytesAreCanonical(high_bit, sizeof(high_bit)));
}

TEST(SelectionCanonical, ByteIsSetUsesSignBit) {
  // Scalar tails must agree with the AVX2 movemask (sign bit) semantics on
  // any byte, canonical or not.
  EXPECT_EQ(SelectionByteIsSet(0x00), 0);
  EXPECT_EQ(SelectionByteIsSet(0x01), 0);
  EXPECT_EQ(SelectionByteIsSet(0x7F), 0);
  EXPECT_EQ(SelectionByteIsSet(0x80), 1);
  EXPECT_EQ(SelectionByteIsSet(0xFF), 1);
}

#if defined(BIPIE_VALIDATE_SELECTION) && !defined(__SANITIZE_THREAD__)
TEST(SelectionCanonicalDeathTest, NonCanonicalBytesAbortKernels) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const uint8_t bad[] = {0xFF, 0x01, 0x00, 0xFF, 0x00, 0x00, 0x00, 0x00};
  EXPECT_DEATH(CountSelected(bad, sizeof(bad)), "SelectionBytesAreCanonical");
}
#endif

}  // namespace
}  // namespace bipie
