// Integration tests for morsel-driven scan execution: concurrent queries on
// the shared pool diffed against the hash-aggregation oracle (the TSan
// preset runs this as the data-race stress), cancellation invariants (a
// cancelled query returns kCancelled, never a partial result), and
// morsel-split determinism.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "baseline/hash_agg.h"
#include "common/random.h"
#include "core/scan.h"
#include "tests/test_util.h"
#include "exec/query_context.h"
#include "exec/scheduler.h"
#include "obs/metrics.h"
#include "storage/table.h"

namespace bipie {
namespace {

// A grouped multi-encoding table: dictionary group column plus bit-packed
// value columns, sized to span several segments.
Table MakeGroupedTable(size_t rows, size_t segment_rows, uint64_t seed) {
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"y", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"f", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, segment_rows);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    app.AppendRow({static_cast<int64_t>(rng.NextBounded(9)),
                   rng.NextInRange(0, 20000), rng.NextInRange(0, 500),
                   rng.NextInRange(0, 99)});
  }
  app.Flush();
  return table;
}

QuerySpec MakeGroupedQuery() {
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("x"),
                      AggregateSpec::Min("y"), AggregateSpec::Max("x")};
  query.filters.emplace_back("f", CompareOp::kLt, int64_t{70});
  return query;
}

// Q6-shaped: no group-by, conjunctive range filter, one sum.
QuerySpec MakeUngroupedQuery() {
  QuerySpec query;
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("y")};
  query.filters.push_back(
      ColumnPredicate::Between("x", int64_t{2000}, int64_t{4000}));
  query.filters.emplace_back("f", CompareOp::kGt, int64_t{20});
  return query;
}

void ExpectSameResults(const QueryResult& got, const QueryResult& expected,
                       const std::string& label) {
  ASSERT_EQ(got.rows.size(), expected.rows.size()) << label;
  for (size_t r = 0; r < got.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].group, expected.rows[r].group) << label << " row "
                                                         << r;
    ASSERT_EQ(got.rows[r].count, expected.rows[r].count) << label << " row "
                                                         << r;
    ASSERT_EQ(got.rows[r].sums, expected.rows[r].sums) << label << " row "
                                                       << r;
  }
}

TEST(ConcurrentScanTest, PooledScanMatchesOracle) {
  Table table = MakeGroupedTable(50000, 2048, 71);
  QuerySpec query = MakeGroupedQuery();
  auto oracle = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(oracle.ok());

  ScanOptions options;
  options.num_threads = 0;  // shared pool
  auto got = test::ExecuteChecked(table, query, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameResults(got.value(), oracle.value(), "pooled");
}

TEST(ConcurrentScanTest, MorselSplitIsResultInvariant) {
  // Forcing tiny morsels (one batch each) must not change any answer:
  // per-morsel processors merge through the same deterministic reduction.
  Table table = MakeGroupedTable(30000, 8192, 72);
  QuerySpec query = MakeGroupedQuery();
  auto inline_result = test::ExecuteChecked(table, query);
  ASSERT_TRUE(inline_result.ok());

  for (size_t morsel_rows : {size_t{4096}, size_t{8192}, size_t{100000}}) {
    ScanOptions options;
    options.num_threads = 0;
    options.morsel_rows = morsel_rows;
    BIPieScan scan(table, query, options);
    auto got = scan.Execute();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
    ExpectSameResults(got.value(), inline_result.value(),
                      "morsel_rows=" + std::to_string(morsel_rows));
    // Stats must describe the same scan regardless of the split.
    EXPECT_EQ(scan.stats().rows_scanned, table.num_rows());
    EXPECT_EQ(scan.stats().segments_scanned, table.num_segments());
  }
}

// Segments of eight batches, scanned by one-batch morsels: the morsels of a
// segment share its plan, so a pooled scan builds one plan per segment.
TEST(ConcurrentScanTest, PooledScanPlansEachSegmentOnce) {
  Table table = MakeGroupedTable(3 * 8 * kBatchRows, 8 * kBatchRows, 73);
  QuerySpec query = MakeGroupedQuery();
  ScanOptions options;
  options.num_threads = 0;
  options.morsel_rows = kBatchRows;
  obs::Counter& plans = obs::Counter::Get("scan.segment_plans");
  obs::Counter& morsels = obs::Counter::Get("scan.morsels");
  const uint64_t plans_before = plans.value();
  const uint64_t morsels_before = morsels.value();

  BIPieScan scan(table, query, options);
  auto got = scan.Execute();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(scan.stats().segments_scanned, 3u);
  EXPECT_EQ(plans.value() - plans_before, scan.stats().segments_scanned);
  // The scan runs inline (one morsel per segment) only when the pool adds
  // no parallelism.
  const bool pooled = Scheduler::Global().num_workers() > 1 ||
                      std::thread::hardware_concurrency() > 1;
  EXPECT_EQ(morsels.value() - morsels_before,
            (pooled ? 8 : 1) * scan.stats().segments_scanned);
}

// Two dictionary group columns combine through second-column scratch that
// each morsel's processor owns; the pooled morsels of a segment share the
// mapper itself.
TEST(ConcurrentScanTest, PooledTwoColumnGroupByMatchesOracle) {
  Table table({{"g1", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"g2", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"f", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 8 * kBatchRows);
  Rng rng(74);
  for (size_t i = 0; i < 3 * 8 * kBatchRows; ++i) {
    app.AppendRow({static_cast<int64_t>(rng.NextBounded(9)),
                   static_cast<int64_t>(rng.NextBounded(13)),
                   rng.NextInRange(0, 20000), rng.NextInRange(0, 99)});
  }
  app.Flush();
  ASSERT_EQ(table.num_segments(), 3u);

  // 10% keeps the gather path (MapSelected); 70% the dense one (MapBatch).
  for (const int64_t cut : {int64_t{10}, int64_t{70}}) {
    QuerySpec query;
    query.group_by = {"g1", "g2"};
    query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("x"),
                        AggregateSpec::Max("x")};
    query.filters.emplace_back("f", CompareOp::kLt, cut);
    auto oracle = ExecuteQueryHashAgg(table, query);
    ASSERT_TRUE(oracle.ok());
    ScanOptions options;
    options.num_threads = 0;
    options.morsel_rows = 4096;
    auto got = test::ExecuteChecked(table, query, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameResults(got.value(), oracle.value(),
                      "f<" + std::to_string(cut));
  }
}

TEST(ConcurrentScanTest, EightWayConcurrentExecuteMatchesOracle) {
  // Eight client threads hammer the shared pool with scans over shared
  // tables — two tables, two query shapes, every scan diffed against the
  // oracle computed up front. TSan runs this as the race stress; any
  // cross-query state in the scheduler or scan shows up here.
  Table grouped = MakeGroupedTable(60000, 4096, 73);
  Table skinny = MakeGroupedTable(20000, 1024, 74);
  QuerySpec grouped_query = MakeGroupedQuery();
  QuerySpec ungrouped_query = MakeUngroupedQuery();

  auto grouped_oracle = ExecuteQueryHashAgg(grouped, grouped_query);
  auto skinny_oracle = ExecuteQueryHashAgg(skinny, ungrouped_query);
  ASSERT_TRUE(grouped_oracle.ok());
  ASSERT_TRUE(skinny_oracle.ok());

  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        ScanOptions options;
        options.num_threads = 0;
        options.morsel_rows = (t % 2 == 0) ? 0 : 4096;
        const bool use_grouped = (t + i) % 2 == 0;
        const Table& table = use_grouped ? grouped : skinny;
        const QuerySpec& query = use_grouped ? grouped_query : ungrouped_query;
        const QueryResult& expected = use_grouped ? grouped_oracle.value()
                                                  : skinny_oracle.value();
        auto got = test::ExecuteChecked(table, query, options);
        if (!got.ok() || got.value().rows.size() != expected.rows.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t r = 0; r < expected.rows.size(); ++r) {
          if (got.value().rows[r].group != expected.rows[r].group ||
              got.value().rows[r].count != expected.rows[r].count ||
              got.value().rows[r].sums != expected.rows[r].sums) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ConcurrentScanTest, PreCancelledQueryReturnsCancelled) {
  Table table = MakeGroupedTable(20000, 2048, 75);
  QuerySpec query = MakeGroupedQuery();
  for (size_t threads : {size_t{0}, size_t{1}}) {
    QueryContext context;
    context.Cancel();
    ScanOptions options;
    options.num_threads = threads;
    options.context = &context;
    auto got = test::ExecuteChecked(table, query, options);
    ASSERT_FALSE(got.ok()) << "threads=" << threads;
    EXPECT_EQ(got.status().code(), StatusCode::kCancelled)
        << "threads=" << threads;
  }
}

TEST(ConcurrentScanTest, MidScanCancellationNeverYieldsPartialResult) {
  Table table = MakeGroupedTable(40000, 2048, 76);
  QuerySpec query = MakeGroupedQuery();
  auto oracle = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(oracle.ok());

  // Sweep the cancellation point across the scan: every outcome must be
  // either a clean kCancelled or the complete, exact answer — the scan may
  // finish before noticing a very late cancel, but must never return a
  // subset of the groups or partially accumulated sums.
  for (size_t threads : {size_t{0}, size_t{1}}) {
    for (int64_t budget : {0, 1, 2, 5, 9, 17, 1000000}) {
      QueryContext context;
      context.CancelAfterChecks(budget);
      ScanOptions options;
      options.num_threads = threads;
      options.morsel_rows = 4096;
      options.context = &context;
      auto got = test::ExecuteChecked(table, query, options);
      const std::string label = "threads=" + std::to_string(threads) +
                                " budget=" + std::to_string(budget);
      if (got.ok()) {
        ExpectSameResults(got.value(), oracle.value(), label);
      } else {
        EXPECT_EQ(got.status().code(), StatusCode::kCancelled) << label;
      }
    }
  }
}

TEST(ConcurrentScanTest, ExpiredDeadlineCancelsScan) {
  Table table = MakeGroupedTable(20000, 2048, 77);
  QueryContext context;
  context.set_deadline(std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1));
  ScanOptions options;
  options.num_threads = 0;
  options.context = &context;
  auto got = test::ExecuteChecked(table, MakeGroupedQuery(), options);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
}

TEST(ConcurrentScanTest, CancelledHashFallbackReturnsCancelled) {
  // >255 combined groups forces the hash-engine fallback; a pre-cancelled
  // context must still short-circuit to kCancelled, not a full hash result.
  Table table({{"g1", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"g2", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4096);
  Rng rng(78);
  for (int i = 0; i < 8000; ++i) {
    app.AppendRow({rng.NextInRange(0, 39), rng.NextInRange(0, 19),
                   rng.NextInRange(0, 1000)});
  }
  app.Flush();
  QuerySpec query;
  query.group_by = {"g1", "g2"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("x")};

  QueryContext context;
  context.Cancel();
  ScanOptions options;
  options.num_threads = 0;
  options.context = &context;
  auto got = test::ExecuteChecked(table, query, options);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCancelled);
}

TEST(ScanWorkOrderTest, PathologicalSegmentStaysExactOnEveryPath) {
  // One huge segment among many small ones — the shape that stalls a static
  // strided partition. The pool splits it into morsels; the inline path
  // scans it whole. Both must agree with the oracle exactly.
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"f", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  Rng rng(79);
  {
    TableAppender big(&table, 1 << 17);
    for (int i = 0; i < 90000; ++i) {
      big.AppendRow({static_cast<int64_t>(rng.NextBounded(6)),
                     rng.NextInRange(0, 9000), rng.NextInRange(0, 99)});
    }
    big.Flush();  // one ~90K-row segment
  }
  {
    TableAppender small(&table, 512);
    for (int i = 0; i < 4000; ++i) {
      small.AppendRow({static_cast<int64_t>(rng.NextBounded(6)),
                       rng.NextInRange(0, 9000), rng.NextInRange(0, 99)});
    }
    small.Flush();  // ~8 tiny segments
  }
  ASSERT_GE(table.num_segments(), 5u);
  ASSERT_GT(table.segment(0).num_rows(), 16 * table.segment(2).num_rows());

  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("x")};
  query.filters.emplace_back("f", CompareOp::kLt, int64_t{60});
  auto oracle = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(oracle.ok());

  for (size_t threads : {size_t{0}, size_t{1}}) {
    ScanOptions options;
    options.num_threads = threads;
    auto got = test::ExecuteChecked(table, query, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameResults(got.value(), oracle.value(),
                      "threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace bipie
