#include "core/scan.h"

#include "tests/test_util.h"

#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <vector>

#include "baseline/hash_agg.h"
#include "baseline/scalar_engine.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "sql/parser.h"

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

// A mixed-width table: dictionary string group column, and aggregate
// columns covering the 1/2/4-byte unpack classes plus a negative-base FOR
// column.
Table MakeMixedTable(size_t rows, size_t segment_rows, uint64_t seed) {
  Table table({
      {"g", ColumnType::kString},
      {"narrow", ColumnType::kInt64, EncodingChoice::kBitPacked},   // 7 bit
      {"medium", ColumnType::kInt64, EncodingChoice::kBitPacked},   // 14 bit
      {"wide", ColumnType::kInt64, EncodingChoice::kBitPacked},     // 28 bit
      {"negative", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"filter_col", ColumnType::kInt64, EncodingChoice::kBitPacked},
  });
  TableAppender app(&table, segment_rows);
  Rng rng(seed);
  const char* groups[6] = {"g0", "g1", "g2", "g3", "g4", "g5"};
  for (size_t i = 0; i < rows; ++i) {
    std::vector<int64_t> ints(6, 0);
    std::vector<std::string> strings(6);
    strings[0] = groups[rng.NextBounded(6)];
    ints[1] = rng.NextInRange(0, 127);
    ints[2] = rng.NextInRange(0, (1 << 14) - 1);
    ints[3] = rng.NextInRange(0, (1 << 28) - 1);
    ints[4] = rng.NextInRange(-500, 500);
    ints[5] = rng.NextInRange(0, 999);
    app.AppendRow(ints, strings);
  }
  app.Flush();
  return table;
}

QuerySpec MakeQuery(int num_sums, bool with_filter, int64_t filter_lit) {
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates.push_back(AggregateSpec::Count());
  const char* sum_cols[4] = {"narrow", "medium", "wide", "negative"};
  for (int i = 0; i < num_sums && i < 4; ++i) {
    query.aggregates.push_back(AggregateSpec::Sum(sum_cols[i]));
  }
  if (with_filter) {
    query.filters.emplace_back("filter_col", CompareOp::kLt, filter_lit);
  }
  return query;
}

// The paper's §6.2 matrix: every selection strategy crossed with every
// aggregation strategy must produce identical results.
class AllStrategyCombos
    : public ::testing::TestWithParam<
          std::tuple<SelectionStrategy, AggregationStrategy, int>> {};

TEST_P(AllStrategyCombos, MatchNaiveOracle) {
  const auto [sel, agg, sel_pct] = GetParam();
  Table table = MakeMixedTable(10000, 4096, 77);
  // filter_col < lit gives ~sel_pct% selectivity.
  QuerySpec query = MakeQuery(3, true, sel_pct * 10);
  auto expected = ExecuteQueryNaive(table, query);
  ASSERT_TRUE(expected.ok());

  ScanOptions options;
  options.overrides.selection = sel;
  options.overrides.aggregation = agg;
  BIPieScan scan(table, query, options);
  auto got = scan.Execute();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
  ExpectSameResults(got.value(), expected.value(),
                    std::string(SelectionStrategyName(sel)) + "+" +
                        AggregationStrategyName(agg));
  // The forced aggregation strategy must actually have been used.
  EXPECT_GT(scan.stats().aggregation_segments[static_cast<int>(agg)], 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AllStrategyCombos,
    ::testing::Combine(
        ::testing::Values(SelectionStrategy::kGather,
                          SelectionStrategy::kCompact,
                          SelectionStrategy::kSpecialGroup),
        ::testing::Values(AggregationStrategy::kScalar,
                          AggregationStrategy::kInRegister,
                          AggregationStrategy::kSortBased,
                          AggregationStrategy::kMultiAggregate),
        ::testing::Values(2, 50, 98)));

TEST(ScanTest, AdaptiveStrategySelectionMatchesOracle) {
  Table table = MakeMixedTable(20000, 4096, 88);
  for (int num_sums : {0, 1, 2, 4}) {
    for (bool filtered : {false, true}) {
      QuerySpec query = MakeQuery(num_sums, filtered, 300);
      auto expected = ExecuteQueryNaive(table, query);
      ASSERT_TRUE(expected.ok());
      auto got = test::ExecuteChecked(table, query);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameResults(got.value(), expected.value(),
                        "sums=" + std::to_string(num_sums) +
                            " filtered=" + std::to_string(filtered));
    }
  }
}

TEST(ScanTest, HashAggBaselineMatchesOracle) {
  Table table = MakeMixedTable(15000, 4096, 99);
  QuerySpec query = MakeQuery(3, true, 500);
  auto expected = ExecuteQueryNaive(table, query);
  ASSERT_TRUE(expected.ok());
  auto got = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSameResults(got.value(), expected.value(), "hash-agg");
}

TEST(ScanTest, ExpressionAggregates) {
  Table table = MakeMixedTable(8000, 4096, 111);
  const int narrow = table.FindColumn("narrow");
  const int medium = table.FindColumn("medium");
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates.push_back(AggregateSpec::Count());
  query.aggregates.push_back(AggregateSpec::SumExpr(
      Expr::Mul(Expr::Column(narrow),
                Expr::Sub(Expr::Constant(100), Expr::Column(medium)))));
  query.filters.emplace_back("filter_col", CompareOp::kGe, 100);
  auto expected = ExecuteQueryNaive(table, query);
  ASSERT_TRUE(expected.ok());
  for (auto sel : {SelectionStrategy::kGather, SelectionStrategy::kCompact,
                   SelectionStrategy::kSpecialGroup}) {
    for (auto agg :
         {AggregationStrategy::kScalar, AggregationStrategy::kSortBased,
          AggregationStrategy::kMultiAggregate}) {
      ScanOptions options;
      options.overrides.selection = sel;
      options.overrides.aggregation = agg;
      auto got = test::ExecuteChecked(table, query, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSameResults(got.value(), expected.value(),
                        std::string("expr ") + SelectionStrategyName(sel) +
                            "+" + AggregationStrategyName(agg));
    }
  }
}

TEST(ScanTest, MultiSegmentMerging) {
  // Small segments force per-segment dictionaries with different id
  // assignments; the merge must be by value.
  Table table = MakeMixedTable(9000, 1024, 123);
  EXPECT_GT(table.num_segments(), 8u);
  QuerySpec query = MakeQuery(2, true, 700);
  auto expected = ExecuteQueryNaive(table, query);
  auto got = test::ExecuteChecked(table, query);
  ASSERT_TRUE(got.ok());
  ExpectSameResults(got.value(), expected.value(), "multi-segment");
}

TEST(ScanTest, DeletedRowsAreExcluded) {
  Table table = MakeMixedTable(5000, 4096, 321);
  Rng rng(5);
  for (int d = 0; d < 500; ++d) {
    const size_t seg = rng.NextBounded(table.num_segments());
    table.mutable_segment(seg).DeleteRow(
        rng.NextBounded(table.segment(seg).num_rows()));
  }
  QuerySpec query = MakeQuery(2, true, 800);
  auto expected = ExecuteQueryNaive(table, query);
  auto got = test::ExecuteChecked(table, query);
  ASSERT_TRUE(got.ok());
  ExpectSameResults(got.value(), expected.value(), "deleted-rows");
}

TEST(ScanTest, SegmentEliminationSkipsSegments) {
  // filter_col spans [0, 999] in every segment; an impossible filter
  // eliminates all segments via metadata.
  Table table = MakeMixedTable(8000, 2048, 55);
  QuerySpec query = MakeQuery(1, true, -5);
  BIPieScan scan(table, query);
  auto got = scan.Execute();
  ASSERT_TRUE(got.ok());
  BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
  EXPECT_TRUE(got.value().rows.empty());
  EXPECT_EQ(scan.stats().segments_scanned, 0u);
  EXPECT_EQ(scan.stats().segments_eliminated, table.num_segments());
}

TEST(ScanTest, GroupByTwoColumns) {
  Table table({{"a", ColumnType::kString},
               {"b", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4096);
  Rng rng(9);
  const char* as[3] = {"p", "q", "r"};
  for (int i = 0; i < 12000; ++i) {
    app.AppendRow({0, rng.NextInRange(10, 13), rng.NextInRange(0, 99)},
                  {as[rng.NextBounded(3)], "", ""});
  }
  app.Flush();
  QuerySpec query;
  query.group_by = {"a", "b"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("x")};
  auto expected = ExecuteQueryNaive(table, query);
  auto got = test::ExecuteChecked(table, query);
  ASSERT_TRUE(got.ok());
  ExpectSameResults(got.value(), expected.value(), "two-col-groupby");
  EXPECT_EQ(got.value().rows.size(), 12u);  // 3 x 4 groups all populated
}

TEST(ScanTest, NoGroupByProducesSingleRow) {
  Table table = MakeMixedTable(3000, 4096, 42);
  QuerySpec query;
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("narrow")};
  auto got = test::ExecuteChecked(table, query);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got.value().rows.size(), 1u);
  EXPECT_EQ(got.value().rows[0].count, 3000u);
  auto expected = ExecuteQueryNaive(table, query);
  ExpectSameResults(got.value(), expected.value(), "no-group-by");
}

TEST(ScanTest, AvgAggregates) {
  Table table = MakeMixedTable(4000, 4096, 61);
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("narrow"),
                      AggregateSpec::Avg("narrow"),
                      AggregateSpec::Avg("medium")};
  auto got = test::ExecuteChecked(table, query);
  ASSERT_TRUE(got.ok());
  const QueryResult& r = got.value();
  for (size_t row = 0; row < r.rows.size(); ++row) {
    // Avg slots carry the raw sum; sum(narrow) and avg(narrow) share it.
    EXPECT_EQ(r.rows[row].sums[1], r.rows[row].sums[2]);
    EXPECT_NEAR(r.Avg(row, 2),
                static_cast<double>(r.rows[row].sums[1]) /
                    static_cast<double>(r.rows[row].count),
                1e-12);
  }
}

TEST(ScanTest, OverflowRiskRoutesToCheckedScalar) {
  // Values large enough that max_abs * rows overflows int64.
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"huge", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4096);
  Rng rng(7);
  const int64_t kHuge = int64_t{1} << 53;
  for (int i = 0; i < 2000; ++i) {
    app.AppendRow({static_cast<int64_t>(rng.NextBounded(3)),
                   kHuge + rng.NextInRange(0, 1000)});
  }
  app.Flush();
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Sum("huge")};
  BIPieScan scan(table, query);
  auto got = scan.Execute();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
  EXPECT_GT(scan.stats().aggregation_segments[static_cast<int>(
                AggregationStrategy::kCheckedScalar)],
            0u);
  auto expected = ExecuteQueryNaive(table, query);
  ExpectSameResults(got.value(), expected.value(), "checked-scalar");
}

TEST(ScanTest, ActualOverflowIsReportedNotWrapped) {
  Table table({{"huge", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4096);
  const int64_t kHuge = int64_t{1} << 62;
  for (int i = 0; i < 8; ++i) app.AppendRow({kHuge});
  app.Flush();
  QuerySpec query;
  query.aggregates = {AggregateSpec::Sum("huge")};
  auto got = test::ExecuteChecked(table, query);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kOverflowRisk);

  // An expression whose rows overflow before any sum does: v * v over
  // v = 2^40 + i is about 2^80 per row. No interval bounds it, and every
  // engine must report the wrap rather than sum wrapped products.
  Table squares({{"v", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender sq(&squares, 4096);
  for (int64_t i = 0; i < 10; ++i) sq.AppendRow({(int64_t{1} << 40) + i});
  sq.Flush();
  QuerySpec square_query;
  square_query.aggregates = {AggregateSpec::SumExpr(
      Expr::Mul(Expr::Column(0), Expr::Column(0)))};
  auto parsed = ParseQuery("SELECT sum(v * v) FROM t", squares);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<std::pair<const char*, Result<QueryResult>>> engines = {
      {"scan", test::ExecuteChecked(squares, square_query)},
      {"hash", ExecuteQueryHashAgg(squares, square_query)},
      {"naive", ExecuteQueryNaive(squares, square_query)},
      {"sql", ExecuteQuery(squares, parsed.value().spec)}};
  for (const auto& [engine, result] : engines) {
    ASSERT_FALSE(result.ok())
        << engine << " returned " << result.value().rows[0].sums[0];
    EXPECT_EQ(result.status().code(), StatusCode::kOverflowRisk) << engine;
  }
}

TEST(ScanTest, UnprovableExpressionThatFitsSumsExactly) {
  // a reaches 2^40 only beside b <= 2, and b reaches 2^30 only beside
  // a <= 2: the interval of a * b (up to 2^70) proves nothing, yet every
  // row's product fits, so the checked path must return the exact sum.
  Table table({{"a", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"b", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4096);
  int64_t expected = 0;
  for (int64_t i = 0; i < 40; ++i) {
    const int64_t a = i % 2 == 0 ? (int64_t{1} << 40) - i : i % 3;
    const int64_t b = i % 2 == 0 ? i % 3 : (int64_t{1} << 30) - i;
    app.AppendRow({a, b});
    expected += a * b;
  }
  app.Flush();
  QuerySpec query;
  query.aggregates = {AggregateSpec::SumExpr(
      Expr::Mul(Expr::Column(0), Expr::Column(1)))};
  auto got = test::ExecuteChecked(table, query);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().rows[0].sums[0], expected);
  auto hashed = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  EXPECT_EQ(hashed.value().rows[0].sums[0], expected);
  auto naive = ExecuteQueryNaive(table, query);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive.value().rows[0].sums[0], expected);
}

TEST(ScanTest, OverflowOnFilteredRowsIsNotReported) {
  // Only rows the filter keeps are aggregated, so a product that overflows
  // on a rejected row is no error, and neither is a sum the rejected rows
  // alone would overflow (the special group collects them) — in any
  // selection mode.
  Table table({{"k", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"v", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"w", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4096);
  int64_t expected = 0, expected_w = 0;
  for (int64_t i = 0; i < 4096; ++i) {
    const bool kept = i % 64 != 0;
    const int64_t v = kept ? i : (int64_t{1} << 40) + i;
    const int64_t w = kept ? i : int64_t{1} << 62;
    app.AppendRow({kept ? 1 : 0, v, w});
    if (kept) {
      expected += v * v;
      expected_w += w;
    }
  }
  app.Flush();
  QuerySpec query;
  query.aggregates = {
      AggregateSpec::SumExpr(Expr::Mul(Expr::Column(1), Expr::Column(1))),
      AggregateSpec::Sum("w")};
  query.filters.emplace_back("k", CompareOp::kEq, int64_t{1});
  for (const SelectionStrategy sel :
       {SelectionStrategy::kGather, SelectionStrategy::kCompact,
        SelectionStrategy::kSpecialGroup}) {
    ScanOptions options;
    options.overrides.selection = sel;
    auto got = test::ExecuteChecked(table, query, options);
    ASSERT_TRUE(got.ok()) << SelectionStrategyName(sel) << ": "
                          << got.status().ToString();
    EXPECT_EQ(got.value().rows[0].sums[0], expected)
        << SelectionStrategyName(sel);
    EXPECT_EQ(got.value().rows[0].sums[1], expected_w)
        << SelectionStrategyName(sel);
  }
  auto hashed = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  EXPECT_EQ(hashed.value().rows[0].sums[0], expected);
  EXPECT_EQ(hashed.value().rows[0].sums[1], expected_w);
  auto naive = ExecuteQueryNaive(table, query);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  EXPECT_EQ(naive.value().rows[0].sums[0], expected);
  EXPECT_EQ(naive.value().rows[0].sums[1], expected_w);
}

// Twelve rows of `value` in 4-row segments. Each segment's overflow proof
// bounds that segment's sum only; the total is added across segments.
Table MakeCrossSegmentSumTable(int64_t value) {
  Table table({{"v", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4);
  for (int i = 0; i < 12; ++i) app.AppendRow({value});
  app.Flush();
  return table;
}

TEST(ScanTest, CrossSegmentSumOverflowIsReportedNotWrapped) {
  // Every segment sums to 2^62, which fits; the total 3 * 2^62 does not.
  const Table table = MakeCrossSegmentSumTable(int64_t{1} << 60);
  QuerySpec query;
  query.aggregates = {AggregateSpec::Sum("v")};
  for (const size_t threads : {0, 1}) {
    ScanOptions options;
    options.num_threads = threads;
    auto got = test::ExecuteChecked(table, query, options);
    ASSERT_FALSE(got.ok()) << "num_threads=" << threads << ": sum "
                           << got.value().rows[0].sums[0];
    EXPECT_EQ(got.status().code(), StatusCode::kOverflowRisk)
        << "num_threads=" << threads;
  }
  auto hashed = ExecuteQueryHashAgg(table, query);
  ASSERT_FALSE(hashed.ok());
  EXPECT_EQ(hashed.status().code(), StatusCode::kOverflowRisk);
}

TEST(ScanTest, EliminatingScanAgreesWithExplain) {
  // x ascends, so `x < 3000` keeps the first three 1024-row segments and
  // eliminates the other five; ExecuteChecked compares Explain() with that.
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 1024);
  for (int64_t i = 0; i < 8192; ++i) app.AppendRow({i % 4, i});
  app.Flush();
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("x")};
  query.filters.emplace_back("x", CompareOp::kLt, int64_t{3000});
  for (const size_t threads : {0, 1}) {
    ScanOptions options;
    options.num_threads = threads;
    auto got = test::ExecuteChecked(table, query, options);
    ASSERT_TRUE(got.ok()) << "num_threads=" << threads << ": "
                          << got.status().ToString();
  }
}

TEST(ScanTest, NaiveOracleReportsSumOverflow) {
  const Table table = MakeCrossSegmentSumTable(int64_t{1} << 60);
  QuerySpec query;
  query.aggregates = {AggregateSpec::Sum("v")};
  auto naive = ExecuteQueryNaive(table, query);
  ASSERT_FALSE(naive.ok()) << "sum " << naive.value().rows[0].sums[0];
  EXPECT_EQ(naive.status().code(), StatusCode::kOverflowRisk);
}

TEST(ScanTest, NearLimitCrossSegmentSumIsExact) {
  // The largest value twelve of which still fit int64.
  const int64_t value = std::numeric_limits<int64_t>::max() / 12;
  const Table table = MakeCrossSegmentSumTable(value);
  QuerySpec query;
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("v")};
  for (const size_t threads : {0, 1}) {
    ScanOptions options;
    options.num_threads = threads;
    auto got = test::ExecuteChecked(table, query, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got.value().rows.size(), 1u);
    EXPECT_EQ(got.value().rows[0].sums[1], value * 12)
        << "num_threads=" << threads;
  }
  auto hashed = ExecuteQueryHashAgg(table, query);
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  EXPECT_EQ(hashed.value().rows[0].sums[1], value * 12);
}

TEST(ScanTest, DeltaEncodedAggregateAndFilterColumns) {
  // Delta columns route through the logical (expression) path; aggregation
  // and filtering over them must match the oracle for every strategy.
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"ts", ColumnType::kInt64, EncodingChoice::kDelta},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4096);
  Rng rng(505);
  int64_t ts = 5000000;
  for (int i = 0; i < 15000; ++i) {
    ts += rng.NextInRange(0, 9);
    app.AppendRow({static_cast<int64_t>(rng.NextBounded(5)), ts,
                   rng.NextInRange(0, 999)});
  }
  app.Flush();
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("ts"),
                      AggregateSpec::Min("ts"), AggregateSpec::Sum("x")};
  query.filters.emplace_back("ts", CompareOp::kLt, ts - 10000);
  auto expected = ExecuteQueryNaive(table, query);
  ASSERT_TRUE(expected.ok());
  for (auto agg :
       {AggregationStrategy::kScalar, AggregationStrategy::kSortBased,
        AggregationStrategy::kMultiAggregate}) {
    ScanOptions options;
    options.overrides.aggregation = agg;
    auto got = test::ExecuteChecked(table, query, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameResults(got.value(), expected.value(),
                      std::string("delta+") + AggregationStrategyName(agg));
  }
  // Adaptive run and delta-as-group-column fallback.
  auto adaptive = test::ExecuteChecked(table, query);
  ASSERT_TRUE(adaptive.ok());
  ExpectSameResults(adaptive.value(), expected.value(), "delta adaptive");

  QuerySpec by_delta;
  by_delta.group_by = {"ts"};
  by_delta.aggregates = {AggregateSpec::Count()};
  BIPieScan scan(table, by_delta);
  auto fallback = scan.Execute();
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  BIPIE_EXPECT_STATS_INVARIANTS(scan, by_delta, table, &fallback.value());
  EXPECT_TRUE(scan.stats().used_hash_fallback);
}

TEST(ScanTest, ParallelScanMatchesSequential) {
  // ~20 one-morsel segments, then two segments the pool splits into one to
  // three morsels each.
  for (const size_t segment_rows : {size_t{1024}, size_t{12288}}) {
    Table table = MakeMixedTable(20000, segment_rows, 404);
    QuerySpec query = MakeQuery(3, true, 600);
    query.aggregates.push_back(AggregateSpec::Min("wide"));
    query.aggregates.push_back(AggregateSpec::Max("negative"));
    auto sequential = test::ExecuteChecked(table, query);
    ASSERT_TRUE(sequential.ok());
    for (const size_t morsel_rows : {size_t{0}, size_t{4096}, size_t{8192}}) {
      ScanOptions options;
      options.num_threads = 0;
      options.morsel_rows = morsel_rows;
      BIPieScan scan(table, query, options);
      auto parallel = scan.Execute();
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &parallel.value());
      ExpectSameResults(parallel.value(), sequential.value(),
                        "segment_rows=" + std::to_string(segment_rows) +
                            " morsel_rows=" + std::to_string(morsel_rows));
      // Aggregate stats must still add up.
      EXPECT_EQ(scan.stats().rows_scanned, table.num_rows());
      EXPECT_EQ(scan.stats().segments_scanned, table.num_segments());
    }
  }
}

TEST(ScanTest, NumThreadsAboveOneIsRejectedBeforeAnyWork) {
  // 0 (shared pool) and 1 (inline) are the only execution models; any
  // other value is an error before admission, and no morsel runs.
  Table table = MakeMixedTable(8000, 1024, 406);
  const obs::Counter& morsels = obs::Counter::Get("scan.morsels");
  const uint64_t before = morsels.value();
  ScanOptions options;
  options.num_threads = 2;
  auto result = test::ExecuteChecked(table, MakeQuery(1, false, 0), options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
      << result.status().ToString();
  EXPECT_EQ(morsels.value(), before);
}

TEST(ScanTest, ParallelScanPropagatesErrors) {
  Table table = MakeMixedTable(8000, 1024, 405);
  QuerySpec query = MakeQuery(1, false, 0);
  ScanOptions options;
  options.num_threads = 0;
  // Force an infeasible strategy: in-register cannot take 28-bit + sort
  // needs sums... use in-register with an expression aggregate.
  query.aggregates.push_back(AggregateSpec::SumExpr(
      Expr::Mul(Expr::Column(1), Expr::Column(2))));
  options.overrides.aggregation = AggregationStrategy::kInRegister;
  auto result = test::ExecuteChecked(table, query, options);
  EXPECT_EQ(result.status().code(), StatusCode::kNotSupported);
}

TEST(ScanTest, OversizedGroupCardinalityFallsBackToHashEngine) {
  // > 255 combined groups exceeds the BIPie envelope (§2.2); the scan must
  // still answer via the generic engine.
  Table table({{"g1", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"g2", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4096);
  Rng rng(31);
  for (int i = 0; i < 8000; ++i) {
    app.AppendRow({rng.NextInRange(0, 39), rng.NextInRange(0, 19),
                   rng.NextInRange(0, 99)});
  }
  app.Flush();
  QuerySpec query;
  query.group_by = {"g1", "g2"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("x")};
  BIPieScan scan(table, query);
  auto got = scan.Execute();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
  EXPECT_TRUE(scan.stats().used_hash_fallback);
  auto expected = ExecuteQueryNaive(table, query);
  ExpectSameResults(got.value(), expected.value(), "fallback");

  // Forced strategies must NOT silently fall back.
  ScanOptions options;
  options.overrides.aggregation = AggregationStrategy::kMultiAggregate;
  EXPECT_EQ(test::ExecuteChecked(table, query, options).status().code(),
            StatusCode::kNotSupported);
}

// Sixteen segments of eight groups, except that segment `wide` has 300:
// each segment draws from its own seed, so a table without `wide` holds the
// other fifteen unchanged.
Table MakeOneWideSegmentTable(size_t wide, bool include_wide) {
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"v", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"f", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 2 * kBatchRows);
  for (size_t s = 0; s < 16; ++s) {
    if (s == wide && !include_wide) continue;
    Rng rng(700 + s);
    const int64_t card = s == wide ? 300 : 8;
    for (size_t i = 0; i < 2 * kBatchRows; ++i) {
      app.AppendRow({rng.NextInRange(0, card - 1), rng.NextInRange(0, 999),
                     rng.NextInRange(0, 99)});
    }
  }
  app.Flush();
  return table;
}

TEST(ScanTest, OneWideSegmentRunsHashedAndTheRestKeepTheirStrategies) {
  constexpr size_t kWide = 5;
  const Table table = MakeOneWideSegmentTable(kWide, true);
  const Table rest = MakeOneWideSegmentTable(kWide, false);
  ASSERT_EQ(table.num_segments(), 16u);
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("v")};
  query.filters.emplace_back("f", CompareOp::kLt, int64_t{50});
  auto expected = ExecuteQueryNaive(table, query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  const obs::Counter& hashed = obs::Counter::Get("scan.hash_fallbacks");
  for (const size_t threads : {size_t{0}, size_t{1}}) {
    const std::string context = "num_threads=" + std::to_string(threads);
    ScanOptions options;
    options.num_threads = threads;
    BIPieScan scan(table, query, options);
    const uint64_t hashed_before = hashed.value();
    auto got = scan.Execute();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, &got.value());
    EXPECT_TRUE(test::ExplainDisagreements(scan).empty()) << context;
    ExpectSameResults(got.value(), expected.value(), context);
    const ScanStats& stats = scan.stats();
    EXPECT_TRUE(stats.used_hash_fallback) << context;
    EXPECT_EQ(stats.segments_scanned, 16u) << context;
    EXPECT_EQ(test::StatsInvariants::StrategyTotal(stats), 15u) << context;
    EXPECT_EQ(hashed.value() - hashed_before, 1u) << context;

    // The fifteen narrow segments plan and select as they do alone; the
    // hashed one adds its batches and no selection decision.
    BIPieScan narrow(rest, query, options);
    ASSERT_TRUE(narrow.Execute().ok());
    for (size_t a = 0; a < kNumAggregationStrategies; ++a) {
      EXPECT_EQ(stats.aggregation_segments[a],
                narrow.stats().aggregation_segments[a])
          << context << " strategy " << a;
    }
    EXPECT_EQ(stats.selection.gather, narrow.stats().selection.gather);
    EXPECT_EQ(stats.selection.compact, narrow.stats().selection.compact);
    EXPECT_EQ(stats.selection.special_group,
              narrow.stats().selection.special_group);
    EXPECT_EQ(stats.selection.unfiltered, narrow.stats().selection.unfiltered);
    EXPECT_EQ(stats.batches, narrow.stats().batches + 2) << context;
    EXPECT_EQ(stats.rows_scanned, table.num_rows()) << context;
  }
}

// Type errors belong to the query, not to a segment: every engine rejects
// them before reading a row, so none sums dictionary ids as numbers or
// compares an int column with a string literal's placeholder value.
TEST(ScanTest, IllTypedQueriesAreRejectedByEveryEngine) {
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"s", ColumnType::kString},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 4);
  for (int i = 0; i < 9; ++i) {
    app.AppendRow({i % 2, 0, i}, {"", i % 3 == 0 ? "abc" : "xyz", ""});
  }
  app.Flush();
  auto grouped = [](AggregateSpec spec) {
    QuerySpec query;
    query.group_by = {"g"};
    query.aggregates = {std::move(spec)};
    return query;
  };
  auto counted = [](ColumnPredicate pred) {
    QuerySpec query;
    query.aggregates = {AggregateSpec::Count()};
    query.filters.push_back(std::move(pred));
    return query;
  };
  const std::vector<std::pair<QuerySpec, StatusCode>> cases = {
      {grouped(AggregateSpec::Sum("s")), StatusCode::kInvalidArgument},
      {grouped(AggregateSpec::Avg("s")), StatusCode::kInvalidArgument},
      {grouped(AggregateSpec::Max("s")), StatusCode::kInvalidArgument},
      {grouped(AggregateSpec::SumExpr(
           Expr::Mul(Expr::Column(1), Expr::Constant(2)))),
       StatusCode::kInvalidArgument},
      {counted(ColumnPredicate("x", CompareOp::kEq, std::string("abc"))),
       StatusCode::kInvalidArgument},
      {counted(ColumnPredicate("s", CompareOp::kEq, int64_t{0})),
       StatusCode::kInvalidArgument},
      {counted(ColumnPredicate::Between("s", 0, 1)),
       StatusCode::kNotSupported},
  };
  for (size_t i = 0; i < cases.size(); ++i) {
    const QuerySpec& query = cases[i].first;
    const StatusCode want = cases[i].second;
    const std::string context = "case " + std::to_string(i);
    EXPECT_EQ(CheckQuery(table.schema(), query).code(), want) << context;
    BIPieScan scan(table, query);
    EXPECT_EQ(scan.Execute().status().code(), want) << context;
    EXPECT_EQ(scan.Explain().status().code(), want) << context;
    EXPECT_EQ(ExecuteQueryHashAgg(table, query).status().code(), want)
        << context;
    EXPECT_EQ(ExecuteQueryNaive(table, query).status().code(), want)
        << context;
  }
}

TEST(ScanTest, EmptyTable) {
  Table table({{"g", ColumnType::kString},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count()};
  auto got = test::ExecuteChecked(table, query);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().rows.empty());
}

TEST(ScanTest, UnknownColumnsAreErrors) {
  Table table = MakeMixedTable(100, 4096, 1);
  QuerySpec query;
  query.group_by = {"missing"};
  query.aggregates = {AggregateSpec::Count()};
  EXPECT_EQ(test::ExecuteChecked(table, query).status().code(),
            StatusCode::kInvalidArgument);

  QuerySpec query2;
  query2.group_by = {"g"};
  query2.aggregates = {AggregateSpec::Sum("missing")};
  EXPECT_EQ(test::ExecuteChecked(table, query2).status().code(),
            StatusCode::kInvalidArgument);

  QuerySpec query3;
  query3.group_by = {"g"};
  query3.aggregates = {AggregateSpec::Count()};
  query3.filters.emplace_back("missing", CompareOp::kEq, int64_t{1});
  EXPECT_EQ(test::ExecuteChecked(table, query3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ScanTest, AllRowsFilteredOut) {
  Table table = MakeMixedTable(5000, 4096, 17);
  QuerySpec query = MakeQuery(2, true, 0);  // filter_col < 0: nothing
  ScanOptions options;
  options.enable_segment_elimination = false;  // force the scan to run
  auto got = test::ExecuteChecked(table, query, options);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().rows.empty());
}

TEST(ScanTest, ConjunctiveFilters) {
  Table table = MakeMixedTable(10000, 4096, 202);
  QuerySpec query = MakeQuery(2, true, 900);
  query.filters.emplace_back("filter_col", CompareOp::kGe, 200);
  auto expected = ExecuteQueryNaive(table, query);
  auto got = test::ExecuteChecked(table, query);
  ASSERT_TRUE(got.ok());
  ExpectSameResults(got.value(), expected.value(), "conjunction");
}

}  // namespace
}  // namespace bipie
