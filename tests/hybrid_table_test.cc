#include "storage/hybrid_table.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <thread>

#include "baseline/hash_agg.h"
#include "baseline/scalar_engine.h"
#include "common/random.h"
#include "obs/metrics.h"

namespace bipie {
namespace {

Schema MakeSchema() {
  return {{"region", ColumnType::kString},
          {"amount", ColumnType::kInt64},
          {"qty", ColumnType::kInt64}};
}

void InsertRandomRows(HybridTable* table, size_t n, uint64_t seed) {
  Rng rng(seed);
  const char* regions[3] = {"n", "s", "e"};
  for (size_t i = 0; i < n; ++i) {
    table->Insert({0, rng.NextInRange(0, 9999), rng.NextInRange(1, 50)},
                  {regions[rng.NextBounded(3)], "", ""});
  }
}

TEST(HybridTableTest, InsertsVisibleBeforeMerge) {
  HybridTable table(MakeSchema(), /*segment_rows=*/1 << 16);
  table.set_merge_threshold(1 << 20);  // no auto merge
  InsertRandomRows(&table, 1000, 1);
  EXPECT_EQ(table.mutable_rows(), 1000u);
  EXPECT_EQ(table.immutable().num_rows(), 0u);

  QuerySpec query;
  query.group_by = {"region"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("amount")};
  auto result = ExecuteQueryHybrid(table, query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  uint64_t total = 0;
  for (const ResultRow& row : result.value().rows) total += row.count;
  EXPECT_EQ(total, 1000u);
}

TEST(HybridTableTest, MergeMovesRowsToImmutableRegion) {
  HybridTable table(MakeSchema(), 512);
  table.set_merge_threshold(1 << 20);
  InsertRandomRows(&table, 1500, 2);

  QuerySpec query;
  query.group_by = {"region"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("amount"),
                      AggregateSpec::Min("qty"), AggregateSpec::Max("qty")};
  auto before = ExecuteQueryHybrid(table, query);
  ASSERT_TRUE(before.ok());

  table.Merge();
  EXPECT_EQ(table.mutable_rows(), 0u);
  EXPECT_EQ(table.immutable().num_rows(), 1500u);
  EXPECT_EQ(table.immutable().num_segments(), 3u);  // 512-row segments

  auto after = ExecuteQueryHybrid(table, query);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ(before.value().rows.size(), after.value().rows.size());
  for (size_t r = 0; r < after.value().rows.size(); ++r) {
    EXPECT_EQ(before.value().rows[r].sums, after.value().rows[r].sums);
    EXPECT_EQ(before.value().rows[r].count, after.value().rows[r].count);
  }
}

TEST(HybridTableTest, StraddlingQueryMergesBothRegions) {
  HybridTable table(MakeSchema(), 4096);
  table.set_merge_threshold(1 << 20);
  InsertRandomRows(&table, 5000, 3);
  table.Merge();                      // first 5000 rows immutable
  InsertRandomRows(&table, 777, 4);   // fresh rows in the mutable region
  EXPECT_EQ(table.mutable_rows(), 777u);

  QuerySpec query;
  query.group_by = {"region"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("amount"),
                      AggregateSpec::SumExpr(Expr::Mul(
                          Expr::Column(1), Expr::Column(2))),
                      AggregateSpec::Max("amount")};
  query.filters.emplace_back("amount", CompareOp::kLt, int64_t{8000});

  auto straddling = ExecuteQueryHybrid(table, query);
  ASSERT_TRUE(straddling.ok()) << straddling.status().ToString();

  // Reference: force-merge a copy... instead merge this table and re-ask.
  table.Merge();
  auto merged = ExecuteQueryHybrid(table, query);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(straddling.value().rows.size(), merged.value().rows.size());
  for (size_t r = 0; r < merged.value().rows.size(); ++r) {
    EXPECT_EQ(straddling.value().rows[r].sums, merged.value().rows[r].sums);
    EXPECT_EQ(straddling.value().rows[r].count,
              merged.value().rows[r].count);
    EXPECT_EQ(straddling.value().rows[r].group,
              merged.value().rows[r].group);
  }
}

TEST(HybridTableTest, AutoMergeAtThreshold) {
  HybridTable table(MakeSchema(), 256);
  table.set_merge_threshold(256);
  InsertRandomRows(&table, 1000, 5);
  // Threshold-triggered merges keep the mutable region small.
  EXPECT_LT(table.mutable_rows(), 256u);
  EXPECT_GE(table.immutable().num_rows(), 768u);
  EXPECT_EQ(table.num_rows(), 1000u);
}

TEST(HybridTableTest, StringFilterAcrossRegions) {
  HybridTable table(MakeSchema(), 4096);
  table.set_merge_threshold(1 << 20);
  InsertRandomRows(&table, 2000, 6);
  table.Merge();
  InsertRandomRows(&table, 300, 7);

  QuerySpec query;
  query.aggregates = {AggregateSpec::Count()};
  query.filters.emplace_back("region", CompareOp::kEq, std::string("s"));
  auto result = ExecuteQueryHybrid(table, query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows.size(), 1u);
  // ~1/3 of 2300 rows.
  EXPECT_GT(result.value().rows[0].count, 600u);
  EXPECT_LT(result.value().rows[0].count, 950u);

  table.Merge();
  auto merged = ExecuteQueryHybrid(table, query);
  EXPECT_EQ(result.value().rows[0].count, merged.value().rows[0].count);
}

TEST(HybridTableTest, EmptyRegionsAreFine) {
  HybridTable table(MakeSchema());
  QuerySpec query;
  query.aggregates = {AggregateSpec::Count()};
  auto result = ExecuteQueryHybrid(table, query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().rows.empty());
  table.Merge();  // no-op
  EXPECT_EQ(table.num_rows(), 0u);
}

// Twelve rows of `value` in 4-row segments, `merged` of them merged into
// the immutable region and the rest left in the mutable region.
HybridTable MakeSumTable(int64_t value, int merged) {
  HybridTable table({{"v", ColumnType::kInt64, EncodingChoice::kBitPacked}},
                    /*segment_rows=*/4);
  table.set_merge_threshold(1 << 20);
  for (int i = 0; i < merged; ++i) table.Insert({value});
  table.Merge();
  for (int i = merged; i < 12; ++i) table.Insert({value});
  return table;
}

QuerySpec SumQuery() {
  QuerySpec query;
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("v")};
  return query;
}

TEST(HybridTableTest, SumOverflowIsReportedNotWrapped) {
  // 3 * 2^62 does not fit int64, whichever region holds the rows.
  for (const int merged : {0, 6, 12}) {
    const HybridTable table = MakeSumTable(int64_t{1} << 60, merged);
    EXPECT_EQ(table.mutable_rows(), static_cast<size_t>(12 - merged));
    auto got = ExecuteQueryHybrid(table, SumQuery());
    ASSERT_FALSE(got.ok()) << merged << " merged: sum "
                           << got.value().rows[0].sums[1];
    EXPECT_EQ(got.status().code(), StatusCode::kOverflowRisk)
        << merged << " merged";
  }
}

TEST(HybridTableTest, NearLimitSumIsExact) {
  const int64_t value = std::numeric_limits<int64_t>::max() / 12;
  for (const int merged : {0, 6, 12}) {
    const HybridTable table = MakeSumTable(value, merged);
    auto got = ExecuteQueryHybrid(table, SumQuery());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got.value().rows.size(), 1u);
    EXPECT_EQ(got.value().rows[0].count, 12u);
    EXPECT_EQ(got.value().rows[0].sums[1], value * 12) << merged << " merged";
  }
}

// A random query over the (s, a, b) schema below: int or string group keys,
// int or string kEq/kLt filters, and every aggregate kind.
QuerySpec RandomQuery(Rng* rng, const char* const* strings, int num_strings) {
  QuerySpec query;
  switch (rng->NextBounded(4)) {
    case 0: break;
    case 1: query.group_by = {"s"}; break;
    case 2: query.group_by = {"a"}; break;
    default: query.group_by = {"s", "a"}; break;
  }
  const int num_filters = static_cast<int>(rng->NextBounded(3));
  for (int f = 0; f < num_filters; ++f) {
    const CompareOp op = rng->NextBernoulli(0.5) ? CompareOp::kEq
                                                 : CompareOp::kLt;
    switch (rng->NextBounded(3)) {
      case 0:
        query.filters.emplace_back(
            "s", op, std::string(strings[rng->NextBounded(num_strings)]));
        break;
      case 1:
        query.filters.emplace_back("a", op, rng->NextInRange(-6, 6));
        break;
      default:
        query.filters.emplace_back("b", op, rng->NextInRange(-1000, 1000));
        break;
    }
  }
  query.aggregates = {
      AggregateSpec::Count(), AggregateSpec::Sum("b"), AggregateSpec::Avg("a"),
      AggregateSpec::Min("b"), AggregateSpec::Max("a"),
      AggregateSpec::SumExpr(Expr::Add(Expr::Mul(Expr::Column(1),
                                                 Expr::Column(2)),
                                       Expr::Constant(3)))};
  return query;
}

// Differential test against an independent oracle: after every random step
// (insert a batch, merge, change the merge threshold), the hybrid answer
// must equal the hash engine's answer over a Table holding the same rows,
// appended row by row.
TEST(HybridTableTest, RandomStepsMatchHashOracle) {
  const Schema schema = {{"s", ColumnType::kString},
                         {"a", ColumnType::kInt64},
                         {"b", ColumnType::kInt64}};
  const char* const kStrings[] = {"", "ant", "bee", "cat", "cow", "dog"};
  constexpr int kNumStrings = 6;
  for (const uint64_t seed : {1, 2, 3, 4, 5, 6}) {
    Rng rng(seed);
    const size_t segment_rows = 1 + rng.NextBounded(40);
    HybridTable hybrid(schema, segment_rows);
    hybrid.set_merge_threshold(1 + rng.NextBounded(3 * segment_rows));
    std::vector<std::vector<int64_t>> rows;
    std::vector<std::string> row_strings;
    for (int step = 0; step < 40; ++step) {
      const uint64_t action = rng.NextBounded(10);
      if (action == 0) {
        hybrid.Merge();
      } else if (action == 1) {
        hybrid.set_merge_threshold(rng.NextBernoulli(0.3)
                                       ? size_t{1} << 20
                                       : 1 + rng.NextBounded(3 * segment_rows));
      } else {
        const size_t n = rng.NextBounded(2 * segment_rows + 2);
        for (size_t i = 0; i < n; ++i) {
          rows.push_back({0, rng.NextInRange(-6, 6),
                          rng.NextInRange(-1000, 1000)});
          row_strings.push_back(kStrings[rng.NextBounded(kNumStrings)]);
          hybrid.Insert(rows.back(), {row_strings.back(), "", ""});
        }
      }
      ASSERT_EQ(hybrid.num_rows(), rows.size());

      Table oracle_table(schema);
      TableAppender appender(&oracle_table, segment_rows);
      for (size_t r = 0; r < rows.size(); ++r) {
        appender.AppendRow(rows[r], {row_strings[r], "", ""});
      }
      appender.Flush();

      for (int q = 0; q < 4; ++q) {
        const QuerySpec query = RandomQuery(&rng, kStrings, kNumStrings);
        const std::string where = "seed " + std::to_string(seed) + " step " +
                                  std::to_string(step) + " query " +
                                  std::to_string(q);
        auto expected = ExecuteQueryHashAgg(oracle_table, query);
        ASSERT_TRUE(expected.ok()) << where << ": "
                                   << expected.status().ToString();
        auto got = ExecuteQueryHybrid(hybrid, query);
        ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
        ASSERT_EQ(got.value().rows.size(), expected.value().rows.size())
            << where;
        for (size_t r = 0; r < got.value().rows.size(); ++r) {
          const ResultRow& g = got.value().rows[r];
          const ResultRow& e = expected.value().rows[r];
          ASSERT_EQ(g.group, e.group) << where << " row " << r;
          ASSERT_EQ(g.count, e.count) << where << " row " << r;
          ASSERT_EQ(g.sums, e.sums) << where << " row " << r;
        }
      }
    }
  }
}

// Rows fed both to a HybridTable and, row by row, to an oracle Table.
// Nothing merges unless a test calls Merge().
class RegionOracle {
 public:
  explicit RegionOracle(Schema schema, size_t segment_rows = 1 << 20)
      : schema_(schema), hybrid_(std::move(schema), segment_rows) {
    hybrid_.set_merge_threshold(SIZE_MAX);
  }

  HybridTable& hybrid() { return hybrid_; }

  void Insert(const std::vector<int64_t>& ints,
              const std::vector<std::string>& strings = {}) {
    hybrid_.Insert(ints, strings);
    ints_.push_back(ints);
    strings_.push_back(strings.empty()
                           ? std::vector<std::string>(schema_.size())
                           : strings);
  }

  // ExecuteQueryHybrid's answer must equal the hash engine's over the
  // oracle table.
  void ExpectMatches(const QuerySpec& query, const ScanOptions& options = {},
                     const std::string& where = "") const {
    Table oracle(schema_);
    TableAppender appender(&oracle);
    for (size_t r = 0; r < ints_.size(); ++r) {
      appender.AppendRow(ints_[r], strings_[r]);
    }
    appender.Flush();
    auto expected = ExecuteQueryHashAgg(oracle, query);
    ASSERT_TRUE(expected.ok()) << where << ": "
                               << expected.status().ToString();
    auto got = ExecuteQueryHybrid(hybrid_, query, options);
    ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
    ASSERT_EQ(got.value().rows.size(), expected.value().rows.size()) << where;
    for (size_t r = 0; r < got.value().rows.size(); ++r) {
      const ResultRow& g = got.value().rows[r];
      const ResultRow& e = expected.value().rows[r];
      ASSERT_EQ(g.group, e.group) << where << " row " << r;
      ASSERT_EQ(g.count, e.count) << where << " row " << r;
      ASSERT_EQ(g.sums, e.sums) << where << " row " << r;
    }
  }

 private:
  Schema schema_;
  HybridTable hybrid_;
  std::vector<std::vector<int64_t>> ints_;
  std::vector<std::vector<std::string>> strings_;
};

uint64_t CounterValue(const char* name) {
  return obs::Counter::Get(name).value();
}

// The region segment stores each int column at the narrowest byte-aligned
// word for its region range: these columns need 8, 16, 32 and 64 bits, and
// `full` spans the whole int64 range.
TEST(HybridTableTest, RegionWordWidthsMatchHashOracle) {
  RegionOracle table({{"s", ColumnType::kString},
                      {"w8", ColumnType::kInt64},
                      {"w16", ColumnType::kInt64},
                      {"w32", ColumnType::kInt64},
                      {"w64", ColumnType::kInt64},
                      {"full", ColumnType::kInt64}});
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const char* const kStrings[] = {"x", "y", "z"};
  Rng rng(11);
  for (int i = 0; i < 3000; ++i) {
    int64_t full = rng.NextInRange(-1000, 1000);
    if (i == 17) full = kMin;
    if (i == 2021) full = kMax;
    table.Insert({0, -1000000 + rng.NextInRange(0, 200),
                  rng.NextInRange(-30000, 30000),
                  rng.NextInRange(-(int64_t{1} << 30), int64_t{1} << 30),
                  rng.NextInRange(-(int64_t{1} << 61), int64_t{1} << 61),
                  full},
                 {kStrings[rng.NextBounded(3)], "", "", "", "", ""});
  }
  for (const char* column : {"w8", "w16", "w32", "w64", "full"}) {
    QuerySpec query;
    query.group_by = {"s"};
    query.aggregates = {AggregateSpec::Count(), AggregateSpec::Min(column),
                        AggregateSpec::Max(column)};
    table.ExpectMatches(query, {}, column);
    query.filters.emplace_back(column, CompareOp::kLt, int64_t{5});
    table.ExpectMatches(query, {}, std::string(column) + " < 5");
  }
  QuerySpec sums;
  sums.aggregates = {AggregateSpec::Sum("w8"), AggregateSpec::Sum("w16"),
                     AggregateSpec::Sum("w32"), AggregateSpec::Avg("w8")};
  sums.filters.emplace_back("w64", CompareOp::kGe, int64_t{0});
  table.ExpectMatches(sums, {}, "sums");
}

// More than 256 distinct strings make the region ids 16 bits wide, and more
// than 65536 make them 32 bits wide.
TEST(HybridTableTest, WideRegionIdsMatchHashOracle) {
  for (const int distinct : {700, 70000}) {
    RegionOracle table({{"s", ColumnType::kString},
                        {"v", ColumnType::kInt64}});
    Rng rng(distinct);
    for (int i = 0; i < distinct + 2000; ++i) {
      const int k = i < distinct ? i : static_cast<int>(rng.NextBounded(9));
      table.Insert({0, rng.NextInRange(0, 99)}, {"k" + std::to_string(k), ""});
    }
    const std::string where = std::to_string(distinct) + " strings";
    QuerySpec grouped;  // more than 255 groups: the hash engine answers
    grouped.group_by = {"s"};
    grouped.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("v")};
    table.ExpectMatches(grouped, {}, where);
    for (const CompareOp op : {CompareOp::kEq, CompareOp::kLt}) {
      QuerySpec filtered;
      filtered.aggregates = {AggregateSpec::Count(), AggregateSpec::Max("v")};
      filtered.filters.emplace_back("s", op, std::string("k5"));
      table.ExpectMatches(filtered, {}, where + " filtered");
    }
  }
}

// Pooled morsels of one batch each all read the region segment the calling
// thread built.
TEST(HybridTableTest, PooledMorselsShareTheRegionSegment) {
  RegionOracle table(MakeSchema());
  Rng rng(12);
  const char* const kRegions[] = {"n", "s", "e"};
  for (size_t i = 0; i < 3 * kBatchRows + 123; ++i) {
    table.Insert({0, rng.NextInRange(0, 9999), rng.NextInRange(1, 50)},
                 {kRegions[rng.NextBounded(3)], "", ""});
  }
  QuerySpec query;
  query.group_by = {"region"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("amount"),
                      AggregateSpec::Min("qty")};
  query.filters.emplace_back("amount", CompareOp::kGe, int64_t{2500});
  ScanOptions options;
  options.num_threads = 0;
  options.morsel_rows = kBatchRows;
  const uint64_t morsels = CounterValue("scan.morsels");
  table.ExpectMatches(query, options);
  if (std::thread::hardware_concurrency() > 1) {
    EXPECT_GE(CounterValue("scan.morsels") - morsels, 4u);
  }
}

// Int group-bys over region rows. The region segment bit-packs every int
// column, so a group-by whose region ranges give more than 255 groups runs
// that segment hashed, while the merged segments, whose kAuto dictionary
// holds a wide range's few values, stay specialized.
TEST(HybridTableTest, IntGroupByOverRegionMatchesHashOracle) {
  RegionOracle table({{"g", ColumnType::kInt64},
                      {"wide_g", ColumnType::kInt64},
                      {"huge_g", ColumnType::kInt64},
                      {"full_g", ColumnType::kInt64},
                      {"many_g", ColumnType::kInt64},
                      {"tens_g", ColumnType::kInt64},
                      {"v", ColumnType::kInt64}},
                     /*segment_rows=*/1000);
  const int64_t kExtremes[] = {std::numeric_limits<int64_t>::min(), 0,
                               std::numeric_limits<int64_t>::max()};
  Rng rng(13);
  for (int i = 0; i < 2500; ++i) {
    // wide_g, huge_g and full_g have three values each but ranges of 2000,
    // 2^33 and 2^64; many_g has 300 values; g (13 values) and tens_g (3
    // values over a range of 21) give 273 bit-packed group ids together.
    const int64_t k = rng.NextInRange(0, 2);
    table.Insert({rng.NextInRange(-6, 6), 1000 * k, k << 32, kExtremes[k],
                  7 * (i % 300), 10 * rng.NextInRange(0, 2),
                  rng.NextInRange(-500, 500)});
    if (i == 1499) table.hybrid().Merge();  // straddle both regions
  }
  const std::vector<std::vector<std::string>> kGroupBys = {
      {"g"},           {"wide_g"},       {"huge_g"}, {"full_g"},
      {"g", "wide_g"}, {"g", "tens_g"}, {"many_g"}};
  for (const std::vector<std::string>& group_by : kGroupBys) {
    QuerySpec query;
    query.group_by = group_by;
    query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("v"),
                        AggregateSpec::Max("v")};
    query.filters.emplace_back("v", CompareOp::kNe, int64_t{0});
    const uint64_t hashed = CounterValue("scan.hash_fallbacks");
    table.ExpectMatches(query, {}, group_by.back());
    // g fits 255 ids everywhere; many_g's 300 values hash all three
    // segments; every other group-by hashes the region segment alone.
    const uint64_t want = group_by == std::vector<std::string>{"g"} ? 0
                          : group_by[0] == "many_g"                 ? 3
                                                                    : 1;
    EXPECT_EQ(CounterValue("scan.hash_fallbacks") - hashed, want)
        << group_by.back();
  }
}

// The region segment carries its exact min/max, so a filter outside its
// range eliminates it like any other segment.
TEST(HybridTableTest, FilterOutsideRegionRangeEliminatesRegion) {
  RegionOracle table({{"v", ColumnType::kInt64}}, /*segment_rows=*/4096);
  for (int64_t i = 0; i < 1000; ++i) table.Insert({i});
  table.hybrid().Merge();
  for (int64_t i = 0; i < 1000; ++i) table.Insert({5000 + i});
  QuerySpec query;
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("v")};
  query.filters.emplace_back("v", CompareOp::kLt, int64_t{1000});
  uint64_t eliminated = CounterValue("scan.segments_eliminated");
  table.ExpectMatches(query);
  EXPECT_EQ(CounterValue("scan.segments_eliminated") - eliminated, 1u);
  // Above the region max: both segments go.
  query.filters[0] = ColumnPredicate("v", CompareOp::kGt, int64_t{6500});
  eliminated = CounterValue("scan.segments_eliminated");
  table.ExpectMatches(query);
  EXPECT_EQ(CounterValue("scan.segments_eliminated") - eliminated, 2u);
}

// Merge() starts a new region dictionary: after 300 distinct strings are
// merged, two fresh ones group in the specialized scan again.
TEST(HybridTableTest, MergeStartsANewRegionDictionary) {
  RegionOracle table({{"s", ColumnType::kString}, {"v", ColumnType::kInt64}});
  for (int i = 0; i < 300; ++i) {
    table.Insert({0, i}, {"old" + std::to_string(i), ""});
  }
  table.hybrid().Merge();
  for (int i = 0; i < 50; ++i) {
    table.Insert({0, 1000 + i}, {i % 2 ? "a" : "b", ""});
  }
  QuerySpec query;  // the filter eliminates the merged segment
  query.group_by = {"s"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("v")};
  query.filters.emplace_back("v", CompareOp::kGe, int64_t{1000});
  const uint64_t fallbacks = CounterValue("scan.hash_fallbacks");
  table.ExpectMatches(query);
  EXPECT_EQ(CounterValue("scan.hash_fallbacks"), fallbacks);
}

// Forced strategies now reach region rows: one the region segment cannot
// run is an error, as on an encoded segment.
TEST(HybridTableTest, InfeasibleForcedStrategyOnRegionIsAnError) {
  HybridTable table(MakeSchema());
  InsertRandomRows(&table, 100, 14);
  QuerySpec query;
  query.group_by = {"region"};
  query.aggregates = {AggregateSpec::Count()};
  ScanOptions options;
  options.overrides.aggregation = AggregationStrategy::kRunBased;
  auto got = ExecuteQueryHybrid(table, query, options);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kNotSupported);
}

}  // namespace
}  // namespace bipie
