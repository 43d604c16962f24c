#include "core/aggregate_processor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/random.h"
#include "storage/table.h"

namespace bipie {
namespace {

struct ProcessorFixture {
  Table table;
  QuerySpec query;

  explicit ProcessorFixture(size_t rows = 8192, int num_groups = 5,
                            uint64_t seed = 10)
      : table({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"y", ColumnType::kInt64, EncodingChoice::kBitPacked}}) {
    TableAppender app(&table, rows);
    Rng rng(seed);
    for (size_t i = 0; i < rows; ++i) {
      app.AppendRow({static_cast<int64_t>(rng.NextBounded(num_groups)),
                     rng.NextInRange(0, 255),
                     rng.NextInRange(-100, 100)});
    }
    app.Flush();
    query.group_by = {"g"};
    query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("x"),
                        AggregateSpec::Sum("y")};
    query.filters.emplace_back("x", CompareOp::kLt, int64_t{200});
  }

  const Segment& segment() const { return table.segment(0); }
};

TEST(AggregateProcessorTest, BindResolvesStrategyFromMetadata) {
  ProcessorFixture f;
  AggregateProcessor processor;
  ASSERT_TRUE(
      processor.Bind(f.table, f.segment(), f.query, {}).ok());
  // 5 groups (+special), two raw sums of <= 8 bits... y spans [-100,100] ->
  // 8-bit offsets. Small bits + few groups: in-register territory.
  EXPECT_EQ(processor.aggregation_strategy(),
            AggregationStrategy::kInRegister);
  EXPECT_EQ(processor.num_groups(), 5);
}

TEST(AggregateProcessorTest, BindRejectsInfeasibleForcedStrategies) {
  ProcessorFixture f;
  // In-register cannot take expression aggregates.
  QuerySpec expr_query = f.query;
  expr_query.aggregates.push_back(AggregateSpec::SumExpr(
      Expr::Mul(Expr::Column(1), Expr::Column(2))));
  StrategyOverrides overrides;
  overrides.aggregation = AggregationStrategy::kInRegister;
  AggregateProcessor processor;
  EXPECT_EQ(
      processor.Bind(f.table, f.segment(), expr_query, overrides).code(),
      StatusCode::kNotSupported);

  // Multi-aggregate: five 64-bit expression slots cannot fit.
  QuerySpec wide_query = f.query;
  wide_query.aggregates.clear();
  for (int i = 0; i < 5; ++i) {
    wide_query.aggregates.push_back(AggregateSpec::SumExpr(
        Expr::Add(Expr::Column(2), Expr::Constant(i))));
  }
  overrides.aggregation = AggregationStrategy::kMultiAggregate;
  EXPECT_EQ(
      processor.Bind(f.table, f.segment(), wide_query, overrides).code(),
      StatusCode::kNotSupported);
  // The rejected plan still records what drove the rejection (Explain
  // renders it).
  SegmentPlan plan;
  EXPECT_EQ(PlanSegment(f.table, f.segment(), wide_query, overrides, &plan)
                .code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(plan.decision.num_sums, 5);
  EXPECT_FALSE(plan.decision.multi_aggregate_fits);

  // Sort-based needs at least one sum.
  QuerySpec count_query;
  count_query.group_by = {"g"};
  count_query.aggregates = {AggregateSpec::Count()};
  overrides.aggregation = AggregationStrategy::kSortBased;
  EXPECT_EQ(
      processor.Bind(f.table, f.segment(), count_query, overrides).code(),
      StatusCode::kNotSupported);
}

TEST(AggregateProcessorTest, PerBatchSelectionAdaptsToSelectivity) {
  ProcessorFixture f(16384, 5, 11);
  AggregateProcessor processor;
  ASSERT_TRUE(processor.Bind(f.table, f.segment(), f.query, {}).ok());
  // Batch 0: 1% selected -> gather. Batch 1: 99% selected -> special group.
  std::vector<uint8_t> sel(4096);
  Rng rng(3);
  for (auto& b : sel) b = rng.NextBernoulli(0.01) ? 0xFF : 0x00;
  ASSERT_TRUE(processor.ProcessBatch(0, 4096, sel.data()).ok());
  for (auto& b : sel) b = rng.NextBernoulli(0.99) ? 0xFF : 0x00;
  ASSERT_TRUE(processor.ProcessBatch(4096, 4096, sel.data()).ok());
  EXPECT_EQ(processor.selection_stats().gather, 1u);
  EXPECT_EQ(processor.selection_stats().special_group, 1u);
}

TEST(AggregateProcessorTest, AllSelectedFilterCountsAsUnfiltered) {
  ProcessorFixture f;
  AggregateProcessor processor;
  ASSERT_TRUE(processor.Bind(f.table, f.segment(), f.query, {}).ok());
  std::vector<uint8_t> sel(4096, 0xFF);
  ASSERT_TRUE(processor.ProcessBatch(0, 4096, sel.data()).ok());
  EXPECT_EQ(processor.selection_stats().unfiltered, 1u);
}

TEST(AggregateProcessorTest, AllRejectedBatchIsSkipped) {
  ProcessorFixture f;
  AggregateProcessor processor;
  ASSERT_TRUE(processor.Bind(f.table, f.segment(), f.query, {}).ok());
  std::vector<uint8_t> sel(4096, 0x00);
  ASSERT_TRUE(processor.ProcessBatch(0, 4096, sel.data()).ok());
  AggregateProcessor::SegmentResult result;
  ASSERT_TRUE(processor.Finish(&result).ok());
  for (int g = 0; g < result.num_groups; ++g) {
    EXPECT_EQ(result.counts[g], 0u);
  }
}

TEST(AggregateProcessorTest, CompensationHandlesNegativeBases) {
  // Column y has base -100; sums must come back in the logical domain.
  ProcessorFixture f(4096, 3, 12);
  AggregateProcessor processor;
  ASSERT_TRUE(processor.Bind(f.table, f.segment(), f.query, {}).ok());
  ASSERT_TRUE(processor.ProcessBatch(0, 4096, nullptr).ok());
  AggregateProcessor::SegmentResult result;
  ASSERT_TRUE(processor.Finish(&result).ok());

  // Manual reference.
  std::vector<int64_t> g(4096), x(4096), y(4096);
  f.segment().column(0).DecodeInt64(0, 4096, g.data());
  f.segment().column(1).DecodeInt64(0, 4096, x.data());
  f.segment().column(2).DecodeInt64(0, 4096, y.data());
  const IntDictionary& dict = *f.segment().column(0).int_dictionary();
  std::vector<uint64_t> counts(result.num_groups, 0);
  std::vector<int64_t> sum_y(result.num_groups, 0);
  for (size_t i = 0; i < 4096; ++i) {
    // g decodes to logical values; map back to dictionary id = group id.
    const int64_t gid = dict.Find(g[i]);
    ++counts[gid];
    sum_y[gid] += y[i];
  }
  for (int gid = 0; gid < result.num_groups; ++gid) {
    EXPECT_EQ(result.counts[gid], counts[gid]);
    EXPECT_EQ(result.values[gid * 3 + 2], sum_y[gid]) << "group " << gid;
  }
}

TEST(AggregateProcessorTest, SharedColumnInputsProduceSharedSlots) {
  ProcessorFixture f;
  QuerySpec query = f.query;
  query.aggregates = {AggregateSpec::Sum("x"), AggregateSpec::Avg("x"),
                      AggregateSpec::Count()};
  AggregateProcessor processor;
  ASSERT_TRUE(processor.Bind(f.table, f.segment(), query, {}).ok());
  ASSERT_TRUE(processor.ProcessBatch(0, 4096, nullptr).ok());
  AggregateProcessor::SegmentResult result;
  ASSERT_TRUE(processor.Finish(&result).ok());
  for (int g = 0; g < result.num_groups; ++g) {
    // sum(x) and avg(x) slots must agree; count slot equals counts.
    EXPECT_EQ(result.values[g * 3 + 0], result.values[g * 3 + 1]);
    EXPECT_EQ(result.values[g * 3 + 2],
              static_cast<int64_t>(result.counts[g]));
  }
}

TEST(AggregateProcessorTest, CompactModeEvaluatesExpressionsPostFilter) {
  // Compact selection must produce identical expression sums to the other
  // modes even though it evaluates over compacted (dense) inputs, and the
  // shared-column cache must not leak stale dense arrays across batches.
  ProcessorFixture f(12288, 4, 21);
  ExprPtr shared =
      Expr::Mul(Expr::Column(1), Expr::Sub(Expr::Constant(50),
                                           Expr::Column(2)));
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::SumExpr(shared),
                      AggregateSpec::SumExpr(Expr::Mul(shared,
                                                       Expr::Constant(2)))};
  query.filters.emplace_back("x", CompareOp::kLt, int64_t{200});

  auto run = [&](SelectionStrategy sel) {
    StrategyOverrides overrides;
    overrides.selection = sel;
    overrides.aggregation = AggregationStrategy::kMultiAggregate;
    AggregateProcessor processor;
    EXPECT_TRUE(processor.Bind(f.table, f.segment(), query, overrides).ok());
    Rng rng(33);
    std::vector<uint8_t> sel_bytes(4096);
    for (size_t start = 0; start < 12288; start += 4096) {
      Rng batch_rng(start + 1);
      for (auto& v : sel_bytes) {
        v = batch_rng.NextBernoulli(0.6) ? 0xFF : 0x00;
      }
      EXPECT_TRUE(processor.ProcessBatch(start, 4096, sel_bytes.data()).ok());
    }
    AggregateProcessor::SegmentResult result;
    EXPECT_TRUE(processor.Finish(&result).ok());
    return result;
  };

  const auto compact = run(SelectionStrategy::kCompact);
  const auto gather = run(SelectionStrategy::kGather);
  const auto special = run(SelectionStrategy::kSpecialGroup);
  ASSERT_EQ(compact.values.size(), gather.values.size());
  EXPECT_EQ(compact.values, gather.values);
  EXPECT_EQ(compact.values, special.values);
  EXPECT_EQ(compact.counts, gather.counts);
  // The nested expression must be exactly double the shared one.
  for (int g = 0; g < compact.num_groups; ++g) {
    EXPECT_EQ(compact.values[g * 3 + 2], compact.values[g * 3 + 1] * 2);
  }
}

TEST(AggregateProcessorTest, SharedSubtreeEvaluatedOnceViaCache) {
  // disc_price-style sharing: the second expression embeds the first.
  ProcessorFixture f;
  ExprPtr base_expr =
      Expr::Mul(Expr::Column(1), Expr::Sub(Expr::Constant(100),
                                           Expr::Column(2)));
  ExprPtr nested = Expr::Mul(base_expr, Expr::Constant(3));
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::SumExpr(base_expr),
                      AggregateSpec::SumExpr(nested)};
  AggregateProcessor processor;
  ASSERT_TRUE(processor.Bind(f.table, f.segment(), query, {}).ok());
  ASSERT_TRUE(processor.ProcessBatch(0, 4096, nullptr).ok());
  ASSERT_TRUE(processor.ProcessBatch(4096, 4096, nullptr).ok());
  AggregateProcessor::SegmentResult result;
  ASSERT_TRUE(processor.Finish(&result).ok());
  for (int g = 0; g < result.num_groups; ++g) {
    EXPECT_EQ(result.values[g * 2 + 1], result.values[g * 2 + 0] * 3);
  }
}

}  // namespace
}  // namespace bipie
