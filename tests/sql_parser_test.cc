#include "sql/parser.h"

#include <gtest/gtest.h>

#include "baseline/scalar_engine.h"
#include "common/random.h"
#include "core/scan.h"

namespace bipie {
namespace {

Table MakeTable() {
  Table table({{"city", ColumnType::kString},
               {"amount", ColumnType::kInt64},
               {"qty", ColumnType::kInt64},
               {"tax", ColumnType::kInt64}});
  TableAppender app(&table, 4096);
  Rng rng(404);
  const char* cities[3] = {"hou", "sea", "bos"};
  for (int i = 0; i < 6000; ++i) {
    app.AppendRow({0, rng.NextInRange(1, 1000), rng.NextInRange(1, 50),
                   rng.NextInRange(0, 8)},
                  {cities[rng.NextBounded(3)], "", "", ""});
  }
  app.Flush();
  return table;
}

TEST(SqlParserTest, BasicShape) {
  Table t = MakeTable();
  auto parsed = ParseQuery(
      "SELECT city, count(*), sum(amount) FROM sales "
      "WHERE amount < 500 GROUP BY city",
      t);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const QuerySpec& q = parsed.value().spec;
  EXPECT_EQ(parsed.value().table_name, "sales");
  EXPECT_EQ(q.group_by, std::vector<std::string>{"city"});
  ASSERT_EQ(q.aggregates.size(), 2u);
  EXPECT_EQ(q.aggregates[0].kind, AggregateSpec::Kind::kCount);
  EXPECT_EQ(q.aggregates[1].kind, AggregateSpec::Kind::kSum);
  EXPECT_EQ(q.aggregates[1].column, "amount");
  ASSERT_EQ(q.filters.size(), 1u);
  EXPECT_EQ(q.filters[0].op(), CompareOp::kLt);
  EXPECT_EQ(q.filters[0].literal(), 500);
}

TEST(SqlParserTest, AllAggregateKinds) {
  Table t = MakeTable();
  auto parsed = ParseQuery(
      "select count(*), sum(qty), avg(amount), min(tax), max(tax) "
      "from x",
      t);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& aggs = parsed.value().spec.aggregates;
  ASSERT_EQ(aggs.size(), 5u);
  EXPECT_EQ(aggs[1].kind, AggregateSpec::Kind::kSum);
  EXPECT_EQ(aggs[2].kind, AggregateSpec::Kind::kAvg);
  EXPECT_EQ(aggs[3].kind, AggregateSpec::Kind::kMin);
  EXPECT_EQ(aggs[4].kind, AggregateSpec::Kind::kMax);
}

TEST(SqlParserTest, SumExpressionWithPrecedence) {
  Table t = MakeTable();
  auto parsed = ParseQuery(
      "SELECT sum(amount * (100 - tax) + qty) FROM x", t);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& agg = parsed.value().spec.aggregates[0];
  ASSERT_EQ(agg.kind, AggregateSpec::Kind::kSumExpr);
  // Evaluate the parsed tree on a tiny batch to confirm structure:
  // amount=10, tax=4, qty=7 -> 10*96 + 7 = 967.
  const int64_t amount = 10, qty = 7, tax = 4, city = 0;
  const int64_t* cols[4] = {&city, &amount, &qty, &tax};
  int64_t out = 0;
  agg.expr->Evaluate(cols, 1, &out);
  EXPECT_EQ(out, 967);
}

TEST(SqlParserTest, StructurallyEqualSubtreesAreOneNode) {
  // Q1's shape: the second sum multiplies the first one's whole argument,
  // which the parser must hand back as the same node, not a copy.
  Table t = MakeTable();
  auto parsed = ParseQuery(
      "SELECT sum(amount * (100 - tax)), "
      "sum(amount * (100 - tax) * (100 + qty)) FROM x",
      t);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& aggs = parsed.value().spec.aggregates;
  ASSERT_EQ(aggs.size(), 2u);
  ASSERT_EQ(aggs[1].expr->kind(), ExprKind::kMul);
  EXPECT_EQ(aggs[1].expr->lhs().get(), aggs[0].expr.get());
  // Leaves and constants are shared too: both 100s are one node.
  EXPECT_EQ(aggs[0].expr->rhs()->lhs().get(),
            aggs[1].expr->rhs()->lhs().get());
}

TEST(SqlParserTest, UnaryMinusAndNegativeLiterals) {
  Table t = MakeTable();
  auto parsed = ParseQuery(
      "SELECT sum(-qty * 2) FROM x WHERE amount > -5", t);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().spec.filters[0].literal(), -5);
  const int64_t qty = 3, zero = 0;
  const int64_t* cols[4] = {&zero, &zero, &qty, &zero};
  int64_t out = 0;
  parsed.value().spec.aggregates[0].expr->Evaluate(cols, 1, &out);
  EXPECT_EQ(out, -6);
}

TEST(SqlParserTest, StringPredicate) {
  Table t = MakeTable();
  auto parsed = ParseQuery(
      "SELECT count(*) FROM x WHERE city = 'sea'", t);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto result = ExecuteQuery(t, parsed.value().spec);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().rows.size(), 1u);
  EXPECT_GT(result.value().rows[0].count, 1500u);
  EXPECT_LT(result.value().rows[0].count, 2500u);
}

TEST(SqlParserTest, ConjunctionAndAllOperators) {
  Table t = MakeTable();
  for (const char* op : {"=", "<>", "!=", "<", "<=", ">", ">="}) {
    auto parsed = ParseQuery(
        std::string("SELECT count(*) FROM x WHERE amount ") + op +
            " 100 AND qty >= 10",
        t);
    ASSERT_TRUE(parsed.ok()) << op << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed.value().spec.filters.size(), 2u);
  }
}

TEST(SqlParserTest, ParsedQueryExecutesCorrectly) {
  Table t = MakeTable();
  auto parsed = ParseQuery(
      "SELECT city, count(*), sum(amount * qty), min(amount), max(amount) "
      "FROM sales WHERE tax <= 4 GROUP BY city",
      t);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto via_sql = ExecuteQuery(t, parsed.value().spec);
  ASSERT_TRUE(via_sql.ok());
  auto oracle = ExecuteQueryNaive(t, parsed.value().spec);
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(via_sql.value().rows.size(), oracle.value().rows.size());
  for (size_t r = 0; r < via_sql.value().rows.size(); ++r) {
    EXPECT_EQ(via_sql.value().rows[r].sums, oracle.value().rows[r].sums);
  }
}

TEST(SqlParserTest, CaseInsensitiveKeywordsCaseSensitiveColumns) {
  Table t = MakeTable();
  EXPECT_TRUE(
      ParseQuery("SeLeCt CoUnT(*) FrOm x WhErE amount < 5", t).ok());
  EXPECT_FALSE(ParseQuery("SELECT count(*) FROM x WHERE AMOUNT < 5", t).ok());
}

TEST(SqlParserTest, Rejections) {
  Table t = MakeTable();
  // Ungrouped bare column.
  EXPECT_FALSE(ParseQuery("SELECT city, count(*) FROM x", t).ok());
  // Unknown column.
  EXPECT_FALSE(ParseQuery("SELECT count(*) FROM x WHERE nope = 1", t).ok());
  // Missing FROM.
  EXPECT_FALSE(ParseQuery("SELECT count(*)", t).ok());
  // No aggregate.
  EXPECT_FALSE(ParseQuery("SELECT city FROM x GROUP BY city", t).ok());
  // Garbage trailing input.
  EXPECT_FALSE(ParseQuery("SELECT count(*) FROM x LIMIT 5", t).ok());
  // Unterminated string.
  EXPECT_FALSE(ParseQuery("SELECT count(*) FROM x WHERE city = 'a", t).ok());
  // Unsupported operator.
  EXPECT_FALSE(ParseQuery("SELECT count(*) FROM x WHERE qty % 2", t).ok());
  // min() of an expression is not supported.
  EXPECT_FALSE(ParseQuery("SELECT min(qty * 2) FROM x", t).ok());
}

TEST(SqlParserTest, IllTypedQueriesParseButNeverExecute) {
  // The parser resolves names, not types: these statements parse, and the
  // engine rejects each one before reading a row instead of summing or
  // comparing dictionary ids.
  Table t = MakeTable();
  for (const char* sql :
       {"SELECT city, sum(city) FROM x GROUP BY city",
        "SELECT qty, sum(city * 2) FROM x GROUP BY qty",
        "SELECT max(city) FROM x", "SELECT count(*) FROM x WHERE qty = 'abc'",
        "SELECT count(*) FROM x WHERE city = 3"}) {
    auto parsed = ParseQuery(sql, t);
    ASSERT_TRUE(parsed.ok()) << sql << ": " << parsed.status().ToString();
    auto result = ExecuteQuery(t, parsed.value().spec);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << sql << ": " << result.status().ToString();
  }
}

TEST(SqlParserTest, BetweenPredicate) {
  Table t = MakeTable();
  auto parsed = ParseQuery(
      "SELECT count(*) FROM x WHERE amount BETWEEN 100 AND 200 "
      "AND tax between -1 and 4",
      t);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().spec.filters.size(), 2u);
  EXPECT_EQ(parsed.value().spec.filters[0].op(), CompareOp::kBetween);
  EXPECT_EQ(parsed.value().spec.filters[0].literal(), 100);
  EXPECT_EQ(parsed.value().spec.filters[0].literal2(), 200);
  EXPECT_EQ(parsed.value().spec.filters[1].literal(), -1);
  auto result = ExecuteQuery(t, parsed.value().spec);
  ASSERT_TRUE(result.ok());
  auto oracle = ExecuteQueryNaive(t, parsed.value().spec);
  ASSERT_EQ(result.value().rows[0].count, oracle.value().rows[0].count);

  // BETWEEN with a missing AND is a clean error.
  EXPECT_FALSE(
      ParseQuery("SELECT count(*) FROM x WHERE amount BETWEEN 1 2", t).ok());
}

TEST(SqlParserTest, FuzzedInputsNeverCrash) {
  // Random token soup must produce clean errors (or occasionally parse),
  // never crash or hang.
  Table t = MakeTable();
  const char* vocab[] = {"SELECT", "FROM",  "WHERE", "GROUP",  "BY",
                         "AND",    "count", "sum",   "min",    "(",
                         ")",      "*",     ",",     "+",      "-",
                         "<",      ">=",    "=",     "city",   "amount",
                         "qty",    "42",    "'x'",   "nope",   "<>"};
  Rng rng(2024);
  for (int iter = 0; iter < 500; ++iter) {
    std::string sql;
    const int len = 1 + static_cast<int>(rng.NextBounded(20));
    for (int i = 0; i < len; ++i) {
      sql += vocab[rng.NextBounded(sizeof(vocab) / sizeof(vocab[0]))];
      sql += " ";
    }
    auto parsed = ParseQuery(sql, t);  // must return, not crash
    if (parsed.ok()) {
      // Anything that parses must also execute or fail cleanly.
      auto result = ExecuteQuery(t, parsed.value().spec);
      (void)result;
    }
  }
}

TEST(SqlParserTest, SumOfPlainColumnStaysRawColumnSum) {
  // sum(col) must compile to the raw-column fast path, not an expression.
  Table t = MakeTable();
  auto parsed = ParseQuery("SELECT sum(qty) FROM x", t);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().spec.aggregates[0].kind,
            AggregateSpec::Kind::kSum);
  EXPECT_EQ(parsed.value().spec.aggregates[0].column, "qty");
}

}  // namespace
}  // namespace bipie
