// Randomized differential testing: generate random schemas, data, queries
// and strategy choices; the BIPie scan must agree exactly with the naive
// decode-everything oracle on every one of them.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/hash_agg.h"
#include "baseline/scalar_engine.h"
#include "common/random.h"
#include "core/scan.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"
#include "storage/column_builder.h"

namespace bipie {
namespace {

struct RandomCase {
  Table table;
  QuerySpec query;
  std::string description;

  explicit RandomCase(uint64_t seed) : table(MakeSchema(seed)) {
    Rng rng(seed * 7919 + 1);
    const size_t rows = 1000 + rng.NextBounded(12000);
    const size_t segment_rows = 512 + rng.NextBounded(8192);
    TableAppender app(&table, segment_rows);
    const int group_card = 2 + static_cast<int>(rng.NextBounded(9));
    const char* flags[10] = {"a", "b", "c", "d", "e",
                             "f", "g", "h", "i", "j"};
    for (size_t i = 0; i < rows; ++i) {
      std::vector<int64_t> ints(table.num_columns(), 0);
      std::vector<std::string> strings(table.num_columns());
      for (size_t c = 0; c < table.num_columns(); ++c) {
        if (table.schema()[c].type == ColumnType::kString) {
          strings[c] = flags[rng.NextBounded(group_card)];
        } else if (table.schema()[c].name == "g2") {
          ints[c] = rng.NextInRange(5, 5 + 3);  // small domain for grouping
        } else {
          // Mix of ranges: narrow non-negative, signed, wide.
          switch (c % 3) {
            case 0: ints[c] = rng.NextInRange(0, 63); break;
            case 1: ints[c] = rng.NextInRange(-4000, 4000); break;
            default: ints[c] = rng.NextInRange(0, 1 << 22); break;
          }
        }
      }
      app.AppendRow(ints, strings);
    }
    app.Flush();

    // Random deletions in ~half the cases.
    if (rng.NextBernoulli(0.5)) {
      const size_t dels = rng.NextBounded(rows / 10 + 1);
      for (size_t d = 0; d < dels; ++d) {
        const size_t seg = rng.NextBounded(table.num_segments());
        table.mutable_segment(seg).DeleteRow(
            rng.NextBounded(table.segment(seg).num_rows()));
      }
      description += " deletions";
    }

    // Group by 0..2 columns.
    const int ngroup = static_cast<int>(rng.NextBounded(3));
    if (ngroup >= 1) query.group_by.push_back("g1");
    if (ngroup >= 2) query.group_by.push_back("g2");
    description += " groupby=" + std::to_string(ngroup);

    // 1..5 aggregates of random kinds.
    query.aggregates.push_back(AggregateSpec::Count());
    const int naggs = 1 + static_cast<int>(rng.NextBounded(4));
    const char* value_cols[3] = {"v0", "v1", "v2"};
    for (int a = 0; a < naggs; ++a) {
      switch (rng.NextBounded(5)) {
        case 0:
          query.aggregates.push_back(
              AggregateSpec::Sum(value_cols[rng.NextBounded(3)]));
          break;
        case 1:
          query.aggregates.push_back(
              AggregateSpec::Avg(value_cols[rng.NextBounded(3)]));
          break;
        case 3:
          query.aggregates.push_back(
              AggregateSpec::Min(value_cols[rng.NextBounded(3)]));
          break;
        case 4:
          query.aggregates.push_back(
              AggregateSpec::Max(value_cols[rng.NextBounded(3)]));
          break;
        default: {
          const int c0 = table.FindColumn(value_cols[rng.NextBounded(3)]);
          const int c1 = table.FindColumn(value_cols[rng.NextBounded(3)]);
          query.aggregates.push_back(AggregateSpec::SumExpr(Expr::Add(
              Expr::Mul(Expr::Column(c0), Expr::Constant(
                                              1 + rng.NextBounded(50))),
              Expr::Column(c1))));
          break;
        }
      }
    }
    description += " aggs=" + std::to_string(naggs);

    // 0..2 filters.
    const int nfilters = static_cast<int>(rng.NextBounded(3));
    const CompareOp ops[6] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                              CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
    for (int fidx = 0; fidx < nfilters; ++fidx) {
      query.filters.emplace_back(value_cols[rng.NextBounded(3)],
                                 ops[rng.NextBounded(6)],
                                 rng.NextInRange(-5000, 5000));
    }
    description += " filters=" + std::to_string(nfilters);
  }

  static Schema MakeSchema(uint64_t seed) {
    Rng rng(seed);
    Schema schema;
    schema.push_back({"g1", rng.NextBernoulli(0.5) ? ColumnType::kString
                                                   : ColumnType::kInt64,
                      EncodingChoice::kAuto});
    if (schema[0].type == ColumnType::kInt64) {
      schema[0].encoding = EncodingChoice::kDictionary;
    }
    schema.push_back({"g2", ColumnType::kInt64,
                      rng.NextBernoulli(0.3) ? EncodingChoice::kRle
                                             : EncodingChoice::kDictionary});
    const EncodingChoice encodings[3] = {EncodingChoice::kBitPacked,
                                         EncodingChoice::kAuto,
                                         EncodingChoice::kDictionary};
    schema.push_back({"v0", ColumnType::kInt64, EncodingChoice::kBitPacked});
    schema.push_back(
        {"v1", ColumnType::kInt64, encodings[rng.NextBounded(3)]});
    schema.push_back(
        {"v2", ColumnType::kInt64, encodings[rng.NextBounded(3)]});
    return schema;
  }
};

void ExpectAgreement(const QueryResult& got, const QueryResult& expected,
                     const std::string& context) {
  ASSERT_EQ(got.rows.size(), expected.rows.size()) << context;
  for (size_t r = 0; r < got.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].group, expected.rows[r].group) << context;
    ASSERT_EQ(got.rows[r].count, expected.rows[r].count) << context;
    ASSERT_EQ(got.rows[r].sums, expected.rows[r].sums) << context;
  }
}

class DifferentialProperty : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialProperty, BIPieMatchesOracleOnRandomWorkloads) {
  const uint64_t seed = 1000 + GetParam();
  RandomCase c(seed);
  auto expected = ExecuteQueryNaive(c.table, c.query);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  // Adaptive run.
  auto adaptive = ExecuteQuery(c.table, c.query);
  ASSERT_TRUE(adaptive.ok())
      << adaptive.status().ToString() << " case:" << c.description;
  ExpectAgreement(adaptive.value(), expected.value(),
                  "adaptive seed=" + std::to_string(seed) + c.description);

  // Hash baseline.
  auto hashed = ExecuteQueryHashAgg(c.table, c.query);
  ASSERT_TRUE(hashed.ok());
  ExpectAgreement(hashed.value(), expected.value(),
                  "hash seed=" + std::to_string(seed));

  // Two pseudo-random forced combinations (skipping infeasible ones).
  Rng rng(seed + 5);
  const SelectionStrategy sels[3] = {SelectionStrategy::kGather,
                                     SelectionStrategy::kCompact,
                                     SelectionStrategy::kSpecialGroup};
  const AggregationStrategy aggs[4] = {
      AggregationStrategy::kScalar, AggregationStrategy::kInRegister,
      AggregationStrategy::kSortBased, AggregationStrategy::kMultiAggregate};
  for (int k = 0; k < 2; ++k) {
    ScanOptions options;
    options.overrides.selection = sels[rng.NextBounded(3)];
    options.overrides.aggregation = aggs[rng.NextBounded(4)];
    auto forced = ExecuteQuery(c.table, c.query, options);
    if (!forced.ok()) {
      // Infeasible strategy for this shape — must be a clean rejection.
      ASSERT_EQ(forced.status().code(), StatusCode::kNotSupported)
          << forced.status().ToString();
      continue;
    }
    ExpectAgreement(
        forced.value(), expected.value(),
        std::string("forced ") +
            SelectionStrategyName(*options.overrides.selection) + "+" +
            AggregationStrategyName(*options.overrides.aggregation) +
            " seed=" + std::to_string(seed));
  }
}

INSTANTIATE_TEST_SUITE_P(FortyRandomWorkloads, DifferentialProperty,
                         ::testing::Range(0, 40));

// Advisor property (DESIGN.md §17): whatever distribution the values have,
// the advised encoding must (a) be the predicted-cost argmin among the
// feasible candidates and (b) round-trip the values losslessly when the
// column is actually built with it.
class AdvisorProperty : public ::testing::TestWithParam<int> {};

TEST_P(AdvisorProperty, AdvisedEncodingIsCheapestAndLossless) {
  const uint64_t seed = 7000 + GetParam();
  Rng rng(seed);
  std::vector<int64_t> values;
  const size_t n = 500 + rng.NextBounded(6000);
  const int shape = static_cast<int>(rng.NextBounded(5));
  values.reserve(n);
  switch (shape) {
    case 0:  // narrow uniform
      for (size_t i = 0; i < n; ++i) values.push_back(rng.NextInRange(0, 100));
      break;
    case 1:  // wide sparse
      for (size_t i = 0; i < n; ++i) {
        values.push_back(rng.NextInRange(0, int64_t{1} << 44));
      }
      break;
    case 2: {  // sorted runs of random length
      int64_t v = rng.NextInRange(-100, 100);
      while (values.size() < n) {
        const size_t run = 1 + rng.NextBounded(500);
        for (size_t r = 0; r < run && values.size() < n; ++r) {
          values.push_back(v);
        }
        v += 1 + rng.NextInRange(0, 3);
      }
      break;
    }
    case 3: {  // near-sequential ramp
      int64_t v = rng.NextInRange(-1000, 1000);
      for (size_t i = 0; i < n; ++i) {
        v += rng.NextInRange(0, 9);
        values.push_back(v);
      }
      break;
    }
    default:  // heavy skew with wide outliers
      for (size_t i = 0; i < n; ++i) {
        values.push_back(rng.NextBernoulli(0.9)
                             ? int64_t{7}
                             : rng.NextInRange(-50000, 50000));
      }
      break;
  }

  ColumnBuilder builder({"c", ColumnType::kInt64});
  builder.AppendInt64Bulk(values.data(), values.size());
  const cost::CalibrationProfile profile = cost::BuiltinProfile();
  const cost::CostModel model(profile);
  const EncodingAdvice advice = builder.Advise(model);
  ASSERT_EQ(advice.num_rows, values.size());

  // (a) chosen is the feasible-candidate cost argmin (bounded-factor bound
  // with factor 1 — ties broken by size then enum order).
  double best = -1.0;
  double chosen_cost = -1.0;
  for (const EncodingCandidate& cand : advice.candidates) {
    if (!cand.feasible) continue;
    EXPECT_GE(cand.scan_cycles_per_row, 0.0);
    if (best < 0.0 || cand.scan_cycles_per_row < best) {
      best = cand.scan_cycles_per_row;
    }
    if (cand.encoding == advice.chosen) {
      chosen_cost = cand.scan_cycles_per_row;
    }
  }
  ASSERT_GE(chosen_cost, 0.0) << "chosen encoding not among candidates";
  EXPECT_LE(chosen_cost, best + 1e-12)
      << "seed=" << seed << " shape=" << shape;

  // (b) building with the advised encoding reproduces the values exactly.
  EncodingChoice choice = EncodingChoice::kAuto;
  switch (advice.chosen) {
    case Encoding::kBitPacked: choice = EncodingChoice::kBitPacked; break;
    case Encoding::kDictionary: choice = EncodingChoice::kDictionary; break;
    case Encoding::kRle: choice = EncodingChoice::kRle; break;
    case Encoding::kDelta: choice = EncodingChoice::kDelta; break;
    case Encoding::kByteSliced: choice = EncodingChoice::kByteSliced; break;
  }
  ColumnBuilder encoder({"c", ColumnType::kInt64, choice});
  encoder.AppendInt64Bulk(values.data(), values.size());
  EncodedColumn col = encoder.Finish();
  ASSERT_EQ(col.encoding(), advice.chosen)
      << "seed=" << seed << " shape=" << shape;
  std::vector<int64_t> decoded(values.size());
  col.DecodeInt64(0, values.size(), decoded.data());
  EXPECT_EQ(decoded, values) << "seed=" << seed << " shape=" << shape;
}

INSTANTIATE_TEST_SUITE_P(TwentyFourRandomColumns, AdvisorProperty,
                         ::testing::Range(0, 24));

}  // namespace
}  // namespace bipie
