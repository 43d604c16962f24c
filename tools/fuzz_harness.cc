#include "fuzz_harness.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "baseline/hash_agg.h"
#include "baseline/scalar_engine.h"
#include "common/failpoint.h"
#include "common/random.h"
#include "core/scan.h"
#include "exec/query_context.h"
#include "sql/parser.h"
#include "storage/table.h"
#include "storage/table_io.h"
#include "tests/test_util.h"

namespace bipie::fuzz {

namespace {

// ---------------------------------------------------------------------------
// Case construction. Everything below must be a pure function of CaseParams:
// the shrinker relies on field overrides keeping the rest of the case stable.
// ---------------------------------------------------------------------------

struct BuiltCase {
  Table table;
  QuerySpec query;

  explicit BuiltCase(Schema schema) : table(std::move(schema)) {}
};

// Value domain of one generated aggregate/filter column.
struct ValueColumn {
  int64_t lo = 0;
  int64_t hi = 0;
  EncodingChoice encoding = EncodingChoice::kAuto;
};

std::string GroupString(int id) { return "grp" + std::to_string(id); }

// One of the encodings a value column may take. Dictionary is only forced
// when the domain provably fits the 2^16-entry cap; the other encodings
// take any range.
EncodingChoice DrawEncoding(const ValueColumn& vc, Rng* rng) {
  switch (rng->NextBounded(6)) {
    case 0:
      return EncodingChoice::kBitPacked;
    case 1:
      return (vc.hi - vc.lo) < (1 << 12) ? EncodingChoice::kDictionary
                                         : EncodingChoice::kAuto;
    case 2:
      return EncodingChoice::kDelta;
    case 3:
      return EncodingChoice::kRle;
    case 4:
      return EncodingChoice::kByteSliced;
    default:
      return EncodingChoice::kAuto;
  }
}

Schema MakeFuzzSchema(const CaseParams& p, Rng* rng,
                      std::vector<ValueColumn>* value_cols,
                      bool* g1_is_string) {
  Schema schema;
  // Run-clustered cases pin the group columns to integer RLE — the shape the
  // run-level execution path admits; strings dictionary-encode and stay on
  // the row-level path.
  *g1_is_string = rng->NextBernoulli(0.5) && p.sorted_fraction <= 0;
  if (p.group_columns >= 1) {
    schema.push_back({"g1",
                      *g1_is_string ? ColumnType::kString : ColumnType::kInt64,
                      p.sorted_fraction > 0 ? EncodingChoice::kRle
                                            : EncodingChoice::kDictionary});
  }
  if (p.group_columns >= 2) {
    schema.push_back({"g2", ColumnType::kInt64,
                      rng->NextBernoulli(0.3) || p.sorted_fraction > 0
                          ? EncodingChoice::kRle
                          : EncodingChoice::kDictionary});
  }
  // Three aggregate/filter value columns spanning the encoding and bit-width
  // matrix.
  for (int c = 0; c < 3; ++c) {
    ValueColumn vc;
    const int bits = 1 + static_cast<int>(rng->NextBounded(40));
    const int64_t base =
        rng->NextInRange(-(int64_t{1} << 20), int64_t{1} << 20);
    vc.lo = base;
    vc.hi = base + (bits >= 62 ? (int64_t{1} << 40)
                               : std::max<int64_t>(0, (int64_t{1} << bits) - 1));
    vc.encoding = DrawEncoding(vc, rng);
    value_cols->push_back(vc);
    schema.push_back(
        {"v" + std::to_string(c), ColumnType::kInt64, vc.encoding});
  }
  if (p.wide_bits > 0) {
    // Wide filter-only column: exercises 41..63-bit unpack/compare paths.
    // Never aggregated (a 2^62-magnitude sum would overflow int64 and turn
    // every plan into an overflow abort).
    ValueColumn vc;
    vc.lo = 0;
    vc.hi = (int64_t{1} << std::min(p.wide_bits, 62)) - 1;
    vc.encoding = EncodingChoice::kBitPacked;
    value_cols->push_back(vc);
    schema.push_back({"w", ColumnType::kInt64, EncodingChoice::kBitPacked});
  }
  return schema;
}

// The expression columns x0..x2 and sums of one expr_shape case. Drawn
// from its own generator, so every other column and aggregate of a seed
// stays as it was without them.
struct ExprShape {
  ValueColumn cols[3];
  int64_t k1 = 0;
  int64_t k2 = 0;
  // Shape 2 beyond int64: a large x0 only beside x1 <= 2 and vice versa,
  // except rows drawn at `overflow_rate`, which pair two large values.
  bool paired_extremes = false;
  double overflow_rate = 0.0;
};

ExprShape MakeExprShape(const CaseParams& p, Rng* rng) {
  ExprShape shape;
  ValueColumn* x = shape.cols;
  switch (p.expr_shape) {
    case 1: {
      // Q1: price * (K - discount) crosses 2^31 as the price width grows
      // past ~24 bits; the charge factor always needs 64 bits.
      const int bits = 20 + static_cast<int>(rng->NextBounded(9));
      x[0] = {0, (int64_t{1} << bits) - 1};
      x[1] = {0, 10};
      x[2] = {0, 8};
      shape.k1 = 100;
      shape.k2 = 100;
      break;
    }
    case 2:
      if (rng->NextBernoulli(0.6)) {
        // |x0| <= 2^a, |x1| <= 2^(31-a) + d: the product's bound sits just
        // below, at, or just past the int32 edge (d = 0 puts it exactly at
        // INT32_MAX + 1).
        const int a = 8 + static_cast<int>(rng->NextBounded(16));
        const int64_t d = static_cast<int64_t>(rng->NextBounded(3)) - 1;
        const int64_t h0 = int64_t{1} << a;
        const int64_t h1 = (int64_t{1} << (31 - a)) + d;
        x[0] = {rng->NextBernoulli(0.5) ? -h0 : 0, h0};
        x[1] = {rng->NextBernoulli(0.5) ? -h1 : 0, h1};
      } else {
        // Beyond any int64 bound. Non-negative, so whether a sum overflows
        // cannot depend on the order rows are added in.
        x[0] = {0, int64_t{1} << 40};
        x[1] = {0, int64_t{1} << 40};
        shape.paired_extremes = true;
        shape.overflow_rate = rng->NextBernoulli(0.5) ? 0.0 : 0.002;
      }
      x[2] = {0, 1};
      break;
    default: {
      // (x0 - x1) fits int32; times (K + x2) it does not.
      const int bits = 16 + static_cast<int>(rng->NextBounded(14));
      x[0] = {-(int64_t{1} << bits), int64_t{1} << bits};
      x[1] = {-(int64_t{1} << bits), int64_t{1} << bits};
      x[2] = {0, (int64_t{1} << (4 + rng->NextBounded(7))) - 1};
      shape.k1 = 1 + static_cast<int64_t>(rng->NextBounded(100));
      break;
    }
  }
  for (ValueColumn& vc : shape.cols) vc.encoding = DrawEncoding(vc, rng);
  return shape;
}

// One row of x0..x2 into ints[first..first + 2]. Corner rows (every column
// at an end of its domain) come often, so metadata bounds are tight and
// the products at the bounds actually occur.
void FillShapeRow(const ExprShape& shape, Rng* rng, size_t first,
                  std::vector<int64_t>* ints) {
  const ValueColumn* x = shape.cols;
  if (shape.paired_extremes) {
    const bool both = rng->NextBernoulli(shape.overflow_rate);
    const bool big0 = rng->NextBernoulli(0.5);
    (*ints)[first] = both || big0 ? rng->NextInRange(int64_t{1} << 39, x[0].hi)
                                  : rng->NextInRange(0, 2);
    (*ints)[first + 1] = both || !big0
                             ? rng->NextInRange(int64_t{1} << 29, x[1].hi)
                             : rng->NextInRange(0, 2);
    (*ints)[first + 2] = rng->NextInRange(x[2].lo, x[2].hi);
    return;
  }
  const bool corner = rng->NextBounded(16) == 0;
  const uint64_t ends = rng->NextBounded(8);
  for (int c = 0; c < 3; ++c) {
    (*ints)[first + c] = corner ? ((ends >> c) & 1 ? x[c].hi : x[c].lo)
                                : rng->NextInRange(x[c].lo, x[c].hi);
  }
}

void AddShapeAggregates(const CaseParams& p, const ExprShape& shape,
                        const Table& table, QuerySpec* query) {
  const ExprPtr x0 = Expr::Column(table.FindColumn("x0"));
  const ExprPtr x1 = Expr::Column(table.FindColumn("x1"));
  const ExprPtr x2 = Expr::Column(table.FindColumn("x2"));
  switch (p.expr_shape) {
    case 1: {
      const ExprPtr disc_price =
          Expr::Mul(x0, Expr::Sub(Expr::Constant(shape.k1), x1));
      query->aggregates.push_back(AggregateSpec::Sum("x0"));
      query->aggregates.push_back(AggregateSpec::SumExpr(disc_price));
      query->aggregates.push_back(AggregateSpec::SumExpr(
          Expr::Mul(disc_price, Expr::Add(Expr::Constant(shape.k2), x2))));
      query->aggregates.push_back(AggregateSpec::Avg("x1"));
      break;
    }
    case 2:
      query->aggregates.push_back(AggregateSpec::SumExpr(Expr::Mul(x0, x1)));
      query->aggregates.push_back(AggregateSpec::Sum("x0"));
      break;
    default: {
      const ExprPtr diff = Expr::Sub(x0, x1);
      query->aggregates.push_back(AggregateSpec::SumExpr(
          Expr::Mul(diff, Expr::Add(Expr::Constant(shape.k1), x2))));
      query->aggregates.push_back(AggregateSpec::SumExpr(diff));
      break;
    }
  }
}

BuiltCase BuildCase(const CaseParams& p) {
  Rng rng(p.seed * 6364136223846793005ULL + 1442695040888963407ULL);
  std::vector<ValueColumn> value_cols;
  bool g1_is_string = false;
  Schema schema = MakeFuzzSchema(p, &rng, &value_cols, &g1_is_string);
  Rng shape_rng(p.seed * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL);
  ExprShape shape;
  if (p.expr_shape > 0) {
    shape = MakeExprShape(p, &shape_rng);
    for (int c = 0; c < 3; ++c) {
      schema.push_back({"x" + std::to_string(c), ColumnType::kInt64,
                        shape.cols[c].encoding});
    }
  }
  BuiltCase built(std::move(schema));
  Table& table = built.table;
  QuerySpec& query = built.query;

  const int g2_card = 1 + static_cast<int>(rng.NextBounded(8));
  const size_t first_value_col = static_cast<size_t>(p.group_columns);

  const size_t segment_rows = std::max<size_t>(64, p.segment_rows);
  TableAppender app(&table, segment_rows);
  std::vector<int64_t> ints(table.num_columns(), 0);
  std::vector<std::string> strings(table.num_columns());
  // Run-clustered generation: group and RLE value columns cycle through
  // their domains in runs of ~sorted_fraction * 8192 rows (staggered per
  // column so run edges rarely coincide), long enough to cross batch,
  // segment and morsel boundaries at the default sizes.
  const size_t run_len =
      p.sorted_fraction > 0
          ? std::max<size_t>(1, static_cast<size_t>(p.sorted_fraction * 8192))
          : 0;
  for (size_t i = 0; i < p.rows; ++i) {
    if (p.group_columns >= 1) {
      // One draw per row either way, so the wide segment leaves every other
      // column of the case unchanged.
      const int card =
          i / segment_rows + 1 == static_cast<size_t>(p.wide_segment)
              ? 300
              : p.group_card;
      const int g = run_len > 0
                        ? static_cast<int>((i / run_len) %
                                           static_cast<size_t>(card))
                        : static_cast<int>(rng.NextBounded(card));
      if (g1_is_string) {
        strings[0] = GroupString(g);
      } else {
        ints[0] = 100 + g;
      }
    }
    if (p.group_columns >= 2) {
      ints[1] = run_len > 0
                    ? -3 + static_cast<int64_t>((i / (run_len + run_len / 2 +
                                                      1)) %
                                                static_cast<size_t>(g2_card))
                    : -3 + static_cast<int>(rng.NextBounded(g2_card));
    }
    for (size_t c = 0; c < value_cols.size(); ++c) {
      const ValueColumn& vc = value_cols[c];
      if (vc.encoding == EncodingChoice::kRle && run_len > 0) {
        // Deterministic staggered runs over a coarse grid of the domain.
        const size_t phase = (i + c * 37) / std::max<size_t>(1, run_len / 2);
        ints[first_value_col + c] =
            std::min(vc.hi, vc.lo + static_cast<int64_t>(phase % 23) *
                                        std::max<int64_t>(
                                            1, (vc.hi - vc.lo) / 23));
        continue;
      }
      // RLE-friendly runs now and then, else uniform over the domain.
      if (vc.encoding == EncodingChoice::kRle && rng.NextBernoulli(0.9) &&
          i > 0) {
        continue;  // keep previous value -> longer runs
      }
      ints[first_value_col + c] = rng.NextInRange(vc.lo, vc.hi);
    }
    if (p.expr_shape > 0) {
      FillShapeRow(shape, &shape_rng, first_value_col + value_cols.size(),
                   &ints);
    }
    app.AppendRow(ints, strings);
  }
  app.Flush();

  if (p.delete_frac > 0 && table.num_rows() > 0) {
    const size_t dels =
        static_cast<size_t>(p.delete_frac * static_cast<double>(p.rows));
    for (size_t d = 0; d < dels; ++d) {
      const size_t seg = rng.NextBounded(table.num_segments());
      table.mutable_segment(seg).DeleteRow(
          rng.NextBounded(table.segment(seg).num_rows()));
    }
  }

  // --- query ---------------------------------------------------------------
  if (p.group_columns >= 1) query.group_by.push_back("g1");
  if (p.group_columns >= 2) query.group_by.push_back("g2");

  query.aggregates.push_back(AggregateSpec::Count());
  const char* value_names[3] = {"v0", "v1", "v2"};
  for (int a = 0; a < p.num_aggs; ++a) {
    const char* col = value_names[rng.NextBounded(3)];
    switch (rng.NextBounded(6)) {
      case 0:
        query.aggregates.push_back(AggregateSpec::Sum(col));
        break;
      case 1:
        query.aggregates.push_back(AggregateSpec::Avg(col));
        break;
      case 2:
        query.aggregates.push_back(AggregateSpec::Min(col));
        break;
      case 3:
        query.aggregates.push_back(AggregateSpec::Max(col));
        break;
      default: {
        const int c0 = table.FindColumn(value_names[rng.NextBounded(3)]);
        const int c1 = table.FindColumn(col);
        query.aggregates.push_back(AggregateSpec::SumExpr(Expr::Add(
            Expr::Mul(Expr::Column(c0),
                      Expr::Constant(1 + static_cast<int64_t>(
                                             rng.NextBounded(50)))),
            Expr::Column(c1))));
        break;
      }
    }
  }

  for (int f = 0; f < p.num_filters; ++f) {
    // First filter aims at target_selectivity via the uniform-domain
    // quantile; later conjuncts and special forms scatter around it.
    if (f == 0 && g1_is_string && p.group_columns >= 1 &&
        rng.NextBernoulli(0.15)) {
      query.filters.emplace_back(
          "g1", CompareOp::kEq,
          GroupString(static_cast<int>(rng.NextBounded(p.group_card))));
      continue;
    }
    const size_t vi = rng.NextBounded(value_cols.size());
    const ValueColumn& vc = value_cols[vi];
    const std::string name = vi < 3 ? value_names[vi] : "w";
    const double span = static_cast<double>(vc.hi - vc.lo);
    const double q = f == 0 ? p.target_selectivity
                            : 0.2 + 0.6 * rng.NextDouble();
    const int64_t quantile =
        vc.lo + static_cast<int64_t>(q * span);
    switch (rng.NextBounded(5)) {
      case 0:
        query.filters.emplace_back(name, CompareOp::kLe, quantile);
        break;
      case 1:
        query.filters.emplace_back(name, CompareOp::kGt, quantile);
        break;
      case 2:
        query.filters.push_back(ColumnPredicate::Between(
            name, vc.lo + static_cast<int64_t>(0.5 * (1.0 - q) * span),
            vc.hi - static_cast<int64_t>(0.5 * (1.0 - q) * span)));
        break;
      case 3:
        query.filters.emplace_back(name, CompareOp::kNe,
                                   rng.NextInRange(vc.lo, vc.hi));
        break;
      default:
        query.filters.emplace_back(name, CompareOp::kEq,
                                   rng.NextInRange(vc.lo, vc.hi));
        break;
    }
  }
  if (p.expr_shape > 0) AddShapeAggregates(p, shape, table, &query);
  return built;
}

// ---------------------------------------------------------------------------
// Result comparison.
// ---------------------------------------------------------------------------

std::string GroupValueToString(const GroupValue& v) {
  return v.is_string ? "\"" + v.string_value + "\""
                     : std::to_string(v.int_value);
}

std::string RowToString(const ResultRow& row) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < row.group.size(); ++i) {
    os << (i ? "," : "") << GroupValueToString(row.group[i]);
  }
  os << "] count=" << row.count << " sums=(";
  for (size_t i = 0; i < row.sums.size(); ++i) {
    os << (i ? "," : "") << row.sums[i];
  }
  os << ")";
  return os.str();
}

// Exact row-by-row diff (both engines emit rows sorted by group value).
bool ResultsAgree(const QueryResult& got, const QueryResult& expected,
                  const std::string& plan, std::string* error) {
  if (got.rows.size() != expected.rows.size()) {
    *error = plan + ": row count " + std::to_string(got.rows.size()) +
             " != oracle " + std::to_string(expected.rows.size());
    return false;
  }
  for (size_t r = 0; r < got.rows.size(); ++r) {
    const ResultRow& g = got.rows[r];
    const ResultRow& e = expected.rows[r];
    if (g.group != e.group || g.count != e.count || g.sums != e.sums) {
      *error = plan + ": row " + std::to_string(r) + " got " +
               RowToString(g) + " oracle " + RowToString(e);
      return false;
    }
  }
  return true;
}

struct Plan {
  std::string name;
  ScanOptions options;
};

std::vector<Plan> MakePlans(const CaseParams& p) {
  std::vector<Plan> plans;
  plans.push_back({"adaptive/t1", {}});
  if (p.num_threads == 0) {
    Plan pool{"adaptive/pool", {}};
    pool.options.num_threads = 0;
    plans.push_back(std::move(pool));
  }
  const SelectionStrategy sels[3] = {SelectionStrategy::kGather,
                                     SelectionStrategy::kCompact,
                                     SelectionStrategy::kSpecialGroup};
  const AggregationStrategy aggs[6] = {
      AggregationStrategy::kScalar,      AggregationStrategy::kInRegister,
      AggregationStrategy::kSortBased,   AggregationStrategy::kMultiAggregate,
      AggregationStrategy::kCheckedScalar, AggregationStrategy::kRunBased};
  // Full override matrix: each strategy forced alone and every pairwise
  // combination (sel_idx/agg_idx of -1 = adaptive for that dimension).
  // Forced kRunBased rejects with kNotSupported off run-shaped data (and
  // under any forced selection strategy); on sorted_fraction cases it runs
  // the whole run pipeline differentially against the oracle.
  for (int s = -1; s < 3; ++s) {
    for (int a = -1; a < 6; ++a) {
      if (s < 0 && a < 0) continue;  // pure adaptive already covered
      Plan plan;
      plan.name = std::string("forced ") +
                  (s < 0 ? "auto" : SelectionStrategyName(sels[s])) + "+" +
                  (a < 0 ? "auto" : AggregationStrategyName(aggs[a]));
      if (s >= 0) plan.options.overrides.selection = sels[s];
      if (a >= 0) plan.options.overrides.aggregation = aggs[a];
      plans.push_back(std::move(plan));
    }
  }
  // Byteslice kernel differential: forced-on runs the plane kernels
  // wherever a byte-sliced filter column exists (rejecting with
  // kNotSupported when none does), forced-off pins the assemble-then-
  // compare fallback — both against the same oracle as every other plan.
  for (const bool on : {true, false}) {
    Plan plan;
    plan.name = std::string("forced byteslice-") + (on ? "on" : "off");
    plan.options.overrides.byteslice = on;
    plans.push_back(std::move(plan));
  }
  return plans;
}

}  // namespace

std::string CaseParams::ToString() const {
  std::ostringstream os;
  os << "seed=" << seed << " rows=" << rows
     << " segment_rows=" << segment_rows
     << " group_columns=" << group_columns << " group_card=" << group_card
     << " num_aggs=" << num_aggs << " num_filters=" << num_filters
     << " delete_frac=" << delete_frac
     << " target_selectivity=" << target_selectivity
     << " wide_bits=" << wide_bits << " num_threads=" << num_threads
     << " cancel_after=" << cancel_after
     << " failpoint_prob=" << failpoint_prob
     << " sorted_fraction=" << sorted_fraction
     << " memory_limit=" << memory_limit << " wide_segment=" << wide_segment
     << " expr_shape=" << expr_shape;
  return os.str();
}

CaseParams MakeCaseParams(uint64_t seed) {
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  CaseParams p;
  p.seed = seed;
  p.rows = 200 + rng.NextBounded(12000);
  p.segment_rows = 64 + rng.NextBounded(6000);
  p.group_columns = static_cast<int>(rng.NextBounded(3));
  // Cardinality sweep crosses the 255-group specialized envelope: ~1/6 of
  // cases land in 200..300, where (with two group columns) the combined
  // count hashes every segment and forced plans must reject cleanly.
  p.group_card = rng.NextBernoulli(0.17)
                     ? 200 + static_cast<int>(rng.NextBounded(101))
                     : 1 + static_cast<int>(rng.NextBounded(40));
  p.num_aggs = static_cast<int>(rng.NextBounded(5));
  p.num_filters = static_cast<int>(rng.NextBounded(4));
  p.delete_frac = rng.NextBernoulli(0.4) ? 0.12 * rng.NextDouble() : 0.0;
  // Selectivity sweep hits the exact endpoints (0 and 1) as well as the
  // interior, since strategy choice branches at both extremes.
  switch (rng.NextBounded(8)) {
    case 0: p.target_selectivity = 0.0; break;
    case 1: p.target_selectivity = 1.0; break;
    case 2: p.target_selectivity = 0.01; break;
    case 3: p.target_selectivity = 0.99; break;
    default: p.target_selectivity = rng.NextDouble(); break;
  }
  p.wide_bits =
      rng.NextBernoulli(0.3) ? 41 + static_cast<int>(rng.NextBounded(23)) : 0;
  // Execution model: the shared morsel pool (two branches in three) or
  // inline. The third branch makes one more draw, as it did when it picked
  // a per-query thread count, so every later field of a seed is unchanged.
  switch (rng.NextBounded(3)) {
    case 0: p.num_threads = 0; break;
    case 1: p.num_threads = 1; break;
    default: p.num_threads = 0; rng.NextBounded(3); break;
  }
  // A quarter of cases also exercise mid-scan cancellation; small check
  // budgets land the trigger inside the scan rather than after it.
  p.cancel_after = rng.NextBernoulli(0.25)
                       ? 1 + static_cast<int64_t>(rng.NextBounded(48))
                       : 0;
  // A fifth of cases run with allocation-failure injection armed on the
  // morsel scratch path (only observable in BIPIE_ENABLE_FAILPOINTS builds;
  // params stay seed-portable across build flavours either way).
  p.failpoint_prob =
      rng.NextBernoulli(0.2) ? 0.02 + 0.28 * rng.NextDouble() : 0.0;
  // ~30% of cases are run-clustered, keeping the kRunBased differential
  // (including its morsel-boundary and deleted-row interactions) hot in
  // every fuzz job.
  p.sorted_fraction =
      rng.NextBernoulli(0.3) ? 0.05 + 0.95 * rng.NextDouble() : 0.0;
  // A fifth of cases run the memory-governance pass with a hard limit from
  // "fails immediately" (4 KiB) to "comfortably fits" (~4 MiB), so both the
  // kResourceExhausted path and the governed-success path stay hot.
  p.memory_limit =
      rng.NextBernoulli(0.2) ? 4096 + rng.NextBounded(uint64_t{1} << 22) : 0;
  // A quarter of cases put one segment past the 255-group envelope beside
  // segments within it, so a hashed segment merges with specialized ones.
  // Drawn last: every earlier field of a seed is unchanged.
  const size_t segment_rows = std::max<size_t>(64, p.segment_rows);
  const size_t segments = (p.rows + segment_rows - 1) / segment_rows;
  p.wide_segment = rng.NextBernoulli(0.25)
                       ? 1 + static_cast<int>(rng.NextBounded(segments))
                       : 0;
  // Two cases in five add the expression shapes the typed expression
  // program tells apart. Drawn last, like wide_segment.
  p.expr_shape =
      rng.NextBernoulli(0.4) ? 1 + static_cast<int>(rng.NextBounded(3)) : 0;
  return p;
}

bool ParseCaseParams(const std::string& text, CaseParams* out,
                     std::string* error) {
  CaseParams p;
  std::istringstream is(text);
  std::string token;
  while (is >> token) {
    const size_t eq = token.find('=');
    if (eq == std::string::npos) {
      *error = "malformed token (want key=value): " + token;
      return false;
    }
    const std::string key = token.substr(0, eq);
    const std::string val = token.substr(eq + 1);
    try {
      if (key == "seed") {
        p.seed = std::stoull(val);
      } else if (key == "rows") {
        p.rows = std::stoull(val);
      } else if (key == "segment_rows") {
        p.segment_rows = std::stoull(val);
      } else if (key == "group_columns") {
        p.group_columns = std::stoi(val);
      } else if (key == "group_card") {
        p.group_card = std::stoi(val);
      } else if (key == "num_aggs") {
        p.num_aggs = std::stoi(val);
      } else if (key == "num_filters") {
        p.num_filters = std::stoi(val);
      } else if (key == "delete_frac") {
        p.delete_frac = std::stod(val);
      } else if (key == "target_selectivity") {
        p.target_selectivity = std::stod(val);
      } else if (key == "wide_bits") {
        p.wide_bits = std::stoi(val);
      } else if (key == "num_threads") {
        p.num_threads = std::stoull(val);
        if (p.num_threads > 1) {
          *error = "bad value for num_threads: " + val +
                   " (0 = shared pool, 1 = inline)";
          return false;
        }
      } else if (key == "cancel_after") {
        p.cancel_after = std::stoll(val);
      } else if (key == "failpoint_prob") {
        p.failpoint_prob = std::stod(val);
      } else if (key == "sorted_fraction") {
        p.sorted_fraction = std::stod(val);
      } else if (key == "memory_limit") {
        p.memory_limit = std::stoull(val);
      } else if (key == "wide_segment") {
        p.wide_segment = std::stoi(val);
      } else if (key == "expr_shape") {
        p.expr_shape = std::stoi(val);
        if (p.expr_shape < 0 || p.expr_shape > 3) {
          *error = "bad value for expr_shape: " + val + " (0..3)";
          return false;
        }
      } else {
        *error = "unknown key: " + key;
        return false;
      }
    } catch (const std::exception&) {
      *error = "bad value for " + key + ": " + val;
      return false;
    }
  }
  *out = p;
  return true;
}

bool RunOneCase(const CaseParams& p, std::string* error) {
  const BuiltCase built = BuildCase(p);

  // An oracle overflow (some aggregated row's expression, or some sum,
  // leaves int64) is an answer every engine must give; any other oracle
  // error fails the case.
  auto oracle = ExecuteQueryHashAgg(built.table, built.query);
  const bool overflow =
      !oracle.ok() && oracle.status().code() == StatusCode::kOverflowRisk;
  if (!oracle.ok() && !overflow) {
    *error = "oracle failed: " + oracle.status().ToString();
    return false;
  }
  // The scan's hashed segments run the oracle's per-segment aggregator, so
  // the oracle answers to the naive engine, which shares no aggregation
  // code with either.
  auto naive = ExecuteQueryNaive(built.table, built.query);
  const bool naive_overflow =
      !naive.ok() && naive.status().code() == StatusCode::kOverflowRisk;
  if (naive_overflow != overflow) {
    *error = std::string("hash oracle ") +
             (overflow ? "reports" : "does not report") +
             " overflow, naive engine: " +
             (naive.ok() ? std::string("OK") : naive.status().ToString());
    return false;
  }
  if (naive.ok() && !overflow) {
    std::string diff;
    if (!ResultsAgree(oracle.value(), naive.value(), "hash oracle vs naive",
                      &diff)) {
      *error = diff;
      return false;
    }
  }

  // Fault-injection slice: armed after the oracle (which must stay exact),
  // disarmed when this function returns. Every plan below must then produce
  // its complete exact result or report kResourceExhausted — an injected
  // allocation failure must never leak a partial aggregate.
  std::optional<ScopedFailpoint> inject;
  if (p.failpoint_prob > 0) {
    inject.emplace("scan/morsel_scratch_alloc", p.failpoint_prob, p.seed);
  }

  for (const Plan& plan : MakePlans(p)) {
    BIPieScan scan(built.table, built.query, plan.options);
    auto got = scan.Execute();
    if (!got.ok()) {
      const StatusCode code = got.status().code();
      const bool forced = plan.options.overrides.selection.has_value() ||
                          plan.options.overrides.aggregation.has_value() ||
                          plan.options.overrides.byteslice.has_value();
      // Forced plans may reject shapes outside their envelope, and a forced
      // aggregation strategy rejects a segment whose sums metadata cannot
      // prove int64-safe; every plan reports the oracle's overflow. Anything
      // else is a bug, as is a clean rejection from the adaptive plan (it
      // must hash the segment instead).
      if (forced && code == StatusCode::kNotSupported) continue;
      if (code == StatusCode::kOverflowRisk &&
          (overflow || plan.options.overrides.aggregation.has_value())) {
        continue;
      }
      if (p.failpoint_prob > 0 && code == StatusCode::kResourceExhausted) {
        continue;  // clean degradation under injected allocation failure
      }
      *error = plan.name + ": unexpected error " + got.status().ToString();
      return false;
    }
    if (overflow) {
      *error = plan.name + ": returned a result where the oracle overflows";
      return false;
    }
    // The stats-invariant oracle (tests/test_util.h): every successful scan
    // must satisfy the accounting identities, whatever strategies ran,
    // hashed segments included: the row/segment conservation laws and the
    // hashed-segment count.
    const std::vector<std::string> stats_violations =
        test::StatsInvariants::Check(scan.stats(), built.query, built.table,
                                     &got.value());
    if (!stats_violations.empty()) {
      *error = plan.name + ": " +
               test::StatsInvariants::Describe(stats_violations);
      return false;
    }
    std::string diff;
    if (!ResultsAgree(got.value(), oracle.value(), plan.name, &diff)) {
      *error = diff;
      return false;
    }
  }

  // Cancellation pass: with a context that trips after p.cancel_after
  // checks, every execution model must either report kCancelled (or abort
  // with kOverflowRisk before the trigger) or — when the scan completed
  // before noticing the cancel — return the exact oracle result. A row
  // count or sum differing from the oracle means a partial result escaped.
  if (p.cancel_after > 0) {
    for (const size_t threads : {size_t{0}, size_t{1}}) {
      QueryContext context;
      context.CancelAfterChecks(p.cancel_after);
      ScanOptions options;
      options.num_threads = threads;
      options.context = &context;
      const std::string plan_name =
          "cancel@" + std::to_string(p.cancel_after) + "/t" +
          std::to_string(threads);
      BIPieScan scan(built.table, built.query, options);
      auto got = scan.Execute();
      if (!got.ok()) {
        const StatusCode code = got.status().code();
        if (code == StatusCode::kCancelled ||
            code == StatusCode::kOverflowRisk) {
          continue;
        }
        if (p.failpoint_prob > 0 &&
            code == StatusCode::kResourceExhausted) {
          continue;
        }
        *error = plan_name + ": unexpected error " + got.status().ToString();
        return false;
      }
      if (overflow) {
        *error = plan_name + ": returned a result where the oracle overflows";
        return false;
      }
      std::string diff;
      if (!ResultsAgree(got.value(), oracle.value(), plan_name, &diff)) {
        *error = diff + " (partial result escaped a cancelled scan?)";
        return false;
      }
    }
  }

  // Memory-governance pass: with a per-query hard limit, every execution
  // model must return the complete exact result (when the working set
  // fits) or a structured kResourceExhausted — never a partial aggregate —
  // and the query tracker must be balanced at zero either way.
  if (p.memory_limit > 0) {
    for (const size_t threads : {size_t{0}, size_t{1}}) {
      QueryContext context;
      if (!context.settings()
               .SetUInt64("memory_limit_bytes", p.memory_limit)
               .ok()) {
        *error = "memory_limit_bytes rejected " +
                 std::to_string(p.memory_limit);
        return false;
      }
      context.ApplySettings();
      ScanOptions options;
      options.num_threads = threads;
      options.context = &context;
      const std::string plan_name =
          "memlimit@" + std::to_string(p.memory_limit) + "/t" +
          std::to_string(threads);
      BIPieScan scan(built.table, built.query, options);
      auto got = scan.Execute();
      if (context.memory_tracker().used() != 0) {
        *error = plan_name + ": tracker balance " +
                 std::to_string(context.memory_tracker().used()) +
                 " bytes after Execute()";
        return false;
      }
      if (!got.ok()) {
        const StatusCode code = got.status().code();
        if (code == StatusCode::kResourceExhausted ||
            code == StatusCode::kOverflowRisk) {
          continue;
        }
        *error = plan_name + ": unexpected error " + got.status().ToString();
        return false;
      }
      if (overflow) {
        *error = plan_name + ": returned a result where the oracle overflows";
        return false;
      }
      std::string diff;
      if (!ResultsAgree(got.value(), oracle.value(), plan_name, &diff)) {
        *error = diff + " (partial result escaped a memory-limited scan?)";
        return false;
      }
    }
  }
  return true;
}

CaseParams Shrink(const CaseParams& p) {
  CaseParams best = p;
  std::string scratch;
  bool progress = true;
  while (progress) {
    progress = false;
    std::vector<CaseParams> candidates;
    auto add = [&](auto mutate) {
      CaseParams c = best;
      mutate(c);
      candidates.push_back(c);
    };
    if (best.rows > 64) add([](CaseParams& c) { c.rows /= 2; });
    if (best.segment_rows > 64) add([](CaseParams& c) { c.segment_rows /= 2; });
    if (best.num_filters > 0) add([](CaseParams& c) { c.num_filters--; });
    if (best.num_aggs > 0) add([](CaseParams& c) { c.num_aggs--; });
    if (best.group_columns > 0) add([](CaseParams& c) { c.group_columns--; });
    if (best.group_card > 1) add([](CaseParams& c) { c.group_card /= 2; });
    if (best.delete_frac > 0) add([](CaseParams& c) { c.delete_frac = 0; });
    if (best.wide_bits > 0) add([](CaseParams& c) { c.wide_bits = 0; });
    if (best.cancel_after > 0) add([](CaseParams& c) { c.cancel_after = 0; });
    if (best.failpoint_prob > 0) {
      add([](CaseParams& c) { c.failpoint_prob = 0; });
    }
    if (best.sorted_fraction > 0) {
      add([](CaseParams& c) { c.sorted_fraction = 0; });
    }
    if (best.memory_limit > 0) {
      add([](CaseParams& c) { c.memory_limit = 0; });
    }
    if (best.wide_segment > 0) add([](CaseParams& c) { c.wide_segment = 0; });
    if (best.wide_segment > 1) add([](CaseParams& c) { c.wide_segment = 1; });
    if (best.expr_shape > 0) add([](CaseParams& c) { c.expr_shape = 0; });
    if (best.num_threads != 1) add([](CaseParams& c) { c.num_threads = 1; });
    for (const CaseParams& c : candidates) {
      if (!RunOneCase(c, &scratch)) {  // still fails -> keep the reduction
        best = c;
        progress = true;
        break;
      }
    }
  }
  return best;
}

FuzzResult RunFuzz(uint64_t seed, uint64_t iters, double budget_seconds,
                   bool verbose) {
  const auto start = std::chrono::steady_clock::now();
  FuzzResult result;
  for (uint64_t i = 0; i < iters; ++i) {
    if (budget_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= budget_seconds) break;
    }
    const CaseParams p = MakeCaseParams(seed + i);
    ++result.iterations;
    std::string error;
    if (verbose) {
      std::fprintf(stderr, "[bipie_fuzz] seed %" PRIu64 ": %s\n", seed + i,
                   p.ToString().c_str());
    }
    if (RunOneCase(p, &error)) continue;
    ++result.failures;
    std::fprintf(stderr, "[bipie_fuzz] FAILURE at seed %" PRIu64 ": %s\n",
                 seed + i, error.c_str());
    std::fprintf(stderr, "[bipie_fuzz] shrinking...\n");
    result.first_failing = Shrink(p);
    std::string shrunk_error;
    if (!RunOneCase(result.first_failing, &shrunk_error)) {
      error = shrunk_error;
    }
    result.first_error = error;
    std::fprintf(stderr,
                 "[bipie_fuzz] minimal failing case: %s\n"
                 "[bipie_fuzz]   %s\n"
                 "[bipie_fuzz] replay: bipie_fuzz --replay '%s'\n",
                 result.first_failing.ToString().c_str(), error.c_str(),
                 result.first_failing.ToString().c_str());
    break;
  }
  return result;
}

// ---------------------------------------------------------------------------
// load_table mode.
// ---------------------------------------------------------------------------

namespace {

// Golden table for the load fuzzer: every encoding, a string dictionary,
// multiple segments, a liveness mask — small enough that thousands of
// load attempts per second are possible.
Table MakeLoadFuzzTable() {
  Table table({{"flag", ColumnType::kString},
               {"packed", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"dict", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"runs", ColumnType::kInt64, EncodingChoice::kRle},
               {"mono", ColumnType::kInt64, EncodingChoice::kDelta},
               {"sliced", ColumnType::kInt64, EncodingChoice::kByteSliced}});
  TableAppender app(&table, 256);
  Rng rng(2718);
  const char* flags[3] = {"A", "N", "R"};
  for (size_t i = 0; i < 600; ++i) {
    app.AppendRow({0, rng.NextInRange(-500, 500),
                   100 * static_cast<int64_t>(rng.NextBounded(7)),
                   static_cast<int64_t>(i / 50),
                   static_cast<int64_t>(i * 5) + rng.NextInRange(0, 3),
                   rng.NextInRange(0, (int64_t{1} << 20) - 1)},
                  {flags[rng.NextBounded(3)], "", "", "", "", ""});
  }
  app.Flush();
  table.mutable_segment(0).DeleteRow(9);
  return table;
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::fseek(f, 0, SEEK_END);
  out->resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  const bool ok = std::fread(out->data(), 1, out->size(), f) == out->size();
  std::fclose(f);
  return ok;
}

bool WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = bytes.empty() ||
                  std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  std::fclose(f);
  return ok;
}

// Load errors that the boundary is allowed (expected) to produce.
bool IsStructuredLoadError(StatusCode code) {
  return code == StatusCode::kDataLoss ||
         code == StatusCode::kInvalidArgument ||
         code == StatusCode::kNotSupported ||
         code == StatusCode::kResourceExhausted;
}

// Applies one seeded mutation recipe to `mutant`.
void MutateBytes(Rng* rng, std::vector<uint8_t>* mutant) {
  switch (rng->NextBounded(4)) {
    case 0: {  // byte flips
      const size_t flips = 1 + rng->NextBounded(16);
      for (size_t k = 0; k < flips && !mutant->empty(); ++k) {
        (*mutant)[rng->NextBounded(mutant->size())] ^=
            static_cast<uint8_t>(1 + rng->NextBounded(255));
      }
      break;
    }
    case 1:  // truncation
      mutant->resize(rng->NextBounded(mutant->size() + 1));
      break;
    case 2: {  // truncate, then flip inside what remains
      mutant->resize(rng->NextBounded(mutant->size() + 1));
      const size_t flips = 1 + rng->NextBounded(8);
      for (size_t k = 0; k < flips && !mutant->empty(); ++k) {
        (*mutant)[rng->NextBounded(mutant->size())] ^=
            static_cast<uint8_t>(1 + rng->NextBounded(255));
      }
      break;
    }
    default: {  // garbage extension (exercises trailing-bytes rejection)
      const size_t extra = 1 + rng->NextBounded(64);
      for (size_t k = 0; k < extra; ++k) {
        mutant->push_back(static_cast<uint8_t>(rng->NextBounded(256)));
      }
      break;
    }
  }
}

// One load-fuzz iteration; false (with *error filled) on a boundary breach.
bool RunOneLoadCase(uint64_t case_seed, const std::vector<uint8_t>& golden_v1,
                    const std::vector<uint8_t>& golden_v2,
                    const std::string& path, std::string* error) {
  Rng rng(case_seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL);
  std::vector<uint8_t> mutant =
      rng.NextBernoulli(0.5) ? golden_v2 : golden_v1;
  MutateBytes(&rng, &mutant);
  if (!WriteFileBytes(path, mutant)) {
    *error = "cannot write mutant file: " + path;
    return false;
  }

  auto loaded = LoadTable(path);
  if (!loaded.ok()) {
    if (!IsStructuredLoadError(loaded.status().code())) {
      *error = "unstructured load error: " + loaded.status().ToString();
      return false;
    }
    return true;
  }
  // The mutant survived checksums and deep validation (e.g. the mutation
  // landed in a dictionary value and stayed within [min, max]): it must be
  // scannable end to end. The query may still reject cleanly — a mutated
  // schema can rename a column out from under it — but never with an
  // internal error, and never by crashing.
  QuerySpec query;
  query.group_by = {"flag"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("packed"),
                      AggregateSpec::Min("dict"), AggregateSpec::Max("runs")};
  query.filters.emplace_back("packed", CompareOp::kGe, int64_t{-100});
  // Byteslice filter: a mutated byte plane must either fail validation at
  // load (kDataLoss) or scan cleanly through the plane kernels.
  query.filters.emplace_back("sliced", CompareOp::kLt,
                             int64_t{1} << 19);
  auto result = ExecuteQuery(loaded.value(), query);
  if (!result.ok() && result.status().code() == StatusCode::kInternal) {
    *error = "internal error scanning loadable mutant: " +
             result.status().ToString();
    return false;
  }
  return true;
}

}  // namespace

LoadFuzzResult RunLoadTableFuzz(uint64_t seed, uint64_t iters,
                                double budget_seconds, bool verbose) {
  LoadFuzzResult result;
  const Table golden = MakeLoadFuzzTable();
  const char* tmpdir = std::getenv("TMPDIR");
  const std::string path = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/bipie_load_fuzz_" + std::to_string(seed) +
                           ".bipie";
  std::vector<uint8_t> golden_v1, golden_v2;
  SaveOptions v1;
  v1.format_version = 1;
  if (!SaveTable(golden, path, v1).ok() || !ReadFileBytes(path, &golden_v1) ||
      !SaveTable(golden, path).ok() || !ReadFileBytes(path, &golden_v2)) {
    result.failures = 1;
    result.first_error = "cannot materialize golden files at " + path;
    return result;
  }

  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    if (budget_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= budget_seconds) break;
    }
    ++result.iterations;
    if (verbose) {
      std::fprintf(stderr, "[bipie_fuzz] load_table seed %" PRIu64 "\n",
                   seed + i);
    }
    std::string error;
    if (RunOneLoadCase(seed + i, golden_v1, golden_v2, path, &error)) {
      continue;
    }
    ++result.failures;
    result.first_failing_seed = seed + i;
    result.first_error = error;
    std::fprintf(stderr,
                 "[bipie_fuzz] load_table FAILURE at seed %" PRIu64
                 ": %s\n"
                 "[bipie_fuzz] replay: bipie_fuzz --mode load_table "
                 "--seed %" PRIu64 " --iters 1\n",
                 seed + i, error.c_str(), seed + i);
    break;
  }
  std::remove(path.c_str());
  return result;
}

// ---------------------------------------------------------------------------
// parse_sql mode: the untrusted-query boundary.
// ---------------------------------------------------------------------------

namespace {

// The schema the seed statements reference: one dictionary string group
// column and two integer value columns.
Table MakeSqlFuzzTable() {
  Table table({{"g", ColumnType::kString, EncodingChoice::kDictionary},
               {"v", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"w", ColumnType::kInt64, EncodingChoice::kAuto}});
  TableAppender app(&table, 512);
  const char* flags[3] = {"A", "N", "R"};
  for (size_t i = 0; i < 2000; ++i) {
    app.AppendRow({0, static_cast<int64_t>(i % 97),
                   static_cast<int64_t>(i % 11)},
                  {flags[i % 3], "", ""});
  }
  app.Flush();
  return table;
}

// Well-formed statements the mutator starts from, covering the whole
// supported grammar: grouping, arithmetic aggregates, string equality,
// comparison chains, BETWEEN, EXPLAIN.
constexpr const char* kSqlSeeds[] = {
    "SELECT g, count(*), sum(v) FROM t WHERE v >= 10 GROUP BY g",
    "SELECT count(*), sum(v * w + 2), min(w), max(v) FROM t",
    "SELECT g, count(*), avg(v) FROM t WHERE g = 'A' AND w < 9 GROUP BY g",
    "SELECT sum(v * (100 - w)) FROM t WHERE v BETWEEN 10 AND 80",
    "EXPLAIN SELECT g, count(*) FROM t WHERE w > 3 GROUP BY g",
    "SELECT count(*) FROM t WHERE v <= -1 AND w > -100000000000",
};

// Splice vocabulary: keywords, operators, literals on both sides of the
// overflow boundary, and fragments that tend to create unterminated strings
// or unbalanced parentheses.
constexpr const char* kSqlTokens[] = {
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "AND", "BETWEEN", "EXPLAIN",
    "count(*)", "sum(", "min(", "max(", "avg(", ")", "(", ",", "*", "+",
    "-", "<=", ">=", "=", "<", ">", "'A'", "'", "g", "v", "w", "t", "0",
    "9223372036854775807", "99999999999999999999999999", ";",
};

std::string MutateSql(const std::string& base, Rng* rng) {
  std::string s = base;
  const int mutations = 1 + static_cast<int>(rng->NextBounded(4));
  for (int m = 0; m < mutations; ++m) {
    switch (rng->NextBounded(5)) {
      case 0:  // flip one byte
        if (!s.empty()) {
          s[rng->NextBounded(s.size())] =
              static_cast<char>(rng->Next() & 0xff);
        }
        break;
      case 1:  // truncate
        if (!s.empty()) s.resize(rng->NextBounded(s.size()));
        break;
      case 2:  // splice a token
        s.insert(rng->NextBounded(s.size() + 1),
                 kSqlTokens[rng->NextBounded(std::size(kSqlTokens))]);
        break;
      case 3:  // duplicate a slice
        if (s.size() >= 2) {
          const size_t at = rng->NextBounded(s.size() - 1);
          const size_t len = 1 + rng->NextBounded(s.size() - at - 1 + 1);
          const std::string slice = s.substr(at, len);
          s.insert(rng->NextBounded(s.size() + 1), slice);
        }
        break;
      default: {  // raw garbage bytes
        const size_t n = 1 + rng->NextBounded(8);
        std::string garbage;
        for (size_t i = 0; i < n; ++i) {
          garbage.push_back(static_cast<char>(rng->Next() & 0xff));
        }
        s.insert(rng->NextBounded(s.size() + 1), garbage);
        break;
      }
    }
  }
  return s;
}

// Escapes non-printable bytes so failure diagnostics survive a terminal.
std::string PrintableSql(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c >= 0x20 && c < 0x7f) {
      out.push_back(c);
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02x",
                    static_cast<unsigned char>(c));
      out += buf;
    }
  }
  return out;
}

bool RunOneSqlCase(uint64_t case_seed, const Table& table,
                   std::string* error) {
  Rng rng(case_seed * 0x9e3779b97f4a7c15ULL + 1);
  std::string sql;
  if (rng.NextBernoulli(0.05)) {
    // Pure garbage: no valid skeleton at all.
    const size_t n = rng.NextBounded(64);
    for (size_t i = 0; i < n; ++i) {
      sql.push_back(static_cast<char>(rng.Next() & 0xff));
    }
  } else {
    sql = MutateSql(kSqlSeeds[rng.NextBounded(std::size(kSqlSeeds))], &rng);
  }

  // The schema-free preparse (the server's first contact with the bytes)
  // must only ever reject with kInvalidArgument.
  auto pre = PreparseQuery(sql);
  if (!pre.ok() && pre.status().code() != StatusCode::kInvalidArgument) {
    *error = "preparse returned " + pre.status().ToString() +
             " for: " + PrintableSql(sql);
    return false;
  }

  auto parsed = ParseQuery(sql, table);
  if (!parsed.ok()) {
    if (parsed.status().code() != StatusCode::kInvalidArgument) {
      *error = "parse returned " + parsed.status().ToString() +
               " for: " + PrintableSql(sql);
      return false;
    }
    if (parsed.status().message().empty()) {
      *error = "parse rejected without context for: " + PrintableSql(sql);
      return false;
    }
    return true;
  }
  // The mutant parsed clean (e.g. the mutation landed in whitespace or a
  // literal): the resolved QuerySpec must execute without internal errors.
  auto result = ExecuteQuery(table, parsed.value().spec);
  if (!result.ok() && result.status().code() == StatusCode::kInternal) {
    *error = "internal error executing parsed mutant: " +
             result.status().ToString() + " for: " + PrintableSql(sql);
    return false;
  }
  return true;
}

}  // namespace

SqlFuzzResult RunParseSqlFuzz(uint64_t seed, uint64_t iters,
                              double budget_seconds, bool verbose) {
  SqlFuzzResult result;
  const Table table = MakeSqlFuzzTable();
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < iters; ++i) {
    if (budget_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (elapsed >= budget_seconds) break;
    }
    ++result.iterations;
    if (verbose) {
      std::fprintf(stderr, "[bipie_fuzz] parse_sql seed %" PRIu64 "\n",
                   seed + i);
    }
    std::string error;
    if (RunOneSqlCase(seed + i, table, &error)) continue;
    ++result.failures;
    result.first_failing_seed = seed + i;
    result.first_error = error;
    std::fprintf(stderr,
                 "[bipie_fuzz] parse_sql FAILURE at seed %" PRIu64
                 ": %s\n"
                 "[bipie_fuzz] replay: bipie_fuzz --mode parse_sql "
                 "--seed %" PRIu64 " --iters 1\n",
                 seed + i, error.c_str(), seed + i);
    break;
  }
  return result;
}

}  // namespace bipie::fuzz
