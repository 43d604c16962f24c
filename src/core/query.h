// Query specification and results for the BIPie scan.
//
// The workload shape (§2.3):
//
//   SELECT g, count(*), sum(a1), ..., sum(an)
//   FROM t WHERE <filter> GROUP BY g;
//
// with g one or two encoded columns, aggregates over raw columns or
// arithmetic expressions, and an optional conjunctive filter.
#ifndef BIPIE_CORE_QUERY_H_
#define BIPIE_CORE_QUERY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "expr/arithmetic.h"
#include "expr/predicate.h"
#include "storage/types.h"

namespace bipie {

struct AggregateSpec {
  enum class Kind {
    kCount,      // count(*)
    kSum,        // sum(column)
    kSumExpr,    // sum(expression over columns)
    kAvg,        // avg(column) — computed as sum/count at output time
    kMin,        // min(column)
    kMax,        // max(column)
  };

  Kind kind = Kind::kCount;
  std::string column;  // for kSum / kAvg / kMin / kMax
  ExprPtr expr;        // for kSumExpr (column indices refer to table schema)

  static AggregateSpec Count() { return {Kind::kCount, {}, nullptr}; }
  static AggregateSpec Sum(std::string col) {
    return {Kind::kSum, std::move(col), nullptr};
  }
  static AggregateSpec SumExpr(ExprPtr e) {
    return {Kind::kSumExpr, {}, std::move(e)};
  }
  static AggregateSpec Avg(std::string col) {
    return {Kind::kAvg, std::move(col), nullptr};
  }
  static AggregateSpec Min(std::string col) {
    return {Kind::kMin, std::move(col), nullptr};
  }
  static AggregateSpec Max(std::string col) {
    return {Kind::kMax, std::move(col), nullptr};
  }
};

struct QuerySpec {
  std::vector<std::string> group_by;          // 0, 1 or 2 columns
  std::vector<AggregateSpec> aggregates;      // at least one
  std::vector<ColumnPredicate> filters;       // ANDed together
};

// Checks `query` against `schema` once, before any engine reads a row, so
// every engine rejects the same queries and no segment sees an ill-typed
// one: more than two group columns and BETWEEN on a string column are
// kNotSupported; an unknown column, an aggregate or sum expression over a
// string column (or outside the schema) and a filter literal whose type
// differs from its column's are kInvalidArgument.
Status CheckQuery(const Schema& schema, const QuerySpec& query);

// One output group value: either an int64 or a dictionary-decoded string.
struct GroupValue {
  bool is_string = false;
  int64_t int_value = 0;
  std::string string_value;

  bool operator==(const GroupValue&) const = default;
  bool operator<(const GroupValue& other) const {
    if (is_string != other.is_string) return !is_string;
    if (is_string) return string_value < other.string_value;
    return int_value < other.int_value;
  }
};

// What one morsel of one segment contributes to a query result: one local
// group, decoded to values (dictionary ids are segment-local), its row
// count and one value per aggregate spec. Every engine merges these by key.
struct SegmentContribution {
  std::vector<GroupValue> key;
  uint64_t count = 0;
  std::vector<int64_t> values;  // one per aggregate spec
};

struct ResultRow {
  std::vector<GroupValue> group;
  uint64_t count = 0;            // rows aggregated into this group
  std::vector<int64_t> sums;     // one per aggregate spec (kCount slots
                                 // mirror `count`; kAvg slots hold raw sums)
};

struct QueryResult {
  std::vector<std::string> group_column_names;
  std::vector<ResultRow> rows;   // sorted by group values

  // avg for aggregate slot i of row r (kAvg specs), as a double.
  double Avg(size_t row, size_t agg_index) const {
    const ResultRow& r = rows[row];
    return r.count == 0 ? 0.0
                        : static_cast<double>(r.sums[agg_index]) /
                              static_cast<double>(r.count);
  }
};

}  // namespace bipie

#endif  // BIPIE_CORE_QUERY_H_
