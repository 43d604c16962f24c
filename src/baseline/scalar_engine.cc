#include "baseline/scalar_engine.h"

#include <algorithm>
#include <map>
#include <vector>

namespace bipie {

namespace {

// Decoded view of a segment column: logical int64s, plus the string
// dictionary when the column is a string (logical values are then ids).
struct DecodedColumn {
  std::vector<int64_t> values;
  const StringDictionary* strings = nullptr;
};

GroupValue MakeGroupValue(const DecodedColumn& col, int64_t logical) {
  GroupValue v;
  if (col.strings != nullptr) {
    v.is_string = true;
    v.string_value = col.strings->value(static_cast<uint32_t>(logical));
  } else {
    v.int_value = logical;
  }
  return v;
}

}  // namespace

Result<QueryResult> ExecuteQueryNaive(const Table& table,
                                      const QuerySpec& query) {
  BIPIE_RETURN_NOT_OK(CheckQuery(table.schema(), query));
  // Resolve column indices (CheckQuery proved every name exists).
  std::vector<int> group_cols;
  for (const std::string& name : query.group_by) {
    group_cols.push_back(table.FindColumn(name));
  }
  std::vector<int> filter_cols;
  for (const ColumnPredicate& pred : query.filters) {
    filter_cols.push_back(table.FindColumn(pred.column_name()));
  }

  std::map<std::vector<GroupValue>, ResultRow> merged;
  const size_t num_specs = query.aggregates.size();

  for (size_t s = 0; s < table.num_segments(); ++s) {
    const Segment& segment = table.segment(s);
    const size_t n = segment.num_rows();
    if (n == 0) continue;

    // Decode every column once (naive by design).
    std::vector<DecodedColumn> cols(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      cols[c].values.resize(n);
      segment.column(c).DecodeInt64(0, n, cols[c].values.data());
      cols[c].strings = segment.column(c).string_dictionary();
    }
    std::vector<const int64_t*> col_ptrs(table.num_columns());
    for (size_t c = 0; c < table.num_columns(); ++c) {
      col_ptrs[c] = cols[c].values.data();
    }

    // Which rows the query aggregates: alive and passing every filter.
    const uint8_t* alive = segment.alive_bytes();
    std::vector<uint8_t> selected(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (alive != nullptr && alive[i] == 0) continue;
      bool pass = true;
      for (size_t f = 0; f < query.filters.size(); ++f) {
        const ColumnPredicate& pred = query.filters[f];
        const DecodedColumn& fc = cols[filter_cols[f]];
        if (fc.strings != nullptr) {
          // Evaluate string predicates through the encoded-domain path for
          // one row (rare in the naive engine's usage). The slack covers
          // Evaluate's SIMD write allowance.
          uint8_t verdict[40] = {0};
          Status st = pred.Evaluate(segment.column(filter_cols[f]), i, 1,
                                    verdict);
          if (!st.ok()) return st;
          pass = verdict[0] != 0;
        } else {
          pass = CompareInt64(fc.values[i], pred.op(), pred.literal(),
                              pred.literal2());
        }
        if (!pass) break;
      }
      selected[i] = pass ? 0xFF : 0;
    }

    // Pre-evaluate expression aggregates over the full segment; overflow
    // counts only on the rows aggregated.
    std::vector<std::vector<int64_t>> expr_values(num_specs);
    for (size_t a = 0; a < num_specs; ++a) {
      if (query.aggregates[a].kind == AggregateSpec::Kind::kSumExpr) {
        expr_values[a].resize(n);
        BIPIE_RETURN_NOT_OK(query.aggregates[a].expr->Evaluate(
            col_ptrs.data(), n, expr_values[a].data(), selected.data()));
      }
    }
    std::vector<int> agg_cols(num_specs, -1);
    for (size_t a = 0; a < num_specs; ++a) {
      const AggregateSpec& spec = query.aggregates[a];
      if (spec.kind == AggregateSpec::Kind::kSum ||
          spec.kind == AggregateSpec::Kind::kAvg ||
          spec.kind == AggregateSpec::Kind::kMin ||
          spec.kind == AggregateSpec::Kind::kMax) {
        agg_cols[a] = table.FindColumn(spec.column);
      }
    }

    for (size_t i = 0; i < n; ++i) {
      if (selected[i] == 0) continue;
      std::vector<GroupValue> key;
      for (int gc : group_cols) {
        key.push_back(MakeGroupValue(cols[gc], cols[gc].values[i]));
      }
      ResultRow& row = merged[key];
      const bool fresh = row.sums.empty();
      if (fresh) {
        row.group = key;
        row.sums.assign(num_specs, 0);
      }
      ++row.count;
      for (size_t a = 0; a < num_specs; ++a) {
        switch (query.aggregates[a].kind) {
          case AggregateSpec::Kind::kCount:
            break;
          case AggregateSpec::Kind::kSum:
          case AggregateSpec::Kind::kAvg:
          case AggregateSpec::Kind::kSumExpr: {
            const int64_t v =
                query.aggregates[a].kind == AggregateSpec::Kind::kSumExpr
                    ? expr_values[a][i]
                    : cols[agg_cols[a]].values[i];
            if (__builtin_add_overflow(row.sums[a], v, &row.sums[a])) {
              return Status::OverflowRisk(
                  "int64 sum overflow in the naive engine");
            }
            break;
          }
          case AggregateSpec::Kind::kMin:
            row.sums[a] = fresh ? cols[agg_cols[a]].values[i]
                                : std::min(row.sums[a],
                                           cols[agg_cols[a]].values[i]);
            break;
          case AggregateSpec::Kind::kMax:
            row.sums[a] = fresh ? cols[agg_cols[a]].values[i]
                                : std::max(row.sums[a],
                                           cols[agg_cols[a]].values[i]);
            break;
        }
      }
    }
  }

  QueryResult result;
  result.group_column_names = query.group_by;
  for (auto& [key, row] : merged) {
    for (size_t a = 0; a < num_specs; ++a) {
      if (query.aggregates[a].kind == AggregateSpec::Kind::kCount) {
        row.sums[a] = static_cast<int64_t>(row.count);
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace bipie
