#include "storage/hybrid_table.h"

#include <algorithm>
#include <map>

namespace bipie {

HybridTable::HybridTable(Schema schema, size_t segment_rows)
    : schema_(schema),
      immutable_(std::move(schema)),
      segment_rows_(segment_rows),
      merge_threshold_(segment_rows),
      region_ints_(schema_.size()),
      region_strings_(schema_.size()) {}

void HybridTable::Insert(const std::vector<int64_t>& ints,
                         const std::vector<std::string>& strings) {
  BIPIE_DCHECK(ints.size() == schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (schema_[c].type == ColumnType::kString) {
      BIPIE_DCHECK(strings.empty() || c < strings.size());
      region_strings_[c].push_back(strings.empty() ? std::string()
                                                   : strings[c]);
    } else {
      region_ints_[c].push_back(ints[c]);
    }
  }
  if (++mutable_rows_ >= merge_threshold_) Merge();
}

void HybridTable::Merge() {
  if (mutable_rows_ == 0) return;
  std::vector<ColumnChunk> chunk;
  chunk.reserve(schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    if (schema_[c].type == ColumnType::kString) {
      chunk.emplace_back(region_strings_[c].data());
    } else {
      chunk.emplace_back(region_ints_[c].data());
    }
  }
  TableAppender appender(&immutable_, segment_rows_);
  appender.AppendChunk(chunk, mutable_rows_);
  appender.Flush();
  for (std::vector<int64_t>& column : region_ints_) column.clear();
  for (std::vector<std::string>& column : region_strings_) column.clear();
  mutable_rows_ = 0;
}

namespace {

using GroupMap = std::map<std::vector<GroupValue>, ResultRow>;

// Adds one partial result (a region row, or an immutable-region group) into
// `merged`. Sums are checked: partial sums that each fit int64 can still
// overflow together.
Status MergeRow(const QuerySpec& query, const std::vector<GroupValue>& key,
                uint64_t count, const std::vector<int64_t>& values,
                GroupMap* merged) {
  auto [it, fresh] = merged->try_emplace(key);
  ResultRow& row = it->second;
  if (fresh) {
    row.group = key;
    row.sums.assign(query.aggregates.size(), 0);
  }
  row.count += count;
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    switch (query.aggregates[a].kind) {
      case AggregateSpec::Kind::kMin:
        row.sums[a] = fresh ? values[a] : std::min(row.sums[a], values[a]);
        break;
      case AggregateSpec::Kind::kMax:
        row.sums[a] = fresh ? values[a] : std::max(row.sums[a], values[a]);
        break;
      default:
        if (__builtin_add_overflow(row.sums[a], values[a], &row.sums[a])) {
          return Status::OverflowRisk("int64 sum overflow merging regions");
        }
        break;
    }
  }
  return Status::OK();
}

// Row-at-a-time evaluation over the mutable region. The region is small by
// construction (bounded by the merge threshold), so simplicity wins over
// vectorization here — exactly the paper's split: BIPie optimizes the
// immutable region, the mutable region handles fresh rows.
Status ScanMutableRegion(const Schema& schema, const QuerySpec& query,
                         const std::vector<std::vector<int64_t>>& ints,
                         const std::vector<std::vector<std::string>>& strings,
                         size_t rows, GroupMap* merged) {
  // Resolve columns once.
  auto find_column = [&](const std::string& name) {
    for (size_t c = 0; c < schema.size(); ++c) {
      if (schema[c].name == name) return static_cast<int>(c);
    }
    return -1;
  };
  auto is_string = [&](int c) { return schema[c].type == ColumnType::kString; };
  std::vector<int> group_cols;
  for (const std::string& name : query.group_by) {
    const int idx = find_column(name);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + name);
    group_cols.push_back(idx);
  }
  std::vector<int> filter_cols;
  for (const ColumnPredicate& pred : query.filters) {
    const int idx = find_column(pred.column_name());
    if (idx < 0) {
      return Status::InvalidArgument("unknown column: " + pred.column_name());
    }
    filter_cols.push_back(idx);
  }
  std::vector<int> agg_cols(query.aggregates.size(), -1);
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const AggregateSpec& spec = query.aggregates[a];
    std::vector<int> inputs;
    if (spec.kind == AggregateSpec::Kind::kSum ||
        spec.kind == AggregateSpec::Kind::kAvg ||
        spec.kind == AggregateSpec::Kind::kMin ||
        spec.kind == AggregateSpec::Kind::kMax) {
      agg_cols[a] = find_column(spec.column);
      if (agg_cols[a] < 0) {
        return Status::InvalidArgument("unknown column: " + spec.column);
      }
      inputs.push_back(agg_cols[a]);
    } else if (spec.kind == AggregateSpec::Kind::kSumExpr) {
      if (spec.expr == nullptr) {
        return Status::InvalidArgument("sum-expression aggregate missing expr");
      }
      spec.expr->CollectColumns(&inputs);
    }
    // Aggregates read int values; the region keeps none for string columns.
    for (int c : inputs) {
      if (is_string(c)) {
        return Status::NotSupported("aggregates require integer columns");
      }
    }
  }

  // One key and one values buffer for the whole scan; MergeRow copies the
  // key only when it starts a new group.
  std::vector<GroupValue> key(group_cols.size());
  for (size_t k = 0; k < group_cols.size(); ++k) {
    key[k].is_string = is_string(group_cols[k]);
  }
  std::vector<int64_t> values(query.aggregates.size(), 0);
  std::vector<const int64_t*> row_ptrs(schema.size(), nullptr);
  for (size_t i = 0; i < rows; ++i) {
    bool pass = true;
    for (size_t f = 0; f < query.filters.size(); ++f) {
      const ColumnPredicate& pred = query.filters[f];
      const int c = filter_cols[f];
      if (is_string(c)) {
        // String predicates in the mutable region compare values directly.
        const int cmp = strings[c][i].compare(pred.string_literal());
        bool hit;
        switch (pred.op()) {
          case CompareOp::kEq: hit = cmp == 0; break;
          case CompareOp::kNe: hit = cmp != 0; break;
          case CompareOp::kLt: hit = cmp < 0; break;
          case CompareOp::kLe: hit = cmp <= 0; break;
          case CompareOp::kGt: hit = cmp > 0; break;
          case CompareOp::kGe: hit = cmp >= 0; break;
          default:
            return Status::NotSupported(
                "BETWEEN on string columns is not supported");
        }
        pass = hit;
      } else {
        pass = CompareInt64(ints[c][i], pred.op(), pred.literal(),
                            pred.literal2());
      }
      if (!pass) break;
    }
    if (!pass) continue;

    for (size_t k = 0; k < group_cols.size(); ++k) {
      const int gc = group_cols[k];
      if (key[k].is_string) {
        key[k].string_value = strings[gc][i];
      } else {
        key[k].int_value = ints[gc][i];
      }
    }

    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      const AggregateSpec& spec = query.aggregates[a];
      switch (spec.kind) {
        case AggregateSpec::Kind::kCount:
          values[a] = 1;
          break;
        case AggregateSpec::Kind::kSum:
        case AggregateSpec::Kind::kAvg:
        case AggregateSpec::Kind::kMin:
        case AggregateSpec::Kind::kMax:
          values[a] = ints[agg_cols[a]][i];
          break;
        case AggregateSpec::Kind::kSumExpr: {
          for (size_t c = 0; c < schema.size(); ++c) {
            if (!is_string(static_cast<int>(c))) row_ptrs[c] = &ints[c][i];
          }
          spec.expr->Evaluate(row_ptrs.data(), 1, &values[a]);
          break;
        }
      }
    }
    BIPIE_RETURN_NOT_OK(MergeRow(query, key, 1, values, merged));
  }
  return Status::OK();
}

}  // namespace

Result<QueryResult> ExecuteQueryHybrid(const HybridTable& table,
                                       const QuerySpec& query,
                                       ScanOptions options) {
  // Immutable region through the BIPie scan.
  Result<QueryResult> immutable_result =
      ExecuteQuery(table.immutable(), query, std::move(options));
  if (!immutable_result.ok()) return immutable_result.status();

  GroupMap merged;
  for (const ResultRow& row : immutable_result.value().rows) {
    BIPIE_RETURN_NOT_OK(
        MergeRow(query, row.group, row.count, row.sums, &merged));
  }
  // kCount slots were materialized as counts in the immutable result; the
  // MergeRow addition above double-counts them only if we add count again,
  // so rebuild them at the end instead.
  BIPIE_RETURN_NOT_OK(ScanMutableRegion(
      table.schema(), query, table.region_ints_, table.region_strings_,
      table.mutable_rows_, &merged));

  QueryResult result;
  result.group_column_names = query.group_by;
  result.rows.reserve(merged.size());
  for (auto& [key, row] : merged) {
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      if (query.aggregates[a].kind == AggregateSpec::Kind::kCount) {
        row.sums[a] = static_cast<int64_t>(row.count);
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace bipie
