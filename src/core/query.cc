#include "core/query.h"

namespace bipie {

Status CheckQuery(const Schema& schema, const QuerySpec& query) {
  auto find = [&schema](const std::string& name) -> Result<ColumnSpec> {
    for (const ColumnSpec& spec : schema) {
      if (spec.name == name) return spec;
    }
    return Status::InvalidArgument("unknown column: " + name);
  };
  auto integer = [](const ColumnSpec& col) {
    return col.type != ColumnType::kString
               ? Status::OK()
               : Status::InvalidArgument("aggregates require integer "
                                         "columns; " + col.name +
                                         " is a string column");
  };
  if (query.group_by.size() > 2) {
    return Status::NotSupported("group by supports at most two columns");
  }
  for (const std::string& name : query.group_by) {
    BIPIE_RETURN_NOT_OK(find(name).status());
  }
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateSpec::Kind::kCount) continue;
    if (spec.kind != AggregateSpec::Kind::kSumExpr) {
      Result<ColumnSpec> col = find(spec.column);
      BIPIE_RETURN_NOT_OK(col.status());
      BIPIE_RETURN_NOT_OK(integer(col.value()));
      continue;
    }
    if (spec.expr == nullptr) {
      return Status::InvalidArgument("sum-expression aggregate missing expr");
    }
    std::vector<int> cols;
    spec.expr->CollectColumns(&cols);
    for (const int c : cols) {
      if (c < 0 || static_cast<size_t>(c) >= schema.size()) {
        return Status::InvalidArgument("sum expression reads column index " +
                                       std::to_string(c) +
                                       " outside the schema");
      }
      BIPIE_RETURN_NOT_OK(integer(schema[c]));
    }
  }
  for (const ColumnPredicate& pred : query.filters) {
    Result<ColumnSpec> col = find(pred.column_name());
    BIPIE_RETURN_NOT_OK(col.status());
    const bool string_column = col.value().type == ColumnType::kString;
    if (string_column && pred.op() == CompareOp::kBetween) {
      return Status::NotSupported("BETWEEN on string columns is not supported");
    }
    if (pred.is_string() != string_column) {
      return Status::InvalidArgument(
          "filter on " + pred.column_name() + " compares a " +
          (string_column ? "string" : "integer") + " column with " +
          (pred.is_string() ? "a string" : "an integer") + " literal");
    }
  }
  return Status::OK();
}

}  // namespace bipie
