#include "storage/table.h"

#include <algorithm>

namespace bipie {

Table::Table(const Table& base, std::shared_ptr<Segment> extra)
    : schema_(base.schema_), segments_(base.segments_) {
  if (extra != nullptr) segments_.push_back(std::move(extra));
}

int Table::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

Status Table::Validate() const {
  for (size_t s = 0; s < segments_.size(); ++s) {
    const Segment& segment = *segments_[s];
    if (segment.num_columns() != schema_.size()) {
      return Status::DataLoss("segment " + std::to_string(s) +
                              " column count disagrees with schema");
    }
    for (size_t c = 0; c < schema_.size(); ++c) {
      if (segment.column(c).type() != schema_[c].type) {
        return Status::DataLoss("segment " + std::to_string(s) + " column " +
                                std::to_string(c) +
                                " type disagrees with schema");
      }
    }
    const Status st = segment.Validate();
    if (!st.ok()) {
      return Status::DataLoss("segment " + std::to_string(s) + ": " +
                              st.message());
    }
  }
  return Status::OK();
}

TableAppender::TableAppender(Table* table, size_t segment_rows)
    : table_(table), segment_rows_(segment_rows) {
  BIPIE_DCHECK(segment_rows_ > 0);
  for (const ColumnSpec& spec : table_->schema()) {
    builders_.emplace_back(spec);
  }
}

void TableAppender::AppendRow(const std::vector<int64_t>& ints,
                              const std::vector<std::string>& strings) {
  const Schema& schema = table_->schema();
  BIPIE_DCHECK(ints.size() == schema.size());
  for (size_t c = 0; c < schema.size(); ++c) {
    if (schema[c].type == ColumnType::kString) {
      BIPIE_DCHECK(c < strings.size());
      builders_[c].AppendString(strings[c]);
    } else {
      builders_[c].AppendInt64(ints[c]);
    }
  }
  if (++pending_rows_ == segment_rows_) CutSegment();
}

void TableAppender::AppendChunk(const std::vector<ColumnChunk>& columns,
                                size_t n) {
  const Schema& schema = table_->schema();
  BIPIE_DCHECK(columns.size() == schema.size());
  size_t offset = 0;
  while (n > 0) {
    const size_t room = segment_rows_ - pending_rows_;
    const size_t take = std::min(room, n);
    for (size_t c = 0; c < columns.size(); ++c) {
      if (schema[c].type == ColumnType::kString) {
        BIPIE_DCHECK(columns[c].ids != nullptr);
        builders_[c].AppendIds(columns[c].ids + offset, take,
                               *columns[c].dictionary);
      } else {
        BIPIE_DCHECK(columns[c].ints != nullptr);
        builders_[c].AppendInt64Bulk(columns[c].ints + offset, take);
      }
    }
    pending_rows_ += take;
    offset += take;
    n -= take;
    if (pending_rows_ == segment_rows_) CutSegment();
  }
}

void TableAppender::Flush() {
  if (pending_rows_ > 0) CutSegment();
}

void TableAppender::CutSegment() {
  std::vector<EncodedColumn> columns;
  columns.reserve(builders_.size());
  for (ColumnBuilder& b : builders_) columns.push_back(b.Finish());
  table_->AddSegment(Segment(pending_rows_, std::move(columns)));
  pending_rows_ = 0;
}

}  // namespace bipie
