#include "storage/hybrid_table.h"

#include <algorithm>

#include "common/memory_tracker.h"

namespace bipie {

namespace {

const std::string kEmptyString;

}  // namespace

HybridTable::HybridTable(Schema schema, size_t segment_rows)
    : schema_(schema),
      immutable_(std::move(schema)),
      segment_rows_(segment_rows),
      merge_threshold_(segment_rows),
      region_(schema_.size()) {
  ResetRegion();
}

void HybridTable::Insert(const std::vector<int64_t>& ints,
                         const std::vector<std::string>& strings) {
  BIPIE_DCHECK(ints.size() == schema_.size());
  for (size_t c = 0; c < schema_.size(); ++c) {
    RegionColumn& column = region_[c];
    if (schema_[c].type == ColumnType::kString) {
      BIPIE_DCHECK(strings.empty() || c < strings.size());
      column.ids.push_back(column.dictionary->GetOrInsert(
          strings.empty() ? kEmptyString : strings[c]));
    } else {
      const int64_t value = ints[c];
      column.ints.push_back(value);
      column.min = std::min(column.min, value);
      column.max = std::max(column.max, value);
    }
  }
  if (++mutable_rows_ >= merge_threshold_) Merge();
}

void HybridTable::Merge() {
  if (mutable_rows_ == 0) return;
  std::vector<ColumnChunk> chunk;
  chunk.reserve(schema_.size());
  for (const RegionColumn& column : region_) {
    if (column.dictionary != nullptr) {
      chunk.emplace_back(column.ids.data(), column.dictionary.get());
    } else {
      chunk.emplace_back(column.ints.data());
    }
  }
  TableAppender appender(&immutable_, segment_rows_);
  appender.AppendChunk(chunk, mutable_rows_);
  appender.Flush();
  ResetRegion();
}

void HybridTable::ResetRegion() {
  for (size_t c = 0; c < schema_.size(); ++c) {
    RegionColumn& column = region_[c];
    column.ints.clear();
    column.min = std::numeric_limits<int64_t>::max();
    column.max = std::numeric_limits<int64_t>::min();
    column.ids.clear();
    if (schema_[c].type == ColumnType::kString) {
      column.dictionary = std::make_shared<StringDictionary>();
    }
  }
  mutable_rows_ = 0;
}

Result<std::shared_ptr<Segment>> HybridTable::RegionSegment(
    MemoryTracker* tracker) const {
  if (mutable_rows_ == 0) return std::shared_ptr<Segment>();
  MemoryTrackerScope memory_scope(tracker);
  std::vector<EncodedColumn> columns;
  columns.reserve(schema_.size());
  for (const RegionColumn& region : region_) {
    Result<EncodedColumn> column =
        region.dictionary != nullptr
            ? ColumnBuilder::ByteAlignedIds(region.ids.data(), mutable_rows_,
                                            region.dictionary)
            : ColumnBuilder::ByteAlignedInts(region.ints.data(),
                                             mutable_rows_, region.min,
                                             region.max);
    if (!column.ok()) return column.status();
    columns.push_back(std::move(column.value()));
  }
  return std::make_shared<Segment>(mutable_rows_, std::move(columns));
}

Result<QueryResult> ExecuteQueryHybrid(const HybridTable& table,
                                       const QuerySpec& query,
                                       ScanOptions options) {
  QueryContext* const ctx = options.context;
  Result<std::shared_ptr<Segment>> region =
      table.RegionSegment(ctx != nullptr ? &ctx->memory_tracker() : nullptr);
  if (!region.ok()) return region.status();
  const Table view(table.immutable(), std::move(region.value()));
  return ExecuteQuery(view, query, std::move(options));
}

}  // namespace bipie
