// A columnstore table: a schema plus a list of immutable segments.
//
// This models the immutable region of the MemSQL columnstore index that
// BIPie scans (§2.1). TableAppender is the compression step that turns
// incoming rows into encoded segments; HybridTable (storage/hybrid_table.h)
// puts the mutable region and its merge in front of it.
#ifndef BIPIE_STORAGE_TABLE_H_
#define BIPIE_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column_builder.h"
#include "storage/segment.h"
#include "storage/types.h"

namespace bipie {

class Table {
 public:
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  // A view for one query: shares `base`'s segments and appends `extra`
  // when it is non-null. ExecuteQueryHybrid scans the mutable region this
  // way, as one more segment (storage/hybrid_table.h).
  Table(const Table& base, std::shared_ptr<Segment> extra);

  Table(Table&&) = default;
  Table& operator=(Table&&) = default;
  BIPIE_DISALLOW_COPY_AND_ASSIGN(Table);

  const Schema& schema() const { return schema_; }
  size_t num_columns() const { return schema_.size(); }

  // Index of the column named `name`, or -1.
  int FindColumn(const std::string& name) const;

  size_t num_segments() const { return segments_.size(); }
  const Segment& segment(size_t i) const { return *segments_[i]; }
  Segment& mutable_segment(size_t i) { return *segments_[i]; }

  size_t num_rows() const {
    size_t total = 0;
    for (const auto& s : segments_) total += s->num_rows();
    return total;
  }

  void AddSegment(Segment segment) {
    segments_.push_back(std::make_shared<Segment>(std::move(segment)));
  }

  // Deep validation of every segment against the schema: column counts and
  // types match, and each segment passes Segment::Validate(). LoadTable
  // runs this over every loaded table (the untrusted-data boundary); it is
  // also callable standalone on hand-built tables.
  Status Validate() const;

  // Re-homes every buffer's memory charge to `to`. A table is typically
  // shared process state: LoadTable charges the load against the calling
  // query's tracker (so per-query limits bound the load's peak), then moves
  // the finished table's footprint to the process root here.
  void MoveMemoryChargesTo(MemoryTracker& to) {
    for (const auto& s : segments_) s->MoveMemoryChargesTo(to);
  }

 private:
  Schema schema_;
  std::vector<std::shared_ptr<Segment>> segments_;
};

// One column of a columnar chunk for TableAppender::AppendChunk: int64
// values for an int column, ids into a dictionary for a string column. The
// int form is implicit, so an all-int chunk is written {a.data(), b.data()}.
struct ColumnChunk {
  ColumnChunk(const int64_t* values) : ints(values) {}
  ColumnChunk(const uint32_t* ids, const StringDictionary* dictionary)
      : ids(ids), dictionary(dictionary) {}

  const int64_t* ints = nullptr;
  const uint32_t* ids = nullptr;
  const StringDictionary* dictionary = nullptr;
};

// Streams rows (or columnar chunks) into a table, cutting a new encoded
// segment every `segment_rows` rows.
class TableAppender {
 public:
  TableAppender(Table* table, size_t segment_rows = kDefaultSegmentRows);

  // Row-wise append; values must match the schema arity and types. String
  // cells are passed through `strings`, aligned by schema position (entries
  // for int columns are ignored).
  void AppendRow(const std::vector<int64_t>& ints,
                 const std::vector<std::string>& strings = {});

  // Columnar bulk append of `n` rows: one chunk per schema column, of the
  // column's type.
  void AppendChunk(const std::vector<ColumnChunk>& columns, size_t n);

  size_t pending_rows() const { return pending_rows_; }

  // Encodes any buffered rows into a final (possibly short) segment.
  void Flush();

 private:
  void CutSegment();

  Table* table_;
  size_t segment_rows_;
  size_t pending_rows_ = 0;
  std::vector<ColumnBuilder> builders_;
};

}  // namespace bipie

#endif  // BIPIE_STORAGE_TABLE_H_
