// The full §2.1 storage architecture: a mutable, uncompressed region in
// front of the immutable encoded columnstore.
//
// "The mutable region represents a small fraction of rows, recently added
// or modified. It is compressed into the immutable region by a background
// task." Here the merge is an explicit (or threshold-triggered) call —
// deterministic where MemSQL's is asynchronous, which keeps tests exact.
// The region is an append buffer by column: plain int64 values (with a
// running min/max) for an int column, ids into one region dictionary for a
// string column. Rows are encoded into segments only by Merge().
//
// A query against a HybridTable is one BIPie scan: the pending rows become
// one more read-only segment, built for that query alone. Fresh rows are
// visible immediately, before any merge (the real-time-analytics
// contract), and go through the same planning, segment elimination,
// kernels and per-segment hash path as encoded rows.
#ifndef BIPIE_STORAGE_HYBRID_TABLE_H_
#define BIPIE_STORAGE_HYBRID_TABLE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"
#include "core/scan.h"
#include "storage/table.h"

namespace bipie {

class HybridTable {
 public:
  explicit HybridTable(Schema schema,
                       size_t segment_rows = kDefaultSegmentRows);

  HybridTable(HybridTable&&) = default;
  BIPIE_DISALLOW_COPY_AND_ASSIGN(HybridTable);

  const Schema& schema() const { return schema_; }
  const Table& immutable() const { return immutable_; }
  Table& mutable_immutable() { return immutable_; }

  // Inserts one row into the mutable region. Triggers a merge when the
  // region reaches merge_threshold().
  void Insert(const std::vector<int64_t>& ints,
              const std::vector<std::string>& strings = {});

  size_t mutable_rows() const { return mutable_rows_; }
  size_t num_rows() const {
    return immutable_.num_rows() + mutable_rows();
  }

  // Compresses the mutable region into encoded immutable segments (the
  // "background task", run in the foreground).
  void Merge();

  size_t merge_threshold() const { return merge_threshold_; }
  void set_merge_threshold(size_t rows) { merge_threshold_ = rows; }

 private:
  friend Result<QueryResult> ExecuteQueryHybrid(const HybridTable&,
                                                const QuerySpec&,
                                                ScanOptions);

  // One schema column of the mutable region.
  struct RegionColumn {
    // Int column: the values and their exact range.
    std::vector<int64_t> ints;
    int64_t min = std::numeric_limits<int64_t>::max();
    int64_t max = std::numeric_limits<int64_t>::min();
    // String column: ids into `dictionary`, in first-insertion order.
    std::vector<uint32_t> ids;
    std::shared_ptr<StringDictionary> dictionary;
  };

  // Empties the region; string columns start a new dictionary.
  void ResetRegion();

  // The pending rows as one read-only segment (null when there are none):
  // each int column bit-packed at a byte-aligned width over its region min,
  // each string column dictionary-coded over the region dictionary. A
  // group-by over a wide int range therefore runs this segment hashed. Its
  // buffers are charged to `tracker` (null: the thread-current one);
  // kResourceExhausted when a limit refuses them.
  Result<std::shared_ptr<Segment>> RegionSegment(MemoryTracker* tracker) const;

  Schema schema_;
  Table immutable_;
  size_t segment_rows_;
  size_t merge_threshold_;
  size_t mutable_rows_ = 0;
  std::vector<RegionColumn> region_;
};

// Executes the BIPie workload shape over immutable + mutable regions, as
// one scan with the region as its last segment. A SUM that does not fit
// int64 returns kOverflowRisk.
Result<QueryResult> ExecuteQueryHybrid(const HybridTable& table,
                                       const QuerySpec& query,
                                       ScanOptions options = {});

}  // namespace bipie

#endif  // BIPIE_STORAGE_HYBRID_TABLE_H_
