// The full §2.1 storage architecture: a mutable, uncompressed region in
// front of the immutable encoded columnstore.
//
// "The mutable region represents a small fraction of rows, recently added
// or modified. It is compressed into the immutable region by a background
// task." Here the merge is an explicit (or threshold-triggered) call —
// deterministic where MemSQL's is asynchronous, which keeps tests exact.
// The region is an append buffer with one plain value vector per column;
// rows are encoded into segments only by Merge().
//
// Queries against a HybridTable run BIPie over the immutable segments and
// a row-at-a-time evaluator over the (small) mutable region, merging the
// two partial results by group value — the real-time-analytics contract
// that freshly inserted rows are visible immediately, before any merge.
#ifndef BIPIE_STORAGE_HYBRID_TABLE_H_
#define BIPIE_STORAGE_HYBRID_TABLE_H_

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

  Schema schema_;
  Table immutable_;
  size_t segment_rows_;
  size_t merge_threshold_;
  // The mutable region, by column: int column c holds its values in
  // region_ints_[c], string column c in region_strings_[c]; the vector of
  // the other type stays empty.
  size_t mutable_rows_ = 0;
  std::vector<std::vector<int64_t>> region_ints_;
  std::vector<std::vector<std::string>> region_strings_;
};

// Executes the BIPie workload shape over immutable + mutable regions. A SUM
// that does not fit int64 returns kOverflowRisk.
Result<QueryResult> ExecuteQueryHybrid(const HybridTable& table,
                                       const QuerySpec& query,
                                       ScanOptions options = {});

}  // namespace bipie

#endif  // BIPIE_STORAGE_HYBRID_TABLE_H_
