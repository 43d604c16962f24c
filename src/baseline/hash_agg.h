// Row-at-a-time hash aggregation: the scan's path for a segment outside
// the specialized envelope, and the engine-level baseline. It stands in for
// the classical engine design BIPie is compared against (§5, "The Group ID
// Mapper replaces the hash table lookup step in a classical implementation
// of aggregation"): per batch it decodes the needed columns to logical
// int64 arrays, then walks rows one at a time — hash the group key, probe
// an open-addressing table, update the count and every sum. No SIMD, no
// encoded-domain processing, no operator specialization; everything else
// (storage, expressions, filters) is shared, so benchmark deltas isolate
// the paper's contribution.
//
// BIPieScan runs SegmentHashAggregator on every segment whose SegmentPlan
// is rejected with kNotSupported (more than 255 groups, a delta or
// byte-sliced group-by column) and merges its contributions with every
// other segment's (DESIGN.md §9.2). ExecuteQueryHashAgg drives it over a
// whole table with its own batch loop and merge: the baseline, and an
// oracle.
#ifndef BIPIE_BASELINE_HASH_AGG_H_
#define BIPIE_BASELINE_HASH_AGG_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "core/query.h"
#include "exec/query_context.h"
#include "storage/table.h"

namespace bipie {

class SegmentHashAggregator {
 public:
  // Binds to one segment of `table` for `query`, which CheckQuery accepted
  // and which must outlive the aggregator.
  void Bind(const Table& table, const Segment& segment,
            const QuerySpec& query);

  // Aggregates rows [start, start + n) of the bound segment; `sel` is the
  // selection byte vector for the window (filter merged with liveness), or
  // nullptr when every row qualifies. The table's growth is charged to the
  // thread-current MemoryTracker: kResourceExhausted when a limit refuses
  // it, kOverflowRisk when a sum does not fit int64.
  Status ProcessBatch(size_t start, size_t n, const uint8_t* sel);

  // Appends one contribution per group seen, its key decoded through the
  // segment's dictionaries.
  void Finish(std::vector<SegmentContribution>* out) const;

 private:
  static constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

  // The group table: open addressing from (up to two) int64 keys to a
  // dense slot id, linear probing over a power-of-two slot array.
  uint32_t Probe(int64_t k0, int64_t k1);
  void Grow();

  const Segment* segment_ = nullptr;
  const QuerySpec* query_ = nullptr;
  std::vector<int> group_cols_;
  std::vector<int> agg_cols_;     // per spec; -1 for count and expressions
  std::vector<int> needed_cols_;  // columns decoded per batch

  std::vector<uint32_t> slots_;  // sized by Bind
  std::vector<std::pair<int64_t, int64_t>> keys_;  // [slot]
  std::vector<uint64_t> counts_;                   // [slot]
  std::vector<int64_t> sums_;  // [slot * num_specs + spec]
  // Charge for the vectors above (std::vector growth is invisible to the
  // AlignedBuffer tracker path), updated per batch.
  MemoryReservation reservation_;

  std::vector<AlignedBuffer> decoded_;          // per table column
  std::vector<const int64_t*> col_ptrs_;        // per table column
  std::vector<std::vector<int64_t>> expr_out_;  // per spec
};

// Runs `query` over every segment of `table` with SegmentHashAggregator.
// `context` (nullable) supplies cancellation and memory governance: the
// engine checks cancellation per batch and binds the context's
// MemoryTracker around execution, so a limit breach returns
// kResourceExhausted. A SUM that does not fit int64 returns kOverflowRisk.
Result<QueryResult> ExecuteQueryHashAgg(const Table& table,
                                        const QuerySpec& query,
                                        QueryContext* context = nullptr);

}  // namespace bipie

#endif  // BIPIE_BASELINE_HASH_AGG_H_
