// The Group ID Mapper (§3).
//
// Takes the group-by columns and produces a single vector of small integer
// group ids, replacing the hash-table lookup of a classical aggregation:
// dictionary encoding already provides an injective mapping from column
// values to consecutive small integers — a perfect, collision-free hash.
// Multi-column group-bys combine per-column ids arithmetically
// (id = id0 * card1 + id1), exactly how TPC-H Q1's two string columns fold
// into ids 0..5 (§6.3).
#ifndef BIPIE_CORE_GROUP_MAPPER_H_
#define BIPIE_CORE_GROUP_MAPPER_H_

#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "core/query.h"
#include "storage/segment.h"

namespace bipie {

// One contiguous row range mapping to a single combined group id — the
// run-level dual of the per-row group-id vector (DESIGN.md §11). Rows are
// absolute segment row numbers.
struct GroupRunSpan {
  size_t start = 0;
  size_t len = 0;
  uint8_t group = 0;
};

class GroupMapper {
 public:
  // The most groups one segment binds: group ids are single bytes, and one
  // id stays free for the special group.
  static constexpr uint64_t kMaxGroups = 255;

  GroupMapper() = default;

  // Binds to one segment's group-by columns (0, 1 or 2 indices). Group
  // columns may be dictionary, bit-packed, or RLE encoded (RLE run values
  // get per-segment dense ids), with a combined cardinality of at most 255
  // (one id must remain free for the special group). With no group
  // columns, all rows map to group 0.
  Status Bind(const Segment& segment, const std::vector<int>& column_indices);

  // Upper bound on distinct groups in this segment, from encoding metadata.
  int num_groups() const { return num_groups_; }

  // Produces byte group ids for rows [start, start + n). `out` needs 32
  // bytes of write slack. `scratch` holds the second column's ids while two
  // columns are combined; it is the caller's, so one bound mapper can serve
  // several threads at once.
  void MapBatch(size_t start, size_t n, uint8_t* out,
                AlignedBuffer* scratch) const;

  // Produces group ids only for the given (ascending, batch-local) row
  // indices of the window starting at `start` — the gather-selection path.
  void MapSelected(size_t start, const uint32_t* indices, size_t n,
                   uint8_t* out, AlignedBuffer* scratch) const;

  // Decodes local group id -> the value of group column `k`.
  GroupValue ValueOf(int group_id, int k) const;

  int num_columns() const { return static_cast<int>(columns_.size()); }

  // --- run-span export (run-level execution, DESIGN.md §11) ---------------

  // True when every bound group column has a run representation: RLE, or
  // constant over the segment (cardinality 1). With no group columns every
  // row is group 0 — trivially one run.
  bool runs_available() const;

  // Upper bound on the spans AppendRunSpans would emit for the whole
  // segment (sum of per-column run counts); drives the profitability half
  // of run-based admission.
  size_t run_count_bound() const;

  // Appends the group-id spans covering rows [start, start + n), ascending
  // and non-overlapping, with adjacent equal-group spans merged. Combined
  // ids follow the MapBatch arithmetic (id0 * card1 + id1). Requires
  // runs_available().
  void AppendRunSpans(size_t start, size_t n,
                      std::vector<GroupRunSpan>* out) const;

 private:
  struct BoundColumn {
    const EncodedColumn* column = nullptr;
    uint32_t cardinality = 0;
    // RLE group columns: run stream with values replaced by dense ids, plus
    // the id -> value mapping (a per-segment dictionary over run values).
    std::vector<RleRun> id_runs;
    std::vector<int64_t> rle_values;
  };

  void MaterializeIds(const BoundColumn& bound, size_t start, size_t n,
                      uint8_t* out) const;
  void MaterializeIdsSelected(const BoundColumn& bound, size_t start,
                              const uint32_t* indices, size_t n,
                              uint8_t* out) const;
  // Appends one column's id runs clipped to [start, start + n); the runs
  // tile the window exactly. GroupRunSpan::group holds the per-column id.
  void AppendIdRuns(const BoundColumn& bound, size_t start, size_t n,
                    std::vector<GroupRunSpan>* out) const;

  std::vector<BoundColumn> columns_;
  int num_groups_ = 1;
  // Charge for the id_runs/rle_values vectors, which AlignedBuffer
  // accounting cannot see. Updated at Bind; Bind fails with
  // kResourceExhausted when the growth breaches the query's limit.
  MemoryReservation reservation_;
};

}  // namespace bipie

#endif  // BIPIE_CORE_GROUP_MAPPER_H_
