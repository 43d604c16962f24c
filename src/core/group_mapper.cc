#include "core/group_mapper.h"

#include <cstring>

#include "common/bits.h"
#include "vector/gather_select.h"

namespace bipie {

Status GroupMapper::Bind(const Segment& segment,
                         const std::vector<int>& column_indices) {
  columns_.clear();
  num_groups_ = 1;
  if (column_indices.size() > 2) {
    return Status::NotSupported("group by supports at most two columns");
  }
  uint64_t combined = 1;
  for (int idx : column_indices) {
    const EncodedColumn& col = segment.column(static_cast<size_t>(idx));
    BoundColumn bound;
    bound.column = &col;
    if (col.encoding() == Encoding::kDelta) {
      return Status::NotSupported(
          "delta-encoded group-by columns are not id-addressable");
    }
    if (col.encoding() == Encoding::kByteSliced) {
      // Ids are addressable but not gather-able from a packed bit stream
      // (MaterializeIdsSelected rebases a packed pointer); byteslice earns
      // its keep on filter columns, group-bys stay packed/dict/RLE.
      return Status::NotSupported(
          "byte-sliced group-by columns are not supported");
    }
    if (col.encoding() == Encoding::kRle) {
      // RLE columns are not id-addressable directly; assign ids to the run
      // values in first-appearance order (a per-segment dictionary over
      // runs), producing an id-valued run stream to materialize from.
      IntDictionary run_dict;
      bound.id_runs.reserve(col.runs().size());
      for (const RleRun& run : col.runs()) {
        const uint32_t id =
            run_dict.GetOrInsert(static_cast<int64_t>(run.value));
        if (run_dict.size() > kMaxGroups) {
          return Status::NotSupported(
              "RLE group-by column has more than 255 distinct run values");
        }
        bound.id_runs.push_back(RleRun{id, run.count});
      }
      bound.rle_values = run_dict.values();
      bound.cardinality = static_cast<uint32_t>(bound.rle_values.size());
      if (bound.cardinality == 0) bound.cardinality = 1;
    } else {
      // Reject a wide column before narrowing its bound: a bit-packed range
      // above 2^32 would wrap, and the full int64 range wraps id_bound()
      // itself to 0.
      const uint64_t card = col.id_bound();
      if (card == 0 || card > kMaxGroups) {
        return Status::NotSupported(
            "combined group-by cardinality exceeds 255");
      }
      bound.cardinality = static_cast<uint32_t>(card);
    }
    combined *= bound.cardinality;
    if (combined > kMaxGroups) {
      return Status::NotSupported(
          "combined group-by cardinality exceeds 255");
    }
    columns_.push_back(std::move(bound));
  }
  num_groups_ = static_cast<int>(combined);
  // Account the run-dictionary structures (per-segment id runs and their
  // value mapping) against the query's tracker — on RLE-heavy segments
  // these are the mapper's dominant allocation.
  size_t bound_bytes = 0;
  for (const BoundColumn& bound : columns_) {
    bound_bytes += bound.id_runs.capacity() * sizeof(RleRun) +
                   bound.rle_values.capacity() * sizeof(int64_t);
  }
  BIPIE_RETURN_NOT_OK(reservation_.Update(bound_bytes));
  return Status::OK();
}

void GroupMapper::MaterializeIds(const BoundColumn& bound, size_t start,
                                 size_t n, uint8_t* out) const {
  const EncodedColumn& col = *bound.column;
  if (col.encoding() != Encoding::kRle) {
    // Per-column ids are at most 255 (combined cardinality cap), so every
    // id stream unpacks to single bytes.
    col.UnpackIds(start, n, out, 1);
    return;
  }
  // Walk the id-valued runs overlapping [start, start + n).
  size_t pos = 0;
  for (const RleRun& run : bound.id_runs) {
    const size_t run_begin = pos;
    const size_t run_end = pos + run.count;
    pos = run_end;
    if (run_end <= start) continue;
    if (run_begin >= start + n) break;
    const size_t lo = run_begin < start ? start : run_begin;
    const size_t hi = run_end > start + n ? start + n : run_end;
    std::memset(out + (lo - start), static_cast<uint8_t>(run.value),
                hi - lo);
  }
}

void GroupMapper::MaterializeIdsSelected(const BoundColumn& bound,
                                         size_t start,
                                         const uint32_t* indices, size_t n,
                                         uint8_t* out) const {
  const EncodedColumn& col = *bound.column;
  if (col.encoding() != Encoding::kRle) {
    // Rebase the packed stream to the batch window: batch starts are
    // multiples of kBatchRows (4096), so start * width is always a whole
    // number of bytes.
    const uint8_t* packed =
        col.packed_data() + start * static_cast<uint64_t>(col.bit_width()) / 8;
    GatherSelect(packed, col.bit_width(), indices, n, out, 1);
    return;
  }
  // Merge-walk the (ascending) indices against the runs.
  size_t run_idx = 0;
  size_t run_begin = 0;
  size_t run_end = bound.id_runs.empty() ? 0 : bound.id_runs[0].count;
  for (size_t i = 0; i < n; ++i) {
    const size_t row = start + indices[i];
    while (run_idx < bound.id_runs.size() && row >= run_end) {
      run_begin = run_end;
      ++run_idx;
      if (run_idx < bound.id_runs.size()) {
        run_end += bound.id_runs[run_idx].count;
      }
    }
    BIPIE_DCHECK(run_idx < bound.id_runs.size());
    out[i] = static_cast<uint8_t>(bound.id_runs[run_idx].value);
  }
  (void)run_begin;
}

void GroupMapper::MapBatch(size_t start, size_t n, uint8_t* out,
                           AlignedBuffer* scratch) const {
  if (columns_.empty()) {
    std::memset(out, 0, n);
    return;
  }
  MaterializeIds(columns_[0], start, n, out);
  if (columns_.size() == 1) return;
  scratch->Resize(n);
  MaterializeIds(columns_[1], start, n, scratch->data());
  const uint32_t card1 = columns_[1].cardinality;
  const uint8_t* second = scratch->data();
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(out[i] * card1 + second[i]);
  }
}

void GroupMapper::MapSelected(size_t start, const uint32_t* indices,
                              size_t n, uint8_t* out,
                              AlignedBuffer* scratch) const {
  if (columns_.empty()) {
    std::memset(out, 0, n);
    return;
  }
  MaterializeIdsSelected(columns_[0], start, indices, n, out);
  if (columns_.size() == 1) return;
  scratch->Resize(n);
  MaterializeIdsSelected(columns_[1], start, indices, n, scratch->data());
  const uint32_t card1 = columns_[1].cardinality;
  const uint8_t* second = scratch->data();
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(out[i] * card1 + second[i]);
  }
}

bool GroupMapper::runs_available() const {
  for (const BoundColumn& bound : columns_) {
    if (bound.column->encoding() != Encoding::kRle &&
        bound.cardinality != 1) {
      return false;
    }
  }
  return true;
}

size_t GroupMapper::run_count_bound() const {
  size_t total = 1;
  for (const BoundColumn& bound : columns_) {
    total += bound.column->encoding() == Encoding::kRle
                 ? bound.id_runs.size()
                 : 1;
  }
  return total;
}

void GroupMapper::AppendIdRuns(const BoundColumn& bound, size_t start,
                               size_t n,
                               std::vector<GroupRunSpan>* out) const {
  if (bound.column->encoding() != Encoding::kRle) {
    // Constant column (cardinality 1): every row is id 0.
    BIPIE_DCHECK(bound.cardinality == 1);
    out->push_back({start, n, 0});
    return;
  }
  size_t pos = 0;
  for (const RleRun& run : bound.id_runs) {
    const size_t run_begin = pos;
    const size_t run_end = pos + run.count;
    pos = run_end;
    if (run_end <= start) continue;
    if (run_begin >= start + n) break;
    const size_t lo = run_begin < start ? start : run_begin;
    const size_t hi = run_end > start + n ? start + n : run_end;
    out->push_back({lo, hi - lo, static_cast<uint8_t>(run.value)});
  }
}

void GroupMapper::AppendRunSpans(size_t start, size_t n,
                                 std::vector<GroupRunSpan>* out) const {
  if (n == 0) return;
  const auto emit = [out](size_t lo, size_t len, uint8_t group) {
    if (!out->empty() && out->back().group == group &&
        out->back().start + out->back().len == lo) {
      out->back().len += len;
    } else {
      out->push_back({lo, len, group});
    }
  };
  if (columns_.empty()) {
    emit(start, n, 0);
    return;
  }
  std::vector<GroupRunSpan> first;
  AppendIdRuns(columns_[0], start, n, &first);
  if (columns_.size() == 1) {
    for (const GroupRunSpan& s : first) emit(s.start, s.len, s.group);
    return;
  }
  // Two-pointer intersection of the two run tilings; the combined id uses
  // the MapBatch arithmetic (id0 * card1 + id1).
  std::vector<GroupRunSpan> second;
  AppendIdRuns(columns_[1], start, n, &second);
  const uint32_t card1 = columns_[1].cardinality;
  size_t i = 0, j = 0;
  while (i < first.size() && j < second.size()) {
    const size_t end0 = first[i].start + first[i].len;
    const size_t end1 = second[j].start + second[j].len;
    const size_t lo = std::max(first[i].start, second[j].start);
    const size_t hi = std::min(end0, end1);
    if (hi > lo) {
      emit(lo, hi - lo,
           static_cast<uint8_t>(first[i].group * card1 + second[j].group));
    }
    if (end0 <= hi) ++i;
    if (end1 <= hi) ++j;
  }
}

GroupValue GroupMapper::ValueOf(int group_id, int k) const {
  BIPIE_DCHECK(k >= 0 && k < num_columns());
  // Decompose the combined id.
  uint32_t ids[2] = {0, 0};
  if (columns_.size() == 2) {
    ids[0] = static_cast<uint32_t>(group_id) / columns_[1].cardinality;
    ids[1] = static_cast<uint32_t>(group_id) % columns_[1].cardinality;
  } else {
    ids[0] = static_cast<uint32_t>(group_id);
  }
  const EncodedColumn& col = *columns_[k].column;
  GroupValue value;
  if (col.encoding() == Encoding::kRle) {
    value.int_value = columns_[k].rle_values[ids[k]];
  } else if (col.type() == ColumnType::kString) {
    value.is_string = true;
    value.string_value = col.string_dictionary()->value(ids[k]);
  } else if (col.encoding() == Encoding::kDictionary) {
    value.int_value = col.int_dictionary()->value(ids[k]);
  } else {
    value.int_value = col.base() + static_cast<int64_t>(ids[k]);
  }
  return value;
}

}  // namespace bipie
