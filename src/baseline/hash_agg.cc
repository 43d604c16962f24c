#include "baseline/hash_agg.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <new>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/memory_tracker.h"
#include "storage/batch.h"
#include "vector/selection_vector.h"

namespace bipie {

namespace {

// Open-addressing hash table from (up to two) int64 group keys to a dense
// slot id. Linear probing, power-of-two capacity.
class GroupHashTable {
 public:
  explicit GroupHashTable(size_t initial_capacity = 64) {
    capacity_ = initial_capacity;
    slots_.assign(capacity_, kEmpty);
    keys_.reserve(64);
  }

  // Returns the dense slot for key, inserting if new.
  uint32_t Probe(int64_t k0, int64_t k1) {
    for (;;) {
      size_t pos = Hash(k0, k1) & (capacity_ - 1);
      for (;;) {
        const uint32_t slot = slots_[pos];
        if (slot == kEmpty) {
          if (keys_.size() * 2 >= capacity_) break;  // grow then retry
          const uint32_t id = static_cast<uint32_t>(keys_.size());
          keys_.push_back({k0, k1});
          slots_[pos] = id;
          return id;
        }
        if (keys_[slot].first == k0 && keys_[slot].second == k1) {
          return slot;
        }
        pos = (pos + 1) & (capacity_ - 1);
      }
      Grow();
    }
  }

  size_t size() const { return keys_.size(); }
  const std::pair<int64_t, int64_t>& key(uint32_t slot) const {
    return keys_[slot];
  }

  // Heap footprint, for MemoryReservation accounting (std::vector growth
  // is invisible to the AlignedBuffer tracker path).
  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(uint32_t) +
           keys_.capacity() * sizeof(keys_[0]);
  }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  static uint64_t Hash(int64_t k0, int64_t k1) {
    uint64_t h = static_cast<uint64_t>(k0) * 0x9E3779B97F4A7C15ULL;
    h ^= static_cast<uint64_t>(k1) + 0x9E3779B97F4A7C15ULL + (h << 6) +
         (h >> 2);
    h ^= h >> 29;
    h *= 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 32;
    return h;
  }

  void Grow() {
    capacity_ *= 2;
    slots_.assign(capacity_, kEmpty);
    for (uint32_t id = 0; id < keys_.size(); ++id) {
      size_t pos = Hash(keys_[id].first, keys_[id].second) & (capacity_ - 1);
      while (slots_[pos] != kEmpty) pos = (pos + 1) & (capacity_ - 1);
      slots_[pos] = id;
    }
  }

  size_t capacity_;
  std::vector<uint32_t> slots_;
  std::vector<std::pair<int64_t, int64_t>> keys_;
};

// Sums are added with overflow checks, row by row and across segments, so
// a total that does not fit int64 is reported, never wrapped.
Status SumOverflow() {
  return Status::OverflowRisk("int64 sum overflow during hash aggregation");
}

Result<QueryResult> ExecuteQueryHashAggImpl(const Table& table,
                                            const QuerySpec& query,
                                            QueryContext* context) {
  std::vector<int> group_cols;
  for (const std::string& name : query.group_by) {
    const int idx = table.FindColumn(name);
    if (idx < 0) return Status::InvalidArgument("unknown column: " + name);
    group_cols.push_back(idx);
  }
  if (group_cols.size() > 2) {
    return Status::NotSupported("hash baseline supports <= 2 group columns");
  }
  std::vector<int> filter_cols;
  for (const ColumnPredicate& pred : query.filters) {
    const int idx = table.FindColumn(pred.column_name());
    if (idx < 0) {
      return Status::InvalidArgument("unknown column: " + pred.column_name());
    }
    filter_cols.push_back(idx);
  }
  const size_t num_specs = query.aggregates.size();
  std::vector<int> agg_cols(num_specs, -1);
  for (size_t a = 0; a < num_specs; ++a) {
    const AggregateSpec& spec = query.aggregates[a];
    if (spec.kind == AggregateSpec::Kind::kSum ||
        spec.kind == AggregateSpec::Kind::kAvg ||
        spec.kind == AggregateSpec::Kind::kMin ||
        spec.kind == AggregateSpec::Kind::kMax) {
      agg_cols[a] = table.FindColumn(spec.column);
      if (agg_cols[a] < 0) {
        return Status::InvalidArgument("unknown column: " + spec.column);
      }
    }
  }

  std::map<std::vector<GroupValue>, ResultRow> merged;

  AlignedBuffer sel_buf, sel_tmp;
  std::vector<AlignedBuffer> decoded(table.num_columns());
  std::vector<std::vector<int64_t>> expr_out(num_specs);

  for (size_t s = 0; s < table.num_segments(); ++s) {
    const Segment& segment = table.segment(s);
    if (segment.num_rows() == 0) continue;

    GroupHashTable groups;
    std::vector<uint64_t> counts;
    std::vector<int64_t> sums;  // [slot * num_specs + a]
    // Per-segment charge for the aggregation state (hash table, counts,
    // sums); re-checked per batch so unbounded group growth hits the
    // query's limit within one batch.
    MemoryReservation reservation;
    const bool segment_group_strings =
        !group_cols.empty() &&
        segment.column(group_cols[0]).type() == ColumnType::kString;
    (void)segment_group_strings;

    // Which columns need decoding per batch.
    std::vector<bool> needed(table.num_columns(), false);
    for (int c : group_cols) needed[c] = true;
    for (int c : agg_cols) {
      if (c >= 0) needed[c] = true;
    }
    for (size_t a = 0; a < num_specs; ++a) {
      if (query.aggregates[a].kind == AggregateSpec::Kind::kSumExpr) {
        std::vector<int> cols;
        query.aggregates[a].expr->CollectColumns(&cols);
        for (int c : cols) needed[c] = true;
      }
    }

    BatchCursor cursor(segment);
    BatchView view;
    while (cursor.Next(&view)) {
      if (context != nullptr) {
        BIPIE_RETURN_NOT_OK(context->CheckNotCancelled());
      }
      const size_t n = view.num_rows;
      // Filter evaluation stays vectorized (shared Filter component); the
      // aggregation below is the row-at-a-time part under test.
      const uint8_t* sel = nullptr;
      if (!query.filters.empty()) {
        sel_buf.Resize(n);
        sel_tmp.Resize(n);
        for (size_t f = 0; f < query.filters.size(); ++f) {
          uint8_t* dst = f == 0 ? sel_buf.data() : sel_tmp.data();
          BIPIE_RETURN_NOT_OK(query.filters[f].Evaluate(
              segment.column(filter_cols[f]), view.start, n, dst));
          if (f > 0) AndSelection(sel_buf.data(), sel_tmp.data(), n,
                                  sel_buf.data());
        }
        sel = sel_buf.data();
      }
      if (view.alive_bytes() != nullptr) {
        if (sel == nullptr) {
          sel_buf.Resize(n);
          std::memcpy(sel_buf.data(), view.alive_bytes(), n);
          sel = sel_buf.data();
        } else {
          AndSelection(sel_buf.data(), view.alive_bytes(), n,
                       sel_buf.data());
        }
      }

      std::vector<const int64_t*> col_ptrs(table.num_columns(), nullptr);
      for (size_t c = 0; c < table.num_columns(); ++c) {
        if (!needed[c]) continue;
        decoded[c].Resize(n * sizeof(int64_t));
        segment.column(c).DecodeInt64(view.start, n,
                                      decoded[c].data_as<int64_t>());
        col_ptrs[c] = decoded[c].data_as<int64_t>();
      }
      for (size_t a = 0; a < num_specs; ++a) {
        if (query.aggregates[a].kind == AggregateSpec::Kind::kSumExpr) {
          expr_out[a].resize(n);
          query.aggregates[a].expr->Evaluate(col_ptrs.data(), n,
                                             expr_out[a].data());
        }
      }

      const int64_t* g0 =
          group_cols.empty() ? nullptr : col_ptrs[group_cols[0]];
      const int64_t* g1 =
          group_cols.size() < 2 ? nullptr : col_ptrs[group_cols[1]];
      for (size_t i = 0; i < n; ++i) {
        if (sel != nullptr && sel[i] == 0) continue;
        const uint32_t slot = groups.Probe(g0 == nullptr ? 0 : g0[i],
                                           g1 == nullptr ? 0 : g1[i]);
        if (slot >= counts.size()) {
          counts.resize(slot + 1, 0);
          sums.resize((slot + 1) * num_specs, 0);
        }
        const bool fresh = counts[slot] == 0;
        ++counts[slot];
        int64_t* row = sums.data() + static_cast<size_t>(slot) * num_specs;
        for (size_t a = 0; a < num_specs; ++a) {
          switch (query.aggregates[a].kind) {
            case AggregateSpec::Kind::kCount:
              break;
            case AggregateSpec::Kind::kSum:
            case AggregateSpec::Kind::kAvg:
              if (__builtin_add_overflow(row[a], col_ptrs[agg_cols[a]][i],
                                         &row[a])) {
                return SumOverflow();
              }
              break;
            case AggregateSpec::Kind::kSumExpr:
              if (__builtin_add_overflow(row[a], expr_out[a][i], &row[a])) {
                return SumOverflow();
              }
              break;
            case AggregateSpec::Kind::kMin:
              row[a] = fresh ? col_ptrs[agg_cols[a]][i]
                             : std::min(row[a], col_ptrs[agg_cols[a]][i]);
              break;
            case AggregateSpec::Kind::kMax:
              row[a] = fresh ? col_ptrs[agg_cols[a]][i]
                             : std::max(row[a], col_ptrs[agg_cols[a]][i]);
              break;
          }
        }
      }

      BIPIE_RETURN_NOT_OK(reservation.Update(
          groups.MemoryBytes() + counts.capacity() * sizeof(uint64_t) +
          sums.capacity() * sizeof(int64_t)));
    }

    // Merge this segment's table into global results by decoded value
    // (string group columns decode ids through the segment dictionary).
    for (uint32_t slot = 0; slot < groups.size(); ++slot) {
      std::vector<GroupValue> key;
      for (size_t k = 0; k < group_cols.size(); ++k) {
        const EncodedColumn& col = segment.column(group_cols[k]);
        const int64_t logical =
            k == 0 ? groups.key(slot).first : groups.key(slot).second;
        GroupValue v;
        if (col.type() == ColumnType::kString) {
          v.is_string = true;
          v.string_value =
              col.string_dictionary()->value(static_cast<uint32_t>(logical));
        } else {
          v.int_value = logical;
        }
        key.push_back(std::move(v));
      }
      ResultRow& row = merged[key];
      const bool fresh = row.sums.empty();
      if (fresh) {
        row.group = key;
        row.sums.assign(num_specs, 0);
      }
      row.count += counts[slot];
      for (size_t a = 0; a < num_specs; ++a) {
        const int64_t v = sums[static_cast<size_t>(slot) * num_specs + a];
        switch (query.aggregates[a].kind) {
          case AggregateSpec::Kind::kMin:
            row.sums[a] = fresh ? v : std::min(row.sums[a], v);
            break;
          case AggregateSpec::Kind::kMax:
            row.sums[a] = fresh ? v : std::max(row.sums[a], v);
            break;
          default:
            if (__builtin_add_overflow(row.sums[a], v, &row.sums[a])) {
              return SumOverflow();
            }
            break;
        }
      }
    }
  }

  QueryResult result;
  result.group_column_names = query.group_by;
  for (auto& [key, row] : merged) {
    for (size_t a = 0; a < num_specs; ++a) {
      if (query.aggregates[a].kind == AggregateSpec::Kind::kCount) {
        row.sums[a] = static_cast<int64_t>(row.count);
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

}  // namespace

Result<QueryResult> ExecuteQueryHashAgg(const Table& table,
                                        const QuerySpec& query,
                                        QueryContext* context) {
  // Bind the query's tracker for the whole run: the decode buffers are
  // AlignedBuffers (charged automatically) and the hash-table state goes
  // through the reservation above. A hard-limit breach on a throwing
  // Resize path lands here as bad_alloc and degrades to the same
  // structured error a failed reservation produces.
  MemoryTrackerScope memory_scope(
      context != nullptr ? &context->memory_tracker() : nullptr);
  try {
    return ExecuteQueryHashAggImpl(table, query, context);
  } catch (const std::bad_alloc&) {
    return Status::ResourceExhausted(
        "hash aggregation exceeded the memory limit");
  }
}

}  // namespace bipie
