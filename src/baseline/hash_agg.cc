#include "baseline/hash_agg.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <new>

#include "storage/batch.h"
#include "vector/selection_vector.h"

namespace bipie {

namespace {

uint64_t HashKey(int64_t k0, int64_t k1) {
  uint64_t h = static_cast<uint64_t>(k0) * 0x9E3779B97F4A7C15ULL;
  h ^= static_cast<uint64_t>(k1) + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2);
  h ^= h >> 29;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 32;
  return h;
}

// Sums are added with overflow checks, row by row and across segments, so
// a total that does not fit int64 is reported, never wrapped.
Status SumOverflow() {
  return Status::OverflowRisk("int64 sum overflow during hash aggregation");
}

}  // namespace

uint32_t SegmentHashAggregator::Probe(int64_t k0, int64_t k1) {
  for (;;) {
    const size_t mask = slots_.size() - 1;
    size_t pos = HashKey(k0, k1) & mask;
    for (;;) {
      const uint32_t slot = slots_[pos];
      if (slot == kEmptySlot) {
        if (keys_.size() * 2 >= slots_.size()) break;  // grow then retry
        const uint32_t id = static_cast<uint32_t>(keys_.size());
        keys_.push_back({k0, k1});
        slots_[pos] = id;
        return id;
      }
      if (keys_[slot].first == k0 && keys_[slot].second == k1) return slot;
      pos = (pos + 1) & mask;
    }
    Grow();
  }
}

void SegmentHashAggregator::Grow() {
  slots_.assign(slots_.size() * 2, kEmptySlot);
  const size_t mask = slots_.size() - 1;
  for (uint32_t id = 0; id < keys_.size(); ++id) {
    size_t pos = HashKey(keys_[id].first, keys_[id].second) & mask;
    while (slots_[pos] != kEmptySlot) pos = (pos + 1) & mask;
    slots_[pos] = id;
  }
}

void SegmentHashAggregator::Bind(const Table& table, const Segment& segment,
                                 const QuerySpec& query) {
  segment_ = &segment;
  query_ = &query;
  slots_.assign(64, kEmptySlot);
  for (const std::string& name : query.group_by) {
    group_cols_.push_back(table.FindColumn(name));
  }
  std::vector<bool> needed(table.num_columns(), false);
  for (const int c : group_cols_) needed[c] = true;
  agg_cols_.assign(query.aggregates.size(), -1);
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const AggregateSpec& spec = query.aggregates[a];
    if (spec.kind == AggregateSpec::Kind::kCount) continue;
    if (spec.kind == AggregateSpec::Kind::kSumExpr) {
      std::vector<int> cols;
      spec.expr->CollectColumns(&cols);
      for (const int c : cols) needed[c] = true;
      continue;
    }
    agg_cols_[a] = table.FindColumn(spec.column);
    needed[agg_cols_[a]] = true;
  }
  for (size_t c = 0; c < needed.size(); ++c) {
    if (needed[c]) needed_cols_.push_back(static_cast<int>(c));
  }
  decoded_.resize(table.num_columns());
  col_ptrs_.assign(table.num_columns(), nullptr);
  expr_out_.resize(query.aggregates.size());
}

Status SegmentHashAggregator::ProcessBatch(size_t start, size_t n,
                                           const uint8_t* sel) {
  for (const int c : needed_cols_) {
    decoded_[c].Resize(n * sizeof(int64_t));
    segment_->column(c).DecodeInt64(start, n, decoded_[c].data_as<int64_t>());
    col_ptrs_[c] = decoded_[c].data_as<int64_t>();
  }
  const std::vector<AggregateSpec>& specs = query_->aggregates;
  const size_t num_specs = specs.size();
  for (size_t a = 0; a < num_specs; ++a) {
    if (specs[a].kind == AggregateSpec::Kind::kSumExpr) {
      expr_out_[a].resize(n);
      // Overflow counts only on rows the batch aggregates.
      BIPIE_RETURN_NOT_OK(specs[a].expr->Evaluate(col_ptrs_.data(), n,
                                                   expr_out_[a].data(), sel));
    }
  }

  const int64_t* g0 = group_cols_.empty() ? nullptr : col_ptrs_[group_cols_[0]];
  const int64_t* g1 =
      group_cols_.size() < 2 ? nullptr : col_ptrs_[group_cols_[1]];
  for (size_t i = 0; i < n; ++i) {
    if (sel != nullptr && sel[i] == 0) continue;
    const uint32_t slot =
        Probe(g0 == nullptr ? 0 : g0[i], g1 == nullptr ? 0 : g1[i]);
    if (slot >= counts_.size()) {
      counts_.resize(slot + 1, 0);
      sums_.resize((slot + 1) * num_specs, 0);
    }
    const bool fresh = counts_[slot] == 0;
    ++counts_[slot];
    int64_t* row = sums_.data() + static_cast<size_t>(slot) * num_specs;
    for (size_t a = 0; a < num_specs; ++a) {
      switch (specs[a].kind) {
        case AggregateSpec::Kind::kCount:
          break;
        case AggregateSpec::Kind::kSum:
        case AggregateSpec::Kind::kAvg:
          if (__builtin_add_overflow(row[a], col_ptrs_[agg_cols_[a]][i],
                                     &row[a])) {
            return SumOverflow();
          }
          break;
        case AggregateSpec::Kind::kSumExpr:
          if (__builtin_add_overflow(row[a], expr_out_[a][i], &row[a])) {
            return SumOverflow();
          }
          break;
        case AggregateSpec::Kind::kMin:
          row[a] = fresh ? col_ptrs_[agg_cols_[a]][i]
                         : std::min(row[a], col_ptrs_[agg_cols_[a]][i]);
          break;
        case AggregateSpec::Kind::kMax:
          row[a] = fresh ? col_ptrs_[agg_cols_[a]][i]
                         : std::max(row[a], col_ptrs_[agg_cols_[a]][i]);
          break;
      }
    }
  }
  return reservation_.Update(slots_.capacity() * sizeof(uint32_t) +
                             keys_.capacity() * sizeof(keys_[0]) +
                             counts_.capacity() * sizeof(uint64_t) +
                             sums_.capacity() * sizeof(int64_t));
}

void SegmentHashAggregator::Finish(
    std::vector<SegmentContribution>* out) const {
  const size_t num_specs = query_->aggregates.size();
  for (size_t slot = 0; slot < keys_.size(); ++slot) {
    SegmentContribution contribution;
    for (size_t k = 0; k < group_cols_.size(); ++k) {
      const EncodedColumn& col = segment_->column(group_cols_[k]);
      const int64_t logical = k == 0 ? keys_[slot].first : keys_[slot].second;
      GroupValue v;
      if (col.type() == ColumnType::kString) {
        v.is_string = true;
        v.string_value =
            col.string_dictionary()->value(static_cast<uint32_t>(logical));
      } else {
        v.int_value = logical;
      }
      contribution.key.push_back(std::move(v));
    }
    contribution.count = counts_[slot];
    contribution.values.assign(sums_.begin() + slot * num_specs,
                               sums_.begin() + (slot + 1) * num_specs);
    out->push_back(std::move(contribution));
  }
}

namespace {

Result<QueryResult> ExecuteQueryHashAggImpl(const Table& table,
                                            const QuerySpec& query,
                                            QueryContext* context) {
  BIPIE_RETURN_NOT_OK(CheckQuery(table.schema(), query));
  std::vector<int> filter_cols;
  for (const ColumnPredicate& pred : query.filters) {
    filter_cols.push_back(table.FindColumn(pred.column_name()));
  }
  const size_t num_specs = query.aggregates.size();
  std::map<std::vector<GroupValue>, ResultRow> merged;
  AlignedBuffer sel_buf, sel_tmp;
  std::vector<SegmentContribution> contributions;

  for (size_t s = 0; s < table.num_segments(); ++s) {
    const Segment& segment = table.segment(s);
    if (segment.num_rows() == 0) continue;
    SegmentHashAggregator aggregator;
    aggregator.Bind(table, segment, query);

    BatchCursor cursor(segment);
    BatchView view;
    while (cursor.Next(&view)) {
      if (context != nullptr) {
        BIPIE_RETURN_NOT_OK(context->CheckNotCancelled());
      }
      const size_t n = view.num_rows;
      // Filter evaluation stays vectorized (shared Filter component); the
      // aggregation is the row-at-a-time part under test.
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
      BIPIE_RETURN_NOT_OK(aggregator.ProcessBatch(view.start, n, sel));
    }

    // Merge this segment's groups into global results by decoded value.
    contributions.clear();
    aggregator.Finish(&contributions);
    for (const SegmentContribution& c : contributions) {
      ResultRow& row = merged[c.key];
      const bool fresh = row.sums.empty();
      if (fresh) {
        row.group = c.key;
        row.sums.assign(num_specs, 0);
      }
      row.count += c.count;
      for (size_t a = 0; a < num_specs; ++a) {
        switch (query.aggregates[a].kind) {
          case AggregateSpec::Kind::kMin:
            row.sums[a] =
                fresh ? c.values[a] : std::min(row.sums[a], c.values[a]);
            break;
          case AggregateSpec::Kind::kMax:
            row.sums[a] =
                fresh ? c.values[a] : std::max(row.sums[a], c.values[a]);
            break;
          default:
            if (__builtin_add_overflow(row.sums[a], c.values[a],
                                       &row.sums[a])) {
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
  // through each aggregator's reservation. A hard-limit breach on a
  // throwing Resize path lands here as bad_alloc and degrades to the same
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
