#include "replay.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>

#include "common/aligned_buffer.h"
#include "common/cycle_timer.h"
#include "core/aggregate_processor.h"
#include "core/group_mapper.h"
#include "core/scan.h"
#include "storage/batch.h"
#include "vector/selection_vector.h"

namespace bipie::e2e {
namespace {

struct LayerCycles {
  uint64_t filter = 0;     // expr: Evaluate/EvaluateRuns, AndSelection, mask
  uint64_t aggregate = 0;  // core: ProcessBatch / ProcessRunSpan
  uint64_t bind = 0;       // core: AggregateProcessor::Bind
  uint64_t finish = 0;     // core: Finish + decoding the local groups
  uint64_t total = 0;      // the whole replay, its own glue included
  uint64_t layers() const { return filter + aggregate + bind + finish; }
};

struct ReplayCounts {
  size_t segments_scanned = 0;
  size_t segments_eliminated = 0;
  size_t batches = 0;
  size_t rows_scanned = 0;
  size_t rows_selected = 0;
  size_t runs_aggregated = 0;
};

using GroupKey = std::vector<GroupValue>;

struct Contribution {
  GroupKey key;
  uint64_t count = 0;
  std::vector<int64_t> values;
};

struct Scratch {
  AlignedBuffer sel_buf{kBatchRows};
  AlignedBuffer sel_tmp{kBatchRows};
};

void IntersectIntervals(const std::vector<SelInterval>& a,
                        const std::vector<SelInterval>& b,
                        std::vector<SelInterval>* out) {
  out->clear();
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const size_t end_a = a[i].start + a[i].len;
    const size_t end_b = b[j].start + b[j].len;
    const size_t lo = std::max(a[i].start, b[j].start);
    const size_t hi = std::min(end_a, end_b);
    if (hi > lo) out->push_back({lo, hi - lo});
    if (end_a <= end_b) {
      ++i;
    } else {
      ++j;
    }
  }
}

// The batch loop of one morsel: filter, liveness, fused aggregation.
Status ReplayBatches(const Segment& segment, const QuerySpec& query,
                     const std::vector<int>& filter_cols, size_t start,
                     size_t n, AggregateProcessor* processor, Scratch* scratch,
                     LayerCycles* cycles, ReplayCounts* counts) {
  const bool byteslice = processor->plan_decision().byteslice_admitted;
  uint8_t* const sel_buf = scratch->sel_buf.data();
  uint8_t* const sel_tmp = scratch->sel_tmp.data();
  BatchCursor cursor(segment, kBatchRows, start, n);
  BatchView view;
  while (cursor.Next(&view)) {
    ++counts->batches;
    counts->rows_scanned += view.num_rows;
    const uint64_t t0 = ReadCycleCounter();
    const uint8_t* sel = nullptr;
    for (size_t f = 0; f < query.filters.size(); ++f) {
      uint8_t* dst = f == 0 ? sel_buf : sel_tmp;
      BIPIE_RETURN_NOT_OK(query.filters[f].Evaluate(
          segment.column(filter_cols[f]), view.start, view.num_rows, dst,
          byteslice));
      if (f > 0) AndSelection(sel_buf, sel_tmp, view.num_rows, sel_buf);
      sel = sel_buf;
    }
    if (view.alive_bytes() != nullptr) {
      if (sel == nullptr) {
        std::memcpy(sel_buf, view.alive_bytes(), view.num_rows);
      } else {
        AndSelection(sel_buf, view.alive_bytes(), view.num_rows, sel_buf);
      }
      sel = sel_buf;
    }
    counts->rows_selected +=
        sel != nullptr ? CountSelected(sel, view.num_rows) : view.num_rows;
    const uint64_t t1 = ReadCycleCounter();
    const Status st = processor->ProcessBatch(view.start, view.num_rows, sel);
    cycles->filter += t1 - t0;
    cycles->aggregate += ReadCycleCounter() - t1;
    BIPIE_RETURN_NOT_OK(st);
  }
  return Status::OK();
}

// The kRunBased sibling: filters as run verdicts, group runs as spans.
Status ReplayRuns(const Segment& segment, const QuerySpec& query,
                  const std::vector<int>& filter_cols, size_t start, size_t n,
                  AggregateProcessor* processor, LayerCycles* cycles,
                  ReplayCounts* counts) {
  counts->rows_scanned += n;
  const uint64_t t0 = ReadCycleCounter();
  std::vector<SelInterval> selected{{start, n}};
  std::vector<SelInterval> runs;
  std::vector<SelInterval> narrowed;
  for (size_t f = 0; f < query.filters.size() && !selected.empty(); ++f) {
    const EncodedColumn& col = segment.column(filter_cols[f]);
    if (query.filters[f].MatchesAllRows(col)) continue;
    runs.clear();
    BIPIE_RETURN_NOT_OK(query.filters[f].EvaluateRuns(col, start, n, &runs));
    IntersectIntervals(selected, runs, &narrowed);
    selected.swap(narrowed);
  }
  const uint64_t t1 = ReadCycleCounter();
  cycles->filter += t1 - t0;
  if (selected.empty()) return Status::OK();

  std::vector<GroupRunSpan> spans;
  processor->group_mapper().AppendRunSpans(start, n, &spans);
  size_t i = 0, j = 0;
  Status st;
  while (st.ok() && i < spans.size() && j < selected.size()) {
    const size_t end_span = spans[i].start + spans[i].len;
    const size_t end_sel = selected[j].start + selected[j].len;
    const size_t lo = std::max(spans[i].start, selected[j].start);
    const size_t hi = std::min(end_span, end_sel);
    if (hi > lo) {
      st = processor->ProcessRunSpan(spans[i].group, lo, hi - lo);
      ++counts->runs_aggregated;
      counts->rows_selected += hi - lo;
    }
    if (end_span <= end_sel) {
      ++i;
    } else {
      ++j;
    }
  }
  cycles->aggregate += ReadCycleCounter() - t1;
  return st;
}

// One morsel end to end: bind, scan, finish, decode the local groups.
Status ReplayMorsel(const Table& table, const QuerySpec& query,
                    const std::vector<int>& filter_cols, const Segment& segment,
                    size_t start, size_t n, Scratch* scratch,
                    LayerCycles* cycles, ReplayCounts* counts,
                    std::vector<Contribution>* out) {
  AggregateProcessor processor;
  const uint64_t t0 = ReadCycleCounter();
  const Status bound = processor.Bind(table, segment, query, {});
  cycles->bind += ReadCycleCounter() - t0;
  BIPIE_RETURN_NOT_OK(bound);

  if (processor.aggregation_strategy() == AggregationStrategy::kRunBased) {
    BIPIE_RETURN_NOT_OK(ReplayRuns(segment, query, filter_cols, start, n,
                                   &processor, cycles, counts));
  } else {
    BIPIE_RETURN_NOT_OK(ReplayBatches(segment, query, filter_cols, start, n,
                                      &processor, scratch, cycles, counts));
  }

  const uint64_t t1 = ReadCycleCounter();
  AggregateProcessor::SegmentResult local;
  const Status finished = processor.Finish(&local);
  if (finished.ok()) {
    const size_t num_specs = query.aggregates.size();
    for (int g = 0; g < local.num_groups; ++g) {
      if (local.counts[g] == 0) continue;
      Contribution c;
      for (int k = 0; k < local.mapper->num_columns(); ++k) {
        c.key.push_back(local.mapper->ValueOf(g, k));
      }
      c.count = local.counts[g];
      c.values.assign(local.values.begin() + g * num_specs,
                      local.values.begin() + (g + 1) * num_specs);
      out->push_back(std::move(c));
    }
  }
  cycles->finish += ReadCycleCounter() - t1;
  return finished;
}

QueryResult MergeContributions(const QuerySpec& query,
                               const std::vector<Contribution>& parts) {
  const size_t num_specs = query.aggregates.size();
  std::map<GroupKey, ResultRow> merged;
  for (const Contribution& c : parts) {
    auto [it, first] = merged.try_emplace(c.key);
    ResultRow& row = it->second;
    if (first) {
      row.group = c.key;
      row.sums.assign(num_specs, 0);
    }
    row.count += c.count;
    for (size_t a = 0; a < num_specs; ++a) {
      switch (query.aggregates[a].kind) {
        case AggregateSpec::Kind::kMin:
          row.sums[a] =
              first ? c.values[a] : std::min(row.sums[a], c.values[a]);
          break;
        case AggregateSpec::Kind::kMax:
          row.sums[a] =
              first ? c.values[a] : std::max(row.sums[a], c.values[a]);
          break;
        case AggregateSpec::Kind::kCount:
          row.sums[a] += static_cast<int64_t>(c.count);
          break;
        default:
          row.sums[a] += c.values[a];
          break;
      }
    }
  }
  QueryResult result;
  result.group_column_names = query.group_by;
  for (auto& [key, row] : merged) result.rows.push_back(std::move(row));
  return result;
}

// Replays `query` over `table` (see ProfileLayers for `morsel_rows`). With
// `parent_span` != 0 one span per segment is recorded under it, carrying
// that segment's counts and layer cycles.
Result<QueryResult> ReplayQuery(const Table& table, const QuerySpec& query,
                                size_t morsel_rows, uint64_t parent_span,
                                uint64_t query_id, LayerCycles* cycles,
                                ReplayCounts* counts) {
  const uint64_t start_cycles = ReadCycleCounter();
  std::vector<int> filter_cols;
  for (const ColumnPredicate& pred : query.filters) {
    const int idx = table.FindColumn(pred.column_name());
    if (idx < 0) {
      return Status::InvalidArgument("unknown filter column: " +
                                     pred.column_name());
    }
    filter_cols.push_back(idx);
  }
  if (morsel_rows > 0) {
    morsel_rows = (morsel_rows + kBatchRows - 1) / kBatchRows * kBatchRows;
  }

  Scratch scratch;
  std::vector<Contribution> parts;
  for (size_t s = 0; s < table.num_segments(); ++s) {
    const Segment& segment = table.segment(s);
    if (segment.num_rows() == 0) continue;
    bool eliminated = false;
    for (size_t f = 0; f < query.filters.size() && !eliminated; ++f) {
      eliminated =
          query.filters[f].EliminatesSegment(segment.column(filter_cols[f]));
    }
    if (eliminated) {
      ++counts->segments_eliminated;
      continue;
    }
    ++counts->segments_scanned;

    const LayerCycles before = *cycles;
    const ReplayCounts counts_before = *counts;
    const uint64_t span = parent_span == 0
                              ? 0
                              : Spans().Begin("core.segment", parent_span,
                                              query_id);
    const size_t rows = segment.num_rows();
    const size_t step = morsel_rows == 0 ? rows : morsel_rows;
    for (size_t start = 0; start < rows; start += step) {
      BIPIE_RETURN_NOT_OK(ReplayMorsel(table, query, filter_cols, segment,
                                       start, std::min(step, rows - start),
                                       &scratch, cycles, counts, &parts));
    }
    if (span != 0) {
      Spans().End(span);
      Spans().Attach(span, "segment", static_cast<double>(s));
      Spans().Attach(span, "rows", static_cast<double>(rows));
      Spans().Attach(span, "batches",
                     static_cast<double>(counts->batches -
                                         counts_before.batches));
      Spans().Attach(span, "rows_selected",
                     static_cast<double>(counts->rows_selected -
                                         counts_before.rows_selected));
      Spans().Attach(span, "runs_aggregated",
                     static_cast<double>(counts->runs_aggregated -
                                         counts_before.runs_aggregated));
      Spans().Attach(span, "expr.filter_cycles",
                     static_cast<double>(cycles->filter - before.filter));
      Spans().Attach(span, "core.aggregate_cycles",
                     static_cast<double>(cycles->aggregate - before.aggregate));
      Spans().Attach(span, "core.bind_cycles",
                     static_cast<double>(cycles->bind - before.bind));
      Spans().Attach(span, "core.finish_cycles",
                     static_cast<double>(cycles->finish - before.finish));
    }
  }
  QueryResult result = MergeContributions(query, parts);
  cycles->total += ReadCycleCounter() - start_cycles;
  return result;
}

}  // namespace

void ProfileLayers(const Table& table, const std::vector<QuerySpec>& queries,
                   const std::vector<QueryResult>& oracles,
                   size_t morsel_rows, int repeats, WorkloadResult* out,
                   std::vector<double>* execute_ms) {
  LayerCycles layers;
  ReplayCounts counts;
  uint64_t execute_cycles = 0;
  uint64_t replay_cycles = 0;
  size_t stats_rows_scanned = 0;
  size_t stats_rows_selected = 0;
  ScanStats plan;  // counts of one pass over the query set
  size_t hash_fallbacks = 0;

  const auto check = [&](const Result<QueryResult>& got, size_t q,
                         const char* what) {
    ++out->attempted;
    std::string why;
    if (!got.ok()) {
      why = got.status().ToString();
    } else if (SameResult(got.value(), oracles[q], &why)) {
      return;
    }
    ++out->failed;
    out->notes.push_back(std::string(what) + " query " + std::to_string(q) +
                         " mismatch: " + why);
  };

  for (int r = 0; r < repeats; ++r) {
    for (size_t q = 0; q < queries.size(); ++q) {
      const uint64_t query_id = Spans().NewQueryId();
      ScanOptions options;
      options.num_threads = 1;
      BIPieScan scan(table, queries[q], options);
      const uint64_t exec_span =
          Spans().Begin("core.execute", 0, query_id);
      const Clock::time_point t0 = Clock::now();
      const uint64_t e0 = ReadCycleCounter();
      Result<QueryResult> executed = scan.Execute();
      execute_cycles += ReadCycleCounter() - e0;
      if (execute_ms != nullptr) {
        execute_ms->push_back(MsBetween(t0, Clock::now()));
      }
      Spans().End(exec_span);
      check(executed, q, "execute");
      if (r == 0) {
        const ScanStats& s = scan.stats();
        plan.segments_scanned += s.segments_scanned;
        plan.segments_eliminated += s.segments_eliminated;
        plan.batches += s.batches;
        plan.runs_aggregated += s.runs_aggregated;
        plan.selection.gather += s.selection.gather;
        plan.selection.compact += s.selection.compact;
        plan.selection.special_group += s.selection.special_group;
        plan.selection.unfiltered += s.selection.unfiltered;
        for (int a = 0; a < kNumAggregationStrategies; ++a) {
          plan.aggregation_segments[a] += s.aggregation_segments[a];
        }
        hash_fallbacks += s.used_hash_fallback ? 1 : 0;
        stats_rows_scanned += s.rows_scanned;
        stats_rows_selected += s.rows_selected;
      }

      const uint64_t replay_span =
          Spans().Begin("core.replay", 0, query_id);
      LayerCycles c;
      const Result<QueryResult> replayed = ReplayQuery(
          table, queries[q], morsel_rows, replay_span, query_id, &c, &counts);
      Spans().End(replay_span);
      Spans().Attach(replay_span, "expr.filter_cycles",
                     static_cast<double>(c.filter));
      Spans().Attach(replay_span, "core.aggregate_cycles",
                     static_cast<double>(c.aggregate));
      check(replayed, q, "replay");
      layers.filter += c.filter;
      layers.aggregate += c.aggregate;
      layers.bind += c.bind;
      layers.finish += c.finish;
      replay_cycles += c.total;
    }
  }

  // The replay walks the same batches as Execute; its own progress counts
  // must agree with Execute's stats or the split describes another scan.
  const size_t passes = static_cast<size_t>(repeats);
  if (hash_fallbacks == 0 &&
      (counts.rows_scanned != stats_rows_scanned * passes ||
       counts.rows_selected != stats_rows_selected * passes)) {
    ++out->failed;
    out->notes.push_back("replay row counts disagree with ScanStats");
  }

  const double rows = std::max<double>(1.0, counts.rows_scanned);
  const double segments = std::max<double>(1.0, counts.segments_scanned);
  const double us_per_cycle = 1e6 / TscHz();
  MetricValues& m = out->metrics;
  m["expr.filter_cpr"] = layers.filter / rows;
  m["core.aggregate_cpr"] = layers.aggregate / rows;
  m["core.bind_us_per_segment"] = layers.bind * us_per_cycle / segments;
  m["core.finish_us_per_segment"] = layers.finish * us_per_cycle / segments;
  m["core.other_cpr"] =
      (static_cast<double>(execute_cycles) - layers.layers()) / rows;
  m["core.replay_coverage"] =
      execute_cycles == 0 ? 0.0
                          : static_cast<double>(layers.layers()) /
                                static_cast<double>(execute_cycles);
  m["trace.overhead_frac"] =
      execute_cycles == 0 ? 0.0
                          : static_cast<double>(replay_cycles) /
                                    static_cast<double>(execute_cycles) -
                                1.0;
  m["core.segments_scanned"] = plan.segments_scanned;
  m["core.segments_eliminated"] = plan.segments_eliminated;
  m["core.batches"] = plan.batches;
  m["core.rows_scanned"] = stats_rows_scanned;
  m["core.rows_selected_frac"] =
      stats_rows_scanned == 0
          ? 0.0
          : static_cast<double>(stats_rows_selected) / stats_rows_scanned;
  m["core.sel.gather"] = plan.selection.gather;
  m["core.sel.compact"] = plan.selection.compact;
  m["core.sel.special_group"] = plan.selection.special_group;
  m["core.sel.unfiltered"] = plan.selection.unfiltered;
  const char* agg_names[kNumAggregationStrategies] = {
      "core.agg.scalar",          "core.agg.in_register",
      "core.agg.sort_based",      "core.agg.multi_aggregate",
      "core.agg.checked_scalar",  "core.agg.run_based"};
  for (int a = 0; a < kNumAggregationStrategies; ++a) {
    m[agg_names[a]] = plan.aggregation_segments[a];
  }
  m["core.runs_aggregated"] = plan.runs_aggregated;
  m["core.hash_fallback"] = hash_fallbacks;
}

}  // namespace bipie::e2e
