// The BIPie columnstore scan (§3, Figure 1).
//
// Orchestrates the single-node scan of one table: per segment it applies
// segment elimination and builds one SegmentPlan (which fixes the
// aggregation strategy for that segment), then walks 4096-row batches —
// filter evaluation producing a selection byte vector, merge with the
// deleted-row mask, per-batch selection strategy choice, and fused
// decode + selection + grouped aggregation. A segment outside the
// specialized envelope (its plan rejected with kNotSupported, no strategy
// forced) runs the same batch loop into a hash aggregator instead. Per-segment
// local results are merged into global groups by decoded group value
// (dictionary ids are segment-local).
//
// Parallelism is morsel-driven (src/exec): with num_threads == 0 the scan
// splits segments into ~64K-row morsels and runs them on the process-wide
// work-stealing pool, so skewed morsels are rebalanced by stealing and
// concurrent queries share one set of hardware threads. With num_threads
// == 1 the same per-morsel runner drains whole segments on the calling
// thread, in segment order. The scan never starts a thread of its own.
#ifndef BIPIE_CORE_SCAN_H_
#define BIPIE_CORE_SCAN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/aggregate_processor.h"
#include "core/query.h"
#include "core/strategy.h"
#include "exec/admission.h"
#include "exec/query_context.h"
#include "storage/table.h"

namespace bipie {

// Default rows per morsel when the scan runs on the shared pool: 16 batches
// of kBatchRows — small enough that stealing fixes skew (an RLE-heavy or
// mostly-eliminated sibling), large enough that per-morsel setup and queue
// costs stay far below decode cost.
inline constexpr size_t kDefaultMorselRows = size_t{1} << 16;

struct ScanOptions {
  StrategyOverrides overrides;
  // Disables min/max segment elimination (benchmarks that must touch every
  // row regardless of the filter).
  bool enable_segment_elimination = true;
  // Scan parallelism:
  //   0 — shared morsel-driven pool (Scheduler::Global()) at hardware
  //       concurrency; segments split into morsel_rows-row morsels.
  //   1 — inline on the calling thread (whole segments, in segment order).
  // Execute() rejects any other value with kInvalidArgument.
  size_t num_threads = 1;
  // Rows per morsel for the pooled path; 0 = kDefaultMorselRows. Rounded up
  // to a multiple of kBatchRows so batch boundaries (and therefore per-batch
  // strategy decisions) match a whole-segment walk exactly.
  size_t morsel_rows = 0;
  // Optional cancellation/deadline context (non-owning; must outlive the
  // scan). Checked between batches; a cancelled scan returns kCancelled and
  // never a partial result. The context's MemoryTracker is bound for every
  // morsel the scan runs, so its limits govern all scan allocations.
  QueryContext* context = nullptr;
  // Admission gate override (tests, the server); nullptr uses the
  // process-wide AdmissionController::Global(). Execute() holds one
  // admission ticket for its whole duration.
  AdmissionController* admission = nullptr;
  // Priority band for the admission queue when slots are contended.
  QueryPriority priority = QueryPriority::kNormal;
};

struct ScanStats {
  // True when at least one scanned segment fell outside the BIPie envelope
  // (e.g. combined group cardinality above 255) and ran hashed. Hashed
  // segments hold no aggregation strategy, so their number is
  // segments_scanned - sum(aggregation_segments).
  bool used_hash_fallback = false;
  size_t segments_scanned = 0;
  size_t segments_eliminated = 0;
  size_t batches = 0;
  size_t rows_scanned = 0;
  size_t rows_selected = 0;
  // Run-level execution (kRunBased): (group, row-range) spans aggregated and
  // the rows they covered. Those rows never enter the batch loop, so
  // `batches` stays untouched by run-based morsels.
  size_t runs_aggregated = 0;
  size_t rows_run_aggregated = 0;
  // Time this query spent waiting in the admission queue before its slot
  // was granted (0 when it never queued). Lets callers separate queueing
  // latency from execution latency; excluded from the cross-thread-count
  // determinism pins (it is wall-clock, not work).
  uint64_t admission_wait_ns = 0;
  AggregateProcessor::SelectionStats selection;
  // Segments per aggregation strategy, indexed by AggregationStrategy,
  // counted from the segment plans (one per scanned, unhashed segment).
  size_t aggregation_segments[kNumAggregationStrategies] = {0};
};

struct PlanExplain;  // obs/plan_explain.h

class BIPieScan {
 public:
  BIPieScan(const Table& table, QuerySpec query, ScanOptions options = {});

  // Runs the scan to completion.
  Result<QueryResult> Execute();

  // Runs the planning pass Execute runs, without executing (DESIGN.md
  // §12), and renders its output: per segment, the elimination outcome, the
  // resolved selection×aggregation strategy (or the rejection that hashes
  // it), the admission/profitability inputs that drove the choice and the
  // rejected alternatives. Rendered via PlanExplain::ToText()/ToJson().
  // Defined in src/obs/plan_explain.cc.
  Result<PlanExplain> Explain() const;

  const ScanStats& stats() const { return stats_; }

 private:
  // One non-empty segment as the planning pass left it.
  struct PlannedSegment {
    size_t segment_index = 0;
    int eliminated_by_filter = -1;  // >= 0: metadata proved no row passes
    Status status;                  // planning outcome of a scanned segment
    // The plan was rejected with kNotSupported and no strategy is forced:
    // the segment runs hashed, and `status` holds the rejection.
    bool hashed = false;
    std::unique_ptr<SegmentPlan> plan;  // null when eliminated

    bool executable() const { return status.ok() || hashed; }
  };

  // Output of the planning pass shared by Execute and Explain.
  struct ScanPlan {
    std::vector<int> filter_cols;          // query filter -> table column
    std::vector<PlannedSegment> segments;  // non-empty segments, in order
    size_t segments_scanned = 0;
    size_t segments_eliminated = 0;
  };

  // The planning pass: checks the query (CheckQuery), resolves the filter
  // columns, skips empty segments, applies segment elimination and plans
  // every surviving segment once, on the calling thread with the query's
  // memory tracker bound (the plans' group-mapper reservations are charged
  // to the query). A plan rejected with kNotSupported while no strategy is
  // forced marks its segment hashed.
  Status PlanScan(ScanPlan* out) const;

  // One unit of scan work: a batch-aligned row range of one segment.
  // work_index orders morsels canonically (segment order, then range order)
  // independent of execution order. A segment whose plan failed becomes a
  // single morsel that reports the planning status.
  struct Morsel {
    size_t work_index = 0;
    size_t start_row = 0;
    size_t num_rows = 0;
    const PlannedSegment* planned = nullptr;  // shared by the segment
  };

  // Binds the query's memory tracker for the morsel's duration and turns
  // any std::bad_alloc from the body into kResourceExhausted — with a
  // per-morsel status the deterministic error reduction keeps the
  // complete-or-error guarantee under memory pressure.
  Status ScanMorsel(const Morsel& morsel, const std::vector<int>& filter_cols,
                    ScanStats* stats, std::vector<SegmentContribution>* out);
  Status ScanMorselImpl(const Morsel& morsel,
                        const std::vector<int>& filter_cols, ScanStats* stats,
                        std::vector<SegmentContribution>* out);

  Result<QueryResult> ExecuteImpl();

  // Run-level execution (DESIGN.md §11), the kRunBased sibling of the batch
  // loop: evaluates filters as run verdicts, intersects them with the
  // group-run tiling and the morsel window, and aggregates the surviving
  // (group, row-range) spans via AggregateProcessor::ProcessRunSpan.
  Status RunPipeline(const Morsel& morsel, const std::vector<int>& filter_cols,
                     AggregateProcessor* processor, ScanStats* stats);

  // Shared morsel epilogue: selection stats, Finish, contribution decode.
  Status FinishMorsel(AggregateProcessor& processor, ScanStats* stats,
                      std::vector<SegmentContribution>* out);

  const Table& table_;
  QuerySpec query_;
  ScanOptions options_;
  ScanStats stats_;
};

// Convenience wrapper: scan `table` with `query` and default options.
Result<QueryResult> ExecuteQuery(const Table& table, QuerySpec query,
                                 ScanOptions options = {});

// Builds ScanOptions from the typed settings carried on `context`
// (DESIGN.md §13) and binds the context itself: execution knobs map onto
// their option fields, the strategy-force strings onto StrategyOverrides.
// Callers still apply the resource settings to the context with
// QueryContext::ApplySettings(). Settings are pre-validated by
// QuerySettings::Set, so the mapping cannot fail.
ScanOptions MakeScanOptions(QueryContext* context);

}  // namespace bipie

#endif  // BIPIE_CORE_SCAN_H_
