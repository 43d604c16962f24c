// The Aggregate Processor (§3).
//
// Bound to one segment, it takes the group-id map and the selection byte
// vector produced by the Filter component and computes all aggregates,
// choosing among the Vector Toolbox strategies at run time:
//
//  * the aggregation strategy is fixed per segment, from metadata (group
//    count bound, aggregate count and bit widths) and the §6.2 rules — once,
//    by PlanSegment, into a SegmentPlan that every morsel of the segment
//    shares read-only;
//  * the selection strategy adapts per batch from measured selectivity.
//
// Raw bit-packed aggregate columns are summed in the *encoded offset
// domain* and compensated at the end (sum = offset_sum + base * count),
// so the hot loops never materialize logical int64 values unless the
// strategy requires it. Per-segment metadata proves the compensated sums
// cannot overflow int64; otherwise processing falls back to a checked
// scalar path.
#ifndef BIPIE_CORE_AGGREGATE_PROCESSOR_H_
#define BIPIE_CORE_AGGREGATE_PROCESSOR_H_

#include <array>
#include <memory>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "core/group_mapper.h"
#include "core/query.h"
#include "core/strategy.h"
#include "storage/table.h"
#include "vector/agg_multi.h"
#include "vector/agg_sort.h"

namespace bipie {

// Everything fixed for one segment before any row is read: the bound group
// mapper, the aggregate inputs at their strategy-resolved word widths, and
// the PlanDecision holding the aggregation strategy, special-group
// availability, the gather/compact crossover width, byteslice admission and
// every input that drove them. Metadata only — no scratch buffers. Built
// once per scanned segment by PlanSegment; the morsels of that segment
// share it read-only and Explain renders it (DESIGN.md §9.2, §12).
struct SegmentPlan {
  struct AggInput {
    enum class Op { kSum, kMin, kMax };

    Op op = Op::kSum;
    bool is_expr = false;
    ExprPtr expr;                         // kSumExpr
    const EncodedColumn* column = nullptr;  // raw
    int bit_width = 0;
    int64_t base = 0;
    uint64_t max_offset = 0;
    int word_bytes = 8;    // decoded element width fed to the strategy
    bool compensate = false;
    // RLE aggregate columns keep a direct run-stream reference besides the
    // expression decode path, so kRunBased can aggregate them from run
    // metadata alone.
    const EncodedColumn* run_column = nullptr;
  };

  const Table* table = nullptr;
  const Segment* segment = nullptr;
  const QuerySpec* query = nullptr;
  GroupMapper mapper;
  std::vector<AggInput> inputs;      // one per distinct SUM/MIN/MAX input
  std::vector<int> spec_to_input;    // query spec index -> inputs index,
                                     // -1 for count
  std::vector<int> sum_inputs;       // indices of Op::kSum inputs
  PlanDecision decision;
};

// Plans `segment` for `query`, which CheckQuery accepted, into a freshly
// constructed `plan`: binds the group mapper, builds the aggregate input
// descriptors and resolves the aggregation strategy and byteslice admission
// (respecting overrides). The decision is recorded before any feasibility
// check can reject the plan, so on failure plan->decision still shows what
// drove the rejection.
Status PlanSegment(const Table& table, const Segment& segment,
                   const QuerySpec& query, const StrategyOverrides& overrides,
                   SegmentPlan* plan);

class AggregateProcessor {
 public:
  AggregateProcessor() = default;

  // Plans one segment into a plan this processor owns, then attaches to
  // it — for callers that drive a segment by hand. The scan instead plans
  // each segment once and attaches every morsel's processor to that plan.
  Status Bind(const Table& table, const Segment& segment,
              const QuerySpec& query, const StrategyOverrides& overrides);

  // Attaches to a successfully built plan, which must outlive this
  // processor, and resets the per-morsel state: accumulators, scratch, the
  // multi-aggregate engine, run cursors and selection stats.
  Status Attach(const SegmentPlan& plan);

  // Processes rows [start, start + n) of the bound segment. `sel` is the
  // selection byte vector for the window (filter merged with liveness), or
  // nullptr when every row qualifies. start must be batch-aligned
  // (a multiple of kBatchRows) so packed streams can be rebased.
  Status ProcessBatch(size_t start, size_t n, const uint8_t* sel);

  // Per-segment aggregation output, indexed by local group id.
  struct SegmentResult {
    int num_groups = 0;
    const GroupMapper* mapper = nullptr;
    std::vector<uint64_t> counts;  // [group]
    std::vector<int64_t> values;   // [group * num_specs + spec]: counts for
                                   // kCount specs, logical sums otherwise
  };
  Status Finish(SegmentResult* out);

  // Run-level span API (kRunBased, DESIGN.md §11): aggregates rows
  // [start, start + len), all mapped to `group`, without materializing
  // per-row ids or selection bytes. Raw bit-packed SUM inputs unpack the
  // span contiguously and horizontal-SIMD-sum it; RLE inputs reduce to
  // run-metadata arithmetic (sum += value * overlap, zero decode);
  // count += len always. Spans must arrive in ascending start order (the
  // RLE walk keeps an amortized-O(runs) cursor). Only valid when the plan
  // resolved kRunBased.
  Status ProcessRunSpan(uint8_t group, size_t start, size_t len);

  // The plan's group mapper — run pipeline callers pull group run spans
  // from it directly.
  const GroupMapper& group_mapper() const { return plan_->mapper; }

  AggregationStrategy aggregation_strategy() const {
    return plan_->decision.aggregation;
  }
  int num_groups() const { return plan_->mapper.num_groups(); }

  // Inputs and outcome of the plan's strategy resolution (DESIGN.md §12).
  // Valid after Bind, including rejected binds (see PlanSegment).
  const PlanDecision& plan_decision() const { return plan_->decision; }

  // Batches processed per selection strategy (gather/compact/special/full),
  // for tests and the strategy explorer example.
  struct SelectionStats {
    size_t gather = 0;
    size_t compact = 0;
    size_t special_group = 0;
    size_t unfiltered = 0;
  };
  const SelectionStats& selection_stats() const { return selection_stats_; }

 private:
  enum class BatchMode { kFull, kGather, kCompact, kSpecialGroup };

  BatchMode PickBatchMode(size_t n, size_t selected, const uint8_t* sel);

  // Builds dense group ids + per-input dense decoded arrays for the modes
  // that need them (in-register / multi / scalar). Returns the dense row
  // count.
  size_t BuildDenseBatch(size_t start, size_t n, const uint8_t* sel,
                         BatchMode mode);

  Status ProcessInRegister(size_t start, size_t n, const uint8_t* sel,
                           BatchMode mode);
  Status ProcessMultiAggregate(size_t start, size_t n, const uint8_t* sel,
                               BatchMode mode);
  Status ProcessSortBased(size_t start, size_t n, const uint8_t* sel,
                          BatchMode mode);
  Status ProcessScalar(size_t start, size_t n, const uint8_t* sel,
                       BatchMode mode, bool checked);

  // Decodes logical int64 values of table column `col_idx` for the window
  // into expr_col_bufs_[col_idx] (full window, no selection).
  void DecodeExprColumn(int col_idx, size_t start, size_t n);
  // Evaluates input `i` (an expression) over the full window into
  // expr_out_bufs_[i].
  void EvaluateExpr(size_t input_index, size_t start, size_t n);

  const SegmentPlan* plan_ = nullptr;
  std::unique_ptr<SegmentPlan> owned_plan_;  // Bind's plan

  // MIN/MAX extrema for every dense-mode row batch; value pointers follow
  // the same expr/raw rules the scalar strategy uses.
  void ProcessMinMaxDense(BatchMode mode, size_t m, int geff);
  // MIN/MAX for the sort-based path (full-window values + sorted indices).
  Status ProcessMinMaxSorted(size_t start, size_t n, int geff);

  // Accumulators sized num_groups + 1 (last slot = special group).
  std::vector<uint64_t> counts_;
  std::vector<int64_t> sums_;    // [input * (G + 1) + group], sum inputs
  std::vector<uint64_t> minmax_; // [input * (G + 1) + group], min/max inputs

  MultiAggregator multi_agg_;
  bool multi_agg_ready_ = false;
  SortedBatch sorted_batch_;

  // Scratch (reused across batches).
  AlignedBuffer groups_buf_;
  AlignedBuffer group_scratch_;  // second group column's ids (GroupMapper)
  AlignedBuffer indices_buf_;
  std::vector<AlignedBuffer> value_bufs_;     // per input dense values
  std::vector<AlignedBuffer> expr_col_bufs_;  // per table column, logical i64
  std::vector<AlignedBuffer> expr_out_bufs_;  // per input, expr results
  std::vector<const int64_t*> expr_out_ptrs_; // per input, possibly aliased
  AlignedBuffer compact_scratch_;

  // Run-level state (kRunBased): per-input cursor into RLE aggregate run
  // streams (spans arrive in ascending start order, so the walk is
  // amortized O(runs + spans)).
  struct RunCursor {
    size_t run_idx = 0;
    size_t run_start = 0;
  };
  std::vector<RunCursor> run_cursors_;

  // Per-batch memoization: columns are decoded and shared subexpressions
  // evaluated at most once per batch (Q1's charge reuses disc_price).
  uint64_t batch_seq_ = 0;
  std::vector<uint64_t> col_cache_tag_;  // per table column
  ExprCache expr_cache_;

  SelectionStats selection_stats_;
};

}  // namespace bipie

#endif  // BIPIE_CORE_AGGREGATE_PROCESSOR_H_
