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
//
// Every aggregate input costs what its encoded width and proven bounds
// require: each column that raw inputs or expression leaves read is
// unpacked, gathered or compacted once per batch, at the narrowest word
// every reader accepts, and the segment's expressions run as one
// ExprProgram whose nodes are int32 wherever metadata proves they fit.
#ifndef BIPIE_CORE_AGGREGATE_PROCESSOR_H_
#define BIPIE_CORE_AGGREGATE_PROCESSOR_H_

#include <memory>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "core/group_mapper.h"
#include "core/query.h"
#include "core/strategy.h"
#include "expr/arithmetic.h"
#include "storage/table.h"
#include "vector/agg_multi.h"
#include "vector/agg_sort.h"

namespace bipie {

// Everything fixed for one segment before any row is read: the bound group
// mapper, the aggregate inputs at their strategy-resolved word widths, the
// columns each batch decodes, the compiled expression program, and the
// PlanDecision holding the aggregation strategy, special-group
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
    int node = -1;                        // expr: its node in `program`
    const EncodedColumn* column = nullptr;  // raw
    int table_column = -1;                // raw: the column's table index
    int column_slot = -1;                 // raw: index into `columns`
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

  // One column decoded once per batch for every input that reads it.
  struct DecodedColumn {
    const EncodedColumn* column = nullptr;
    int table_column = -1;
    // kBitPacked columns decode to frame-of-reference offsets at
    // word_bytes (1/2/4/8), the narrowest word every reader accepts;
    // expression leaves add the base on load. Other encodings decode to
    // logical int64.
    bool offsets = false;
    int word_bytes = 8;
  };

  const Table* table = nullptr;
  const Segment* segment = nullptr;
  const QuerySpec* query = nullptr;
  GroupMapper mapper;
  std::vector<AggInput> inputs;      // one per distinct SUM/MIN/MAX input
  std::vector<int> spec_to_input;    // query spec index -> inputs index,
                                     // -1 for count
  std::vector<int> sum_inputs;       // indices of Op::kSum inputs
  std::vector<DecodedColumn> columns;
  ExprProgram program;               // every expression input's node
  std::vector<int> leaf_slots;       // program leaf -> columns index
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

  // Builds dense group ids and every input's dense values for the modes
  // that need them (in-register / multi / scalar); *m receives the dense
  // row count.
  Status BuildDenseBatch(size_t start, size_t n, const uint8_t* sel,
                         BatchMode mode, size_t* m);
  // Decodes every plan column for the batch: the window's n rows in the
  // full and special-group modes, the m selected rows (`indices` for
  // gather) otherwise.
  void LoadColumns(size_t start, size_t n, const uint8_t* sel, BatchMode mode,
                   const uint32_t* indices, size_t m);
  // Runs the expression program over the m decoded rows; an unprovable
  // node's overflow counts only on rows `mask` selects (all when null).
  Status EvaluateExpressions(size_t m, const uint8_t* mask);
  // Input `input`'s values this batch: its expression root's array, or its
  // column's offsets.
  const void* InputValues(const SegmentPlan::AggInput& input) const;

  Status ProcessInRegister(size_t start, size_t n, const uint8_t* sel,
                           BatchMode mode);
  Status ProcessMultiAggregate(size_t start, size_t n, const uint8_t* sel,
                               BatchMode mode);
  Status ProcessSortBased(size_t start, size_t n, const uint8_t* sel,
                          BatchMode mode);
  Status ProcessScalar(size_t start, size_t n, const uint8_t* sel,
                       BatchMode mode, bool checked);

  const SegmentPlan* plan_ = nullptr;
  std::unique_ptr<SegmentPlan> owned_plan_;  // Bind's plan

  // MIN/MAX extrema for every dense-mode row batch.
  void ProcessMinMaxDense(size_t m, int geff);
  // MIN/MAX for the sort-based path (full-window values + sorted indices).
  void ProcessMinMaxSorted(int geff);

  // Accumulators sized num_groups + 1 (last slot = special group).
  std::vector<uint64_t> counts_;
  std::vector<int64_t> sums_;    // [input * (G + 1) + group], sum inputs
  std::vector<uint64_t> minmax_; // [input * (G + 1) + group], min/max inputs

  MultiAggregator multi_agg_;
  bool multi_agg_ready_ = false;
  std::vector<const void*> multi_ptrs_;  // per sum input, this batch
  std::vector<int64_t> multi_flat_;      // Finish's [group][sum] drain
  SortedBatch sorted_batch_;

  // Scratch (reused across batches).
  AlignedBuffer groups_buf_;
  AlignedBuffer group_scratch_;  // second group column's ids (GroupMapper)
  AlignedBuffer indices_buf_;
  std::vector<AlignedBuffer> column_bufs_;  // per plan column
  std::vector<AlignedBuffer> root_bufs_;    // per program root
  std::vector<void*> root_ptrs_;            // root_bufs_ data, for Run
  std::vector<ExprProgram::Leaf> leaves_;   // per program leaf
  AlignedBuffer slice_scratch_;             // the program's interior slices
  AlignedBuffer compact_scratch_;

  // Run-level state (kRunBased): per-input cursor into RLE aggregate run
  // streams (spans arrive in ascending start order, so the walk is
  // amortized O(runs + spans)).
  struct RunCursor {
    size_t run_idx = 0;
    size_t run_start = 0;
  };
  std::vector<RunCursor> run_cursors_;

  SelectionStats selection_stats_;
};

}  // namespace bipie

#endif  // BIPIE_CORE_AGGREGATE_PROCESSOR_H_
