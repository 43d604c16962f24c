#include "core/aggregate_processor.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/bits.h"
#include "encoding/bitpack.h"
#include "encoding/byteslice.h"
#include "vector/agg_inregister.h"
#include "vector/agg_minmax.h"
#include "vector/agg_scalar.h"
#include "vector/compact.h"
#include "vector/gather_select.h"
#include "vector/run_agg.h"
#include "vector/selection_vector.h"
#include "vector/special_group.h"

namespace bipie {

namespace {

// Maximum effective group count (including the special group) per strategy.
int GroupCapacity(AggregationStrategy s) {
  switch (s) {
    case AggregationStrategy::kInRegister:
      return kMaxInRegisterGroups;
    default:
      return 256;
  }
}

using AggInput = SegmentPlan::AggInput;

// Rebases a packed stream to a batch window. Batch starts are multiples of
// kBatchRows = 4096, so start * bit_width is always a whole byte count.
const uint8_t* RebasedPacked(const EncodedColumn& col, size_t start) {
  BIPIE_DCHECK(start * static_cast<uint64_t>(col.bit_width()) % 8 == 0);
  return col.packed_data() +
         start * static_cast<uint64_t>(col.bit_width()) / 8;
}

}  // namespace

Status PlanSegment(const Table& table, const Segment& segment,
                   const QuerySpec& query, const StrategyOverrides& overrides,
                   SegmentPlan* plan) {
  plan->table = &table;
  plan->segment = &segment;
  plan->query = &query;
  std::vector<AggInput>& inputs = plan->inputs;

  // --- group columns -------------------------------------------------------
  std::vector<int> group_cols;
  for (const std::string& name : query.group_by) {
    const int idx = table.FindColumn(name);
    if (idx < 0) {
      return Status::InvalidArgument("unknown group column: " + name);
    }
    group_cols.push_back(idx);
  }
  BIPIE_RETURN_NOT_OK(plan->mapper.Bind(segment, group_cols));
  const int num_groups = plan->mapper.num_groups();

  // --- aggregate inputs ----------------------------------------------------
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query needs at least one aggregate");
  }
  // Aggregates over the same column with the same operation share one
  // input slot (e.g. Q1's sum(l_quantity) and avg(l_quantity)); this is
  // what lets all of Q1's sums fit a single multi-aggregate register.
  // Key: column * 4 + op.
  std::vector<int> column_op_to_input(table.num_columns() * 4, -1);
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggregateSpec::Kind::kCount) {
      plan->spec_to_input.push_back(-1);
      continue;
    }
    AggInput input;
    switch (spec.kind) {
      case AggregateSpec::Kind::kMin:
        input.op = AggInput::Op::kMin;
        break;
      case AggregateSpec::Kind::kMax:
        input.op = AggInput::Op::kMax;
        break;
      default:
        input.op = AggInput::Op::kSum;
        break;
    }
    if (spec.kind == AggregateSpec::Kind::kSumExpr) {
      input.is_expr = true;
      input.expr = spec.expr;
      if (input.expr == nullptr) {
        return Status::InvalidArgument("sum-expression aggregate missing expr");
      }
    } else {
      const int idx = table.FindColumn(spec.column);
      const int dedup_key =
          idx < 0 ? -1 : idx * 4 + static_cast<int>(input.op);
      if (dedup_key >= 0 && column_op_to_input[dedup_key] >= 0) {
        plan->spec_to_input.push_back(column_op_to_input[dedup_key]);
        continue;
      }
      if (dedup_key >= 0) {
        column_op_to_input[dedup_key] = static_cast<int>(inputs.size());
      }
      if (idx < 0) {
        return Status::InvalidArgument("unknown aggregate column: " +
                                       spec.column);
      }
      const EncodedColumn& col = segment.column(static_cast<size_t>(idx));
      if (col.encoding() == Encoding::kBitPacked) {
        input.column = &col;
        input.table_column = idx;
        input.bit_width = col.bit_width();
        input.base = col.base();
        input.max_offset = col.id_bound() - 1;
        input.compensate = true;
      } else {
        // Dictionary / RLE aggregate inputs go through the expression path
        // (logical decode), matching the §2.2 assumption that raw SUM
        // columns are plain bit-packed. RLE inputs additionally keep their
        // run stream so kRunBased can skip the decode entirely.
        input.is_expr = true;
        input.expr = Expr::Column(idx);
        if (col.encoding() == Encoding::kRle) input.run_column = &col;
      }
    }
    plan->spec_to_input.push_back(static_cast<int>(inputs.size()));
    inputs.push_back(std::move(input));
  }

  // --- overflow proof from metadata (§2.1) ---------------------------------
  const __int128 rows = static_cast<__int128>(segment.num_rows());
  const __int128 int64_max = std::numeric_limits<int64_t>::max();
  bool overflow_risk = false;
  std::vector<ValueBounds> column_bounds(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const ColumnMeta& m = segment.column(c).meta();
    column_bounds[c] = {m.min, m.max};
  }
  ExprProgram& program = plan->program;
  for (AggInput& input : inputs) {
    if (input.is_expr) input.node = program.Add(*input.expr, column_bounds);
    if (input.op != AggInput::Op::kSum) continue;  // extrema cannot overflow
    __int128 max_abs;
    if (input.is_expr) {
      if (!program.bounded(input.node)) {
        overflow_risk = true;
        continue;
      }
      const ValueBounds& bounds = program.bounds(input.node);
      max_abs = std::max<__int128>(-static_cast<__int128>(bounds.min),
                                   bounds.max);
    } else {
      max_abs = static_cast<__int128>(input.max_offset) +
                (input.base < 0 ? -static_cast<__int128>(input.base)
                                : static_cast<__int128>(input.base));
    }
    if (max_abs * rows > int64_max) overflow_risk = true;
  }

  // --- strategy resolution --------------------------------------------------
  // MIN/MAX inputs run through their own kernels per batch; only SUM inputs
  // participate in the strategy choice and register-fit accounting.
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].op == AggInput::Op::kSum) {
      plan->sum_inputs.push_back(static_cast<int>(i));
    }
  }
  const int num_sums = static_cast<int>(plan->sum_inputs.size());
  int max_value_bits = 1;
  bool any_expr = false;
  for (int i : plan->sum_inputs) {
    const AggInput& input = inputs[i];
    if (input.is_expr) {
      any_expr = true;
    } else {
      max_value_bits = std::max(max_value_bits, input.bit_width);
    }
  }
  if (any_expr) max_value_bits = 64;

  // Multi-aggregate register fit: narrow raw inputs (<= 16 bits) take half
  // a 64-bit lane, everything else a full lane.
  int n64 = 0, n32 = 0;
  for (int i : plan->sum_inputs) {
    const AggInput& input = inputs[i];
    if (!input.is_expr && input.bit_width <= 16) {
      ++n32;
    } else {
      ++n64;
    }
  }
  const bool multi_fits =
      num_sums >= 1 && (n64 + (n32 + 1) / 2) <= 4 && num_groups + 1 <= 256;

  // Deleted rows reach the processor through the selection byte vector
  // exactly like filter rejections, so they count as filtering too.
  const bool filtered = !query.filters.empty() || segment.has_deleted_rows();
  const double expected_selectivity = query.filters.empty() ? 1.0 : 0.5;
  // A spare group id is only reserved when special-group selection can
  // actually be used (not when the caller pinned selection to gather or
  // compaction).
  const bool may_use_special =
      filtered && (!overrides.selection.has_value() ||
                   *overrides.selection == SelectionStrategy::kSpecialGroup);
  const int groups_for_choice = num_groups + (may_use_special ? 1 : 0);

  // Run-level admission (DESIGN.md §11): can this segment be aggregated by
  // (group, row-range) spans instead of rows, and is it worth it?
  RunAdmissionInputs run_in;
  run_in.segment_rows = segment.num_rows();
  run_in.has_deleted_rows = segment.has_deleted_rows();
  run_in.selection_forced = overrides.selection.has_value();
  run_in.groups_are_runs = plan->mapper.runs_available();
  run_in.estimated_spans = plan->mapper.run_count_bound();
  run_in.filters_are_runs = true;
  for (const ColumnPredicate& pred : query.filters) {
    const int idx = table.FindColumn(pred.column_name());
    if (idx < 0) {
      run_in.filters_are_runs = false;  // Execute reports the real error
      break;
    }
    const EncodedColumn& col = segment.column(static_cast<size_t>(idx));
    if (pred.MatchesAllRows(col)) continue;  // metadata-satisfied: free
    if (col.encoding() != Encoding::kRle) {
      run_in.filters_are_runs = false;
      break;
    }
    run_in.estimated_spans += col.runs().size();
  }
  run_in.aggregates_are_runs = true;
  for (const AggInput& input : inputs) {
    const bool raw_packed_sum =
        !input.is_expr && input.op == AggInput::Op::kSum;
    if (!raw_packed_sum && input.run_column == nullptr) {
      run_in.aggregates_are_runs = false;
      break;
    }
  }

  // Byteslice filter admission (DESIGN.md §16): which filters would the
  // early-pruning plane kernels evaluate, and how selective does metadata
  // say they are? Metadata-decided predicates never reach a kernel and do
  // not count.
  ByteSliceAdmissionInputs bs_in;
  for (const ColumnPredicate& pred : query.filters) {
    const int idx = table.FindColumn(pred.column_name());
    if (idx < 0) continue;  // Execute reports the real error
    const EncodedColumn& col = segment.column(static_cast<size_t>(idx));
    if (col.encoding() != Encoding::kByteSliced) continue;
    if (pred.MatchesAllRows(col) || pred.EliminatesSegment(col)) continue;
    bs_in.any_byteslice_filter = true;
    bs_in.max_planes =
        std::max(bs_in.max_planes, ByteSlicePlanes(col.bit_width()));
    bs_in.estimated_selectivity = std::min(
        bs_in.estimated_selectivity,
        EstimatePredicateSelectivity(pred.op(), pred.literal(),
                                     pred.literal2(), col.meta().min,
                                     col.meta().max));
  }

  // Record the decision inputs before any feasibility check can reject the
  // plan, so an explain of a forced infeasible plan still shows what drove
  // the rejection.
  PlanDecision& decision = plan->decision;
  decision.aggregation_forced = overrides.aggregation.has_value();
  decision.forced_selection = overrides.selection;
  decision.num_groups = num_groups;
  decision.groups_for_choice = groups_for_choice;
  decision.num_sums = num_sums;
  decision.max_value_bits = max_value_bits;
  decision.expected_selectivity = expected_selectivity;
  decision.multi_aggregate_fits = multi_fits;
  decision.in_register_feasible = groups_for_choice <= kMaxInRegisterGroups &&
                                  !any_expr && max_value_bits <= 32;
  decision.any_expr_input = any_expr;
  decision.overflow_risk = overflow_risk;
  decision.filtered = filtered;
  decision.run_inputs = run_in;
  decision.run_capable = RunBasedCapable(run_in);
  decision.run_admitted = RunBasedAdmitted(run_in);
  decision.byteslice_inputs = bs_in;
  decision.byteslice_capable = ByteSliceCapable(bs_in);
  decision.byteslice_admitted = overrides.byteslice.has_value()
                                    ? *overrides.byteslice
                                    : ByteSliceAdmitted(bs_in);
  decision.forced_byteslice = overrides.byteslice;

  if (overrides.byteslice.has_value() && *overrides.byteslice &&
      !ByteSliceCapable(bs_in)) {
    decision.byteslice_admitted = false;
    return Status::NotSupported(
        "byteslice kernels infeasible: no filter binds to a byte-sliced "
        "column of this segment");
  }

  AggregationStrategy strategy;
  if (overflow_risk) {
    if (overrides.aggregation.has_value() &&
        *overrides.aggregation != AggregationStrategy::kCheckedScalar) {
      return Status::OverflowRisk(
          "segment metadata cannot prove int64-safe sums; forced strategy "
          "rejected");
    }
    strategy = AggregationStrategy::kCheckedScalar;
  } else if (overrides.aggregation.has_value()) {
    strategy = *overrides.aggregation;
    if (strategy == AggregationStrategy::kRunBased &&
        !RunBasedCapable(run_in)) {
      return Status::NotSupported(
          "run-based aggregation infeasible: requires RLE/constant group "
          "columns, run-representable filters and aggregates, no deleted "
          "rows, and no forced selection strategy");
    }
    if (strategy == AggregationStrategy::kInRegister &&
        (groups_for_choice > kMaxInRegisterGroups || any_expr ||
         max_value_bits > 32)) {
      return Status::NotSupported(
          "in-register aggregation infeasible for this query/segment");
    }
    if (strategy == AggregationStrategy::kMultiAggregate && !multi_fits) {
      return Status::NotSupported(
          "multi-aggregate row does not fit one SIMD register");
    }
    if (strategy == AggregationStrategy::kSortBased && num_sums == 0) {
      return Status::NotSupported("sort-based strategy needs >= 1 sum");
    }
  } else if (RunBasedAdmitted(run_in)) {
    strategy = AggregationStrategy::kRunBased;
  } else {
    strategy = ChooseAggregationStrategy(groups_for_choice, num_sums,
                                         max_value_bits, expected_selectivity,
                                         multi_fits);
  }

  // --- per-strategy input decode widths -------------------------------------
  const bool scalar_like = strategy == AggregationStrategy::kScalar ||
                           strategy == AggregationStrategy::kCheckedScalar;
  for (AggInput& input : inputs) {
    const bool wide_minmax = input.op != AggInput::Op::kSum &&
                             !input.is_expr && input.bit_width > 32;
    if ((scalar_like || wide_minmax) && !input.is_expr) {
      // Scalar paths (and extrema over >32-bit offsets) aggregate logical
      // int64 values directly.
      input.is_expr = true;
      input.expr = Expr::Column(input.table_column);
      input.node = program.Add(*input.expr, column_bounds);
      input.compensate = false;
      input.word_bytes = 8;
      continue;
    }
    if (input.is_expr) {
      input.word_bytes = 8;
      continue;
    }
    if (input.op != AggInput::Op::kSum) {
      // Extrema kernels take the smallest word regardless of strategy.
      input.word_bytes = SmallestWordBytes(input.bit_width);
      continue;
    }
    switch (strategy) {
      case AggregationStrategy::kInRegister:
        input.word_bytes = input.bit_width <= 8    ? 1
                           : input.bit_width <= 15 ? 2
                                                   : 4;
        break;
      case AggregationStrategy::kMultiAggregate:
        // <= 16 bits pair into half a lane; 17-31 bits widen on load.
        input.word_bytes = input.bit_width <= 31 ? 4 : 8;
        break;
      default:
        input.word_bytes = SmallestWordBytes(input.bit_width);
        break;
    }
  }

  // The gather/compact crossover depends on the widest stream selection
  // must materialize.
  int max_materialized_bits = 1;
  for (int idx : group_cols) {
    max_materialized_bits =
        std::max(max_materialized_bits, segment.column(idx).bit_width());
  }
  for (const AggInput& input : inputs) {
    if (!input.is_expr) {
      max_materialized_bits = std::max(max_materialized_bits, input.bit_width);
    } else if (input.expr != nullptr) {
      std::vector<int> cols;
      input.expr->CollectColumns(&cols);
      for (int c : cols) {
        max_materialized_bits =
            std::max(max_materialized_bits, segment.column(c).bit_width());
      }
    }
  }

  // --- one decode per column per batch ---------------------------------------
  // Raw SUM inputs fix their column's word (one per column: inputs are
  // deduplicated by column and op); extrema kernels and expression leaves
  // accept any word at least the smallest. The sort-based strategy sums raw
  // inputs straight from the packed stream, so they read no decoded column.
  auto column_slot = [&](int table_column) {
    for (size_t k = 0; k < plan->columns.size(); ++k) {
      if (plan->columns[k].table_column == table_column) {
        return static_cast<int>(k);
      }
    }
    const EncodedColumn& col = segment.column(table_column);
    SegmentPlan::DecodedColumn dc;
    dc.column = &col;
    dc.table_column = table_column;
    dc.offsets = col.encoding() == Encoding::kBitPacked;
    dc.word_bytes = dc.offsets ? SmallestWordBytes(col.bit_width()) : 8;
    plan->columns.push_back(dc);
    return static_cast<int>(plan->columns.size()) - 1;
  };
  const bool sums_read_packed = strategy == AggregationStrategy::kSortBased;
  for (AggInput& input : inputs) {
    if (input.is_expr) continue;
    if (input.op == AggInput::Op::kSum && sums_read_packed) continue;
    input.column_slot = column_slot(input.table_column);
    if (input.op == AggInput::Op::kSum) {
      plan->columns[input.column_slot].word_bytes = input.word_bytes;
    }
  }
  for (AggInput& input : inputs) {
    if (input.column_slot >= 0) {
      input.word_bytes = plan->columns[input.column_slot].word_bytes;
    }
    if (input.is_expr) {
      // Only the multi-aggregate kernel takes int32 sums (widened on load).
      program.MarkRoot(input.node,
                       strategy == AggregationStrategy::kMultiAggregate &&
                           input.op == AggInput::Op::kSum);
    }
  }
  program.Finalize();
  for (const int c : program.leaf_columns()) {
    plan->leaf_slots.push_back(column_slot(c));
  }

  decision.aggregation = strategy;
  decision.special_group_available =
      may_use_special && num_groups + 1 <= GroupCapacity(strategy);
  decision.max_materialized_bits = max_materialized_bits;
  return Status::OK();
}

Status AggregateProcessor::Bind(const Table& table, const Segment& segment,
                                const QuerySpec& query,
                                const StrategyOverrides& overrides) {
  owned_plan_ = std::make_unique<SegmentPlan>();
  plan_ = owned_plan_.get();
  BIPIE_RETURN_NOT_OK(
      PlanSegment(table, segment, query, overrides, owned_plan_.get()));
  return Attach(*owned_plan_);
}

Status AggregateProcessor::Attach(const SegmentPlan& plan) {
  plan_ = &plan;
  selection_stats_ = SelectionStats{};
  multi_agg_ready_ = false;

  // --- accumulators & engines -----------------------------------------------
  const size_t num_inputs = plan.inputs.size();
  const size_t stride = static_cast<size_t>(plan.mapper.num_groups()) + 1;
  counts_.assign(stride, 0);
  sums_.assign(num_inputs * stride, 0);
  minmax_.assign(num_inputs * stride, 0);
  for (size_t i = 0; i < num_inputs; ++i) {
    const AggInput& input = plan.inputs[i];
    if (input.op == AggInput::Op::kSum) continue;
    uint64_t sentinel;
    if (input.is_expr) {
      sentinel = input.op == AggInput::Op::kMin
                     ? static_cast<uint64_t>(
                           std::numeric_limits<int64_t>::max())
                     : static_cast<uint64_t>(
                           std::numeric_limits<int64_t>::min());
    } else {
      sentinel = input.op == AggInput::Op::kMin ? ~uint64_t{0} : 0;
    }
    std::fill_n(minmax_.begin() + i * stride, stride, sentinel);
  }
  run_cursors_.assign(num_inputs, RunCursor{});
  column_bufs_.resize(plan.columns.size());
  root_bufs_.resize(plan.program.num_roots());
  root_ptrs_.assign(plan.program.num_roots(), nullptr);
  leaves_.assign(plan.leaf_slots.size(), ExprProgram::Leaf{});
  for (size_t k = 0; k < leaves_.size(); ++k) {
    const SegmentPlan::DecodedColumn& dc = plan.columns[plan.leaf_slots[k]];
    leaves_[k].word_bytes = dc.word_bytes;
    leaves_[k].base = dc.offsets ? dc.column->base() : 0;
  }
  slice_scratch_.Resize(plan.program.scratch_bytes());

  if (plan.decision.aggregation == AggregationStrategy::kMultiAggregate) {
    std::vector<MultiAggregator::ColumnDesc> descs;
    for (int i : plan.sum_inputs) {
      const AggInput& input = plan.inputs[i];
      if (input.is_expr) {
        const bool narrow = plan.program.root_bytes(input.node) == 4;
        descs.push_back({narrow ? 4 : 8, narrow});
      } else {
        // Offsets below 2^16 pair into half a lane; wider 4-byte offsets
        // (< 2^31) widen into a full one.
        descs.push_back(
            {input.word_bytes, input.word_bytes == 4 && input.bit_width > 16});
      }
    }
    const int geff = plan.mapper.num_groups() +
                     (plan.decision.special_group_available ? 1 : 0);
    BIPIE_RETURN_NOT_OK(multi_agg_.Configure(descs, geff));
    multi_agg_ready_ = true;
    multi_ptrs_.assign(descs.size(), nullptr);
    multi_flat_.assign(static_cast<size_t>(geff) * descs.size(), 0);
  }
  return Status::OK();
}

AggregateProcessor::BatchMode AggregateProcessor::PickBatchMode(
    size_t n, size_t selected, const uint8_t* sel) {
  if (sel == nullptr) return BatchMode::kFull;
  const PlanDecision& d = plan_->decision;
  if (d.forced_selection.has_value()) {
    switch (*d.forced_selection) {
      case SelectionStrategy::kGather:
        return BatchMode::kGather;
      case SelectionStrategy::kCompact:
        return BatchMode::kCompact;
      case SelectionStrategy::kSpecialGroup:
        return d.special_group_available ? BatchMode::kSpecialGroup
                                         : BatchMode::kCompact;
    }
  }
  const double selectivity =
      static_cast<double>(selected) / static_cast<double>(n);
  switch (ChooseSelectionStrategy(selectivity, d.max_materialized_bits,
                                  d.special_group_available)) {
    case SelectionStrategy::kGather:
      return BatchMode::kGather;
    case SelectionStrategy::kSpecialGroup:
      return BatchMode::kSpecialGroup;
    case SelectionStrategy::kCompact:
      return BatchMode::kCompact;
  }
  return BatchMode::kCompact;
}

void AggregateProcessor::LoadColumns(size_t start, size_t n,
                                     const uint8_t* sel, BatchMode mode,
                                     const uint32_t* indices, size_t m) {
  for (size_t k = 0; k < plan_->columns.size(); ++k) {
    const SegmentPlan::DecodedColumn& dc = plan_->columns[k];
    const EncodedColumn& col = *dc.column;
    const int word = dc.word_bytes;
    auto decode_window = [&](void* out) {
      if (dc.offsets) {
        col.UnpackIds(start, n, out, word);
      } else {
        col.DecodeInt64(start, n, static_cast<int64_t*>(out));
      }
    };
    AlignedBuffer& buf = column_bufs_[k];
    buf.Resize(m * static_cast<size_t>(word));
    if (mode == BatchMode::kFull || mode == BatchMode::kSpecialGroup) {
      decode_window(buf.data());
    } else if (mode == BatchMode::kGather && dc.offsets) {
      GatherSelect(RebasedPacked(col, start), col.bit_width(), indices, m,
                   buf.data(), word);
    } else {
      // Compaction, and gathering a column with no packed offsets: decode
      // the window, then keep the selected rows.
      compact_scratch_.Resize(n * static_cast<size_t>(word));
      decode_window(compact_scratch_.data());
      CompactValues(sel, compact_scratch_.data(), n, word, buf.data());
    }
  }
}

Status AggregateProcessor::EvaluateExpressions(size_t m,
                                               const uint8_t* mask) {
  const ExprProgram& program = plan_->program;
  if (program.num_roots() == 0) return Status::OK();
  for (size_t k = 0; k < leaves_.size(); ++k) {
    leaves_[k].data = column_bufs_[plan_->leaf_slots[k]].data();
  }
  for (const AggInput& input : plan_->inputs) {
    if (!input.is_expr) continue;
    const int r = program.root_index(input.node);
    root_bufs_[r].Resize(m *
                         static_cast<size_t>(program.root_bytes(input.node)));
    root_ptrs_[r] = root_bufs_[r].data();
  }
  return program.Run(leaves_.data(), m, mask, root_ptrs_.data(),
                     slice_scratch_.data());
}

const void* AggregateProcessor::InputValues(const AggInput& input) const {
  if (input.is_expr) {
    return root_bufs_[plan_->program.root_index(input.node)].data();
  }
  return column_bufs_[input.column_slot].data();
}

Status AggregateProcessor::BuildDenseBatch(size_t start, size_t n,
                                           const uint8_t* sel, BatchMode mode,
                                           size_t* m_out) {
  const int num_groups = plan_->mapper.num_groups();
  groups_buf_.Resize(n);
  uint8_t* groups = groups_buf_.data();

  size_t m = n;
  const uint32_t* indices = nullptr;
  if (mode == BatchMode::kGather) {
    indices_buf_.Resize((n + 8) * sizeof(uint32_t));
    m = CompactToIndexVector(sel, n, indices_buf_.data_as<uint32_t>());
    indices = indices_buf_.data_as<uint32_t>();
    plan_->mapper.MapSelected(start, indices, m, groups, &group_scratch_);
  } else {
    plan_->mapper.MapBatch(start, n, groups, &group_scratch_);
    if (mode == BatchMode::kSpecialGroup) {
      ApplySpecialGroup(groups, sel, n,
                        static_cast<uint8_t>(num_groups), groups);
    } else if (mode == BatchMode::kCompact) {
      compact_scratch_.Resize(n);
      m = CompactValues(sel, groups, n, 1, compact_scratch_.data());
      std::memcpy(groups, compact_scratch_.data(), m);
    }
  }
  *m_out = m;
  LoadColumns(start, n, sel, mode, indices, m);
  // Only the special-group mode evaluates rows the filter rejected.
  return EvaluateExpressions(m, mode == BatchMode::kSpecialGroup ? sel
                                                                 : nullptr);
}

Status AggregateProcessor::ProcessBatch(size_t start, size_t n,
                                        const uint8_t* sel) {
  BIPIE_DCHECK(start % kBatchRows == 0);
  if (n == 0) return Status::OK();
  size_t selected = n;
  if (sel != nullptr) {
    selected = CountSelected(sel, n);
    if (selected == 0) return Status::OK();
    if (selected == n) sel = nullptr;  // filter passed everything
  }
  const BatchMode mode = PickBatchMode(n, selected, sel);
  switch (mode) {
    case BatchMode::kFull:
      ++selection_stats_.unfiltered;
      break;
    case BatchMode::kGather:
      ++selection_stats_.gather;
      break;
    case BatchMode::kCompact:
      ++selection_stats_.compact;
      break;
    case BatchMode::kSpecialGroup:
      ++selection_stats_.special_group;
      break;
  }
  switch (plan_->decision.aggregation) {
    case AggregationStrategy::kInRegister:
      return ProcessInRegister(start, n, sel, mode);
    case AggregationStrategy::kMultiAggregate:
      return ProcessMultiAggregate(start, n, sel, mode);
    case AggregationStrategy::kSortBased:
      return ProcessSortBased(start, n, sel, mode);
    case AggregationStrategy::kScalar:
      return ProcessScalar(start, n, sel, mode, /*checked=*/false);
    case AggregationStrategy::kCheckedScalar:
      return ProcessScalar(start, n, sel, mode, /*checked=*/true);
    case AggregationStrategy::kRunBased:
      // The run pipeline drives ProcessRunSpan directly; the batch entry
      // point has no row-level configuration to fall back on.
      return Status::Internal(
          "ProcessBatch called on a run-based-bound processor");
  }
  return Status::Internal("unknown aggregation strategy");
}

Status AggregateProcessor::ProcessRunSpan(uint8_t group, size_t start,
                                          size_t len) {
  BIPIE_DCHECK(plan_->decision.aggregation == AggregationStrategy::kRunBased);
  BIPIE_DCHECK(group < counts_.size());
  if (len == 0) return Status::OK();
  counts_[group] += len;
  const size_t stride = static_cast<size_t>(plan_->mapper.num_groups()) + 1;
  const size_t end = start + len;
  for (size_t i = 0; i < plan_->inputs.size(); ++i) {
    const AggInput& input = plan_->inputs[i];
    if (input.run_column != nullptr) {
      // RLE aggregate input: pure run-metadata arithmetic, zero decode.
      // The overflow proof bounds |value| * len by max_abs * segment_rows,
      // so the multiplications below cannot wrap.
      const std::vector<RleRun>& runs = input.run_column->runs();
      RunCursor& cur = run_cursors_[i];
      while (cur.run_idx < runs.size() &&
             cur.run_start + runs[cur.run_idx].count <= start) {
        cur.run_start += runs[cur.run_idx].count;
        ++cur.run_idx;
      }
      int64_t* sums = sums_.data() + i * stride;
      auto* extrema = reinterpret_cast<int64_t*>(minmax_.data() + i * stride);
      size_t pos = start;
      size_t idx = cur.run_idx;
      size_t run_start = cur.run_start;
      while (pos < end) {
        BIPIE_DCHECK(idx < runs.size());
        const size_t run_end = run_start + runs[idx].count;
        const size_t hi = run_end < end ? run_end : end;
        const auto value = static_cast<int64_t>(runs[idx].value);
        switch (input.op) {
          case AggInput::Op::kSum:
            sums[group] += value * static_cast<int64_t>(hi - pos);
            break;
          case AggInput::Op::kMin:
            extrema[group] = std::min(extrema[group], value);
            break;
          case AggInput::Op::kMax:
            extrema[group] = std::max(extrema[group], value);
            break;
        }
        pos = hi;
        if (pos >= run_end) {
          run_start = run_end;
          ++idx;
        }
      }
      continue;
    }
    if (input.is_expr || input.op != AggInput::Op::kSum) {
      return Status::Internal("run span over a non-run-representable input");
    }
    // Raw bit-packed SUM: fused span sum over the packed bytes, in the
    // offset domain (Finish compensates with base * count).
    reinterpret_cast<uint64_t*>(sums_.data() + i * stride)[group] +=
        SumBitPackedRange(input.column->packed_data(), start, len,
                          input.bit_width);
  }
  return Status::OK();
}

Status AggregateProcessor::ProcessInRegister(size_t start, size_t n,
                                             const uint8_t* sel,
                                             BatchMode mode) {
  const int num_groups = plan_->mapper.num_groups();
  size_t m;
  BIPIE_RETURN_NOT_OK(BuildDenseBatch(start, n, sel, mode, &m));
  const int geff =
      num_groups + (mode == BatchMode::kSpecialGroup ? 1 : 0);
  const uint8_t* groups = groups_buf_.data();
  InRegisterCount(groups, m, geff, counts_.data());
  const size_t stride = static_cast<size_t>(num_groups) + 1;
  for (int i : plan_->sum_inputs) {
    const AggInput& input = plan_->inputs[i];
    auto* sums = reinterpret_cast<uint64_t*>(sums_.data() + i * stride);
    const void* values = InputValues(input);
    switch (input.word_bytes) {
      case 1:
        InRegisterSum8(groups, static_cast<const uint8_t*>(values), m, geff,
                       sums);
        break;
      case 2:
        InRegisterSum16(groups, static_cast<const uint16_t*>(values), m, geff,
                        sums);
        break;
      case 4:
        InRegisterSum32(groups, static_cast<const uint32_t*>(values), m, geff,
                        input.max_offset, sums);
        break;
      default:
        return Status::Internal("bad in-register word");
    }
  }
  ProcessMinMaxDense(m, geff);
  return Status::OK();
}

Status AggregateProcessor::ProcessMultiAggregate(size_t start, size_t n,
                                                 const uint8_t* sel,
                                                 BatchMode mode) {
  const int num_groups = plan_->mapper.num_groups();
  size_t m;
  BIPIE_RETURN_NOT_OK(BuildDenseBatch(start, n, sel, mode, &m));
  const int geff =
      num_groups + (mode == BatchMode::kSpecialGroup ? 1 : 0);
  const uint8_t* groups = groups_buf_.data();
  if (geff <= kMaxInRegisterGroups) {
    InRegisterCount(groups, m, geff, counts_.data());
  } else {
    ScalarCountMultiArray(groups, m, geff, counts_.data());
  }
  for (size_t k = 0; k < plan_->sum_inputs.size(); ++k) {
    multi_ptrs_[k] = InputValues(plan_->inputs[plan_->sum_inputs[k]]);
  }
  multi_agg_.Process(groups, multi_ptrs_.data(), m);
  ProcessMinMaxDense(m, geff);
  return Status::OK();
}

Status AggregateProcessor::ProcessSortBased(size_t start, size_t n,
                                            const uint8_t* sel,
                                            BatchMode mode) {
  const int num_groups = plan_->mapper.num_groups();
  groups_buf_.Resize(n);
  uint8_t* groups = groups_buf_.data();
  int geff = num_groups;
  size_t m = n;
  const uint32_t* indices = nullptr;

  if (mode == BatchMode::kSpecialGroup) {
    plan_->mapper.MapBatch(start, n, groups, &group_scratch_);
    ApplySpecialGroup(groups, sel, n, static_cast<uint8_t>(num_groups),
                      groups);
    geff = num_groups + 1;
  } else if (mode == BatchMode::kFull) {
    plan_->mapper.MapBatch(start, n, groups, &group_scratch_);
  } else {
    // Gather and compaction selection both reduce to sorting a selection
    // index vector (§5.2: rows are excluded before sorting).
    plan_->mapper.MapBatch(start, n, groups, &group_scratch_);
    indices_buf_.Resize((n + 8) * sizeof(uint32_t));
    m = CompactToIndexVector(sel, n, indices_buf_.data_as<uint32_t>());
    indices = indices_buf_.data_as<uint32_t>();
  }
  sorted_batch_.Sort(groups, indices, m, geff);

  // The sorted indices address the whole window: decode and evaluate it.
  LoadColumns(start, n, nullptr, BatchMode::kFull, nullptr, n);
  BIPIE_RETURN_NOT_OK(EvaluateExpressions(n, sel));

  for (int g = 0; g < geff; ++g) {
    counts_[g] += sorted_batch_.count(g);
  }
  const size_t stride = static_cast<size_t>(num_groups) + 1;
  for (int i : plan_->sum_inputs) {
    const AggInput& input = plan_->inputs[i];
    int64_t* sums = sums_.data() + i * stride;
    if (input.is_expr) {
      SortedSumDecoded(static_cast<const int64_t*>(InputValues(input)),
                       sorted_batch_, sums);
    } else {
      SortedGatherSum(RebasedPacked(*input.column, start), input.bit_width,
                      sorted_batch_, reinterpret_cast<uint64_t*>(sums));
    }
  }
  ProcessMinMaxSorted(geff);
  return Status::OK();
}

Status AggregateProcessor::ProcessScalar(size_t start, size_t n,
                                         const uint8_t* sel, BatchMode mode,
                                         bool checked) {
  const int num_groups = plan_->mapper.num_groups();
  size_t m;
  BIPIE_RETURN_NOT_OK(BuildDenseBatch(start, n, sel, mode, &m));
  const int geff =
      num_groups + (mode == BatchMode::kSpecialGroup ? 1 : 0);
  const uint8_t* groups = groups_buf_.data();
  ScalarCountMultiArray(groups, m, geff, counts_.data());
  const size_t stride = static_cast<size_t>(num_groups) + 1;
  for (int i : plan_->sum_inputs) {
    const auto* values =
        static_cast<const int64_t*>(InputValues(plan_->inputs[i]));
    int64_t* sums = sums_.data() + i * stride;
    if (checked) {
      // The special group holds rows the filter rejected; their values
      // are never aggregated, so they cannot overflow anything.
      for (size_t r = 0; r < m; ++r) {
        if (groups[r] == num_groups) continue;
        if (__builtin_add_overflow(sums[groups[r]], values[r],
                                   &sums[groups[r]])) {
          return Status::OverflowRisk("int64 sum overflow during scan");
        }
      }
    } else {
      ScalarSumMultiArray(groups, values, m, geff, sums);
    }
  }
  ProcessMinMaxDense(m, geff);
  return Status::OK();
}

void AggregateProcessor::ProcessMinMaxDense(size_t m, int geff) {
  const size_t stride = static_cast<size_t>(plan_->mapper.num_groups()) + 1;
  const uint8_t* groups = groups_buf_.data();
  for (size_t i = 0; i < plan_->inputs.size(); ++i) {
    const AggInput& input = plan_->inputs[i];
    if (input.op == AggInput::Op::kSum) continue;
    uint64_t* extrema = minmax_.data() + i * stride;
    const void* values = InputValues(input);
    if (input.is_expr) {
      const auto* typed = static_cast<const int64_t*>(values);
      if (input.op == AggInput::Op::kMin) {
        GroupedMinI64(groups, typed, m, geff,
                      reinterpret_cast<int64_t*>(extrema));
      } else {
        GroupedMaxI64(groups, typed, m, geff,
                      reinterpret_cast<int64_t*>(extrema));
      }
    } else if (input.op == AggInput::Op::kMin) {
      GroupedMinU(groups, values, input.word_bytes, m, geff, extrema);
    } else {
      GroupedMaxU(groups, values, input.word_bytes, m, geff, extrema);
    }
  }
}

void AggregateProcessor::ProcessMinMaxSorted(int geff) {
  const size_t stride = static_cast<size_t>(plan_->mapper.num_groups()) + 1;
  const uint32_t* idx = sorted_batch_.indices();
  for (size_t i = 0; i < plan_->inputs.size(); ++i) {
    const AggInput& input = plan_->inputs[i];
    if (input.op == AggInput::Op::kSum) continue;
    uint64_t* extrema = minmax_.data() + i * stride;
    const void* window = InputValues(input);
    if (input.is_expr) {
      const auto* values = static_cast<const int64_t*>(window);
      auto* typed = reinterpret_cast<int64_t*>(extrema);
      for (int g = 0; g < geff; ++g) {
        int64_t e = typed[g];
        for (uint32_t k = sorted_batch_.offset(g);
             k < sorted_batch_.offset(g + 1); ++k) {
          const int64_t v = values[idx[k]];
          e = input.op == AggInput::Op::kMin ? std::min(e, v)
                                             : std::max(e, v);
        }
        typed[g] = e;
      }
    } else {
      // Walk the sorted index ranges over the window's offsets.
      const auto* bytes = static_cast<const uint8_t*>(window);
      for (int g = 0; g < geff; ++g) {
        uint64_t e = extrema[g];
        for (uint32_t k = sorted_batch_.offset(g);
             k < sorted_batch_.offset(g + 1); ++k) {
          uint64_t v = 0;
          std::memcpy(&v,
                      bytes + static_cast<size_t>(idx[k]) * input.word_bytes,
                      input.word_bytes);
          if (input.op == AggInput::Op::kMin ? v < e : v > e) e = v;
        }
        extrema[g] = e;
      }
    }
  }
}

Status AggregateProcessor::Finish(SegmentResult* out) {
  const int num_groups = plan_->mapper.num_groups();
  const size_t stride = static_cast<size_t>(num_groups) + 1;
  if (plan_->decision.aggregation == AggregationStrategy::kMultiAggregate &&
      multi_agg_ready_) {
    // MultiAggregator keeps sums in [group][column] layout; fold into the
    // [input][group] accumulators (special slot included when present).
    const int geff = multi_agg_.num_groups();
    const size_t ncols = plan_->sum_inputs.size();
    std::fill(multi_flat_.begin(), multi_flat_.end(), 0);
    multi_agg_.Flush(multi_flat_.data());
    for (int g = 0; g < geff; ++g) {
      for (size_t k = 0; k < ncols; ++k) {
        sums_[static_cast<size_t>(plan_->sum_inputs[k]) * stride + g] +=
            multi_flat_[g * ncols + k];
      }
    }
  }
  out->num_groups = num_groups;
  out->mapper = &plan_->mapper;
  out->counts.assign(counts_.begin(), counts_.begin() + num_groups);
  const size_t num_specs = plan_->query->aggregates.size();
  out->values.assign(static_cast<size_t>(num_groups) * num_specs, 0);
  for (int g = 0; g < num_groups; ++g) {
    const uint64_t count = counts_[g];
    for (size_t s = 0; s < num_specs; ++s) {
      int64_t value;
      const int input_idx = plan_->spec_to_input[s];
      if (input_idx < 0) {
        value = static_cast<int64_t>(count);
      } else {
        const AggInput& input = plan_->inputs[input_idx];
        if (input.op == AggInput::Op::kSum) {
          value = sums_[static_cast<size_t>(input_idx) * stride + g];
          if (input.compensate) {
            value += input.base * static_cast<int64_t>(count);
          }
        } else {
          const uint64_t raw =
              minmax_[static_cast<size_t>(input_idx) * stride + g];
          value = static_cast<int64_t>(raw);
          if (input.compensate) value += input.base;  // monotonic rebase
        }
      }
      out->values[static_cast<size_t>(g) * num_specs + s] = value;
    }
  }
  return Status::OK();
}

}  // namespace bipie
