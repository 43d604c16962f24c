#include "core/strategy.h"

#include <algorithm>

#include "expr/predicate.h"
#include "vector/agg_inregister.h"

namespace bipie {

const char* SelectionStrategyName(SelectionStrategy s) {
  switch (s) {
    case SelectionStrategy::kGather:
      return "gather";
    case SelectionStrategy::kCompact:
      return "compact";
    case SelectionStrategy::kSpecialGroup:
      return "special-group";
  }
  return "?";
}

const char* AggregationStrategyName(AggregationStrategy s) {
  switch (s) {
    case AggregationStrategy::kScalar:
      return "scalar";
    case AggregationStrategy::kInRegister:
      return "in-register";
    case AggregationStrategy::kSortBased:
      return "sort-based";
    case AggregationStrategy::kMultiAggregate:
      return "multi-aggregate";
    case AggregationStrategy::kCheckedScalar:
      return "checked-scalar";
    case AggregationStrategy::kRunBased:
      return "run-based";
  }
  return "?";
}

bool RunBasedCapable(const RunAdmissionInputs& in) {
  return in.groups_are_runs && in.filters_are_runs &&
         in.aggregates_are_runs && !in.has_deleted_rows &&
         !in.selection_forced && in.segment_rows > 0;
}

bool RunBasedAdmitted(const RunAdmissionInputs& in) {
  if (!RunBasedCapable(in)) return false;
  const size_t spans = std::max<size_t>(in.estimated_spans, 1);
  return in.segment_rows / spans >= kMinRunSpanRows;
}

bool ByteSliceCapable(const ByteSliceAdmissionInputs& in) {
  return in.any_byteslice_filter;
}

bool ByteSliceAdmitted(const ByteSliceAdmissionInputs& in) {
  if (!ByteSliceCapable(in)) return false;
  return in.max_planes <= 1 ||
         in.estimated_selectivity <= kByteSliceSelectivityCeiling;
}

double EstimatePredicateSelectivity(CompareOp op, int64_t literal,
                                    int64_t literal2, int64_t min,
                                    int64_t max) {
  if (min > max) return 0.0;
  const double domain =
      static_cast<double>(static_cast<uint64_t>(max) -
                          static_cast<uint64_t>(min)) + 1.0;
  // Fraction of the domain strictly below v, clamped to [0, 1].
  const auto below = [&](int64_t v) -> double {
    if (v <= min) return 0.0;
    if (v > max) return 1.0;
    return static_cast<double>(static_cast<uint64_t>(v) -
                               static_cast<uint64_t>(min)) / domain;
  };
  const double one = literal >= min && literal <= max ? 1.0 / domain : 0.0;
  switch (op) {
    case CompareOp::kEq:
      return one;
    case CompareOp::kNe:
      return 1.0 - one;
    case CompareOp::kLt:
      return below(literal);
    case CompareOp::kLe:
      return literal >= max ? 1.0 : below(literal) + one;
    case CompareOp::kGt:
      return literal >= max ? 0.0 : 1.0 - below(literal) - one;
    case CompareOp::kGe:
      return 1.0 - below(literal);
    case CompareOp::kBetween: {
      if (literal2 < literal) return 0.0;
      const double le_hi = literal2 >= max ? 1.0 : below(literal2 + 1);
      return std::max(0.0, le_hi - below(literal));
    }
  }
  return 1.0;
}

double GatherCrossoverSelectivity(int bit_width) {
  // Figure 7 calibration: compaction overtakes gather at ~2% selectivity
  // for 4-bit values and ~38% for 21-bit values; interpolate linearly and
  // clamp. Wider values keep favoring gather because physical compaction
  // must unpack the entire column first.
  const double t = 0.02 + (bit_width - 4) * (0.38 - 0.02) / (21 - 4);
  return std::clamp(t, 0.02, 0.45);
}

SelectionStrategy ChooseSelectionStrategy(double selectivity,
                                          int max_input_bits,
                                          bool special_group_available) {
  if (selectivity <= GatherCrossoverSelectivity(max_input_bits)) {
    return SelectionStrategy::kGather;
  }
  // Above the crossover the paper's §6.2 matrix shows special-group winning
  // almost everywhere compaction would apply, because aggregation absorbs
  // the rejected rows at sequential-scan cost. Compaction remains the safe
  // fallback when no spare group id exists.
  return special_group_available ? SelectionStrategy::kSpecialGroup
                                 : SelectionStrategy::kCompact;
}

AggregationStrategy ChooseAggregationStrategy(int num_groups, int num_sums,
                                              int max_value_bits,
                                              double expected_selectivity,
                                              bool multi_aggregate_fits) {
  const bool in_register_feasible =
      num_groups <= kMaxInRegisterGroups && max_value_bits <= 32;
  // Count-only queries: in-register count is unbeatable for few groups.
  if (num_sums == 0) {
    return in_register_feasible ? AggregationStrategy::kInRegister
                                : AggregationStrategy::kScalar;
  }
  // §6.2: sort-based wins with a combination of low selectivity and a high
  // number of aggregates — the fixed sorting cost amortizes across sums and
  // selection comes free with the sort.
  if (expected_selectivity <= 0.25 && num_sums >= 2 &&
      !(in_register_feasible && max_value_bits <= 8)) {
    return AggregationStrategy::kSortBased;
  }
  // Small widths and few groups: in-register extracts the most SIMD lanes.
  if (in_register_feasible && max_value_bits <= 8 && num_sums <= 2) {
    return AggregationStrategy::kInRegister;
  }
  if (multi_aggregate_fits && num_sums >= 2) {
    return AggregationStrategy::kMultiAggregate;
  }
  if (in_register_feasible && max_value_bits <= 16) {
    return AggregationStrategy::kInRegister;
  }
  if (multi_aggregate_fits) {
    return AggregationStrategy::kMultiAggregate;
  }
  if (in_register_feasible) {
    return AggregationStrategy::kInRegister;
  }
  return AggregationStrategy::kScalar;
}

}  // namespace bipie
