// Roofline cost model over calibrated primitive throughputs (DESIGN.md §17).
//
// Predicts cycles per segment row for every candidate plan of one segment —
// selection strategy × aggregation strategy × byteslice on/off — from the
// same segment metadata PlanSegment gathers, plus a CalibrationProfile
// (cost/calibration.h). The pipeline laws, with s the
// unified selectivity estimate, G the group-column decode cost, D the
// aggregate-input decode cost and K(X) the strategy-X kernel cost (all
// cycles/row):
//
//   filter        F = Σ per-predicate min(decode+compare, plane kernels)
//   gather        F + s·(G + gather_row + D + K)      (touch selected only)
//   compact       F + G + compact_row + s·(D + K)     (decode all, compact)
//   special-group F + G + special_row + D + K         (aggregate every row)
//   sort-based    F + s·(G + D + sort_row + sums·per_sum)  (selection folds
//                                                     into the bucket sort)
//   run pipeline  span_cycles·spans/rows + run aggregate laws
//
// and per-predicate byteslice cost = plane·(1 + (planes−1)·s): the early
// exit touches later planes only for still-undecided lanes, for which the
// selectivity estimate is the only proxy metadata offers (the same proxy
// the legacy ceiling used, now dimensioned as a cost).
//
// Everything here is pure arithmetic on the profile — no timing, no ISA
// dispatch — so decisions under the builtin profile are machine-independent
// and golden-testable. Ties break toward the lower AggregationStrategy
// enum value (strict-less argmin in declaration order).
#ifndef BIPIE_COST_COST_MODEL_H_
#define BIPIE_COST_COST_MODEL_H_

#include <cstddef>
#include <cstdint>

#include "core/strategy.h"
#include "cost/calibration.h"
#include "storage/types.h"

namespace bipie::cost {

// Scalar summary of one segment's shape (the decision-table golden fills it
// directly). All *_cpr fields are cycles per segment row.
struct SegmentCostInputs {
  size_t rows = 0;
  // Unified selectivity: product of per-predicate estimates (the byteslice
  // loop's EstimatePredicateSelectivity, now consulted for every path).
  double selectivity = 1.0;
  bool filtered = false;
  // Filter evaluation, decode-then-compare path, summed over predicates.
  double filter_decode_cpr = 0.0;
  // Filter evaluation with plane kernels on the byteslice-capable
  // predicates (others keep their decode cost). < 0: no byteslice filter.
  double filter_byteslice_cpr = -1.0;
  bool byteslice_capable = false;
  // Group-by column decode (RLE expansion / id unpack), per row.
  double group_decode_cpr = 0.0;
  // Aggregate-input decode per processed row (post-selection).
  double agg_decode_cpr = 0.0;
  int num_sums = 0;
  // Feasibility gates mirrored from PlanSegment's checks.
  bool in_register_feasible = false;
  bool multi_fits = false;
  bool sort_feasible = false;
  bool checked_feasible = true;
  // Run pipeline: capability plus its span structure and aggregate cost.
  bool run_capable = false;
  size_t run_spans = 1;
  double run_agg_cpr = 0.0;
  bool special_group_available = false;
};

// Predicted costs for one segment. total_cpr is comparable across entries:
// each is the full pipeline (filter + selection + aggregation) under that
// aggregation strategy with its best selection strategy.
struct SegmentCosts {
  double total_cpr[kNumAggregationStrategies] = {-1.0, -1.0, -1.0,
                                                 -1.0, -1.0, -1.0};
  // Selection overhead component per strategy (gather/compact/special) at
  // the estimated selectivity; -1 when no selection applies.
  double selection_cpr[3] = {-1.0, -1.0, -1.0};
  AggregationStrategy chosen = AggregationStrategy::kScalar;
  SelectionStrategy predicted_selection = SelectionStrategy::kGather;
  // Gather stops winning above this selectivity (bisected on the laws).
  double gather_crossover = 0.0;
  // Plane kernels beat decode-and-compare for this segment's filters.
  bool use_byteslice = false;
  // Filter term actually used inside total_cpr.
  double filter_cpr = 0.0;
};

class CostModel {
 public:
  explicit CostModel(const CalibrationProfile& profile) : p_(profile) {}

  const CalibrationProfile& profile() const { return p_; }

  // --- primitive laws --------------------------------------------------------

  // Decode one value of the given encoding to scan-ready form, per row.
  // `runs` sizes the per-run terms of kRle (ignored elsewhere).
  double DecodeCyclesPerRow(Encoding encoding, int bit_width, size_t rows,
                            size_t runs) const;
  double UnpackCyclesPerRow(int bit_width) const;
  double CompareCyclesPerRow(int bit_width) const;
  // Expected plane-kernel cost of one predicate on a `planes`-plane column
  // at estimated selectivity s.
  double ByteSliceFilterCyclesPerRow(int planes, double selectivity) const;
  // Aggregation kernel cost per processed row (decode excluded).
  double AggregationKernelCyclesPerRow(AggregationStrategy strategy,
                                       int num_sums) const;

  // --- advisor law (storage/column_builder) ---------------------------------

  // Roofline scan throughput of one encoding candidate: the greater of its
  // decode compute cost and its memory-bandwidth floor.
  double ScanCyclesPerRow(Encoding encoding, int bit_width, size_t rows,
                          size_t runs, size_t encoded_bytes) const;

  // --- segment scoring -------------------------------------------------------

  SegmentCosts ScoreSegment(const SegmentCostInputs& in) const;

 private:
  // Full row-pipeline cost under one aggregation strategy, selection folded.
  double RowPipelineCpr(const SegmentCostInputs& in, double filter_cpr,
                        AggregationStrategy strategy,
                        SelectionStrategy* best_selection) const;

  const CalibrationProfile& p_;
};

}  // namespace bipie::cost

#endif  // BIPIE_COST_COST_MODEL_H_
