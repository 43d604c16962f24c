// Runtime operator specialization (§3, §6).
//
// BIPie implements multiple variants of selection and aggregation and picks
// between them at run time: the aggregation strategy per segment (from
// metadata: group-count bound, aggregate count and widths), the selection
// strategy per batch (from the measured selectivity of the filter for that
// batch). The rules here encode the empirical findings of the paper's §6.1
// and §6.2 evaluation.
#ifndef BIPIE_CORE_STRATEGY_H_
#define BIPIE_CORE_STRATEGY_H_

#include <cstddef>
#include <cstdint>
#include <optional>

namespace bipie {

enum class CompareOp;  // expr/predicate.h

enum class SelectionStrategy {
  kGather,        // §4.2 — unpack only the selected rows
  kCompact,       // §4.1 — unpack all, physically compact
  kSpecialGroup,  // §4.3 — route rejected rows to an extra group
};

enum class AggregationStrategy {
  kScalar,          // §5.1 — reference / wide-value fallback
  kInRegister,      // §5.3 — accumulators in SIMD registers
  kSortBased,       // §5.2 — bucket sort by group, then gather-sum
  kMultiAggregate,  // §5.4 — horizontal SIMD across aggregates
  kCheckedScalar,   // overflow-guarded fallback when metadata cannot prove
                    // sums fit int64
  kRunBased,        // run-level execution (DESIGN.md §11): aggregate
                    // (group, row-range) spans instead of rows when group
                    // columns are RLE/constant and filters reduce to runs
};

// Number of AggregationStrategy values (sizes ScanStats counters).
inline constexpr int kNumAggregationStrategies = 6;

const char* SelectionStrategyName(SelectionStrategy s);
const char* AggregationStrategyName(AggregationStrategy s);

// Forced choices for benchmarks / tests; unset means adaptive.
struct StrategyOverrides {
  std::optional<SelectionStrategy> selection;
  std::optional<AggregationStrategy> aggregation;
  // Byte-sliced filter evaluation (DESIGN.md §16): true forces the
  // early-pruning plane kernels for every byteslice filter column (an error
  // if no filter binds to one), false forces the decode-then-compare path;
  // unset means adaptive admission.
  std::optional<bool> byteslice;
};

// Picks the selection strategy for one batch.
//  * selectivity: measured fraction of rows passing the filter;
//  * max_input_bits: widest bit width among the columns that selection must
//    materialize (gather's win region shrinks as widths grow — Figure 7);
//  * special_group_available: a free group id exists and the aggregation
//    strategy can absorb one extra group.
SelectionStrategy ChooseSelectionStrategy(double selectivity,
                                          int max_input_bits,
                                          bool special_group_available);

// Gather-vs-compact crossover selectivity for a bit width (Figure 7: ~2%
// at 4 bits rising to ~38% at 21 bits).
double GatherCrossoverSelectivity(int bit_width);

// Picks the aggregation strategy for one segment.
//  * num_groups: group-count bound from encoding metadata (incl. special);
//  * num_sums: SUM aggregates to compute (0 = count-only);
//  * max_value_bits: widest aggregate input in bits;
//  * expected_selectivity: estimate (or measurement from prior batches);
//  * multi_aggregate_fits: the expanded row fits one SIMD register.
AggregationStrategy ChooseAggregationStrategy(int num_groups, int num_sums,
                                              int max_value_bits,
                                              double expected_selectivity,
                                              bool multi_aggregate_fits);

// --- run-level admission (DESIGN.md §11) -----------------------------------
//
// The run pipeline replaces the per-row batch loop with arithmetic over
// (group_id, row_range) spans. It is *correct* only when every operator of
// the scan reduces to runs, and *profitable* only when those runs are long
// enough that span bookkeeping beats the row kernels.

struct RunAdmissionInputs {
  // Every group-by column of the segment is RLE-encoded or constant
  // (cardinality 1), so group ids form a run stream.
  bool groups_are_runs = false;
  // Every filter is metadata-satisfied for the segment (min/max proves all
  // rows match) or evaluates on an RLE column (one verdict per run).
  bool filters_are_runs = false;
  // Every aggregate input is a raw bit-packed SUM (contiguous unpack +
  // horizontal sum) or an RLE column (pure run-metadata arithmetic).
  bool aggregates_are_runs = false;
  // Deleted rows arrive as a per-row liveness mask, which has no run
  // representation here; they force the row-level path.
  bool has_deleted_rows = false;
  // A forced selection strategy must be honored by the batch pipeline; the
  // run pipeline never materializes selection vectors.
  bool selection_forced = false;
  size_t segment_rows = 0;
  // Upper bound on spans the pipeline would emit (group runs + filter runs).
  size_t estimated_spans = 1;
};

// Minimum average span length (rows per span) for adaptive admission. Below
// this the per-span dispatch overhead erodes the decode savings; row
// kernels stay within noise of the run path at ~8 rows/span and win below.
inline constexpr size_t kMinRunSpanRows = 8;

// Correctness gate: the run pipeline can compute this segment exactly.
bool RunBasedCapable(const RunAdmissionInputs& in);

// Adaptive gate: capable *and* profitable (average span >= kMinRunSpanRows).
// Forced kRunBased overrides skip the profitability half.
bool RunBasedAdmitted(const RunAdmissionInputs& in);

// --- byteslice filter admission (DESIGN.md §16) ----------------------------
//
// Byte-sliced filter columns can evaluate predicates plane-at-a-time with
// early exit (vector/byteslice_scan.h) instead of assembling full words and
// comparing. The kernel path is always *correct*; admission decides whether
// it is *profitable* for this segment's predicates.

struct ByteSliceAdmissionInputs {
  // At least one filter of the query binds to a kByteSliced column of the
  // segment (and is not metadata-decided for it).
  bool any_byteslice_filter = false;
  // Widest byteslice filter column, in byte planes (ceil(bit_width / 8)).
  int max_planes = 0;
  // Metadata selectivity estimate (uniform-distribution quantile over
  // [min, max]) of the most selective byteslice filter.
  double estimated_selectivity = 1.0;
};

// Adaptive admission ceiling on the estimated selectivity of multi-plane
// columns. Early exit prunes planes fastest when few lanes stay undecided
// past plane 0 — which metadata can only see through the selectivity proxy.
// Hand-tuned like the §6 heuristics.
inline constexpr double kByteSliceSelectivityCeiling = 0.8;

// Correctness gate: the plane kernels can evaluate this segment's filters.
bool ByteSliceCapable(const ByteSliceAdmissionInputs& in);

// Adaptive gate: capable *and* profitable. Single-plane columns always pass
// (there is nothing to early-exit past, and the kernel skips the word
// assembly the decode path pays); multi-plane columns pass below the
// selectivity ceiling. A forced override skips this half.
bool ByteSliceAdmitted(const ByteSliceAdmissionInputs& in);

// Fraction of rows a predicate passes under a uniform distribution over the
// column's [min, max] metadata — the estimate driving byteslice admission
// (and exposed for the explain renderer and tests). literal2 is the
// kBetween upper bound, ignored otherwise.
double EstimatePredicateSelectivity(CompareOp op, int64_t literal,
                                    int64_t literal2, int64_t min,
                                    int64_t max);

// --- plan introspection (DESIGN.md §12) ------------------------------------
//
// Every input that drove one segment's strategy resolution, recorded by
// PlanSegment (core/aggregate_processor.h) as plain data. PlanExplain
// (src/obs) turns a PlanDecision into human-readable text and JSON,
// including the rejected alternatives it can re-derive from these inputs.
struct PlanDecision {
  AggregationStrategy aggregation = AggregationStrategy::kScalar;
  bool aggregation_forced = false;
  std::optional<SelectionStrategy> forced_selection;

  // ChooseAggregationStrategy inputs.
  int num_groups = 1;          // mapper bound, excluding the special slot
  int groups_for_choice = 1;   // including the reserved special slot
  int num_sums = 0;
  int max_value_bits = 1;
  double expected_selectivity = 1.0;
  bool multi_aggregate_fits = false;
  bool in_register_feasible = false;
  bool any_expr_input = false;

  // Gates around the choice.
  bool overflow_risk = false;  // metadata could not prove int64-safe sums
  bool filtered = false;       // filters present or deleted rows
  bool special_group_available = false;

  // ChooseSelectionStrategy inputs (the per-batch choice; the explain
  // renders the predicted pick at expected_selectivity plus the crossover).
  int max_materialized_bits = 1;

  // Run-level admission (DESIGN.md §11).
  RunAdmissionInputs run_inputs;
  bool run_capable = false;
  bool run_admitted = false;

  // Byteslice filter admission (DESIGN.md §16).
  ByteSliceAdmissionInputs byteslice_inputs;
  bool byteslice_capable = false;
  bool byteslice_admitted = false;
  std::optional<bool> forced_byteslice;
};

}  // namespace bipie

#endif  // BIPIE_CORE_STRATEGY_H_
