// Query plan introspection (DESIGN.md §12).
//
// BIPieScan::Explain() runs the planning pass Execute() runs — segment
// elimination, one SegmentPlan per surviving segment with every
// admission/profitability input, the segments that run hashed — and renders
// it, adding the predicted per-batch selection choice, without touching a
// single encoded byte beyond metadata. The result renders as human-readable
// text and as stable JSON (fixed key order, fixed number formatting)
// suitable for golden tests: the same table + query + options produce
// byte-identical output on every machine and at every thread count.
#ifndef BIPIE_OBS_PLAN_EXPLAIN_H_
#define BIPIE_OBS_PLAN_EXPLAIN_H_

#include <string>
#include <vector>

#include "core/strategy.h"

namespace bipie {

// One strategy that was not chosen for a segment, and why. Reasons are
// derived from the PlanDecision inputs (never recorded while planning).
struct RejectedAlternative {
  AggregationStrategy strategy = AggregationStrategy::kScalar;
  bool feasible = false;
  std::string reason;
};

// One segment of the rendered plan.
struct SegmentExplain {
  size_t segment_index = 0;
  size_t num_rows = 0;

  // Segment elimination: metadata proved no row can pass this filter.
  bool eliminated = false;
  int eliminated_by_filter = -1;  // index into the query's filters
  std::string eliminated_by;      // rendered predicate

  // Strategy resolution (meaningful when !eliminated), copied from the
  // segment's SegmentPlan. A rejected plan keeps bind_ok false with the
  // status text: a segment outside the envelope (>255 groups, say) runs
  // hashed, a forced-plan rejection or overflow abort is the query's error.
  // decision still holds the recorded inputs.
  bool bind_ok = false;
  std::string bind_error;
  bool hashed = false;
  PlanDecision decision;

  // The per-batch selection prediction at decision.expected_selectivity
  // (the real choice adapts to each batch's measured selectivity).
  bool selection_applies = false;  // filters or deleted rows present
  SelectionStrategy predicted_selection = SelectionStrategy::kGather;
  double gather_crossover = 0.0;  // at decision.max_materialized_bits

  std::vector<RejectedAlternative> rejected;
};

struct PlanExplain {
  // Query shape, rendered.
  std::vector<std::string> group_by;
  std::vector<std::string> aggregates;
  std::vector<std::string> filters;

  size_t total_rows = 0;
  size_t segments_total = 0;       // non-empty segments
  size_t segments_scanned = 0;
  size_t segments_eliminated = 0;
  bool segment_elimination_enabled = true;

  // Query-level outcome Execute() would reach: fail with the first recorded
  // error (forced plan infeasible, overflow risk), or run the scan with
  // segments_hashed of its segments on the hash aggregator.
  size_t segments_hashed = 0;
  bool plan_error = false;       // forced/overflow rejection Execute returns
  std::string plan_error_text;

  std::vector<SegmentExplain> segments;

  std::string ToText() const;
  // Stable JSON; indent > 0 pretty-prints, 0 emits one line.
  std::string ToJson(int indent = 2) const;
};

}  // namespace bipie

#endif  // BIPIE_OBS_PLAN_EXPLAIN_H_
