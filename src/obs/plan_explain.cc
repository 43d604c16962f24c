#include "obs/plan_explain.h"

#include <array>
#include <cstdio>

#include "core/aggregate_processor.h"
#include "core/scan.h"
#include "obs/json_writer.h"
#include "storage/table.h"

namespace bipie {

namespace {

const char* CompareOpText(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kBetween:
      return "between";
  }
  return "?";
}

std::string RenderPredicate(const ColumnPredicate& pred) {
  if (pred.op() == CompareOp::kBetween) {
    return pred.column_name() + " between " + std::to_string(pred.literal()) +
           " and " + std::to_string(pred.literal2());
  }
  std::string lit = pred.string_literal().empty()
                        ? std::to_string(pred.literal())
                        : "'" + pred.string_literal() + "'";
  return pred.column_name() + " " + CompareOpText(pred.op()) + " " + lit;
}

std::string RenderExpr(const Expr& expr, const Table& table) {
  switch (expr.kind()) {
    case ExprKind::kColumn: {
      const int idx = expr.column_index();
      if (idx >= 0 && static_cast<size_t>(idx) < table.num_columns()) {
        return table.schema()[idx].name;
      }
      return "col#" + std::to_string(idx);
    }
    case ExprKind::kConstant:
      return std::to_string(expr.constant());
    case ExprKind::kAdd:
      return "(" + RenderExpr(*expr.lhs(), table) + " + " +
             RenderExpr(*expr.rhs(), table) + ")";
    case ExprKind::kSub:
      return "(" + RenderExpr(*expr.lhs(), table) + " - " +
             RenderExpr(*expr.rhs(), table) + ")";
    case ExprKind::kMul:
      return "(" + RenderExpr(*expr.lhs(), table) + " * " +
             RenderExpr(*expr.rhs(), table) + ")";
  }
  return "?";
}

std::string RenderAggregate(const AggregateSpec& spec, const Table& table) {
  switch (spec.kind) {
    case AggregateSpec::Kind::kCount:
      return "count(*)";
    case AggregateSpec::Kind::kSum:
      return "sum(" + spec.column + ")";
    case AggregateSpec::Kind::kAvg:
      return "avg(" + spec.column + ")";
    case AggregateSpec::Kind::kMin:
      return "min(" + spec.column + ")";
    case AggregateSpec::Kind::kMax:
      return "max(" + spec.column + ")";
    case AggregateSpec::Kind::kSumExpr:
      return "sum(" +
             (spec.expr != nullptr ? RenderExpr(*spec.expr, table) : "?") +
             ")";
  }
  return "?";
}

std::string Fixed2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

// Why the run pipeline cannot (or should not) take this segment, from the
// recorded admission inputs.
std::string RunRejectionReason(const PlanDecision& d) {
  const RunAdmissionInputs& in = d.run_inputs;
  if (!d.run_capable) {
    std::string why;
    auto add = [&why](const char* part) {
      if (!why.empty()) why += ", ";
      why += part;
    };
    if (!in.groups_are_runs) add("group columns are not runs");
    if (!in.filters_are_runs) add("filters are not run-representable");
    if (!in.aggregates_are_runs) add("aggregates are not run-representable");
    if (in.has_deleted_rows) add("segment has deleted rows");
    if (in.selection_forced) add("selection strategy forced");
    if (in.segment_rows == 0) add("empty segment");
    return "infeasible: " + why;
  }
  const size_t spans = in.estimated_spans > 0 ? in.estimated_spans : 1;
  return "unprofitable: avg span " +
         std::to_string(in.segment_rows / spans) + " rows < " +
         std::to_string(kMinRunSpanRows) + " (" +
         std::to_string(in.segment_rows) + " rows / " +
         std::to_string(spans) + " spans)";
}

// Why the byteslice plane kernels were (or were not) admitted, from the
// recorded admission inputs (DESIGN.md §16).
std::string ByteSliceReason(const PlanDecision& d) {
  const ByteSliceAdmissionInputs& in = d.byteslice_inputs;
  if (d.forced_byteslice.has_value()) {
    return *d.forced_byteslice ? "forced on" : "forced off";
  }
  if (!d.byteslice_capable) {
    return "infeasible: no filter binds to a byte-sliced column";
  }
  if (d.byteslice_admitted) {
    return in.max_planes <= 1
               ? "single plane: no pruning needed"
               : "est selectivity " + Fixed2(in.estimated_selectivity) +
                     " <= " + Fixed2(kByteSliceSelectivityCeiling) +
                     " ceiling";
  }
  return "unprofitable: est selectivity " + Fixed2(in.estimated_selectivity) +
         " above the " + Fixed2(kByteSliceSelectivityCeiling) +
         " ceiling with " + std::to_string(in.max_planes) + " planes";
}

// Rejected-alternative reasons, derived from the recorded decision inputs.
std::vector<RejectedAlternative> DeriveRejected(const PlanDecision& d) {
  static constexpr std::array<AggregationStrategy, 6> kAll = {
      AggregationStrategy::kScalar,         AggregationStrategy::kInRegister,
      AggregationStrategy::kSortBased,      AggregationStrategy::kMultiAggregate,
      AggregationStrategy::kCheckedScalar,  AggregationStrategy::kRunBased,
  };
  std::vector<RejectedAlternative> out;
  const std::string chosen = AggregationStrategyName(d.aggregation);
  for (const AggregationStrategy s : kAll) {
    if (s == d.aggregation) continue;
    RejectedAlternative alt;
    alt.strategy = s;
    if (d.aggregation_forced) {
      alt.feasible = false;
      alt.reason = "strategy forced to " + chosen;
      out.push_back(std::move(alt));
      continue;
    }
    if (d.overflow_risk && s != AggregationStrategy::kCheckedScalar) {
      alt.feasible = false;
      alt.reason = "metadata cannot prove int64-safe sums";
      out.push_back(std::move(alt));
      continue;
    }
    switch (s) {
      case AggregationStrategy::kRunBased:
        alt.feasible = d.run_capable;
        alt.reason = RunRejectionReason(d);
        break;
      case AggregationStrategy::kInRegister:
        if (!d.in_register_feasible) {
          alt.feasible = false;
          alt.reason = "infeasible: ";
          if (d.any_expr_input) {
            alt.reason += "expression aggregate inputs";
          } else if (d.max_value_bits > 32) {
            alt.reason += std::to_string(d.max_value_bits) +
                          "-bit values exceed 32-bit lanes";
          } else {
            alt.reason += std::to_string(d.groups_for_choice) +
                          " groups exceed the register lane budget";
          }
        } else {
          alt.feasible = true;
          alt.reason = "feasible; adaptive rules preferred " + chosen;
        }
        break;
      case AggregationStrategy::kSortBased:
        if (d.num_sums == 0) {
          alt.feasible = false;
          alt.reason = "infeasible: needs at least one sum";
        } else {
          alt.feasible = true;
          if (d.expected_selectivity > 0.25) {
            alt.reason = "selectivity estimate " +
                         Fixed2(d.expected_selectivity) +
                         " above the 0.25 sort-based region";
          } else if (d.num_sums < 2) {
            alt.reason = "fewer than 2 sums to amortize the sort";
          } else {
            alt.reason = "feasible; adaptive rules preferred " + chosen;
          }
        }
        break;
      case AggregationStrategy::kMultiAggregate:
        if (!d.multi_aggregate_fits) {
          alt.feasible = false;
          alt.reason =
              "infeasible: expanded row does not fit one SIMD register";
        } else {
          alt.feasible = true;
          alt.reason = "feasible; adaptive rules preferred " + chosen;
        }
        break;
      case AggregationStrategy::kCheckedScalar:
        alt.feasible = true;
        alt.reason = "unneeded: metadata proves int64-safe sums";
        break;
      case AggregationStrategy::kScalar:
        alt.feasible = true;
        alt.reason = "generic fallback; " + chosen + " is faster here";
        break;
    }
    out.push_back(std::move(alt));
  }
  return out;
}

}  // namespace

Result<PlanExplain> BIPieScan::Explain() const {
  ScanPlan plan;
  BIPIE_RETURN_NOT_OK(PlanScan(&plan));

  PlanExplain explain;
  explain.segment_elimination_enabled = options_.enable_segment_elimination;
  for (const std::string& g : query_.group_by) explain.group_by.push_back(g);
  for (const AggregateSpec& spec : query_.aggregates) {
    explain.aggregates.push_back(RenderAggregate(spec, table_));
  }
  for (const ColumnPredicate& pred : query_.filters) {
    explain.filters.push_back(RenderPredicate(pred));
  }
  explain.segments_scanned = plan.segments_scanned;
  explain.segments_eliminated = plan.segments_eliminated;

  for (const PlannedSegment& planned : plan.segments) {
    SegmentExplain seg;
    seg.segment_index = planned.segment_index;
    seg.num_rows = table_.segment(planned.segment_index).num_rows();
    ++explain.segments_total;
    explain.total_rows += seg.num_rows;
    if (planned.plan == nullptr) {
      seg.eliminated = true;
      seg.eliminated_by_filter = planned.eliminated_by_filter;
      seg.eliminated_by = explain.filters[planned.eliminated_by_filter];
      explain.segments.push_back(std::move(seg));
      continue;
    }
    seg.decision = planned.plan->decision;
    if (!planned.status.ok()) {
      seg.bind_ok = false;
      seg.bind_error = planned.status.ToString();
      seg.hashed = planned.hashed;
      if (planned.hashed) {
        ++explain.segments_hashed;
      } else if (!explain.plan_error) {
        // Execute reports the lowest-indexed error.
        explain.plan_error = true;
        explain.plan_error_text = seg.bind_error;
      }
    } else {
      seg.bind_ok = true;
      const PlanDecision& d = seg.decision;
      seg.selection_applies =
          d.filtered && d.aggregation != AggregationStrategy::kRunBased;
      seg.gather_crossover =
          GatherCrossoverSelectivity(d.max_materialized_bits);
      seg.predicted_selection =
          d.forced_selection.has_value()
              ? *d.forced_selection
              : ChooseSelectionStrategy(d.expected_selectivity,
                                        d.max_materialized_bits,
                                        d.special_group_available);
      seg.rejected = DeriveRejected(d);
    }
    explain.segments.push_back(std::move(seg));
  }
  return explain;
}

std::string PlanExplain::ToText() const {
  std::string out;
  auto line = [&out](const std::string& s) {
    out += s;
    out += '\n';
  };
  auto join = [](const std::vector<std::string>& parts) {
    std::string s;
    for (size_t i = 0; i < parts.size(); ++i) {
      if (i > 0) s += ", ";
      s += parts[i];
    }
    return s.empty() ? std::string("(none)") : s;
  };

  line("== BIPie plan ==");
  line("table: " + std::to_string(total_rows) + " rows in " +
       std::to_string(segments_total) + " segments (elimination " +
       (segment_elimination_enabled ? "on" : "off") + ")");
  line("group by: " + join(group_by));
  line("aggregates: " + join(aggregates));
  line("filters: " + join(filters));
  if (plan_error) {
    line("outcome: error — " + plan_error_text);
  } else {
    line("outcome: specialized scan (" + std::to_string(segments_scanned) +
         " segments, " + std::to_string(segments_eliminated) + " eliminated" +
         (segments_hashed > 0
              ? ", " + std::to_string(segments_hashed) + " hashed"
              : "") +
         ")");
  }

  for (const SegmentExplain& seg : segments) {
    line("segment " + std::to_string(seg.segment_index) + ": " +
         std::to_string(seg.num_rows) + " rows");
    if (seg.eliminated) {
      line("  eliminated by filter[" +
           std::to_string(seg.eliminated_by_filter) + "]: " +
           seg.eliminated_by);
      continue;
    }
    if (seg.hashed) {
      line("  aggregation: hash (" + seg.bind_error + ")");
      continue;
    }
    if (!seg.bind_ok) {
      line("  bind rejected: " + seg.bind_error);
      continue;
    }
    const PlanDecision& d = seg.decision;
    line(std::string("  aggregation: ") +
         AggregationStrategyName(d.aggregation) +
         (d.aggregation_forced ? " (forced)" : ""));
    line("    groups: " + std::to_string(d.num_groups) +
         (d.special_group_available ? " (+special)" : "") +
         ", sums: " + std::to_string(d.num_sums) +
         ", max value bits: " + std::to_string(d.max_value_bits) +
         ", est selectivity: " + Fixed2(d.expected_selectivity) +
         ", multi-agg fits: " + (d.multi_aggregate_fits ? "yes" : "no") +
         ", overflow risk: " + (d.overflow_risk ? "yes" : "no"));
    {
      const RunAdmissionInputs& in = d.run_inputs;
      const size_t spans = in.estimated_spans > 0 ? in.estimated_spans : 1;
      line("    run-level: capable " + std::string(d.run_capable ? "yes" : "no") +
           ", admitted " + (d.run_admitted ? "yes" : "no") + ", spans<=" +
           std::to_string(in.estimated_spans) + ", avg span " +
           std::to_string(in.segment_rows / spans) + " rows");
    }
    // Byteslice admission only prints when it can matter — a capable
    // segment or an explicit override. Queries that never touch a
    // byte-sliced column keep their pre-§16 explain text.
    if (d.byteslice_capable || d.forced_byteslice.has_value()) {
      line("    byteslice: capable " +
           std::string(d.byteslice_capable ? "yes" : "no") + ", admitted " +
           (d.byteslice_admitted ? "yes" : "no") + ", planes<=" +
           std::to_string(d.byteslice_inputs.max_planes) + " (" +
           ByteSliceReason(d) + ")");
    }
    if (!seg.selection_applies) {
      line("  selection: none (no filters or deletes reach the batch loop)");
    } else {
      line(std::string("  selection: ") +
           (d.forced_selection.has_value() ? "forced " : "adaptive, predicted ") +
           SelectionStrategyName(seg.predicted_selection) + " @" +
           Fixed2(d.expected_selectivity) + " est (gather<=" +
           Fixed2(seg.gather_crossover) + " crossover at " +
           std::to_string(d.max_materialized_bits) + " bits)");
    }
    for (const RejectedAlternative& alt : seg.rejected) {
      line(std::string("  rejected ") + AggregationStrategyName(alt.strategy) +
           ": " + alt.reason);
    }
  }
  return out;
}

std::string PlanExplain::ToJson(int indent) const {
  obs::JsonWriter w(indent);
  w.BeginObject();

  w.Key("query").BeginObject();
  w.Key("group_by").BeginArray();
  for (const std::string& g : group_by) w.Value(g);
  w.EndArray();
  w.Key("aggregates").BeginArray();
  for (const std::string& a : aggregates) w.Value(a);
  w.EndArray();
  w.Key("filters").BeginArray();
  for (const std::string& f : filters) w.Value(f);
  w.EndArray();
  w.EndObject();

  w.Key("table").BeginObject();
  w.KV("total_rows", total_rows);
  w.KV("segments", segments_total);
  w.KV("elimination_enabled", segment_elimination_enabled);
  w.EndObject();

  w.Key("outcome").BeginObject();
  if (plan_error) {
    w.KV("kind", "error");
    w.KV("reason", plan_error_text);
  } else {
    w.KV("kind", "specialized_scan");
  }
  w.KV("segments_scanned", segments_scanned);
  w.KV("segments_eliminated", segments_eliminated);
  // Only a plan with hashed segments carries the key, so the JSON of every
  // fully specialized plan stays as it was.
  if (segments_hashed > 0) w.KV("segments_hashed", segments_hashed);
  w.EndObject();

  w.Key("segments").BeginArray();
  for (const SegmentExplain& seg : segments) {
    w.BeginObject();
    w.KV("index", seg.segment_index);
    w.KV("rows", seg.num_rows);
    if (seg.eliminated) {
      w.KV("eliminated", true);
      w.KV("eliminated_by_filter", static_cast<int64_t>(seg.eliminated_by_filter));
      w.KV("eliminated_by", seg.eliminated_by);
      w.EndObject();
      continue;
    }
    if (seg.hashed) {
      w.Key("aggregation").BeginObject();
      w.KV("strategy", "hash");
      w.KV("reason", seg.bind_error);
      w.EndObject();
      w.EndObject();
      continue;
    }
    if (!seg.bind_ok) {
      w.KV("bind_error", seg.bind_error);
      w.EndObject();
      continue;
    }
    const PlanDecision& d = seg.decision;
    w.Key("aggregation").BeginObject();
    w.KV("strategy", AggregationStrategyName(d.aggregation));
    w.KV("forced", d.aggregation_forced);
    w.Key("inputs").BeginObject();
    w.KV("num_groups", d.num_groups);
    w.KV("groups_for_choice", d.groups_for_choice);
    w.KV("num_sums", d.num_sums);
    w.KV("max_value_bits", d.max_value_bits);
    w.KV("expected_selectivity", d.expected_selectivity);
    w.KV("multi_aggregate_fits", d.multi_aggregate_fits);
    w.KV("in_register_feasible", d.in_register_feasible);
    w.KV("any_expr_input", d.any_expr_input);
    w.KV("overflow_risk", d.overflow_risk);
    w.KV("filtered", d.filtered);
    w.KV("special_group_available", d.special_group_available);
    w.EndObject();
    w.Key("run_admission").BeginObject();
    w.KV("capable", d.run_capable);
    w.KV("admitted", d.run_admitted);
    w.KV("groups_are_runs", d.run_inputs.groups_are_runs);
    w.KV("filters_are_runs", d.run_inputs.filters_are_runs);
    w.KV("aggregates_are_runs", d.run_inputs.aggregates_are_runs);
    w.KV("has_deleted_rows", d.run_inputs.has_deleted_rows);
    w.KV("selection_forced", d.run_inputs.selection_forced);
    w.KV("estimated_spans", d.run_inputs.estimated_spans);
    w.EndObject();
    if (d.byteslice_capable || d.forced_byteslice.has_value()) {
      w.Key("byteslice_admission").BeginObject();
      w.KV("capable", d.byteslice_capable);
      w.KV("admitted", d.byteslice_admitted);
      w.KV("forced", d.forced_byteslice.has_value());
      w.KV("max_planes", static_cast<int64_t>(d.byteslice_inputs.max_planes));
      w.KV("estimated_selectivity", d.byteslice_inputs.estimated_selectivity);
      w.KV("reason", ByteSliceReason(d));
      w.EndObject();
    }
    w.EndObject();

    w.Key("selection").BeginObject();
    w.KV("applies", seg.selection_applies);
    if (seg.selection_applies) {
      w.KV("forced", d.forced_selection.has_value());
      w.KV("predicted", SelectionStrategyName(seg.predicted_selection));
      w.KV("expected_selectivity", d.expected_selectivity);
      w.KV("gather_crossover", seg.gather_crossover);
      w.KV("max_materialized_bits", d.max_materialized_bits);
    }
    w.EndObject();

    w.Key("rejected").BeginArray();
    for (const RejectedAlternative& alt : seg.rejected) {
      w.BeginObject();
      w.KV("strategy", AggregationStrategyName(alt.strategy));
      w.KV("feasible", alt.feasible);
      w.KV("reason", alt.reason);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  std::string out = w.TakeString();
  out += '\n';
  return out;
}

}  // namespace bipie
