// Golden-file tests for the calibrated cost model (DESIGN.md §17).
//
// The decision table is pinned byte-for-byte under the builtin profile:
// ScoreSegment's chosen strategy, predicted selection, byteslice verdict and
// predicted cycles/row over a grid of segment shapes × selectivities. Any
// retuning of the builtin constants or change to the pipeline laws shows up
// as a diff here first.
//
// To regenerate after an intentional model change:
//
//   ./cost_model_golden_test --update-golden
//
// then review the diff — decision churn IS the review surface for cost
// model changes. Everything here must be machine-independent: the builtin
// profile is deterministic and ScoreSegment is pure arithmetic on it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cost/calibration.h"
#include "cost/cost_model.h"

#ifndef BIPIE_GOLDEN_DIR
#error "BIPIE_GOLDEN_DIR must be defined to the tests/golden directory"
#endif

namespace bipie {
namespace {

bool g_update_golden = false;

std::string GoldenPath(const std::string& name, const char* ext) {
  return std::string(BIPIE_GOLDEN_DIR) + "/" + name + "." + ext;
}

void CompareWithGolden(const std::string& name, const char* ext,
                       const std::string& actual) {
  const std::string path = GoldenPath(name, ext);
  if (g_update_golden) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — run cost_model_golden_test --update-golden";
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(actual, content.str())
      << "cost model output diverged from " << path
      << " — if the model change is intentional, regenerate with "
         "cost_model_golden_test --update-golden and review the diff";
}

// --- decision-table golden --------------------------------------------------

// One named segment shape; the table sweeps it across selectivities.
struct Shape {
  const char* name;
  cost::SegmentCostInputs in;
};

std::vector<Shape> DecisionShapes(const cost::CostModel& model) {
  std::vector<Shape> shapes;
  {
    // Narrow dictionary groups, two packed sums: every row strategy open.
    Shape s{"all-open", {}};
    s.in.rows = 4096;
    s.in.group_decode_cpr = model.DecodeCyclesPerRow(Encoding::kDictionary,
                                                     /*bit_width=*/3,
                                                     s.in.rows, /*runs=*/1);
    s.in.agg_decode_cpr = 2.0 * model.UnpackCyclesPerRow(12);
    s.in.num_sums = 2;
    s.in.in_register_feasible = true;
    s.in.multi_fits = true;
    s.in.sort_feasible = true;
    s.in.special_group_available = true;
    shapes.push_back(s);
  }
  {
    // Wide aggregate inputs: only the scalar/checked pair stays feasible.
    Shape s{"wide-scalar", {}};
    s.in.rows = 4096;
    s.in.group_decode_cpr = model.DecodeCyclesPerRow(Encoding::kDictionary,
                                                     /*bit_width=*/3,
                                                     s.in.rows, /*runs=*/1);
    s.in.agg_decode_cpr = model.UnpackCyclesPerRow(50);
    s.in.num_sums = 1;
    shapes.push_back(s);
  }
  {
    // Run-shaped segment, short (~12 row) spans.
    Shape s{"run-short", {}};
    s.in.rows = 49152;
    s.in.group_decode_cpr = model.DecodeCyclesPerRow(
        Encoding::kRle, /*bit_width=*/2, s.in.rows, s.in.rows / 12);
    s.in.agg_decode_cpr = model.DecodeCyclesPerRow(
        Encoding::kRle, /*bit_width=*/6, s.in.rows, s.in.rows / 24);
    s.in.num_sums = 1;
    s.in.run_capable = true;
    s.in.run_spans = s.in.rows / 12;
    s.in.run_agg_cpr = 0.05;
    s.in.sort_feasible = true;
    s.in.special_group_available = true;
    shapes.push_back(s);
  }
  {
    // Run-shaped segment, long (~6000 row) spans.
    Shape s{"run-long", {}};
    s.in = shapes.back().in;
    s.in.run_spans = s.in.rows / 6000;
    shapes.push_back(s);
  }
  {
    // 3-plane byteslice filter column next to packed aggregates.
    Shape s{"byteslice3", {}};
    s.in.rows = 2048;
    s.in.group_decode_cpr = model.DecodeCyclesPerRow(Encoding::kDictionary,
                                                     /*bit_width=*/3,
                                                     s.in.rows, /*runs=*/1);
    s.in.agg_decode_cpr = model.UnpackCyclesPerRow(9);
    s.in.num_sums = 1;
    s.in.byteslice_capable = true;
    s.in.in_register_feasible = true;
    s.in.sort_feasible = true;
    s.in.special_group_available = true;
    shapes.push_back(s);
  }
  return shapes;
}

TEST(CostModelGoldenTest, DecisionTable) {
  const cost::CalibrationProfile profile = cost::BuiltinProfile();
  const cost::CostModel model(profile);
  const double selectivities[6] = {0.02, 0.10, 0.25, 0.50, 0.80, 0.95};
  std::string out =
      "cost model decision table (builtin profile)\n"
      "shape       sel   chosen           selection      byteslice  "
      "cpr      xover\n";
  char line[160];
  for (const Shape& shape : DecisionShapes(model)) {
    for (const double s : selectivities) {
      cost::SegmentCostInputs in = shape.in;
      in.filtered = true;
      in.selectivity = s;
      // Filter: one predicate on a 22-bit column; byteslice-capable shapes
      // also price the plane kernels at this selectivity.
      in.filter_decode_cpr = model.UnpackCyclesPerRow(22) +
                             model.CompareCyclesPerRow(22);
      in.filter_byteslice_cpr =
          in.byteslice_capable ? model.ByteSliceFilterCyclesPerRow(3, s)
                               : -1.0;
      const cost::SegmentCosts costs = model.ScoreSegment(in);
      std::snprintf(
          line, sizeof(line),
          "%-11s %.2f  %-16s %-14s %-10s %.4f   %.4f\n", shape.name, s,
          AggregationStrategyName(costs.chosen),
          SelectionStrategyName(costs.predicted_selection),
          costs.use_byteslice ? "planes" : "decode",
          costs.total_cpr[static_cast<int>(costs.chosen)],
          costs.gather_crossover);
      out += line;
    }
  }
  CompareWithGolden("cost_decision_table", "txt", out);
}

}  // namespace
}  // namespace bipie

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      bipie::g_update_golden = true;
    }
  }
  return RUN_ALL_TESTS();
}
