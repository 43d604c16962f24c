// Run-level execution benchmark (DESIGN.md §11): grouped SUM over a
// Q1-shaped lineitem table, fully sorted by the group column (so the group
// column auto-encodes as RLE and the scan admits the kRunBased path)
// versus the same rows shuffled (dictionary groups, row-level path).
//
// Four cells, all single-threaded over identical row multisets:
//   sorted/run_level    adaptive plan  -> run-span pipeline
//   sorted/row_level    forced multi-aggregate -> the row-level comparator
//   shuffled/adaptive   adaptive plan  -> must NOT regress vs forced
//   shuffled/row_level  forced multi-aggregate
//
// Expected shape: run-level beats row-level by >10x on sorted data (span
// metadata arithmetic + contiguous horizontal sums replace per-row group
// mapping), and the adaptive plan on shuffled data stays within noise of
// the forced row-level plan (admission never fires without runs).
//
// Two more cells time the per-segment hash path (DESIGN.md §9.2), the
// other segment-local alternative to the specialized strategies:
//   mixed_groups/one_wide_segment  16 segments, one with 300 groups and
//                                  the rest with 8, filtered grouped SUM
//   region/wide_int_group          4 merged segments plus n/32 pending
//                                  rows of a HybridTable, grouped by three
//                                  status codes 300 apart (DESIGN.md §19)
// Only the wide segment, and only the pending rows, should run hashed.
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/scan.h"
#include "obs/metrics.h"
#include "storage/hybrid_table.h"

using namespace bipie;         // NOLINT
using namespace bipie::bench;  // NOLINT

namespace {

// Q1-shaped rows: a small-cardinality group column plus three aggregate
// columns at lineitem-like widths (quantity ~6 bits, price ~17 bits,
// discount ~4 bits). String columns always dictionary-encode, so the group
// column is the integer surrogate of returnflag/linestatus.
struct Rows {
  std::vector<int64_t> g;
  std::vector<int64_t> qty;
  std::vector<int64_t> price;
  std::vector<int64_t> disc;
};

Rows MakeRows(size_t n, uint64_t seed) {
  Rows rows;
  rows.g.resize(n);
  rows.qty.resize(n);
  rows.price.resize(n);
  rows.disc.resize(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    // Sorted order: 6 groups in contiguous blocks (lineitem clustered by
    // returnflag, linestatus).
    rows.g[i] = static_cast<int64_t>(i * 6 / n);
    rows.qty[i] = rng.NextInRange(1, 50);
    rows.price[i] = rng.NextInRange(1000, 100000);
    rows.disc[i] = rng.NextInRange(0, 10);
  }
  return rows;
}

Table MakeTable(const Rows& rows, bool shuffled, uint64_t seed) {
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kAuto},
               {"qty", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"price", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"disc", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  const size_t n = rows.g.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  if (shuffled) {
    Rng rng(seed);
    for (size_t i = n; i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
  }
  TableAppender app(&table);
  for (size_t i = 0; i < n; ++i) {
    const size_t r = order[i];
    app.AppendRow({rows.g[r], rows.qty[r], rows.price[r], rows.disc[r]});
  }
  app.Flush();
  return table;
}

QuerySpec MakeQuery() {
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("qty"),
                      AggregateSpec::Sum("price"), AggregateSpec::Sum("disc")};
  return query;
}

double MeasurePlan(const Table& table, const std::string& label,
                   bool force_row_level, const char** strategy_out) {
  QuerySpec query = MakeQuery();
  ScanOptions options;
  if (force_row_level) {
    options.overrides.aggregation = AggregationStrategy::kMultiAggregate;
  }
  AggregationStrategy used = AggregationStrategy::kScalar;
  const double cycles = MeasureCyclesPerRow(table.num_rows(), label, [&] {
    BIPieScan scan(table, query, options);
    auto result = scan.Execute();
    if (!result.ok()) {
      std::fprintf(stderr, "scan failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    for (int a = 0; a < kNumAggregationStrategies; ++a) {
      if (scan.stats().aggregation_segments[a] > 0) {
        used = static_cast<AggregationStrategy>(a);
      }
    }
    Consume(result.value().rows.data(),
            result.value().rows.size() * sizeof(ResultRow));
  });
  *strategy_out = AggregationStrategyName(used);
  return cycles;
}

// Cycles per row of one query, timed through `run`, plus the segments it
// hashed per execution (the scan.hash_fallbacks counter).
double MeasureHashed(const std::string& label, size_t rows,
                     const std::function<Result<QueryResult>()>& run) {
  const obs::Counter& hashed = obs::Counter::Get("scan.hash_fallbacks");
  const uint64_t before = hashed.value();
  uint64_t executions = 0;
  const double cycles = MeasureCyclesPerRow(rows, label, [&] {
    Result<QueryResult> result = run();
    if (!result.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", label.c_str(),
                   result.status().ToString().c_str());
      std::exit(1);
    }
    ++executions;
    Consume(result.value().rows.data(),
            result.value().rows.size() * sizeof(ResultRow));
  });
  std::printf("%-32s %12.3f %12.2f\n", label.c_str(), cycles,
              static_cast<double>(hashed.value() - before) /
                  static_cast<double>(executions));
  return cycles;
}

void MeasureHashedSegments(size_t n) {
  std::printf("\n%-32s %12s %12s\n", "cell", "cycles/row", "hashed/query");
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("v")};
  query.filters.emplace_back("f", CompareOp::kLt, int64_t{50});
  Table mixed({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"v", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"f", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  const size_t segment_rows = (n + 15) / 16;
  TableAppender app(&mixed, segment_rows);
  Rng rng(11);
  for (size_t i = 0; i < n; ++i) {
    const int64_t card = i / segment_rows == 7 ? 300 : 8;
    app.AppendRow({rng.NextInRange(0, card - 1), rng.NextInRange(0, 999),
                   rng.NextInRange(0, 99)});
  }
  app.Flush();
  MeasureHashed("mixed_groups/one_wide_segment", n,
                [&] { return ExecuteQuery(mixed, query); });

  HybridTable hybrid({{"status", ColumnType::kInt64},
                      {"v", ColumnType::kInt64}},
                     (n + 3) / 4);
  hybrid.set_merge_threshold(SIZE_MAX);
  const int64_t kStatus[3] = {200, 404, 500};
  for (size_t i = 0; i < n + n / 32; ++i) {
    if (i == n) hybrid.Merge();
    hybrid.Insert({kStatus[rng.NextBounded(3)], rng.NextInRange(0, 999)});
  }
  QuerySpec by_status;
  by_status.group_by = {"status"};
  by_status.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("v")};
  MeasureHashed("region/wide_int_group", hybrid.num_rows(),
                [&] { return ExecuteQueryHybrid(hybrid, by_status); });
}

}  // namespace

int main() {
  PrintBenchHeader(
      "Run-level aggregation: sorted (RLE) vs shuffled lineitem",
      "run-level execution over RLE-clustered segments (DESIGN.md §11)");
  BenchJsonReport::Get().SetName("run_agg");

  const size_t n = BenchRows();
  const Rows rows = MakeRows(n, 42);
  const Table sorted = MakeTable(rows, /*shuffled=*/false, 7);
  const Table shuffled = MakeTable(rows, /*shuffled=*/true, 7);

  const char* strategy = nullptr;
  std::printf("%-20s %12s %12s\n", "cell", "cycles/row", "strategy");
  const double sorted_run =
      MeasurePlan(sorted, "sorted/run_level", /*force_row_level=*/false,
                  &strategy);
  std::printf("%-20s %12.3f %12s\n", "sorted/run_level", sorted_run, strategy);
  const double sorted_row =
      MeasurePlan(sorted, "sorted/row_level", /*force_row_level=*/true,
                  &strategy);
  std::printf("%-20s %12.3f %12s\n", "sorted/row_level", sorted_row, strategy);
  const double shuffled_adaptive =
      MeasurePlan(shuffled, "shuffled/adaptive", /*force_row_level=*/false,
                  &strategy);
  std::printf("%-20s %12.3f %12s\n", "shuffled/adaptive", shuffled_adaptive,
              strategy);
  const double shuffled_row =
      MeasurePlan(shuffled, "shuffled/row_level", /*force_row_level=*/true,
                  &strategy);
  std::printf("%-20s %12.3f %12s\n", "shuffled/row_level", shuffled_row,
              strategy);

  const double speedup = sorted_run > 0 ? sorted_row / sorted_run : 0.0;
  const double shuffle_ratio =
      shuffled_row > 0 ? shuffled_adaptive / shuffled_row : 0.0;
  std::printf("\nsorted speedup (row-level / run-level): %.2fx\n", speedup);
  std::printf("shuffled adaptive / row-level: %.3f (1.0 = no regression)\n",
              shuffle_ratio);
  BenchJsonReport::Get().Add("summary", {{"sorted_speedup", speedup},
                                         {"shuffled_ratio", shuffle_ratio}});
  MeasureHashedSegments(n);
  return 0;
}
