// Real-time streaming analytics over a hybrid table (§2.1's full
// architecture): inserts land in a mutable region (plain int values and
// string dictionary ids), a merge compresses them into encoded immutable
// segments, and every query is one BIPie scan over both regions. The
// pending rows join that scan as one more segment, built for the query, so
// fresh rows are visible with no wait for compression.
#include <cinttypes>
#include <cstdio>

#include "common/cycle_timer.h"
#include "common/random.h"
#include "storage/hybrid_table.h"
#include "vector/toolbox.h"

using namespace bipie;  // NOLINT

namespace {

void RunQuery(const HybridTable& table, const char* when) {
  QuerySpec query;
  query.group_by = {"sensor"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Avg("value"),
                      AggregateSpec::Max("value")};
  query.filters.emplace_back("value", CompareOp::kGt, int64_t{100});
  const uint64_t start = ReadCycleCounter();
  auto result = ExecuteQueryHybrid(table, query);
  const uint64_t cycles = ReadCycleCounter() - start;
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    std::exit(1);
  }
  std::printf("%s (mutable=%zu rows, immutable=%zu rows, %.1f cycles/row):\n",
              when, table.mutable_rows(), table.immutable().num_rows(),
              static_cast<double>(cycles) /
                  static_cast<double>(table.num_rows() + 1));
  for (size_t r = 0; r < result.value().rows.size(); ++r) {
    const ResultRow& row = result.value().rows[r];
    std::printf("  %-8s readings>100: %-8" PRIu64 " avg=%-8.1f max=%" PRId64
                "\n",
                row.group[0].string_value.c_str(), row.count,
                result.value().Avg(r, 1), row.sums[2]);
  }
}

}  // namespace

int main() {
  std::printf("bipie streaming ingest demo (%s)\n\n",
              ToolboxIsaDescription());
  HybridTable table({{"sensor", ColumnType::kString},
                     {"ts", ColumnType::kInt64},
                     {"value", ColumnType::kInt64}},
                    /*segment_rows=*/1 << 17);
  table.set_merge_threshold(1 << 20);  // manual merges for the demo

  const char* sensors[4] = {"temp", "rpm", "amps", "psi"};
  Rng rng(8128);
  int64_t ts = 0;

  // Phase 1: a burst of streamed readings; query them before any merge.
  for (int i = 0; i < 50000; ++i) {
    table.Insert({0, ++ts, rng.NextInRange(0, 500)},
                 {sensors[rng.NextBounded(4)], "", ""});
  }
  RunQuery(table, "after first burst, pre-merge");

  // Phase 2: the background task compresses the region into segments.
  table.Merge();
  std::printf("\n[merge] mutable region compressed into %zu encoded "
              "segment(s)\n\n",
              table.immutable().num_segments());
  RunQuery(table, "post-merge");

  // Phase 3: streaming continues; queries straddle both regions.
  for (int i = 0; i < 20000; ++i) {
    table.Insert({0, ++ts, rng.NextInRange(0, 500)},
                 {sensors[rng.NextBounded(4)], "", ""});
  }
  std::printf("\n");
  RunQuery(table, "straddling immutable + fresh rows");
  return 0;
}
