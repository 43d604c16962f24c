// q1_scan and q6_scan: one closed-loop client running TPC-H Q1 or Q6
// in-process (num_threads = 1) on a lineitem table larger than the LLC.
// These are the paper's own unit (Table 5, clocks/row). Q1 keeps ~98% of
// rows and spends its time in core aggregation; Q6 keeps ~1.8% and spends
// it in expr filtering — the two mirror each other.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "baseline/hash_agg.h"
#include "common/cycle_timer.h"
#include "common/memory_tracker.h"
#include "core/scan.h"
#include "replay.h"
#include "tpch/lineitem.h"
#include "tpch/q1.h"
#include "tpch/q6.h"
#include "workloads.h"

namespace bipie::e2e {
namespace {

// Set-ups per run; each takes ~5 s.
constexpr int kSetupRepeats = 3;

// 2^24 rows saves to ~164 MB (about 9.8 bytes/row), 1.6x the 105 MB LLC of
// the reference machine, so every query streams from DRAM. (2^25 rows would
// double the set-up cost, which every run pays kSetupRepeats times.)
constexpr size_t kScanRows = size_t{1} << 24;
constexpr size_t kSmokeRows = size_t{1} << 16;
constexpr size_t kSmokeSegmentRows = size_t{1} << 14;

// Frozen per-query costs on the reference machine; they turn --seconds into
// a fixed query count, so a faster commit runs the same queries, sooner.
constexpr double kNominalQ1Seconds = 0.09;
constexpr double kNominalQ6Seconds = 0.025;

}  // namespace

WorkloadResult RunScanWorkload(const RunConfig& config, ScanQuery which) {
  WorkloadResult out;
  const bool q1 = which == ScanQuery::kQ1;
  LineitemOptions gen;
  gen.num_rows = config.smoke ? kSmokeRows : kScanRows;
  gen.seed = config.seed;
  if (config.smoke) gen.segment_rows = kSmokeSegmentRows;
  const SetupResult setup =
      TimedSetup([&] { return MakeLineitemTable(gen); },
                 config.work_dir + "/scan_lineitem.bipie",
                 config.smoke ? 1 : kSetupRepeats);
  const Table& table = setup.table;
  const size_t rows = table.num_rows();
  const QuerySpec spec = q1 ? MakeQ1Query(table) : MakeQ6Query(table);

  // The oracle: the generic row-at-a-time hash aggregation, untimed.
  Result<QueryResult> oracle = ExecuteQueryHashAgg(table, spec);
  if (!oracle.ok()) {
    ++out.attempted;
    ++out.failed;
    out.notes.push_back("oracle failed: " + oracle.status().ToString());
    return out;
  }

  const double nominal = q1 ? kNominalQ1Seconds : kNominalQ6Seconds;
  const size_t queries =
      config.smoke ? 3
                   : std::max<size_t>(
                         20, static_cast<size_t>(
                                 std::lround(config.seconds / nominal)));

  if (config.traced()) {
    // Execute and its replay alternate, so half the count keeps the traced
    // run about as long as the timed one.
    std::vector<double> execute_ms;
    ProfileLayers(table, {spec}, {oracle.value()}, /*morsel_rows=*/0,
                  static_cast<int>(std::max<size_t>(1, queries / 2)), &out,
                  &execute_ms);
    AddLatencyDistribution(Summarize(execute_ms), &out.metrics);
    AddStorageLayerMetrics(setup, rows, &out.metrics);
    const std::string sql =
        q1 ? Q1Sql(kQ1CutoffDate) : Q6Sql(kQ6DateLo, kQ6DateHi - 1, 5, 7, 2400);
    out.metrics["sql.parse_us"] = MedianParseUs(sql, table, 101);
    return out;
  }

  const auto run_one = [&](std::vector<double>* latency_ms,
                           std::vector<double>* cycles_per_row) {
    ScanOptions options;
    options.num_threads = 1;
    BIPieScan scan(table, spec, options);
    const Clock::time_point t0 = Clock::now();
    const uint64_t c0 = ReadCycleCounter();
    const Result<QueryResult> result = scan.Execute();
    const uint64_t c1 = ReadCycleCounter();
    const Clock::time_point t1 = Clock::now();
    ++out.attempted;
    std::string why;
    if (!result.ok()) {
      why = result.status().ToString();
    } else if (SameResult(result.value(), oracle.value(), &why)) {
      if (latency_ms != nullptr) {
        latency_ms->push_back(MsBetween(t0, t1));
        cycles_per_row->push_back(static_cast<double>(c1 - c0) / rows);
      }
      return;
    }
    ++out.failed;
    out.notes.push_back("query mismatch: " + why);
  };

  run_one(nullptr, nullptr);  // warm-up: faults in pages, sizes scratch
  MemoryTracker::Process().ResetPeak();
  std::vector<double> latency_ms, cycles_per_row;
  for (size_t q = 0; q < queries; ++q) run_one(&latency_ms, &cycles_per_row);

  // Every query does the same work: one kind, its fastest run.
  MetricValues& m = out.metrics;
  m["setup_s"] = setup.setup_s;
  m["latency_ms"] = MeanOfMinima({latency_ms});
  m["clocks_per_row"] = MeanOfMinima({cycles_per_row});
  m["bytes_per_row"] = static_cast<double>(setup.file_bytes) / rows;
  m["peak_mem_mb"] = MemoryTracker::Process().peak() / 1e6;
  char note[160];
  std::snprintf(note, sizeof(note), "%zu rows in %zu segments; %zu queries",
                rows, table.num_segments(), queries);
  out.notes.push_back(note);
  out.notes.push_back("query latency: " +
                      DescribeLatency(Summarize(latency_ms)));
  return out;
}

}  // namespace bipie::e2e
