// ingest_window: writes beside reads, on one thread.
//
// Time-ordered lineitem rows stream into a HybridTable on top of a loaded
// history. The benchmark merges the mutable region into an encoded segment
// whenever it reaches kSegmentRows, and every kQueryEveryRows inserted rows
// runs a grouped query over the most recent 30 days through
// ExecuteQueryHybrid. This takes the paths no other workload takes: column
// encoding and merge, the row-at-a-time mutable-region evaluator, and
// segment elimination over many small fresh segments.
//
// kQueryEveryRows shares no large factor with kSegmentRows, so the mutable
// region a query sees sweeps evenly over [0, kSegmentRows) instead of
// alternating between a few sizes, so every region-size bucket of the
// latency estimate fills.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>

#include "baseline/hash_agg.h"
#include "common/cycle_timer.h"
#include "common/memory_tracker.h"
#include "common/random.h"
#include "replay.h"
#include "sql/parser.h"
#include "storage/hybrid_table.h"
#include "tpch/lineitem.h"
#include "workloads.h"

namespace bipie::e2e {
namespace {

// Set-ups per run; each takes ~0.3 s, so nine keep the median steady.
constexpr int kSetupRepeats = 9;

constexpr size_t kSegmentRows = size_t{1} << 17;
constexpr size_t kHistoryRows = size_t{1} << 20;
constexpr size_t kQueryEveryRows = 40000;
constexpr size_t kRowsPerDay = 4096;
constexpr int64_t kWindowDays = 30;
constexpr size_t kRegionBuckets = 8;
// Frozen insert rate of the reference machine; turns --seconds into a fixed
// row count.
constexpr double kNominalRowsPerSecond = 1.0e6;

constexpr size_t kSmokeSegmentRows = size_t{1} << 12;
constexpr size_t kSmokeHistoryRows = size_t{1} << 14;
constexpr size_t kSmokeRows = 50000;
constexpr size_t kSmokeQueryEveryRows = 3000;
constexpr size_t kSmokeRowsPerDay = 256;

constexpr int kGroups = 6;  // returnflag {A, N, R} x linestatus {F, O}
const char* const kFlags[] = {"A", "N", "R"};
const char* const kStatuses[] = {"F", "O"};

struct Sizes {
  size_t segment_rows, history_rows, rows, query_every, rows_per_day;
};

// Row `i` of a time-ordered lineitem stream: the ship date advances one day
// every rows_per_day rows; the other columns are drawn as MakeLineitemTable
// draws them, with the same date-correlated flags.
class LineitemStream {
 public:
  LineitemStream(uint64_t seed, size_t rows_per_day)
      : rng_(seed), rows_per_day_(rows_per_day) {}

  // Fills one row and returns its oracle group (flag * 2 + status).
  int Next(size_t i, std::vector<int64_t>* ints,
           std::vector<std::string>* strings) {
    const int64_t qty_units = rng_.NextInRange(1, 50);
    const int64_t shipdate = static_cast<int64_t>(i / rows_per_day_);
    (*ints)[kColQuantity] = qty_units * 100;
    (*ints)[kColExtendedPrice] = qty_units * rng_.NextInRange(90000, 209999);
    (*ints)[kColDiscount] = rng_.NextInRange(0, 10);
    (*ints)[kColTax] = rng_.NextInRange(0, 8);
    (*ints)[kColShipDate] = shipdate;
    (*ints)[kColOrderKey] = static_cast<int64_t>(i / 4) + 1;
    const bool old_line = shipdate <= kStatusSwitchDate;
    const int flag = old_line ? (rng_.NextBernoulli(0.5) ? 0 : 2) : 1;
    const bool status_f = shipdate <= kStatusSwitchDate + 60 &&
                          (old_line || rng_.NextBernoulli(0.5));
    const int status = status_f ? 0 : 1;
    (*strings)[kColReturnFlag] = kFlags[flag];
    (*strings)[kColLineStatus] = kStatuses[status];
    return flag * 2 + status;
  }

 private:
  Rng rng_;
  size_t rows_per_day_;
};

Schema LineitemSchema() {
  return {
      {"l_quantity", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"l_extendedprice", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"l_discount", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"l_tax", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"l_returnflag", ColumnType::kString},
      {"l_linestatus", ColumnType::kString},
      {"l_shipdate", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"l_orderkey", ColumnType::kInt64, EncodingChoice::kBitPacked},
  };
}

// The oracle: the benchmark's own per-day, per-group totals of every row it
// generated, independent of the engine.
struct DayTotals {
  std::array<uint64_t, kGroups> count{};
  std::array<int64_t, kGroups> quantity{};
  std::array<int64_t, kGroups> price{};
};

class WindowOracle {
 public:
  void Add(int64_t day, int group, int64_t quantity, int64_t price) {
    if (static_cast<size_t>(day) >= days_.size()) days_.resize(day + 1);
    DayTotals& d = days_[day];
    ++d.count[group];
    d.quantity[group] += quantity;
    d.price[group] += price;
  }

  // Expected WindowSql(lo, hi) answer.
  QueryResult Answer(int64_t lo, int64_t hi) const {
    DayTotals sum;
    for (int64_t day = std::max<int64_t>(lo, 0);
         day <= hi && static_cast<size_t>(day) < days_.size(); ++day) {
      for (int g = 0; g < kGroups; ++g) {
        sum.count[g] += days_[day].count[g];
        sum.quantity[g] += days_[day].quantity[g];
        sum.price[g] += days_[day].price[g];
      }
    }
    QueryResult result;
    result.group_column_names = {"l_returnflag", "l_linestatus"};
    for (int g = 0; g < kGroups; ++g) {  // g order == sorted group order
      if (sum.count[g] == 0) continue;
      ResultRow row;
      GroupValue flag, status;
      flag.is_string = status.is_string = true;
      flag.string_value = kFlags[g / 2];
      status.string_value = kStatuses[g % 2];
      row.group = {flag, status};
      row.count = sum.count[g];
      row.sums = {static_cast<int64_t>(sum.count[g]), sum.quantity[g],
                  sum.price[g]};
      result.rows.push_back(std::move(row));
    }
    return result;
  }

 private:
  std::vector<DayTotals> days_;
};

}  // namespace

WorkloadResult RunIngestWindow(const RunConfig& config) {
  WorkloadResult out;
  const Sizes z =
      config.smoke
          ? Sizes{kSmokeSegmentRows, kSmokeHistoryRows, kSmokeRows,
                  kSmokeQueryEveryRows, kSmokeRowsPerDay}
          : Sizes{kSegmentRows, kHistoryRows,
                  static_cast<size_t>(std::llround(config.seconds *
                                                   kNominalRowsPerSecond)),
                  kQueryEveryRows, kRowsPerDay};

  std::vector<int64_t> ints(8, 0);
  std::vector<std::string> strings(8);
  WindowOracle oracle;
  bool oracle_filled = false;
  SetupResult setup = TimedSetup(
      [&] {
        Table table(LineitemSchema());
        TableAppender appender(&table, z.segment_rows);
        LineitemStream stream(config.seed, z.rows_per_day);
        for (size_t i = 0; i < z.history_rows; ++i) {
          const int g = stream.Next(i, &ints, &strings);
          appender.AppendRow(ints, strings);
          if (!oracle_filled) {
            oracle.Add(ints[kColShipDate], g, ints[kColQuantity],
                       ints[kColExtendedPrice]);
          }
        }
        appender.Flush();
        oracle_filled = true;
        return table;
      },
      config.work_dir + "/ingest_history.bipie",
      config.smoke ? 1 : kSetupRepeats);

  HybridTable hybrid(LineitemSchema(), z.segment_rows);
  // The benchmark merges explicitly, at exactly segment_rows pending rows.
  hybrid.set_merge_threshold(SIZE_MAX);
  hybrid.mutable_immutable() = std::move(setup.table);

  // The stream continues the history's dates with draws of its own.
  LineitemStream stream(config.seed ^ 0x1e57ULL, z.rows_per_day);
  std::vector<std::vector<int64_t>> chunk_ints(z.query_every, ints);
  std::vector<std::vector<std::string>> chunk_strings(z.query_every, strings);

  MemoryTracker::Process().ResetPeak();
  uint64_t insert_cycles = 0;
  // Per chunk of inserts between two queries: insert cycles per row, merges
  // excluded. Per merge: its cycles. Per query: latency and the size of the
  // mutable region it saw.
  std::vector<double> chunk_cpr, merge_cycles, query_ms, mutable_at_query;
  std::string window_sql;
  size_t inserted = 0;
  while (inserted < z.rows) {
    const size_t n = std::min(z.query_every, z.rows - inserted);
    for (size_t k = 0; k < n; ++k) {  // generation is untimed
      const size_t row = z.history_rows + inserted + k;
      const int g = stream.Next(row, &chunk_ints[k], &chunk_strings[k]);
      oracle.Add(chunk_ints[k][kColShipDate], g, chunk_ints[k][kColQuantity],
                 chunk_ints[k][kColExtendedPrice]);
    }
    uint64_t chunk_cycles = 0;
    uint64_t c = ReadCycleCounter();
    for (size_t k = 0; k < n; ++k) {
      hybrid.Insert(chunk_ints[k], chunk_strings[k]);
      if (hybrid.mutable_rows() == z.segment_rows) {
        const uint64_t m0 = ReadCycleCounter();
        chunk_cycles += m0 - c;
        hybrid.Merge();
        c = ReadCycleCounter();
        merge_cycles.push_back(static_cast<double>(c - m0));
      }
    }
    chunk_cycles += ReadCycleCounter() - c;
    insert_cycles += chunk_cycles;
    chunk_cpr.push_back(static_cast<double>(chunk_cycles) / n);
    inserted += n;

    // The recent-window query, SQL text in, result out.
    const int64_t today =
        static_cast<int64_t>((z.history_rows + inserted - 1) / z.rows_per_day);
    window_sql = WindowSql(today - kWindowDays + 1, today);
    mutable_at_query.push_back(static_cast<double>(hybrid.mutable_rows()));
    const Clock::time_point q0 = Clock::now();
    Result<QueryResult> result = [&]() -> Result<QueryResult> {
      Result<ParsedQuery> parsed = ParseQuery(window_sql, hybrid.immutable());
      if (!parsed.ok()) return parsed.status();
      return ExecuteQueryHybrid(hybrid, parsed.value().spec);
    }();
    query_ms.push_back(MsBetween(q0, Clock::now()));
    ++out.attempted;
    std::string why = result.ok() ? "" : result.status().ToString();
    if (!result.ok() ||
        !SameResult(result.value(),
                    oracle.Answer(today - kWindowDays + 1, today), &why)) {
      ++out.failed;
      if (out.notes.size() < 5) out.notes.push_back("window query: " + why);
    }
  }
  const double peak_mb = MemoryTracker::Process().peak() / 1e6;
  const Table& final_table = hybrid.immutable();

  const Summary latency = Summarize(query_ms);
  char note[200];
  std::snprintf(note, sizeof(note),
                "%zu rows inserted over %zu history rows; %zu segments; %zu "
                "merges; %zu window queries",
                z.rows, z.history_rows, final_table.num_segments(),
                merge_cycles.size(), latency.n);
  out.notes.push_back(note);
  out.notes.push_back("window query latency: " + DescribeLatency(latency));

  MetricValues& m = out.metrics;
  if (!config.traced()) {
    // A query's cost grows with the mutable region it scans row by row, so
    // queries are grouped into kRegionBuckets by that size; the region
    // sweeps evenly over [0, segment_rows), filling every bucket.
    std::vector<std::vector<double>> query_by_region(kRegionBuckets);
    for (size_t q = 0; q < query_ms.size(); ++q) {
      const size_t bucket = static_cast<size_t>(mutable_at_query[q]) *
                            kRegionBuckets / z.segment_rows;
      query_by_region[std::min(bucket, kRegionBuckets - 1)].push_back(
          query_ms[q]);
    }
    m["setup_s"] = setup.setup_s;
    m["latency_ms"] = MeanOfMinima(query_by_region);
    // Ingest cost per row: inserting it, plus its share of the merge that
    // encodes its segment.
    m["clocks_per_row"] = MeanOfMinima({chunk_cpr}) +
                          MeanOfMinima({merge_cycles}) / z.segment_rows;
    m["bytes_per_row"] =
        static_cast<double>(SavedFileBytes(
            final_table, config.work_dir + "/ingest_final.bipie")) /
        final_table.num_rows();
    m["peak_mem_mb"] = peak_mb;
    return out;
  }

  std::vector<double> merge_ms;
  for (const double cycles : merge_cycles) {
    merge_ms.push_back(cycles * 1e3 / TscHz());
  }
  AddLatencyDistribution(latency, &m);
  AddStorageLayerMetrics(setup, z.history_rows, &m);
  m["storage.insert_ns_per_row"] = insert_cycles * 1e9 / TscHz() / z.rows;
  m["storage.merge_ms.p50"] = Summarize(merge_ms).p50;
  m["storage.merge_ms.max"] = Summarize(merge_ms).max;
  m["storage.merges"] = merge_ms.size();
  m["storage.mutable_rows_at_query.mean"] = Summarize(mutable_at_query).mean;
  m["sql.parse_us"] = MedianParseUs(window_sql, final_table, 101);
  // The immutable side of the last window query, split by layer.
  Result<ParsedQuery> parsed = ParseQuery(window_sql, final_table);
  if (!parsed.ok()) {
    ++out.attempted;
    ++out.failed;
    out.notes.push_back("window query does not parse");
    return out;
  }
  Result<QueryResult> immutable_oracle =
      ExecuteQueryHashAgg(final_table, parsed.value().spec);
  if (!immutable_oracle.ok()) {
    ++out.attempted;
    ++out.failed;
    out.notes.push_back("oracle failed: " +
                        immutable_oracle.status().ToString());
    return out;
  }
  ProfileLayers(final_table, {parsed.value().spec},
                {immutable_oracle.value()}, 0, 20, &out);
  return out;
}

}  // namespace bipie::e2e
