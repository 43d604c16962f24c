// Shared pieces of the end-to-end benchmark: the metric catalogue, the
// timed table set-up every workload starts with, result comparison against
// the oracles, and the in-memory span recorder of the traced run.
#ifndef BIPIE_BENCH_E2E_COMMON_H_
#define BIPIE_BENCH_E2E_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/query.h"
#include "stats.h"
#include "storage/table.h"

namespace bipie::e2e {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// --- metrics ----------------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

// Every workload reports every metric of the list that matches its mode:
// end-to-end metrics from the untraced run, per-layer metrics from the
// traced run (0 where the workload never enters that layer). The names and
// units must match BENCHMARK.json; run.py checks that they do.
const std::vector<MetricDef>& EndToEndMetrics();
const std::vector<MetricDef>& PerLayerMetrics();

// Metric values by name; unit comes from the catalogue.
using MetricValues = std::map<std::string, double>;

struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;      // errors, oracle mismatches, refusals
  MetricValues metrics;
  std::vector<std::string> notes;  // human-readable context lines
};

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;          // tiny sizes, for the ctest smoke run
  std::string trace_path;      // non-empty: traced run, spans written here
  std::string work_dir;        // scratch files (saved tables)
  bool traced() const { return !trace_path.empty(); }
};

// --- set-up -----------------------------------------------------------------

// The set-up every workload pays before it measures anything: build the
// table in memory (generate + encode), SaveTable it, LoadTable it back with
// checksum verification and deep validation. Queries run on the loaded copy.
// Repeated `repeats` times; times are medians, the last loaded table is kept.
struct SetupResult {
  Table table{Schema{}};
  double setup_s = 0;   // median of build + save + load
  double build_s = 0;   // median of each part
  double save_s = 0;
  double load_s = 0;
  uint64_t file_bytes = 0;
};

SetupResult TimedSetup(const std::function<Table()>& build,
                       const std::string& path, int repeats);

// Bytes of the file SaveTable writes for `table` (saved to `path`).
uint64_t SavedFileBytes(const Table& table, const std::string& path);

// --- query text --------------------------------------------------------------

// SQL text of the query shapes the workloads send (lineitem decimals are
// fixed-point: quantity and extendedprice in hundredths, discount and tax
// in hundredths, dates as day numbers from 1992-01-01).
std::string Q1Sql(int64_t shipdate_cutoff);
std::string Q6Sql(int64_t date_lo, int64_t date_hi, int64_t discount_lo,
                  int64_t discount_hi, int64_t quantity_below);
std::string WindowSql(int64_t date_lo, int64_t date_hi);

// Median ParseQuery time of `sql` over `repeats` parses, in microseconds;
// negative when the statement does not parse.
double MedianParseUs(const std::string& sql, const Table& table, int repeats);

// storage.build_s / save_s / load_s / file_bytes_per_row from a set-up.
void AddStorageLayerMetrics(const SetupResult& setup, size_t rows,
                            MetricValues* metrics);

// run.latency_p50_ms / latency_tail_ms / samples: the distribution of the
// samples the workload's latency_ms is taken from, which the steady
// end-to-end estimate leaves out.
void AddLatencyDistribution(const Summary& latency, MetricValues* metrics);

// "p50 X ms, pNN Y ms, min Z ms, n = N" for the notes of a run.
std::string DescribeLatency(const Summary& latency);

// --- oracle comparison -----------------------------------------------------

// Exact equality of two results: group columns, groups, counts and every
// aggregate slot. On mismatch `why` (nullable) says where.
bool SameResult(const QueryResult& got, const QueryResult& want,
                std::string* why);

// --- tracing ---------------------------------------------------------------

// Spans recorded from the benchmark's own code around calls into each layer.
// Kept in memory and written once, as JSON, when the run ends.
class SpanRecorder {
 public:
  // Opens a span; `parent` 0 = root. Returns the span id (> 0).
  uint64_t Begin(const std::string& name, uint64_t parent, uint64_t query_id);
  void End(uint64_t id);
  // Records a closed span with explicit endpoints (ns on the steady clock).
  uint64_t Add(const std::string& name, uint64_t parent, uint64_t query_id,
               int64_t start_ns, int64_t end_ns);
  void Attach(uint64_t id, const std::string& key, double value);
  uint64_t NewQueryId() { return ++last_query_id_; }
  size_t size() const;
  void Clear();

  // Writes {"spans": [...]} to `path`; false on an IO error.
  bool WriteJson(const std::string& path) const;

  // Nanoseconds of `t` on the steady clock, the time base of every span.
  static int64_t ToNs(Clock::time_point t);

 private:
  struct Span {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t query_id = 0;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    std::vector<std::pair<std::string, double>> args;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; span id = index + 1
  std::atomic<uint64_t> last_query_id_{0};
};

// One recorder per process; thread-safe (server clients record from
// several threads).
SpanRecorder& Spans();

}  // namespace bipie::e2e

#endif  // BIPIE_BENCH_E2E_COMMON_H_
