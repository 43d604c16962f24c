#include "common.h"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <mutex>

#include "sql/parser.h"
#include "storage/table_io.h"

namespace bipie::e2e {

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},
      {"latency_ms", "ms"},
      {"clocks_per_row", "cycles/row"},
      {"bytes_per_row", "B/row"},
      {"peak_mem_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& PerLayerMetrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"run.latency_p50_ms", "ms"},
        {"run.latency_tail_ms", "ms"},
        {"run.samples", "count"},
        {"storage.build_s", "s"},
        {"storage.save_s", "s"},
        {"storage.load_s", "s"},
        {"storage.file_bytes_per_row", "B/row"},
        {"storage.insert_ns_per_row", "ns"},
        {"storage.merge_ms.p50", "ms"},
        {"storage.merge_ms.max", "ms"},
        {"storage.merges", "count"},
        {"storage.mutable_rows_at_query.mean", "count"},
        {"sql.parse_us", "us"},
        {"expr.filter_cpr", "cycles/row"},
        {"core.aggregate_cpr", "cycles/row"},
        {"core.bind_us_per_segment", "us"},
        {"core.finish_us_per_segment", "us"},
        {"core.other_cpr", "cycles/row"},
        {"core.replay_coverage", "ratio"},
        {"core.segments_scanned", "count"},
        {"core.segments_eliminated", "count"},
        {"core.batches", "count"},
        {"core.rows_scanned", "count"},
        {"core.rows_selected_frac", "ratio"},
        {"core.sel.gather", "count"},
        {"core.sel.compact", "count"},
        {"core.sel.special_group", "count"},
        {"core.sel.unfiltered", "count"},
        {"core.agg.scalar", "count"},
        {"core.agg.in_register", "count"},
        {"core.agg.sort_based", "count"},
        {"core.agg.multi_aggregate", "count"},
        {"core.agg.checked_scalar", "count"},
        {"core.agg.run_based", "count"},
        {"core.runs_aggregated", "count"},
        {"core.hash_fallback", "count"},
        {"exec.queue_wait_us.p50", "us"},
        {"exec.queue_wait_us.p99", "us"},
        {"exec.exec_us.p50", "us"},
        {"exec.exec_us.p99", "us"},
        {"server.overhead_us.p50", "us"},
        {"server.rejected", "count"},
        {"server.unavailable", "count"},
        {"server.errors", "count"},
        {"server.loadgen_lag_ms.p99", "ms"},
        {"server.max_rate_qps", "1/s"},
    };
    for (const std::string step : {"low", "mid", "high", "peak", "over"}) {
      d.push_back({"server.achieved_qps." + step, "1/s"});
      d.push_back({"server.lat_p50_ms." + step, "ms"});
      d.push_back({"server.lat_tail_ms." + step, "ms"});
    }
    d.push_back({"trace.overhead_frac", "ratio"});
    d.push_back({"trace.spans", "count"});
    return d;
  }();
  return defs;
}

uint64_t SavedFileBytes(const Table& table, const std::string& path) {
  if (!SaveTable(table, path).ok()) return 0;
  struct stat st {};
  const uint64_t bytes =
      ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
  std::remove(path.c_str());
  return bytes;
}

SetupResult TimedSetup(const std::function<Table()>& build,
                       const std::string& path, int repeats) {
  std::vector<double> total, build_s, save_s, load_s;
  SetupResult out;
  for (int r = 0; r < repeats; ++r) {
    // Drop the previous copy first so peak memory stays one table + one load.
    out.table = Table(Schema{});
    const Clock::time_point t0 = Clock::now();
    uint64_t bytes = 0;
    {
      Table built = build();
      const Clock::time_point t1 = Clock::now();
      const Status saved = SaveTable(built, path);
      if (!saved.ok()) {
        std::fprintf(stderr, "SaveTable failed: %s\n",
                     saved.ToString().c_str());
        std::exit(1);
      }
      build_s.push_back(std::chrono::duration<double>(t1 - t0).count());
      save_s.push_back(SecondsSince(t1));
    }
    const Clock::time_point t2 = Clock::now();
    LoadOptions options;
    options.verify_checksums = true;
    options.validate = true;
    Result<Table> loaded = LoadTable(path, options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "LoadTable failed: %s\n",
                   loaded.status().ToString().c_str());
      std::exit(1);
    }
    out.table = std::move(loaded.value());
    load_s.push_back(SecondsSince(t2));
    total.push_back(SecondsSince(t0));
    struct stat st {};
    if (::stat(path.c_str(), &st) == 0) bytes = st.st_size;
    std::remove(path.c_str());
    out.file_bytes = bytes;
  }
  out.setup_s = Summarize(total).p50;
  out.build_s = Summarize(build_s).p50;
  out.save_s = Summarize(save_s).p50;
  out.load_s = Summarize(load_s).p50;
  return out;
}

std::string Q1Sql(int64_t shipdate_cutoff) {
  return "SELECT l_returnflag, l_linestatus, sum(l_quantity), "
         "sum(l_extendedprice), sum(l_extendedprice * (100 - l_discount)), "
         "sum(l_extendedprice * (100 - l_discount) * (100 + l_tax)), "
         "avg(l_quantity), avg(l_extendedprice), avg(l_discount), count(*) "
         "FROM lineitem WHERE l_shipdate <= " +
         std::to_string(shipdate_cutoff) +
         " GROUP BY l_returnflag, l_linestatus";
}

std::string Q6Sql(int64_t date_lo, int64_t date_hi, int64_t discount_lo,
                  int64_t discount_hi, int64_t quantity_below) {
  return "SELECT sum(l_extendedprice * l_discount), count(*) FROM lineitem "
         "WHERE l_shipdate BETWEEN " +
         std::to_string(date_lo) + " AND " + std::to_string(date_hi) +
         " AND l_discount BETWEEN " + std::to_string(discount_lo) + " AND " +
         std::to_string(discount_hi) +
         " AND l_quantity < " + std::to_string(quantity_below);
}

std::string WindowSql(int64_t date_lo, int64_t date_hi) {
  return "SELECT l_returnflag, l_linestatus, count(*), sum(l_quantity), "
         "sum(l_extendedprice) FROM lineitem WHERE l_shipdate BETWEEN " +
         std::to_string(date_lo) + " AND " + std::to_string(date_hi) +
         " GROUP BY l_returnflag, l_linestatus";
}

double MedianParseUs(const std::string& sql, const Table& table,
                     int repeats) {
  std::vector<double> us;
  for (int r = 0; r < repeats; ++r) {
    const Clock::time_point t0 = Clock::now();
    const Result<ParsedQuery> parsed = ParseQuery(sql, table);
    us.push_back(MsBetween(t0, Clock::now()) * 1e3);
    if (!parsed.ok()) return -1;
  }
  return Summarize(us).p50;
}

void AddStorageLayerMetrics(const SetupResult& setup, size_t rows,
                            MetricValues* metrics) {
  (*metrics)["storage.build_s"] = setup.build_s;
  (*metrics)["storage.save_s"] = setup.save_s;
  (*metrics)["storage.load_s"] = setup.load_s;
  (*metrics)["storage.file_bytes_per_row"] =
      rows == 0 ? 0.0 : static_cast<double>(setup.file_bytes) / rows;
}

void AddLatencyDistribution(const Summary& latency, MetricValues* metrics) {
  (*metrics)["run.latency_p50_ms"] = latency.p50;
  (*metrics)["run.latency_tail_ms"] = latency.tail;
  (*metrics)["run.samples"] = static_cast<double>(latency.n);
}

std::string DescribeLatency(const Summary& latency) {
  char text[128];
  std::snprintf(text, sizeof(text),
                "p50 %.3f ms, p%g %.3f ms, min %.3f ms, n = %zu", latency.p50,
                latency.tail_percentile, latency.tail, latency.min, latency.n);
  return text;
}

namespace {

std::string GroupText(const std::vector<GroupValue>& group) {
  std::string s = "(";
  for (size_t i = 0; i < group.size(); ++i) {
    if (i > 0) s += ",";
    s += group[i].is_string ? group[i].string_value
                            : std::to_string(group[i].int_value);
  }
  return s + ")";
}

}  // namespace

bool SameResult(const QueryResult& got, const QueryResult& want,
                std::string* why) {
  const auto fail = [&](std::string text) {
    if (why != nullptr) *why = std::move(text);
    return false;
  };
  if (got.group_column_names != want.group_column_names) {
    return fail("group columns differ");
  }
  if (got.rows.size() != want.rows.size()) {
    return fail("row count " + std::to_string(got.rows.size()) + " != " +
                std::to_string(want.rows.size()));
  }
  for (size_t r = 0; r < got.rows.size(); ++r) {
    const ResultRow& a = got.rows[r];
    const ResultRow& b = want.rows[r];
    if (!(a.group == b.group)) {
      return fail("row " + std::to_string(r) + " group " + GroupText(a.group) +
                  " != " + GroupText(b.group));
    }
    if (a.count != b.count || a.sums != b.sums) {
      return fail("aggregates differ in group " + GroupText(a.group));
    }
  }
  return true;
}

// --- spans ------------------------------------------------------------------

namespace {
void WriteEscaped(std::FILE* f, const std::string& s) {
  std::fputc('"', f);
  for (const char c : s) {
    if (c == '"' || c == '\\') std::fputc('\\', f);
    if (static_cast<unsigned char>(c) >= 0x20) std::fputc(c, f);
  }
  std::fputc('"', f);
}
}  // namespace

int64_t SpanRecorder::ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

uint64_t SpanRecorder::Begin(const std::string& name, uint64_t parent,
                             uint64_t query_id) {
  const int64_t now = ToNs(Clock::now());
  return Add(name, parent, query_id, now, now);
}

void SpanRecorder::End(uint64_t id) {
  const int64_t now = ToNs(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

uint64_t SpanRecorder::Add(const std::string& name, uint64_t parent,
                           uint64_t query_id, int64_t start_ns,
                           int64_t end_ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.query_id = query_id;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanRecorder::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

void SpanRecorder::Attach(uint64_t id, const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].args.emplace_back(key, value);
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"name\": ");
    WriteEscaped(f, s.name);
    std::fprintf(f,
                 ", \"id\": %llu, \"parent\": %llu, \"query\": %llu, "
                 "\"start_ns\": %lld, \"end_ns\": %lld, \"args\": {",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query_id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
    for (size_t a = 0; a < s.args.size(); ++a) {
      if (a > 0) std::fprintf(f, ", ");
      WriteEscaped(f, s.args[a].first);
      std::fprintf(f, ": %.17g", s.args[a].second);
    }
    std::fprintf(f, "}}%s\n", i + 1 == spans_.size() ? "" : ",");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

SpanRecorder& Spans() {
  static SpanRecorder recorder;
  return recorder;
}

}  // namespace bipie::e2e
