// bipie_trace: run one query under the observability stack and dump
// everything it produces — the plan explain (text + JSON), the counter
// delta, and a Chrome trace_event JSON file loadable in chrome://tracing
// or Perfetto (DESIGN.md §12).
//
// Usage:
//   bipie_trace [options]
//     --table PATH        load a saved bipie table (default: synthetic demo)
//     --group-by COL      group-by column (repeatable, max 2)
//     --count             add a count(*) aggregate
//     --sum COL           add a sum(COL) aggregate (repeatable)
//     --filter COL,OP,V   add a filter; OP one of lt le gt ge eq ne
//     --threads 0|1       scan parallelism: 0 = shared pool (default),
//                         1 = inline on the calling thread
//     --out PATH          Chrome trace output (default: bipie_trace.json)
//     --explain-json PATH also write the explain JSON to PATH
//
// Without query flags the tool runs the demo query on the demo table:
//   SELECT city, count(*), sum(amount) FROM orders
//   WHERE amount < 7500 GROUP BY city
//
// Trace spans only record when the library was built with
// -DBIPIE_ENABLE_TRACING=ON; a default build still emits the explain and
// counter sections and writes an empty (but valid) trace file.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/cycle_timer.h"
#include "common/random.h"
#include "core/scan.h"
#include "obs/metrics.h"
#include "obs/plan_explain.h"
#include "obs/trace.h"
#include "storage/table.h"
#include "storage/table_io.h"

using namespace bipie;  // NOLINT

namespace {

Table BuildDemoTable() {
  Table orders({{"city", ColumnType::kString},
                {"amount", ColumnType::kInt64},
                {"items", ColumnType::kInt64}});
  TableAppender appender(&orders, /*segment_rows=*/100000);
  const char* cities[5] = {"Houston", "Seattle", "Boston", "Denver",
                           "Chicago"};
  Rng rng(2018);
  for (int i = 0; i < 400000; ++i) {
    appender.AppendRow(
        {0, rng.NextInRange(100, 9999), rng.NextInRange(1, 40)},
        {cities[rng.NextBounded(5)], "", ""});
  }
  appender.Flush();
  return orders;
}

bool ParseOp(const std::string& s, CompareOp* op) {
  if (s == "lt") *op = CompareOp::kLt;
  else if (s == "le") *op = CompareOp::kLe;
  else if (s == "gt") *op = CompareOp::kGt;
  else if (s == "ge") *op = CompareOp::kGe;
  else if (s == "eq") *op = CompareOp::kEq;
  else if (s == "ne") *op = CompareOp::kNe;
  else return false;
  return true;
}

// "COL,OP,VALUE" — VALUE is an int64 when it parses fully, else a string
// literal (dictionary columns).
bool ParseFilter(const std::string& spec, QuerySpec* query) {
  const size_t c1 = spec.find(',');
  if (c1 == std::string::npos) return false;
  const size_t c2 = spec.find(',', c1 + 1);
  if (c2 == std::string::npos) return false;
  const std::string col = spec.substr(0, c1);
  const std::string op_text = spec.substr(c1 + 1, c2 - c1 - 1);
  const std::string value = spec.substr(c2 + 1);
  CompareOp op;
  if (col.empty() || value.empty() || !ParseOp(op_text, &op)) return false;
  char* end = nullptr;
  const long long as_int = std::strtoll(value.c_str(), &end, 10);
  if (end != nullptr && *end == '\0' && end != value.c_str()) {
    query->filters.emplace_back(col, op, static_cast<int64_t>(as_int));
  } else {
    query->filters.emplace_back(col, op, value);
  }
  return true;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << content;
  return static_cast<bool>(out);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--table PATH] [--group-by COL] [--count] "
               "[--sum COL] [--filter COL,OP,V] [--threads 0|1] [--out PATH] "
               "[--explain-json PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string table_path;
  std::string out_path = "bipie_trace.json";
  std::string explain_json_path;
  QuerySpec query;
  bool want_count = false;
  size_t num_threads = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string value;
    if (arg == "--table" && next(&value)) {
      table_path = value;
    } else if (arg == "--group-by" && next(&value)) {
      query.group_by.push_back(value);
    } else if (arg == "--count") {
      want_count = true;
    } else if (arg == "--sum" && next(&value)) {
      query.aggregates.push_back(AggregateSpec::Sum(value));
    } else if (arg == "--filter" && next(&value)) {
      if (!ParseFilter(value, &query)) {
        std::fprintf(stderr, "bad --filter spec '%s' (want COL,OP,VALUE)\n",
                     value.c_str());
        return 2;
      }
    } else if (arg == "--threads" && next(&value)) {
      if (value != "0" && value != "1") {
        std::fprintf(stderr,
                     "bad --threads '%s' (want 0 = shared pool, 1 = inline)\n",
                     value.c_str());
        return 2;
      }
      num_threads = value == "1" ? 1 : 0;
    } else if (arg == "--out" && next(&value)) {
      out_path = value;
    } else if (arg == "--explain-json" && next(&value)) {
      explain_json_path = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (want_count) {
    query.aggregates.insert(query.aggregates.begin(), AggregateSpec::Count());
  }

  // The table: loaded, or the synthetic demo.
  Table table({{"placeholder", ColumnType::kInt64}});
  if (!table_path.empty()) {
    auto loaded = LoadTable(table_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "cannot load %s: %s\n", table_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    table = std::move(loaded.value());
  } else {
    table = BuildDemoTable();
  }

  // The query: as given, or the demo query.
  if (query.group_by.empty() && query.aggregates.empty()) {
    if (!table_path.empty()) {
      std::fprintf(stderr,
                   "a loaded table needs query flags (--group-by/--sum/...)"
                   "\n");
      return 2;
    }
    query.group_by = {"city"};
    query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("amount")};
    query.filters.emplace_back("amount", CompareOp::kLt, int64_t{7500});
  }
  if (query.aggregates.empty()) {
    query.aggregates.push_back(AggregateSpec::Count());
  }

  ScanOptions options;
  options.num_threads = num_threads;
  BIPieScan scan(table, query, options);

  // 1. Plan explain, before any execution.
  auto explain = scan.Explain();
  if (!explain.ok()) {
    std::fprintf(stderr, "explain failed: %s\n",
                 explain.status().ToString().c_str());
    return 1;
  }
  std::fputs(explain.value().ToText().c_str(), stdout);
  if (!explain_json_path.empty()) {
    if (!WriteFile(explain_json_path, explain.value().ToJson() + "\n")) {
      std::fprintf(stderr, "cannot write %s\n", explain_json_path.c_str());
      return 1;
    }
    std::printf("\nexplain json: %s\n", explain_json_path.c_str());
  }

  if (!obs::TracingCompiledIn()) {
    std::fprintf(stderr,
                 "\nnote: trace spans are compiled out in this build; "
                 "rebuild with -DBIPIE_ENABLE_TRACING=ON for a real trace\n");
  }

  // 2. Execute under tracing, bracketed by a counter snapshot.
  const obs::MetricsSnapshot before = obs::SnapshotMetrics();
  obs::StartTracing();
  auto result = scan.Execute();
  obs::StopTracing();
  if (!result.ok()) {
    std::fprintf(stderr, "scan failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("\nresult: %zu groups\n", result.value().rows.size());
  const ScanStats& stats = scan.stats();
  std::printf("stats: %zu segments scanned, %zu eliminated, %zu batches, "
              "%zu rows scanned, %zu selected\n",
              stats.segments_scanned, stats.segments_eliminated, stats.batches,
              stats.rows_scanned, stats.rows_selected);

  // 3. Counter delta for this query alone.
  const obs::MetricsSnapshot delta = obs::MetricsDelta(before);
  std::printf("\ncounters (delta over this query):\n%s",
              obs::MetricsToText(delta).c_str());

  // 4. Chrome trace export.
  const std::vector<obs::TraceEvent> events = obs::CollectTraceEvents();
  if (!WriteFile(out_path, obs::TraceToChromeJson(events, TscHz()))) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\ntrace: %zu events -> %s", events.size(), out_path.c_str());
  if (obs::TraceDroppedEvents() > 0) {
    std::printf(" (%" PRIu64 " dropped: buffer full)",
                obs::TraceDroppedEvents());
  }
  std::printf("\n");
  return 0;
}
