// bipie_bench: the end-to-end benchmark driver.
//
//   bipie_bench --workload <q1_scan|q6_scan|server_mix|ingest_window|all>
//               [--seed N] [--seconds S] [--trace FILE] [--work-dir DIR]
//               [--smoke]
//
// Builds the workload's inputs from the seed, runs it, checks every result
// against an oracle, and prints every metric by name with its unit. The last
// line of output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Without --trace the metrics are the end-to-end ones; with --trace FILE the
// run is the separate traced run: it reports the per-layer metrics and
// writes its spans to FILE (FILE.<workload> under --workload all). --smoke
// runs tiny sizes for the ctest smoke test. Exit code: 0 when every check
// passed, 1 when any result was wrong, 2 on bad arguments.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common.h"
#include "vector/toolbox.h"
#include "workloads.h"

namespace {

using namespace bipie::e2e;  // NOLINT

constexpr uint64_t kDefaultSeed = 20180610;

const char* const kWorkloads[] = {"q1_scan", "q6_scan", "server_mix",
                                  "ingest_window"};

[[noreturn]] void Usage(const std::string& problem) {
  std::fprintf(stderr,
               "bipie_bench: %s\nusage: bipie_bench --workload "
               "<q1_scan|q6_scan|server_mix|ingest_window|all> [--seed N] "
               "[--seconds S] [--trace FILE] [--work-dir DIR] [--smoke]\n",
               problem.c_str());
  std::exit(2);
}

uint64_t ParseUInt(const char* text, const char* flag) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (text[0] == '\0' || text[0] == '-' || *end != '\0' || errno != 0) {
    Usage(std::string("bad value for ") + flag + ": " + text);
  }
  return v;
}

WorkloadResult RunWorkload(const std::string& name, const RunConfig& config) {
  if (name == "q1_scan") return RunScanWorkload(config, ScanQuery::kQ1);
  if (name == "q6_scan") return RunScanWorkload(config, ScanQuery::kQ6);
  if (name == "server_mix") return RunServerMix(config);
  return RunIngestWindow(config);
}

// Prints the human-readable block and the JSON line; returns true when the
// run is correct.
bool Report(const std::string& workload, const RunConfig& config,
            WorkloadResult result) {
  const std::vector<MetricDef>& catalogue =
      config.traced() ? PerLayerMetrics() : EndToEndMetrics();
  std::printf("== %s (seed %llu, %s run, isa %s)\n", workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.traced() ? "traced" : "timed",
              bipie::ToolboxIsaDescription());
  for (const std::string& note : result.notes) {
    std::printf("   %s\n", note.c_str());
  }
  std::string json;
  for (const MetricDef& def : catalogue) {
    const auto it = result.metrics.find(def.name);
    double value = it == result.metrics.end() ? 0.0 : it->second;
    // End-to-end metrics must all be measured; per-layer ones read 0 where
    // the workload never enters the layer.
    if ((it == result.metrics.end() && !config.traced()) ||
        !std::isfinite(value)) {
      std::printf("   metric %s was not measured\n", def.name.c_str());
      ++result.failed;
      value = 0;
    }
    std::printf("   %-38s %16.6f %s\n", def.name.c_str(), value,
                def.unit.c_str());
    char entry[256];
    std::snprintf(entry, sizeof(entry),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json.empty() ? "" : ", ", def.name.c_str(), value,
                  def.unit.c_str());
    json += entry;
  }
  const bool correct = result.failed == 0 && result.attempted > 0;
  std::printf("   checked %llu results against the oracles, %llu failed\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), json.c_str());
  std::fflush(stdout);
  return correct;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  RunConfig config;
  config.seed = kDefaultSeed;
  config.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) Usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      config.seed = ParseUInt(value(), "--seed");
    } else if (arg == "--seconds") {
      const char* text = value();
      char* end = nullptr;
      config.seconds = std::strtod(text, &end);
      if (*end != '\0' || !(config.seconds >= 1 && config.seconds <= 600)) {
        Usage(std::string("--seconds must be in [1, 600]: ") + text);
      }
    } else if (arg == "--trace") {
      config.trace_path = value();
    } else if (arg == "--work-dir") {
      config.work_dir = value();
    } else if (arg == "--smoke") {
      config.smoke = true;
    } else {
      Usage("unknown argument: " + arg);
    }
  }
  std::vector<std::string> names;
  for (const char* w : kWorkloads) {
    if (workload == w || workload == "all") names.push_back(w);
  }
  if (names.empty()) Usage("unknown or missing --workload: " + workload);

  bool all_correct = true;
  for (const std::string& name : names) {
    RunConfig run = config;
    if (run.traced() && names.size() > 1) run.trace_path += "." + name;
    WorkloadResult result = RunWorkload(name, run);
    if (run.traced()) {
      result.metrics["trace.spans"] = static_cast<double>(Spans().size());
      if (!Spans().WriteJson(run.trace_path)) {
        result.notes.push_back("could not write " + run.trace_path);
        ++result.failed;
      }
      Spans().Clear();
    }
    all_correct = Report(name, run, std::move(result)) && all_correct;
  }
  return all_correct ? 0 : 1;
}
