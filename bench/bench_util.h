// Shared harness for the paper-reproduction benchmarks.
//
// Every bench binary reproduces one table or figure of the paper and
// prints it in the paper's own unit: elapsed CPU cycles per input row (per
// computed sum where the paper divides). Measurements run the kernel
// `repeats` times over an input large enough to exceed the last-level
// cache and report the median.
//
// Besides the human-readable tables, every bench binary writes a
// machine-readable BENCH_<name>.json next to the working directory (or
// into BIPIE_BENCH_JSON_DIR) with cycles/row, rows/sec and the run
// configuration, so CI can archive results and plots can be regenerated
// without scraping stdout.
//
// Environment knobs:
//   BIPIE_BENCH_ROWS      input rows per measurement (default 1 << 22)
//   BIPIE_BENCH_REPEATS   repetitions per cell, median taken (default 5)
//   BIPIE_BENCH_JSON_DIR  output directory for BENCH_<name>.json (default .)
// ROWS and REPEATS must be positive integers; anything else exits 2.
#ifndef BIPIE_BENCH_BENCH_UTIL_H_
#define BIPIE_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/bits.h"
#include "common/cycle_timer.h"
#include "common/random.h"
#include "encoding/bitpack.h"
#include "vector/toolbox.h"

namespace bipie::bench {

// Positive integer knob from the environment, or `fallback` when unset.
// Zero, a sign, trailing characters or a value above `max` exit 2: a run
// with zero rows or zero repeats has no median and would write inf/nan into
// BENCH_*.json.
inline uint64_t PositiveEnvKnob(const char* name, uint64_t fallback,
                                uint64_t max) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(env, &end, 10);
  if (!std::isdigit(static_cast<unsigned char>(env[0])) || *end != '\0' ||
      errno == ERANGE || value == 0 || value > max) {
    std::fprintf(stderr, "%s='%s': expected an integer in [1, %llu]\n", name,
                 env, static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return value;
}

inline size_t BenchRows() {
  return static_cast<size_t>(
      PositiveEnvKnob("BIPIE_BENCH_ROWS", size_t{1} << 22, uint64_t{1} << 40));
}

inline int BenchRepeats() {
  return static_cast<int>(PositiveEnvKnob("BIPIE_BENCH_REPEATS", 5, 1 << 20));
}

// --- machine-readable results ------------------------------------------------

// Accumulates one JSON document per bench binary and writes it as
// BENCH_<name>.json when the process exits. The name is derived from the
// PrintBenchHeader title; measurements recorded before the header (there
// are none in-tree) fall under the binary's default name "bench".
class BenchJsonReport {
 public:
  using Fields = std::vector<std::pair<std::string, double>>;

  static BenchJsonReport& Get() {
    static BenchJsonReport report;
    return report;
  }

  void SetName(const std::string& slug) {
    if (!slug.empty()) name_ = slug;
  }
  void SetConfig(const std::string& key, const std::string& json_value) {
    // Last writer wins so re-printed headers don't duplicate keys.
    for (auto& kv : config_) {
      if (kv.first == key) {
        kv.second = json_value;
        return;
      }
    }
    config_.emplace_back(key, json_value);
  }
  void Add(const std::string& label, Fields fields) {
    std::string l = label;
    if (l.empty()) l = "measurement_" + std::to_string(entries_.size());
    entries_.emplace_back(std::move(l), std::move(fields));
  }

  ~BenchJsonReport() {
    if (entries_.empty()) return;
    std::string dir = ".";
    if (const char* env = std::getenv("BIPIE_BENCH_JSON_DIR")) dir = env;
    const std::string path = dir + "/BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"config\": {",
                 Escaped(name_).c_str());
    for (size_t i = 0; i < config_.size(); ++i) {
      std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                   Escaped(config_[i].first).c_str(), config_[i].second.c_str());
    }
    std::fprintf(f, "},\n  \"results\": [\n");
    for (size_t i = 0; i < entries_.size(); ++i) {
      std::fprintf(f, "    {\"label\": \"%s\"", Escaped(entries_[i].first).c_str());
      for (const auto& [key, value] : entries_[i].second) {
        std::fprintf(f, ", \"%s\": %.6g", Escaped(key).c_str(), value);
      }
      std::fprintf(f, "}%s\n", i + 1 == entries_.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }

  // "text" -> "\"text\"" with JSON escaping, for SetConfig string values.
  static std::string Quoted(const std::string& s) {
    return "\"" + Escaped(s) + "\"";
  }

 private:
  BenchJsonReport() = default;

  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;
      out.push_back(c);
    }
    return out;
  }

  std::string name_ = "bench";
  std::vector<std::pair<std::string, std::string>> config_;
  std::vector<std::pair<std::string, Fields>> entries_;
};

// "Table 5: TPC-H Query 1, clocks/row" -> "table_5_tpc_h_query_1_clocks_row".
inline std::string BenchSlug(const std::string& title) {
  std::string slug;
  for (char c : title) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      slug.push_back(static_cast<char>(
          std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug;
}

// Runs fn `repeats` times; returns median cycles / rows. One untimed
// warm-up run absorbs first-touch page faults, cold caches and frequency
// ramp-up so the median reflects steady state. Each measurement is also
// recorded (median cycles/row and rows/sec) into the bench's JSON report
// under `label`, or an auto-generated label when empty.
inline double MeasureCyclesPerRow(size_t rows,
                                  const std::function<void()>& fn,
                                  int repeats = BenchRepeats(),
                                  const std::string& label = "") {
  BIPIE_DCHECK(rows > 0 && repeats > 0);
  fn();
  std::vector<double> cycle_samples;
  std::vector<double> ns_samples;
  cycle_samples.reserve(repeats);
  ns_samples.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    const auto wall_start = std::chrono::steady_clock::now();
    const uint64_t start = ReadCycleCounter();
    fn();
    const uint64_t stop = ReadCycleCounter();
    const auto wall_stop = std::chrono::steady_clock::now();
    cycle_samples.push_back(static_cast<double>(stop - start) /
                            static_cast<double>(rows));
    ns_samples.push_back(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall_stop -
                                                             wall_start)
            .count()));
  }
  std::sort(cycle_samples.begin(), cycle_samples.end());
  std::sort(ns_samples.begin(), ns_samples.end());
  const double median_cycles = cycle_samples[cycle_samples.size() / 2];
  const double median_ns = ns_samples[ns_samples.size() / 2];
  const double rows_per_sec =
      median_ns > 0.0 ? static_cast<double>(rows) * 1e9 / median_ns : 0.0;
  BenchJsonReport::Get().Add(
      label, {{"cycles_per_row", median_cycles},
              {"rows_per_sec", rows_per_sec},
              {"rows", static_cast<double>(rows)}});
  return median_cycles;
}

// Labeled convenience overload: same measurement, default repeats.
inline double MeasureCyclesPerRow(size_t rows, const std::string& label,
                                  const std::function<void()>& fn) {
  return MeasureCyclesPerRow(rows, fn, BenchRepeats(), label);
}

// A consumed result sink that defeats dead-code elimination.
inline void Consume(const void* p, size_t bytes) {
  static volatile uint64_t sink = 0;
  uint64_t h = 0;
  const auto* b = static_cast<const uint8_t*>(p);
  for (size_t i = 0; i < bytes; i += 64) h += b[i];
  sink += h;
}

// --- workload builders -------------------------------------------------------

// Bit-packed stream of n random values of the given width (padded).
inline AlignedBuffer MakePackedColumn(size_t n, int bit_width,
                                      uint64_t seed) {
  std::vector<uint64_t> values(n);
  Rng rng(seed);
  const uint64_t mask = LowBitsMask(bit_width);
  for (auto& v : values) v = rng.Next() & mask;
  AlignedBuffer buf(BitPackedBytes(n, bit_width) + 8);
  BitPack(values.data(), n, bit_width, buf.data());
  return buf;
}

// Byte group ids uniform in [0, num_groups).
inline AlignedBuffer MakeGroups(size_t n, int num_groups, uint64_t seed) {
  AlignedBuffer buf(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    buf.data()[i] = static_cast<uint8_t>(rng.NextBounded(num_groups));
  }
  return buf;
}

// Selection byte vector at the given selectivity.
inline AlignedBuffer MakeSelection(size_t n, double selectivity,
                                   uint64_t seed) {
  AlignedBuffer buf(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    buf.data()[i] = rng.NextBernoulli(selectivity) ? 0xFF : 0x00;
  }
  return buf;
}

// Decoded unsigned values below 2^bits at the given word width.
inline AlignedBuffer MakeDecodedValues(size_t n, int bits, int word_bytes,
                                       uint64_t seed) {
  AlignedBuffer buf(n * word_bytes);
  Rng rng(seed);
  const uint64_t mask = LowBitsMask(bits);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = rng.Next() & mask;
    std::memcpy(buf.data() + i * word_bytes, &v, word_bytes);
  }
  return buf;
}

// --- reporting ---------------------------------------------------------------

inline void PrintBenchHeader(const std::string& title,
                             const std::string& paper_ref) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("isa: %s | rows per cell: %zu | repeats (median): %d\n\n",
              ToolboxIsaDescription(), BenchRows(), BenchRepeats());
  BenchJsonReport& report = BenchJsonReport::Get();
  report.SetName(BenchSlug(title));
  report.SetConfig("title", BenchJsonReport::Quoted(title));
  report.SetConfig("paper_ref", BenchJsonReport::Quoted(paper_ref));
  report.SetConfig("isa", BenchJsonReport::Quoted(ToolboxIsaDescription()));
  report.SetConfig("rows", std::to_string(BenchRows()));
  report.SetConfig("repeats", std::to_string(BenchRepeats()));
}

}  // namespace bipie::bench

#endif  // BIPIE_BENCH_BENCH_UTIL_H_
