// Host calibration for the cost model (DESIGN.md §17; ROADMAP item 2).
//
// Every admission constant the planner hard-codes (the run-span floor, the
// byteslice selectivity ceiling, the gather crossover) is really a ratio
// between primitive throughputs: cycles/row to unpack a bit-packed stream
// at some width, cycles/row/plane for the byteslice kernels, cycles/span
// for run bookkeeping, and so on. A CalibrationProfile captures those
// primitives in one place, in the paper's unit (elapsed CPU cycles per
// input row), so the CostModel can price plans and encodings from them.
//
// Three sources, in increasing fidelity:
//
//  * BuiltinProfile() — deterministic constants tuned to reproduce the
//    hand-tuned heuristics' decision regions. This is the profile every
//    test, golden file and CI run sees: decisions derived from it are
//    machine-independent by construction.
//  * Calibrate()     — a ~50ms micro-benchmark pass over the real kernels
//    (BitUnpack, ByteSliceCompare, CompactValues, memcpy bandwidth, ...)
//    on the running host. Entries that cannot be measured sensibly fall
//    back to the builtin value; Calibrate never fails.
//  * LoadProfile()   — a previously saved profile. The file is untrusted
//    input: wrong magic, size, version or CRC32C, and non-finite or
//    non-positive entries all reject with a structured Status (never a
//    crash), so callers fall back to builtin or recalibrate.
#ifndef BIPIE_COST_CALIBRATION_H_
#define BIPIE_COST_CALIBRATION_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace bipie::cost {

// Bit widths are bucketed per 8 bits (1-8, 9-16, ..., 57-64): each bucket
// corresponds to one unpack word width / byteslice plane count, which is
// where the throughput steps actually are.
inline constexpr int kNumWidthBuckets = 8;

inline int WidthBucket(int bit_width) {
  const int b = (bit_width - 1) / 8;
  return b < 0 ? 0 : (b >= kNumWidthBuckets ? kNumWidthBuckets - 1 : b);
}

// Serialized image: magic | version | payload | CRC32C(magic..payload).
inline constexpr uint32_t kProfileMagic = 0x46435042;  // "BPCF" LE
inline constexpr uint32_t kProfileVersion = 1;

// Primitive throughputs, all in cycles per row unless stated otherwise.
struct CalibrationProfile {
  // Decoding one bit-packed value into the smallest word, per width bucket.
  double unpack_cycles[kNumWidthBuckets];
  // One predicate compare over unpacked words of the bucket's width.
  double compare_cycles[kNumWidthBuckets];
  // One byteslice plane step of the early-pruning compare kernels.
  double byteslice_plane_cycles;
  // Walking one RLE run (per run, not per row).
  double rle_run_cycles;
  // Materializing run verdicts / run values to per-row form, per row.
  double rle_expand_cycles;
  // Fetching one selected row by index (random access penalty included).
  double gather_row_cycles;
  // Physically compacting one input row through the selection vector.
  double compact_row_cycles;
  // Remapping one row through the special-group id space.
  double special_group_row_cycles;
  // Aggregation kernel costs per processed row per accumulator...
  double agg_scalar_cycles;
  double agg_inregister_cycles;
  // ...except sort-based (fixed bucket-partition cost per row plus a small
  // per-sum term) and multi-aggregate (horizontal: flat per row).
  double agg_sort_cycles;
  double agg_sort_per_sum_cycles;
  double agg_multi_cycles;
  double agg_checked_cycles;
  // Evaluating one arithmetic-expression aggregate input, per row.
  double expr_eval_cycles;
  // Run-pipeline bookkeeping per intersected (group, filter) span.
  double run_span_cycles;
  // Effective sequential memory bandwidth (bytes per cycle, not cycles):
  // the roofline ceiling for the advisor's bandwidth-bound encodings.
  double mem_bytes_per_cycle;
  // Provenance: IsaTier at measurement time; 0 when builtin/derived.
  uint32_t isa_tier = 0;
  // 1 when Calibrate() measured this host, 0 for the builtin constants.
  uint32_t calibrated = 0;
};

// The deterministic fallback profile. Tuned so the model's decision
// regions match the legacy heuristics where those were right: the 3-plane
// byteslice crossover sits at selectivity 0.8 (the old ceiling) and the
// run-span crossover at ~8 rows/span for a 50% filter (the old floor).
CalibrationProfile BuiltinProfile();

struct CalibrateOptions {
  // Rows per measurement; small enough to stay cache-resident for the
  // compute kernels, large enough to amortize timer overhead.
  size_t rows = size_t{1} << 16;
  // Repetitions per primitive; the minimum is kept (micro-benchmarks are
  // noisy upward, never downward).
  int repeats = 3;
};

// Measures the profile on the running host. Never fails: entries whose
// measurement comes back non-finite or absurd keep the builtin value.
CalibrationProfile Calibrate(const CalibrateOptions& options = {});

// --- persistence (the profile file is untrusted input) ----------------------

std::vector<uint8_t> SerializeProfile(const CalibrationProfile& profile);

// Rejections: kDataLoss (size/magic/CRC mismatch), kNotSupported (version
// mismatch — recalibrate), kInvalidArgument (non-finite/non-positive or
// out-of-range entries).
Result<CalibrationProfile> ParseProfile(const uint8_t* data, size_t n);

Status SaveProfile(const CalibrationProfile& profile, const std::string& path);
Result<CalibrationProfile> LoadProfile(const std::string& path);

// Load `path` if it parses cleanly; otherwise calibrate and rewrite the
// file (best-effort — a read-only path still returns the fresh profile).
// This is the "version mismatch -> recalibrate" entry point for tools.
CalibrationProfile LoadOrCalibrate(const std::string& path);

}  // namespace bipie::cost

#endif  // BIPIE_COST_CALIBRATION_H_
