#include "cost/calibration.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>

#include "common/aligned_buffer.h"
#include "common/bits.h"
#include "common/cpu.h"
#include "common/crc32c.h"
#include "common/cycle_timer.h"
#include "common/random.h"
#include "encoding/bitpack.h"
#include "expr/predicate.h"
#include "vector/byteslice_scan.h"
#include "vector/compact.h"

namespace bipie::cost {

namespace {

// The builtin constants below are chosen so the model's derived decision
// boundaries land where the legacy heuristics put them (they encode the
// same hardware folklore, just as throughputs instead of thresholds):
//
//  * 3-plane byteslice vs decode-and-compare at width 17-24:
//    plane * (1 + 2s) = unpack + compare  =>  0.55(1+2s) = 1.05+0.38
//    crosses at s = 0.8 — exactly the old kByteSliceSelectivityCeiling.
//  * run pipeline vs row pipeline on RLE data at a 50% filter crosses at
//    ~8 rows/span — the old kMinRunSpanRows (and the crossover now moves
//    with selectivity, which the old constant got wrong; see strategy.cc).
constexpr double kBuiltinUnpack[kNumWidthBuckets] = {0.75, 0.90, 1.05, 1.20,
                                                     1.60, 1.85, 2.10, 2.40};
constexpr double kBuiltinCompare[kNumWidthBuckets] = {0.30, 0.33, 0.38, 0.42,
                                                      0.55, 0.60, 0.65, 0.70};

// Fixed serialization field count: 2 bucket tables + 15 scalars.
constexpr size_t kNumProfileDoubles = 2 * kNumWidthBuckets + 15;
constexpr size_t kPayloadBytes = kNumProfileDoubles * 8 + 2 * 4;
constexpr size_t kImageBytes = 4 + 4 + kPayloadBytes + 4;

void AppendU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>(v >> (8 * i)));
  }
}

void AppendF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
}

uint32_t ReadU32(const uint8_t* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(p[i]) << (8 * i);
  return v;
}

double ReadF64(const uint8_t* p) {
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) bits |= static_cast<uint64_t>(p[i]) << (8 * i);
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Flattened field order for serialization and validation. Append-only:
// reordering or resizing this list is a kProfileVersion bump.
void ForEachDouble(CalibrationProfile* p,
                   const std::function<void(double*)>& fn) {
  for (int i = 0; i < kNumWidthBuckets; ++i) fn(&p->unpack_cycles[i]);
  for (int i = 0; i < kNumWidthBuckets; ++i) fn(&p->compare_cycles[i]);
  fn(&p->byteslice_plane_cycles);
  fn(&p->rle_run_cycles);
  fn(&p->rle_expand_cycles);
  fn(&p->gather_row_cycles);
  fn(&p->compact_row_cycles);
  fn(&p->special_group_row_cycles);
  fn(&p->agg_scalar_cycles);
  fn(&p->agg_inregister_cycles);
  fn(&p->agg_sort_cycles);
  fn(&p->agg_sort_per_sum_cycles);
  fn(&p->agg_multi_cycles);
  fn(&p->agg_checked_cycles);
  fn(&p->expr_eval_cycles);
  fn(&p->run_span_cycles);
  fn(&p->mem_bytes_per_cycle);
}

// --- measurement helpers -----------------------------------------------------

template <typename Fn>
double MeasurePerUnit(size_t units, int repeats, const Fn& fn) {
  fn();  // warm-up: first-touch faults, caches, frequency ramp
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < repeats; ++r) {
    const uint64_t start = ReadCycleCounter();
    fn();
    const uint64_t stop = ReadCycleCounter();
    best = std::min(best, static_cast<double>(stop - start) /
                              static_cast<double>(units));
  }
  return best;
}

// Keeps a measurement only when it is a sane cycles-per-unit figure;
// otherwise the builtin value stands (a paused VM or a coarse TSC must
// degrade the profile to "builtin", never poison it).
double Sane(double measured, double fallback) {
  if (!std::isfinite(measured) || measured <= 0.0 || measured >= 1e6) {
    return fallback;
  }
  return measured;
}

volatile uint64_t g_sink;

}  // namespace

CalibrationProfile BuiltinProfile() {
  CalibrationProfile p;
  for (int i = 0; i < kNumWidthBuckets; ++i) {
    p.unpack_cycles[i] = kBuiltinUnpack[i];
    p.compare_cycles[i] = kBuiltinCompare[i];
  }
  p.byteslice_plane_cycles = 0.55;
  p.rle_run_cycles = 14.0;
  p.rle_expand_cycles = 0.20;
  p.gather_row_cycles = 2.00;
  p.compact_row_cycles = 0.50;
  p.special_group_row_cycles = 0.40;
  p.agg_scalar_cycles = 1.40;
  p.agg_inregister_cycles = 0.30;
  p.agg_sort_cycles = 1.20;
  p.agg_sort_per_sum_cycles = 0.15;
  p.agg_multi_cycles = 0.35;
  p.agg_checked_cycles = 2.00;
  p.expr_eval_cycles = 1.50;
  p.run_span_cycles = 14.0;
  p.mem_bytes_per_cycle = 8.0;
  p.isa_tier = 0;
  p.calibrated = 0;
  return p;
}

CalibrationProfile Calibrate(const CalibrateOptions& options) {
  CalibrationProfile p = BuiltinProfile();
  const size_t n = std::max<size_t>(options.rows, 1024);
  const int reps = std::max(options.repeats, 1);
  Rng rng(0xB1B1E5EED);

  // Unpack + compare per width bucket, over the real BitUnpack dispatch.
  const int widths[kNumWidthBuckets] = {7, 12, 20, 28, 36, 44, 52, 60};
  for (int b = 0; b < kNumWidthBuckets; ++b) {
    const int w = widths[b];
    const int word_bytes = b == 0 ? 1 : (b == 1 ? 2 : (b <= 3 ? 4 : 8));
    std::vector<uint64_t> values(n);
    const uint64_t mask = LowBitsMask(w);
    for (auto& v : values) v = rng.Next() & mask;
    AlignedBuffer packed(BitPackedBytes(n, w) + 16);
    BitPack(values.data(), n, w, packed.data());
    AlignedBuffer out(n * static_cast<size_t>(word_bytes) + 64);
    p.unpack_cycles[b] = Sane(
        MeasurePerUnit(n, reps,
                       [&] { BitUnpack(packed.data(), 0, n, w, out.data()); }),
        p.unpack_cycles[b]);

    AlignedBuffer sel(n + 64);
    const uint64_t lit = mask / 2;
    auto compare_loop = [&] {
      uint8_t* s = sel.data();
      switch (word_bytes) {
        case 1: {
          const auto* in = reinterpret_cast<const uint8_t*>(out.data());
          for (size_t i = 0; i < n; ++i) s[i] = in[i] < lit ? 0xFF : 0x00;
          break;
        }
        case 2: {
          const auto* in = reinterpret_cast<const uint16_t*>(out.data());
          for (size_t i = 0; i < n; ++i) s[i] = in[i] < lit ? 0xFF : 0x00;
          break;
        }
        case 4: {
          const auto* in = reinterpret_cast<const uint32_t*>(out.data());
          for (size_t i = 0; i < n; ++i) s[i] = in[i] < lit ? 0xFF : 0x00;
          break;
        }
        default: {
          const auto* in = reinterpret_cast<const uint64_t*>(out.data());
          for (size_t i = 0; i < n; ++i) s[i] = in[i] < lit ? 0xFF : 0x00;
          break;
        }
      }
      g_sink += s[0];
    };
    p.compare_cycles[b] = Sane(MeasurePerUnit(n, reps, compare_loop),
                               p.compare_cycles[b]);
  }

  {  // Byteslice: one-plane kLt over the dispatched kernel.
    AlignedBuffer plane(n + 64);
    for (size_t i = 0; i < n; ++i) {
      plane.data()[i] = static_cast<uint8_t>(rng.Next());
    }
    AlignedBuffer sel(n + 64);
    p.byteslice_plane_cycles =
        Sane(MeasurePerUnit(n, reps,
                            [&] {
                              ByteSliceCompare(plane.data(), n, 1, 0, n,
                                               CompareOp::kLt,
                                               uint64_t{0x80} << 56, 0,
                                               sel.data());
                            }),
             p.byteslice_plane_cycles);
  }

  {  // Gather: random-index fetch per selected row.
    std::vector<uint32_t> idx(n), vals(n);
    for (size_t i = 0; i < n; ++i) {
      idx[i] = static_cast<uint32_t>(rng.NextBounded(n));
      vals[i] = static_cast<uint32_t>(rng.Next());
    }
    p.gather_row_cycles = Sane(MeasurePerUnit(n, reps,
                                              [&] {
                                                uint64_t acc = 0;
                                                for (size_t i = 0; i < n; ++i) {
                                                  acc += vals[idx[i]];
                                                }
                                                g_sink += acc;
                                              }),
                               p.gather_row_cycles);
  }

  {  // Compaction through the real CompactValues at 50% selectivity.
    AlignedBuffer sel(n + 64);
    AlignedBuffer vals(n * 4 + 64);
    AlignedBuffer out(n * 4 + 64);
    for (size_t i = 0; i < n; ++i) {
      sel.data()[i] = rng.NextBernoulli(0.5) ? 0xFF : 0x00;
    }
    p.compact_row_cycles =
        Sane(MeasurePerUnit(n, reps,
                            [&] {
                              g_sink += CompactValues(sel.data(), vals.data(),
                                                      n, 4, out.data());
                            }),
             p.compact_row_cycles);
  }

  {  // Special-group remap proxy: one table lookup per row.
    std::vector<uint8_t> groups(n), remap(256), out(n);
    for (size_t i = 0; i < n; ++i) {
      groups[i] = static_cast<uint8_t>(rng.Next());
    }
    for (size_t i = 0; i < 256; ++i) remap[i] = static_cast<uint8_t>(i / 4);
    p.special_group_row_cycles =
        Sane(MeasurePerUnit(n, reps,
                            [&] {
                              for (size_t i = 0; i < n; ++i) {
                                out[i] = remap[groups[i]];
                              }
                              g_sink += out[0];
                            }),
             p.special_group_row_cycles);
  }

  {  // RLE: per-run walk, and per-row expansion of 8-row runs.
    struct Run {
      uint64_t value;
      uint32_t length;
    };
    const size_t num_runs = n / 8;
    std::vector<Run> runs(num_runs);
    for (auto& r : runs) {
      r.value = rng.Next() & 0xFFFF;
      r.length = 8;
    }
    p.rle_run_cycles = Sane(
        MeasurePerUnit(num_runs, reps,
                       [&] {
                         uint64_t acc = 0;
                         for (const auto& r : runs) {
                           acc += r.value * r.length;
                         }
                         g_sink += acc;
                       }),
        p.rle_run_cycles);
    std::vector<uint8_t> expanded(n);
    p.rle_expand_cycles = Sane(
        MeasurePerUnit(n, reps,
                       [&] {
                         size_t pos = 0;
                         for (const auto& r : runs) {
                           std::memset(expanded.data() + pos,
                                       static_cast<int>(r.value), r.length);
                           pos += r.length;
                         }
                         g_sink += expanded[0];
                       }),
        p.rle_expand_cycles);
    // Span bookkeeping: intersect + dispatch one (group, filter) span.
    p.run_span_cycles = Sane(
        MeasurePerUnit(num_runs, reps,
                       [&] {
                         uint64_t acc = 0;
                         size_t pos = 0;
                         for (const auto& r : runs) {
                           const size_t lo = pos;
                           const size_t hi = pos + r.length;
                           pos = hi;
                           acc += (hi - lo) * (r.value & 7);
                           acc ^= acc >> 3;
                         }
                         g_sink += acc;
                       }) *
            4.0,  // real span intersection touches two run cursors + state
        p.run_span_cycles);
  }

  {  // Aggregation kernel proxies (per processed row, one accumulator).
    std::vector<uint8_t> groups(n);
    std::vector<uint32_t> v1(n), v2(n);
    for (size_t i = 0; i < n; ++i) {
      groups[i] = static_cast<uint8_t>(rng.NextBounded(64));
      v1[i] = static_cast<uint32_t>(rng.Next());
      v2[i] = static_cast<uint32_t>(rng.Next());
    }
    uint64_t acc[256] = {0};
    p.agg_scalar_cycles = Sane(
        MeasurePerUnit(n, reps,
                       [&] {
                         for (size_t i = 0; i < n; ++i) {
                           acc[groups[i]] += v1[i];
                         }
                         g_sink += acc[0];
                       }),
        p.agg_scalar_cycles);
    p.agg_checked_cycles = Sane(
        MeasurePerUnit(n, reps,
                       [&] {
                         int64_t sum;
                         for (size_t i = 0; i < n; ++i) {
                           if (__builtin_add_overflow(
                                   static_cast<int64_t>(acc[groups[i]]),
                                   static_cast<int64_t>(v1[i]), &sum)) {
                             sum = 0;
                           }
                           acc[groups[i]] = static_cast<uint64_t>(sum);
                         }
                         g_sink += acc[0];
                       }),
        p.agg_checked_cycles);
    p.agg_inregister_cycles = Sane(
        MeasurePerUnit(n, reps,
                       [&] {
                         uint64_t lanes[8] = {0};
                         for (size_t i = 0; i < n; ++i) {
                           lanes[i & 7] += v1[i];
                         }
                         g_sink += lanes[0];
                       }),
        p.agg_inregister_cycles);
    p.agg_multi_cycles = Sane(
        MeasurePerUnit(n, reps,
                       [&] {
                         for (size_t i = 0; i < n; ++i) {
                           const size_t g = groups[i] * 2u;
                           acc[g] += v1[i];
                           acc[g + 1] += v2[i];
                         }
                         g_sink += acc[0];
                       }) /
            2.0,  // two sums updated per pass; the field is flat per row
        p.agg_multi_cycles);
    std::vector<uint32_t> buckets(n);
    uint32_t counts[64] = {0};
    p.agg_sort_cycles = Sane(
        MeasurePerUnit(n, reps,
                       [&] {
                         std::memset(counts, 0, sizeof(counts));
                         for (size_t i = 0; i < n; ++i) {
                           buckets[counts[groups[i]]++ & (n - 1)] =
                               static_cast<uint32_t>(i);
                         }
                         g_sink += buckets[0];
                       }),
        p.agg_sort_cycles);
    p.agg_sort_per_sum_cycles =
        Sane(p.agg_inregister_cycles * 0.5, p.agg_sort_per_sum_cycles);
    p.expr_eval_cycles = Sane(
        MeasurePerUnit(n, reps,
                       [&] {
                         for (size_t i = 0; i < n; ++i) {
                           v2[i] = v1[i] * 3u + v2[i];
                         }
                         g_sink += v2[0];
                       }) +
            p.unpack_cycles[kNumWidthBuckets - 1],
        p.expr_eval_cycles);
  }

  {  // Sequential memory bandwidth over a cache-exceeding copy.
    const size_t bytes = size_t{16} << 20;
    AlignedBuffer src(bytes), dst(bytes);
    std::memset(src.data(), 0x5A, bytes);
    const double cycles_per_byte = MeasurePerUnit(
        bytes, reps, [&] { std::memcpy(dst.data(), src.data(), bytes); });
    if (std::isfinite(cycles_per_byte) && cycles_per_byte > 0.0) {
      p.mem_bytes_per_cycle =
          Sane(1.0 / cycles_per_byte, p.mem_bytes_per_cycle);
    }
  }

  p.isa_tier = static_cast<uint32_t>(CurrentIsaTier());
  p.calibrated = 1;
  return p;
}

// --- persistence -------------------------------------------------------------

std::vector<uint8_t> SerializeProfile(const CalibrationProfile& profile) {
  std::vector<uint8_t> out;
  out.reserve(kImageBytes);
  AppendU32(&out, kProfileMagic);
  AppendU32(&out, kProfileVersion);
  CalibrationProfile copy = profile;
  ForEachDouble(&copy, [&out](double* d) { AppendF64(&out, *d); });
  AppendU32(&out, profile.isa_tier);
  AppendU32(&out, profile.calibrated);
  AppendU32(&out, Crc32c(out.data(), out.size()));
  return out;
}

Result<CalibrationProfile> ParseProfile(const uint8_t* data, size_t n) {
  if (n != kImageBytes) {
    return Status::DataLoss("calibration profile: size " + std::to_string(n) +
                            " != expected " + std::to_string(kImageBytes));
  }
  if (ReadU32(data) != kProfileMagic) {
    return Status::DataLoss("calibration profile: bad magic");
  }
  const uint32_t stored_crc = ReadU32(data + n - 4);
  if (Crc32c(data, n - 4) != stored_crc) {
    return Status::DataLoss("calibration profile: checksum mismatch");
  }
  const uint32_t version = ReadU32(data + 4);
  if (version != kProfileVersion) {
    return Status::NotSupported(
        "calibration profile: version " + std::to_string(version) +
        " (expected " + std::to_string(kProfileVersion) + "); recalibrate");
  }
  CalibrationProfile p;
  const uint8_t* cursor = data + 8;
  Status invalid = Status::OK();
  ForEachDouble(&p, [&cursor, &invalid](double* d) {
    *d = ReadF64(cursor);
    cursor += 8;
    if (!std::isfinite(*d) || *d <= 0.0 || *d >= 1e6) {
      invalid = Status::InvalidArgument(
          "calibration profile: entry out of range");
    }
  });
  BIPIE_RETURN_NOT_OK(invalid);
  p.isa_tier = ReadU32(cursor);
  p.calibrated = ReadU32(cursor + 4);
  if (p.isa_tier > 2 || p.calibrated > 1) {
    return Status::InvalidArgument("calibration profile: bad provenance");
  }
  return p;
}

Status SaveProfile(const CalibrationProfile& profile,
                   const std::string& path) {
  const std::vector<uint8_t> image = SerializeProfile(profile);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open for write: " + path);
  }
  const bool ok = std::fwrite(image.data(), 1, image.size(), f) ==
                  image.size();
  const bool closed = std::fclose(f) == 0;
  if (!ok || !closed) {
    return Status::Internal("short write: " + path);
  }
  return Status::OK();
}

Result<CalibrationProfile> LoadProfile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open: " + path);
  }
  // Bound the read against the known image size before allocating; a
  // profile file of any other length is rejected as untrustworthy.
  std::vector<uint8_t> image(kImageBytes + 1);
  const size_t got = std::fread(image.data(), 1, image.size(), f);
  std::fclose(f);
  return ParseProfile(image.data(), got);
}

CalibrationProfile LoadOrCalibrate(const std::string& path) {
  Result<CalibrationProfile> loaded = LoadProfile(path);
  if (loaded.ok()) return loaded.value();
  const CalibrationProfile fresh = Calibrate();
  SaveProfile(fresh, path);  // best-effort rewrite; fresh profile wins anyway
  return fresh;
}

}  // namespace bipie::cost
