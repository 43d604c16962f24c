// AVX-512 VBMI tier of the run-span SUM kernel.
//
// Uses the same VPERMB tables as the unpack kernels (bitpack_avx512.cc), but
// a horizontal sum never needs the values as words in row order, so this
// tier accumulates straight from the shuffled registers:
//
//   w <= 8:  VPERMB groups each 8-value w-byte window into a qword, then
//            VPMULTISHIFTQB extracts all 8 values of every qword at once
//            and VPSADBW folds the 64 resulting bytes into u64 lanes.
//            64 values per ~5-instruction iteration.
//   w <= 25: VPERMB places each value's 4-byte window into its dword lane
//            (the 16 windows of one iteration span at most 50 bytes, so a
//            single 64-byte load covers them), then VPSRLVD + mask. u32
//            lanes accumulate and flush to u64 every 64 iterations, which
//            cannot overflow (64 * (2^25 - 1) < 2^31).
//
// The dispatcher enters this tier only when VbmiEnabled() (common/cpu).
#include <immintrin.h>

#include <algorithm>

#include "common/macros.h"
#include "encoding/bitpack.h"
#include "encoding/vbmi_tables.h"
#include "vector/run_agg.h"

namespace bipie::internal {

namespace {

uint64_t SumScalarTail(const uint8_t* src, size_t start, size_t n, int w) {
  uint64_t total = 0;
  for (size_t i = 0; i < n; ++i) total += BitUnpackOne(src, start + i, w);
  return total;
}

#if defined(__AVX512VBMI__)

// src points at the byte of value 0 (caller pre-aligned the range so value
// 0 starts on a byte boundary). Widths 1..8.
uint64_t SumNarrowVbmi(const uint8_t* src, size_t n, int w) {
  const VbmiTables& t = kMultishiftBytes[w];
  const __m512i idx = _mm512_load_si512(t.index);
  const __m512i ctl = _mm512_load_si512(t.shift);
  const __m512i mask =
      _mm512_set1_epi8(static_cast<char>(LowBitsMask(w) & 0xFF));
  const __m512i zero = _mm512_setzero_si512();
  __m512i acc = zero;
  size_t i = 0;
  for (; i + 64 <= n; i += 64) {
    const __m512i raw = _mm512_loadu_si512(src + i * static_cast<size_t>(w) / 8);
    const __m512i grouped = _mm512_permutexvar_epi8(idx, raw);
    const __m512i vals =
        _mm512_and_si512(_mm512_multishift_epi64_epi8(ctl, grouped), mask);
    acc = _mm512_add_epi64(acc, _mm512_sad_epu8(vals, zero));
  }
  return _mm512_reduce_add_epi64(acc) + SumScalarTail(src, i, n - i, w);
}

// Widths 9..25; same pre-alignment contract as SumNarrowVbmi.
uint64_t SumMidVbmi(const uint8_t* src, size_t n, int w) {
  const VbmiTables& t = kDwordWindows[w];
  const __m512i idx = _mm512_load_si512(t.index);
  const __m512i shift = _mm512_load_si512(t.shift);
  const __m512i mask =
      _mm512_set1_epi32(static_cast<int>(LowBitsMask(w)));
  __m512i acc64 = _mm512_setzero_si512();
  size_t i = 0;
  const size_t vectorized = n & ~size_t{15};
  while (i < vectorized) {
    constexpr size_t kFlushIters = 64;  // 64 * (2^25 - 1) < 2^31: exact
    const size_t block_end = std::min(vectorized, i + 16 * kFlushIters);
    __m512i acc32 = _mm512_setzero_si512();
    for (; i < block_end; i += 16) {
      const __m512i raw =
          _mm512_loadu_si512(src + i * static_cast<size_t>(w) / 8);
      const __m512i windows = _mm512_permutexvar_epi8(idx, raw);
      acc32 = _mm512_add_epi32(
          acc32, _mm512_and_si512(_mm512_srlv_epi32(windows, shift), mask));
    }
    acc64 = _mm512_add_epi64(
        acc64, _mm512_cvtepu32_epi64(_mm512_castsi512_si256(acc32)));
    acc64 = _mm512_add_epi64(
        acc64, _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64(acc32, 1)));
  }
  return _mm512_reduce_add_epi64(acc64) + SumScalarTail(src, i, n - i, w);
}

#endif  // __AVX512VBMI__

}  // namespace

uint64_t SumBitPackedAvx512(const uint8_t* packed, size_t start, size_t n,
                            int bit_width) {
#if defined(__AVX512VBMI__)
  BIPIE_DCHECK(bit_width <= 25);
  // Scalar prologue until value `start` sits on a byte boundary (8 values
  // of any width always span whole bytes).
  size_t prologue = (8 - (start & 7)) & 7;
  if (prologue > n) prologue = n;
  uint64_t total = SumScalarTail(packed, start, prologue, bit_width);
  start += prologue;
  n -= prologue;
  const uint8_t* base =
      packed + start * static_cast<uint64_t>(bit_width) / 8;
  total += bit_width <= 8 ? SumNarrowVbmi(base, n, bit_width)
                          : SumMidVbmi(base, n, bit_width);
  return total;
#else
  // Built without VBMI support: still exact, just scalar.
  return SumScalarTail(packed, start, n, bit_width);
#endif
}

}  // namespace bipie::internal
