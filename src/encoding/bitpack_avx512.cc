// AVX-512 VBMI tier of the bit-unpacking kernels.
//
// Each iteration does one 64-byte load from the first byte of its first
// value and fills one 64-byte output vector; no gathers. VPERMB moves every
// value's bytes into its output lane, then:
//
//   word 1, 2:        VPMULTISHIFTQB extracts each value from the 8 bytes of
//                     its qword into consecutive words (64 or 32 values).
//   word 4, w <= 25:  dword windows, VPSRLVD (16 values).
//   word 4, w 26..32: two sets of qword windows from the same load, VPSRLVQ,
//                     VPERMT2D keeps the low dwords (16 values).
//   word 8, w <= 57:  qword windows, VPSRLVQ (8 values). Widening dword
//                     lanes would cost two extra port-5 shuffles per 16.
//
// and a mask clears the bits above the value. The final partial vector is
// stored under a byte mask, so the kernels never write past `n` values.
// Widths above 57 can straddle 9 bytes and stay scalar.
#include <immintrin.h>

#include "common/aligned_buffer.h"
#include "encoding/bitpack.h"
#include "encoding/vbmi_tables.h"

namespace bipie::internal {

#if defined(__AVX512VBMI__)

namespace {

static_assert(AlignedBuffer::kPaddingBytes >= 64,
              "the kernels load 64 bytes from the first byte of any value");

// Runs `extract` (64 packed-bytes -> one 64-byte vector of 64 / word_bytes
// values) over the stream. src holds value 0 at bit 0; 64 / word_bytes is a
// multiple of 8, so every iteration starts on a byte boundary.
template <typename Extract>
BIPIE_ALWAYS_INLINE void UnpackLoop(const uint8_t* src, size_t n, int w,
                                    int word_bytes, uint8_t* dst,
                                    Extract extract) {
  const size_t per_vector = 64 / static_cast<size_t>(word_bytes);
  const size_t step = per_vector * static_cast<size_t>(w) / 8;
  size_t i = 0;
  for (; i + per_vector <= n; i += per_vector, src += step, dst += 64) {
    _mm512_storeu_si512(dst, extract(src));
  }
  if (i < n) {
    const size_t tail_bytes = (n - i) * static_cast<size_t>(word_bytes);
    _mm512_mask_storeu_epi8(dst, (uint64_t{1} << tail_bytes) - 1,
                            extract(src));
  }
}

void UnpackMultishift(const uint8_t* src, size_t n, int w, int word_bytes,
                      uint8_t* dst) {
  const VbmiTables& t =
      word_bytes == 1 ? kMultishiftBytes[w] : kMultishiftWords[w];
  const __m512i idx = _mm512_load_si512(t.index);
  const __m512i ctl = _mm512_load_si512(t.shift);
  const int m = static_cast<int>(LowBitsMask(w));
  const __m512i mask = word_bytes == 1
                           ? _mm512_set1_epi8(static_cast<char>(m))
                           : _mm512_set1_epi16(static_cast<short>(m));
  UnpackLoop(src, n, w, word_bytes, dst, [&](const uint8_t* p) {
    const __m512i grouped =
        _mm512_permutexvar_epi8(idx, _mm512_loadu_si512(p));
    return _mm512_and_si512(_mm512_multishift_epi64_epi8(ctl, grouped), mask);
  });
}

void UnpackDwords(const uint8_t* src, size_t n, int w, uint8_t* dst) {
  const VbmiTables& t = kDwordWindows[w];
  const __m512i idx = _mm512_load_si512(t.index);
  const __m512i shift = _mm512_load_si512(t.shift);
  const __m512i mask = _mm512_set1_epi32(static_cast<int>(LowBitsMask(w)));
  UnpackLoop(src, n, w, 4, dst, [&](const uint8_t* p) {
    const __m512i windows =
        _mm512_permutexvar_epi8(idx, _mm512_loadu_si512(p));
    return _mm512_and_si512(_mm512_srlv_epi32(windows, shift), mask);
  });
}

void UnpackQwordsToDwords(const uint8_t* src, size_t n, int w, uint8_t* dst) {
  const VbmiTables& lo_t = kQwordWindows[w];
  const VbmiTables& hi_t = kQwordWindowsHigh[w];
  const __m512i lo_idx = _mm512_load_si512(lo_t.index);
  const __m512i hi_idx = _mm512_load_si512(hi_t.index);
  const __m512i lo_shift = _mm512_load_si512(lo_t.shift);
  const __m512i hi_shift = _mm512_load_si512(hi_t.shift);
  const __m512i even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18,
                                         20, 22, 24, 26, 28, 30);
  const __m512i mask = _mm512_set1_epi32(static_cast<int>(LowBitsMask(w)));
  UnpackLoop(src, n, w, 4, dst, [&](const uint8_t* p) {
    const __m512i raw = _mm512_loadu_si512(p);
    const __m512i lo =
        _mm512_srlv_epi64(_mm512_permutexvar_epi8(lo_idx, raw), lo_shift);
    const __m512i hi =
        _mm512_srlv_epi64(_mm512_permutexvar_epi8(hi_idx, raw), hi_shift);
    return _mm512_and_si512(_mm512_permutex2var_epi32(lo, even, hi), mask);
  });
}

void UnpackQwords(const uint8_t* src, size_t n, int w, uint8_t* dst) {
  const VbmiTables& t = kQwordWindows[w];
  const __m512i idx = _mm512_load_si512(t.index);
  const __m512i shift = _mm512_load_si512(t.shift);
  const __m512i mask =
      _mm512_set1_epi64(static_cast<long long>(LowBitsMask(w)));
  UnpackLoop(src, n, w, 8, dst, [&](const uint8_t* p) {
    const __m512i windows =
        _mm512_permutexvar_epi8(idx, _mm512_loadu_si512(p));
    return _mm512_and_si512(_mm512_srlv_epi64(windows, shift), mask);
  });
}

}  // namespace

void BitUnpackAvx512(const uint8_t* src, size_t start, size_t n,
                     int bit_width, void* out, int word_bytes) {
  if (bit_width > 57) {
    BitUnpackScalarToWord(src, start, n, bit_width, out, word_bytes);
    return;
  }
  // The tables assume value 0 starts on a byte boundary, which any index
  // divisible by 8 guarantees; a short scalar prologue aligns `start`.
  auto* dst = static_cast<uint8_t*>(out);
  size_t prologue = (8 - (start & 7)) & 7;
  if (prologue > n) prologue = n;
  if (prologue > 0) {
    BitUnpackScalarToWord(src, start, prologue, bit_width, dst, word_bytes);
    start += prologue;
    n -= prologue;
    dst += prologue * word_bytes;
    if (n == 0) return;
  }
  src += start * static_cast<uint64_t>(bit_width) / 8;
  if (word_bytes <= 2) {
    UnpackMultishift(src, n, bit_width, word_bytes, dst);
  } else if (word_bytes == 4) {
    if (bit_width <= 25) {
      UnpackDwords(src, n, bit_width, dst);
    } else {
      UnpackQwordsToDwords(src, n, bit_width, dst);
    }
  } else {
    UnpackQwords(src, n, bit_width, dst);
  }
}

#else  // !__AVX512VBMI__

// Built without VBMI support: the AVX2 tier serves this entry point.
void BitUnpackAvx512(const uint8_t* src, size_t start, size_t n,
                     int bit_width, void* out, int word_bytes) {
  BitUnpackAvx2(src, start, n, bit_width, out, word_bytes);
}

#endif  // __AVX512VBMI__

}  // namespace bipie::internal
