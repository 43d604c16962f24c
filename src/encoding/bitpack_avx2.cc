// AVX2 tier of the bit-unpacking kernels.
//
// Strategy (§4.2 of the paper, applied to full-stream unpacking): compute
// per-lane bit offsets, gather the machine words containing each packed
// value, variable-shift the value into place and mask. Widths <= 25 bits fit
// a 32-bit gather lane even at the worst 7-bit intra-byte shift; widths
// 26..57 use 64-bit gathers; wider values fall back to scalar.
#include <immintrin.h>

#include "encoding/bitpack.h"

namespace bipie::internal {

namespace {

// 8 consecutive packed values starting at index such that base_bit =
// index * w, as 8 zero-extended uint32 lanes. Requires w <= 25 and
// base_bit + 8w < 2^31.
BIPIE_ALWAYS_INLINE __m256i Gather8(const uint8_t* src, uint32_t base_bit,
                                    __m256i lane_bits, __m256i value_mask) {
  const __m256i bits =
      _mm256_add_epi32(_mm256_set1_epi32(static_cast<int>(base_bit)),
                       lane_bits);
  const __m256i byte_off = _mm256_srli_epi32(bits, 3);
  const __m256i shift = _mm256_and_si256(bits, _mm256_set1_epi32(7));
  __m256i words = _mm256_i32gather_epi32(
      reinterpret_cast<const int*>(src), byte_off, 1);
  words = _mm256_srlv_epi32(words, shift);
  return _mm256_and_si256(words, value_mask);
}

// 4 consecutive packed values as 4 uint64 lanes. Requires w <= 57.
BIPIE_ALWAYS_INLINE __m256i Gather4(const uint8_t* src, uint64_t base_bit,
                                    __m256i lane_bits, __m256i value_mask) {
  const __m256i bits = _mm256_add_epi64(
      _mm256_set1_epi64x(static_cast<long long>(base_bit)), lane_bits);
  const __m256i byte_off = _mm256_srli_epi64(bits, 3);
  const __m256i shift = _mm256_and_si256(bits, _mm256_set1_epi64x(7));
  __m256i words = _mm256_i64gather_epi64(
      reinterpret_cast<const long long*>(src), byte_off, 1);
  words = _mm256_srlv_epi64(words, shift);
  return _mm256_and_si256(words, value_mask);
}

void UnpackNarrow(const uint8_t* src, size_t start, size_t n, int w,
                  void* out, int word_bytes) {
  const __m256i lane_bits = _mm256_setr_epi32(0, w, 2 * w, 3 * w, 4 * w,
                                              5 * w, 6 * w, 7 * w);
  const __m256i value_mask =
      _mm256_set1_epi32(static_cast<int>(LowBitsMask(w)));
  const uint32_t wu = static_cast<uint32_t>(w);
  size_t i = 0;
  switch (word_bytes) {
    case 1: {
      auto* dst = static_cast<uint8_t*>(out);
      const __m256i fix =
          _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
      for (; i + 32 <= n; i += 32) {
        const uint32_t b = static_cast<uint32_t>(start + i) * wu;
        const __m256i v0 = Gather8(src, b, lane_bits, value_mask);
        const __m256i v1 = Gather8(src, b + 8 * wu, lane_bits, value_mask);
        const __m256i v2 = Gather8(src, b + 16 * wu, lane_bits, value_mask);
        const __m256i v3 = Gather8(src, b + 24 * wu, lane_bits, value_mask);
        const __m256i p01 = _mm256_packus_epi32(v0, v1);
        const __m256i p23 = _mm256_packus_epi32(v2, v3);
        __m256i bytes = _mm256_packus_epi16(p01, p23);
        bytes = _mm256_permutevar8x32_epi32(bytes, fix);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), bytes);
      }
      BitUnpackScalar(src, start + i, n - i, w, dst + i);
      return;
    }
    case 2: {
      auto* dst = static_cast<uint16_t*>(out);
      for (; i + 16 <= n; i += 16) {
        const uint32_t b = static_cast<uint32_t>(start + i) * wu;
        const __m256i v0 = Gather8(src, b, lane_bits, value_mask);
        const __m256i v1 = Gather8(src, b + 8 * wu, lane_bits, value_mask);
        __m256i p = _mm256_packus_epi32(v0, v1);
        p = _mm256_permute4x64_epi64(p, 0xD8);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), p);
      }
      BitUnpackScalar(src, start + i, n - i, w, dst + i);
      return;
    }
    case 4: {
      auto* dst = static_cast<uint32_t*>(out);
      for (; i + 8 <= n; i += 8) {
        const uint32_t b = static_cast<uint32_t>(start + i) * wu;
        const __m256i v = Gather8(src, b, lane_bits, value_mask);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
      }
      BitUnpackScalar(src, start + i, n - i, w, dst + i);
      return;
    }
    case 8: {
      auto* dst = static_cast<uint64_t*>(out);
      for (; i + 8 <= n; i += 8) {
        const uint32_t b = static_cast<uint32_t>(start + i) * wu;
        const __m256i v = Gather8(src, b, lane_bits, value_mask);
        const __m256i lo = _mm256_cvtepu32_epi64(_mm256_castsi256_si128(v));
        const __m256i hi =
            _mm256_cvtepu32_epi64(_mm256_extracti128_si256(v, 1));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i + 4), hi);
      }
      BitUnpackScalar(src, start + i, n - i, w, dst + i);
      return;
    }
    default:
      BIPIE_DCHECK(false);
  }
}

void UnpackWide(const uint8_t* src, size_t start, size_t n, int w, void* out,
                int word_bytes) {
  const __m256i lane_bits = _mm256_setr_epi64x(0, w, 2 * w, 3 * w);
  const __m256i value_mask =
      _mm256_set1_epi64x(static_cast<long long>(LowBitsMask(w)));
  const uint64_t wu = static_cast<uint64_t>(w);
  size_t i = 0;
  if (word_bytes == 4) {
    auto* dst = static_cast<uint32_t*>(out);
    const __m256i pick_even = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
    for (; i + 4 <= n; i += 4) {
      const __m256i v = Gather4(src, (start + i) * wu, lane_bits, value_mask);
      const __m256i narrowed = _mm256_permutevar8x32_epi32(v, pick_even);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                       _mm256_castsi256_si128(narrowed));
    }
    BitUnpackScalar(src, start + i, n - i, w, dst + i);
  } else {
    BIPIE_DCHECK(word_bytes == 8);
    auto* dst = static_cast<uint64_t*>(out);
    for (; i + 4 <= n; i += 4) {
      const __m256i v = Gather4(src, (start + i) * wu, lane_bits, value_mask);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), v);
    }
    BitUnpackScalar(src, start + i, n - i, w, dst + i);
  }
}

}  // namespace

void BitUnpackAvx2(const uint8_t* src, size_t start, size_t n, int bit_width,
                   void* out, int word_bytes) {
  if (bit_width > 57) {
    BitUnpackScalarToWord(src, start, n, bit_width, out, word_bytes);
    return;
  }
  if (bit_width > 25) {
    // 64-bit offset math throughout; no overflow concerns.
    UnpackWide(src, start, n, bit_width, out, word_bytes);
    return;
  }
  // The 32-bit gather index math requires bit offsets to fit in int32, so
  // huge streams are processed in rebased chunks. Rebasing needs the chunk
  // start to fall on a byte boundary, which an index divisible by 8
  // guarantees for any bit width; a short scalar prologue aligns `start`.
  auto* dst = static_cast<uint8_t*>(out);
  size_t prologue = (8 - (start & 7)) & 7;
  if (prologue > n) prologue = n;
  if (prologue > 0) {
    BitUnpackScalarToWord(src, start, prologue, bit_width, dst, word_bytes);
    start += prologue;
    n -= prologue;
    dst += prologue * word_bytes;
  }
  src += start * static_cast<uint64_t>(bit_width) / 8;
  // Values per chunk: keeps every intra-chunk bit offset below 2^30 and is a
  // multiple of 8 so each chunk start stays byte aligned.
  const size_t chunk_values =
      ((size_t{1} << 30) / static_cast<size_t>(bit_width)) & ~size_t{7};
  while (n > 0) {
    const size_t m = n < chunk_values ? n : chunk_values;
    UnpackNarrow(src, 0, m, bit_width, dst, word_bytes);
    src += m * static_cast<uint64_t>(bit_width) / 8;
    dst += m * word_bytes;
    n -= m;
  }
}

}  // namespace bipie::internal
