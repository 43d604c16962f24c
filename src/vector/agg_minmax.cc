#include "vector/agg_minmax.h"

#include <immintrin.h>

#include <algorithm>

#include "common/cpu.h"
#include "common/macros.h"

namespace bipie {

namespace internal {

namespace {

template <typename T, bool kIsMin>
void ScalarImpl(const uint8_t* groups, const T* values, size_t n,
                uint64_t* extrema) {
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = values[i];
    uint64_t& e = extrema[groups[i]];
    if (kIsMin ? v < e : v > e) e = v;
  }
}

template <bool kIsMin>
void ScalarDispatch(const uint8_t* groups, const void* values,
                    int word_bytes, size_t n, uint64_t* extrema) {
  switch (word_bytes) {
    case 1:
      ScalarImpl<uint8_t, kIsMin>(groups, static_cast<const uint8_t*>(values),
                                  n, extrema);
      return;
    case 2:
      ScalarImpl<uint16_t, kIsMin>(
          groups, static_cast<const uint16_t*>(values), n, extrema);
      return;
    case 4:
      ScalarImpl<uint32_t, kIsMin>(
          groups, static_cast<const uint32_t*>(values), n, extrema);
      return;
    case 8:
      ScalarImpl<uint64_t, kIsMin>(
          groups, static_cast<const uint64_t*>(values), n, extrema);
      return;
    default:
      BIPIE_DCHECK(false);
  }
}

}  // namespace

void GroupedMinUScalar(const uint8_t* groups, const void* values,
                       int word_bytes, size_t n, uint64_t* extrema) {
  ScalarDispatch<true>(groups, values, word_bytes, n, extrema);
}

void GroupedMaxUScalar(const uint8_t* groups, const void* values,
                       int word_bytes, size_t n, uint64_t* extrema) {
  ScalarDispatch<false>(groups, values, word_bytes, n, extrema);
}

}  // namespace internal

namespace {

constexpr int kMaxSimdMinMaxGroups = 32;

// In-register grouped min/max over unsigned bytes: one extremum register
// per group; candidates from other groups are replaced by the neutral
// element via the compare mask before the lane-wise min/max.
template <bool kIsMin>
void MinMaxU8Avx2(const uint8_t* groups, const uint8_t* values, size_t n,
                  int num_groups, uint64_t* extrema) {
  const __m256i neutral =
      kIsMin ? _mm256_set1_epi8(static_cast<char>(0xFF))
             : _mm256_setzero_si256();
  __m256i acc[kMaxSimdMinMaxGroups];
  for (int g = 0; g < num_groups; ++g) acc[g] = neutral;
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i ids =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(groups + i));
    const __m256i vals =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    for (int g = 0; g < num_groups; ++g) {
      const __m256i mask =
          _mm256_cmpeq_epi8(ids, _mm256_set1_epi8(static_cast<char>(g)));
      const __m256i candidate = _mm256_blendv_epi8(neutral, vals, mask);
      acc[g] = kIsMin ? _mm256_min_epu8(acc[g], candidate)
                      : _mm256_max_epu8(acc[g], candidate);
    }
  }
  for (int g = 0; g < num_groups; ++g) {
    alignas(32) uint8_t lanes[32];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[g]);
    uint64_t e = extrema[g];
    for (uint8_t lane : lanes) {
      if (kIsMin ? lane < e : lane > e) e = lane;
    }
    extrema[g] = e;
  }
  internal::ScalarDispatch<kIsMin>(groups + i, values + i, 1, n - i,
                                   extrema);
}

template <bool kIsMin>
void MinMaxU16Avx2(const uint8_t* groups, const uint16_t* values, size_t n,
                   int num_groups, uint64_t* extrema) {
  const __m256i neutral = kIsMin
                              ? _mm256_set1_epi16(static_cast<short>(0xFFFF))
                              : _mm256_setzero_si256();
  __m256i acc[kMaxSimdMinMaxGroups];
  for (int g = 0; g < num_groups; ++g) acc[g] = neutral;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i ids = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(groups + i)));
    const __m256i vals =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    for (int g = 0; g < num_groups; ++g) {
      const __m256i mask = _mm256_cmpeq_epi16(
          ids, _mm256_set1_epi16(static_cast<short>(g)));
      const __m256i candidate = _mm256_blendv_epi8(neutral, vals, mask);
      acc[g] = kIsMin ? _mm256_min_epu16(acc[g], candidate)
                      : _mm256_max_epu16(acc[g], candidate);
    }
  }
  for (int g = 0; g < num_groups; ++g) {
    alignas(32) uint16_t lanes[16];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[g]);
    uint64_t e = extrema[g];
    for (uint16_t lane : lanes) {
      if (kIsMin ? lane < e : lane > e) e = lane;
    }
    extrema[g] = e;
  }
  internal::ScalarDispatch<kIsMin>(groups + i, values + i, 2, n - i,
                                   extrema);
}

template <bool kIsMin>
void MinMaxU32Avx2(const uint8_t* groups, const uint32_t* values, size_t n,
                   int num_groups, uint64_t* extrema) {
  const __m256i neutral =
      kIsMin ? _mm256_set1_epi32(-1) : _mm256_setzero_si256();
  __m256i acc[kMaxSimdMinMaxGroups];
  for (int g = 0; g < num_groups; ++g) acc[g] = neutral;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i ids = _mm256_cvtepu8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(groups + i)));
    const __m256i vals =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    for (int g = 0; g < num_groups; ++g) {
      const __m256i mask = _mm256_cmpeq_epi32(ids, _mm256_set1_epi32(g));
      const __m256i candidate = _mm256_blendv_epi8(neutral, vals, mask);
      acc[g] = kIsMin ? _mm256_min_epu32(acc[g], candidate)
                      : _mm256_max_epu32(acc[g], candidate);
    }
  }
  for (int g = 0; g < num_groups; ++g) {
    alignas(32) uint32_t lanes[8];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc[g]);
    uint64_t e = extrema[g];
    for (uint32_t lane : lanes) {
      if (kIsMin ? lane < e : lane > e) e = lane;
    }
    extrema[g] = e;
  }
  internal::ScalarDispatch<kIsMin>(groups + i, values + i, 4, n - i,
                                   extrema);
}

template <bool kIsMin>
void Dispatch(const uint8_t* groups, const void* values, int word_bytes,
              size_t n, int num_groups, uint64_t* extrema) {
  if (CurrentIsaTier() >= IsaTier::kAvx2 &&
      num_groups <= kMaxSimdMinMaxGroups) {
    switch (word_bytes) {
      case 1:
        MinMaxU8Avx2<kIsMin>(groups, static_cast<const uint8_t*>(values), n,
                             num_groups, extrema);
        return;
      case 2:
        MinMaxU16Avx2<kIsMin>(groups, static_cast<const uint16_t*>(values),
                              n, num_groups, extrema);
        return;
      case 4:
        MinMaxU32Avx2<kIsMin>(groups, static_cast<const uint32_t*>(values),
                              n, num_groups, extrema);
        return;
      default:
        break;
    }
  }
  internal::ScalarDispatch<kIsMin>(groups, values, word_bytes, n, extrema);
}

}  // namespace

void GroupedMinU(const uint8_t* groups, const void* values, int word_bytes,
                 size_t n, int num_groups, uint64_t* extrema) {
  BIPIE_DCHECK(num_groups >= 1 && num_groups <= 256);
  Dispatch<true>(groups, values, word_bytes, n, num_groups, extrema);
}

void GroupedMaxU(const uint8_t* groups, const void* values, int word_bytes,
                 size_t n, int num_groups, uint64_t* extrema) {
  BIPIE_DCHECK(num_groups >= 1 && num_groups <= 256);
  Dispatch<false>(groups, values, word_bytes, n, num_groups, extrema);
}

void GroupedMinI64(const uint8_t* groups, const int64_t* values, size_t n,
                   int num_groups, int64_t* extrema) {
  BIPIE_DCHECK(num_groups >= 1 && num_groups <= 256);
  for (size_t i = 0; i < n; ++i) {
    extrema[groups[i]] = std::min(extrema[groups[i]], values[i]);
  }
}

void GroupedMaxI64(const uint8_t* groups, const int64_t* values, size_t n,
                   int num_groups, int64_t* extrema) {
  BIPIE_DCHECK(num_groups >= 1 && num_groups <= 256);
  for (size_t i = 0; i < n; ++i) {
    extrema[groups[i]] = std::max(extrema[groups[i]], values[i]);
  }
}

}  // namespace bipie
