#include "encoding/bitpack.h"

#include <cstring>

#include "common/cpu.h"

namespace bipie {

void BitPack(const uint64_t* values, size_t n, int bit_width, uint8_t* dst) {
  BIPIE_DCHECK(bit_width >= 1 && bit_width <= 64);
  const uint64_t mask = LowBitsMask(bit_width);
  // Values stream LSB-first through one 64-bit accumulator; each full word
  // is stored once. `filled` (0..63) counts the accumulator's pending bits.
  uint64_t acc = 0;
  int filled = 0;
  uint8_t* out = dst;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = values[i];
    BIPIE_DCHECK((v & ~mask) == 0);
    acc |= v << filled;
    filled += bit_width;
    if (filled >= 64) {
      __builtin_memcpy(out, &acc, sizeof(acc));
      out += sizeof(acc);
      filled -= 64;
      // The bits of v that did not fit; none when v ended the word exactly.
      acc = filled == 0 ? 0 : v >> (bit_width - filled);
    }
  }
  // The partial word (its unused high bits are zero), then zeros up to the
  // 8 padding bytes past BitPackedBytes(n, bit_width).
  __builtin_memcpy(out, &acc, sizeof(acc));
  std::memset(out + sizeof(acc), 0, static_cast<size_t>(filled + 7) / 8);
}

void BitUnpack(const uint8_t* src, size_t start, size_t n, int bit_width,
               void* out) {
  BitUnpackToWord(src, start, n, bit_width, out,
                  SmallestWordBytes(bit_width));
}

void BitUnpackToWord(const uint8_t* src, size_t start, size_t n,
                     int bit_width, void* out, int word_bytes) {
  BIPIE_DCHECK(word_bytes >= SmallestWordBytes(bit_width));
  if (n == 0) return;
  if (VbmiEnabled()) {
    internal::BitUnpackAvx512(src, start, n, bit_width, out, word_bytes);
  } else if (CurrentIsaTier() >= IsaTier::kAvx2) {
    internal::BitUnpackAvx2(src, start, n, bit_width, out, word_bytes);
  } else {
    internal::BitUnpackScalarToWord(src, start, n, bit_width, out,
                                    word_bytes);
  }
}

namespace internal {

void BitUnpackScalarToWord(const uint8_t* src, size_t start, size_t n,
                           int bit_width, void* out, int word_bytes) {
  switch (word_bytes) {
    case 1:
      BitUnpackScalar(src, start, n, bit_width, static_cast<uint8_t*>(out));
      break;
    case 2:
      BitUnpackScalar(src, start, n, bit_width, static_cast<uint16_t*>(out));
      break;
    case 4:
      BitUnpackScalar(src, start, n, bit_width, static_cast<uint32_t*>(out));
      break;
    case 8:
      BitUnpackScalar(src, start, n, bit_width, static_cast<uint64_t*>(out));
      break;
    default:
      BIPIE_DCHECK(false);
  }
}

}  // namespace internal

}  // namespace bipie
