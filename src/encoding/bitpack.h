// Integer bit-packing codec (§2.1).
//
// Bit packing represents every value of a sequence with the same fixed
// number of bits, concatenated LSB-first into one gap-free bit vector inside
// little-endian bytes. Value i occupies bits [i*w, (i+1)*w) of the stream.
//
// Unpacking always emits elements of the smallest power-of-two byte width
// (1, 2, 4 or 8) that fits the bit width — the "smallest word" rule of §2.2.
//
// The AVX-512 unpack kernels load whole 64-byte blocks starting at the first
// byte of a value they decode, so they may read up to 63 bytes past the last
// packed byte (the AVX2 gathers read at most 8); packed buffers must provide
// AlignedBuffer::kPaddingBytes (64) of readable padding.
#ifndef BIPIE_ENCODING_BITPACK_H_
#define BIPIE_ENCODING_BITPACK_H_

#include <cstddef>
#include <cstdint>

#include "common/bits.h"
#include "common/macros.h"

namespace bipie {

// Bytes needed to hold `n` packed values of `bit_width` bits (excluding any
// safety padding).
inline size_t BitPackedBytes(size_t n, int bit_width) {
  return static_cast<size_t>(CeilDiv(n * static_cast<uint64_t>(bit_width), 8));
}

// Packs n values into dst. Each value must fit in bit_width bits
// (checked). dst must hold BitPackedBytes(n, bit_width) + 8 writable bytes.
void BitPack(const uint64_t* values, size_t n, int bit_width, uint8_t* dst);

// Reads the single packed value at `index`. Scalar; used by gather kernels'
// fallbacks and by tests.
BIPIE_ALWAYS_INLINE uint64_t BitUnpackOne(const uint8_t* src, size_t index,
                                          int bit_width) {
  const uint64_t bit_off = index * static_cast<uint64_t>(bit_width);
  const uint8_t* p = src + (bit_off >> 3);
  const int shift = static_cast<int>(bit_off & 7);
  // A value of width <= 57 plus a shift of <= 7 fits one unaligned u64 load.
  if (bit_width + shift <= 64) {
    uint64_t word;
    __builtin_memcpy(&word, p, sizeof(word));
    return (word >> shift) & LowBitsMask(bit_width);
  }
  // Widths 58..64 can straddle 9 bytes.
  uint64_t lo;
  __builtin_memcpy(&lo, p, sizeof(lo));
  const uint64_t hi = p[8];
  const uint64_t value = (lo >> shift) | (hi << (64 - shift));
  return value & LowBitsMask(bit_width);
}

// Unpacks values [start, start + n) of the stream into `out`, whose element
// type is the smallest power-of-two word for bit_width (uint8_t for w<=8,
// uint16_t for w<=16, uint32_t for w<=32, uint64_t otherwise). Dispatches to
// the best ISA tier at runtime.
void BitUnpack(const uint8_t* src, size_t start, size_t n, int bit_width,
               void* out);

// As BitUnpack but into a caller-chosen word width (must be >= the smallest
// word for bit_width). Used when a consumer wants pre-widened values, e.g.
// multi-aggregate slots.
void BitUnpackToWord(const uint8_t* src, size_t start, size_t n,
                     int bit_width, void* out, int word_bytes);

namespace internal {

// Portable reference implementations (always available; also the dispatch
// target on the scalar tier).
template <typename Word>
void BitUnpackScalar(const uint8_t* src, size_t start, size_t n,
                     int bit_width, Word* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<Word>(BitUnpackOne(src, start + i, bit_width));
  }
}

// BitUnpackScalar at a runtime word width in {1, 2, 4, 8}.
void BitUnpackScalarToWord(const uint8_t* src, size_t start, size_t n,
                           int bit_width, void* out, int word_bytes);

// AVX2 tier entry point, defined in bitpack_avx2.cc. word_bytes in {1,2,4,8}.
void BitUnpackAvx2(const uint8_t* src, size_t start, size_t n, int bit_width,
                   void* out, int word_bytes);

// AVX-512 VBMI entry point, defined in bitpack_avx512.cc (compiled with
// AVX-512 VBMI flags); the dispatcher enters it only when VbmiEnabled().
// Permutes each value's bytes into its lane from one 64-byte load instead of
// gathering. Widths above 57 are scalar.
void BitUnpackAvx512(const uint8_t* src, size_t start, size_t n,
                     int bit_width, void* out, int word_bytes);

}  // namespace internal

}  // namespace bipie

#endif  // BIPIE_ENCODING_BITPACK_H_
