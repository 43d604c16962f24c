#include "encoding/bitpack.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/bits.h"
#include "test_util.h"

namespace bipie {
namespace {

TEST(BitsTest, BitsRequired) {
  EXPECT_EQ(BitsRequired(0), 1);
  EXPECT_EQ(BitsRequired(1), 1);
  EXPECT_EQ(BitsRequired(2), 2);
  EXPECT_EQ(BitsRequired(255), 8);
  EXPECT_EQ(BitsRequired(256), 9);
  EXPECT_EQ(BitsRequired(~0ULL), 64);
}

TEST(BitsTest, SmallestWordBytes) {
  EXPECT_EQ(SmallestWordBytes(1), 1);
  EXPECT_EQ(SmallestWordBytes(8), 1);
  EXPECT_EQ(SmallestWordBytes(9), 2);
  EXPECT_EQ(SmallestWordBytes(16), 2);
  EXPECT_EQ(SmallestWordBytes(17), 4);
  EXPECT_EQ(SmallestWordBytes(32), 4);
  EXPECT_EQ(SmallestWordBytes(33), 8);
  EXPECT_EQ(SmallestWordBytes(64), 8);
}

TEST(BitsTest, LowBitsMask) {
  EXPECT_EQ(LowBitsMask(0), 0u);
  EXPECT_EQ(LowBitsMask(1), 1u);
  EXPECT_EQ(LowBitsMask(8), 0xFFu);
  EXPECT_EQ(LowBitsMask(64), ~0ULL);
}

TEST(BitPackTest, PackedBytesFormula) {
  EXPECT_EQ(BitPackedBytes(0, 5), 0u);
  EXPECT_EQ(BitPackedBytes(8, 1), 1u);
  EXPECT_EQ(BitPackedBytes(9, 1), 2u);
  EXPECT_EQ(BitPackedBytes(3, 7), 3u);  // 21 bits -> 3 bytes
  EXPECT_EQ(BitPackedBytes(1, 64), 8u);
}

TEST(BitPackTest, UnpackOneMatchesInput) {
  for (int w : {1, 3, 7, 8, 13, 25, 26, 31, 32, 33, 57, 58, 63, 64}) {
    auto values = test::RandomPackedValues(257, w, 1000 + w);
    auto packed = test::Pack(values, w);
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(BitUnpackOne(packed.data(), i, w), values[i])
          << "w=" << w << " i=" << i;
    }
  }
}

// Property sweep: pack -> unpack round-trips exactly for every bit width on
// every ISA tier, at the smallest word size.
class BitPackRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BitPackRoundTrip, SmallestWord) {
  const int w = GetParam();
  const size_t n = 1000;  // not a multiple of any SIMD block size
  auto values = test::RandomPackedValues(n, w, 7 * w + 1);
  auto packed = test::Pack(values, w);
  const int word = SmallestWordBytes(w);
  test::ForEachIsaTier([&](IsaTier) {
    AlignedBuffer out(n * word);
    BitUnpack(packed.data(), 0, n, w, out.data());
    for (size_t i = 0; i < n; ++i) {
      uint64_t got = 0;
      std::memcpy(&got, out.data() + i * word, word);
      ASSERT_EQ(got, values[i]) << "w=" << w << " i=" << i;
    }
  });
}

TEST_P(BitPackRoundTrip, UnalignedStartOffsets) {
  const int w = GetParam();
  const size_t n = 300;
  auto values = test::RandomPackedValues(n, w, 31 * w + 5);
  auto packed = test::Pack(values, w);
  const int word = SmallestWordBytes(w);
  test::ForEachIsaTier([&](IsaTier) {
    for (size_t start : {1u, 3u, 7u, 8u, 9u, 63u}) {
      const size_t m = n - start;
      AlignedBuffer out(m * word);
      BitUnpack(packed.data(), start, m, w, out.data());
      for (size_t i = 0; i < m; ++i) {
        uint64_t got = 0;
        std::memcpy(&got, out.data() + i * word, word);
        ASSERT_EQ(got, values[start + i]) << "w=" << w << " start=" << start
                                          << " i=" << i;
      }
    }
  });
}

TEST_P(BitPackRoundTrip, WidenedWords) {
  const int w = GetParam();
  const size_t n = 500;
  auto values = test::RandomPackedValues(n, w, 13 * w);
  auto packed = test::Pack(values, w);
  test::ForEachIsaTier([&](IsaTier) {
    for (int word = SmallestWordBytes(w); word <= 8; word *= 2) {
      AlignedBuffer out(n * word);
      BitUnpackToWord(packed.data(), 0, n, w, out.data(), word);
      for (size_t i = 0; i < n; ++i) {
        uint64_t got = 0;
        std::memcpy(&got, out.data() + i * word, word);
        ASSERT_EQ(got, values[i]) << "w=" << w << " word=" << word;
      }
    }
  });
}

// Index of the first of n unpacked words that differs from values, or n.
template <typename Word>
size_t FirstMismatch(const uint8_t* out, const uint64_t* values, size_t n) {
  const auto* words = reinterpret_cast<const Word*>(out);
  for (size_t i = 0; i < n; ++i) {
    if (words[i] != values[i]) return i;
  }
  return n;
}

size_t FirstMismatch(const uint8_t* out, int word, const uint64_t* values,
                     size_t n) {
  switch (word) {
    case 1:
      return FirstMismatch<uint8_t>(out, values, n);
    case 2:
      return FirstMismatch<uint16_t>(out, values, n);
    case 4:
      return FirstMismatch<uint32_t>(out, values, n);
    default:
      return FirstMismatch<uint64_t>(out, values, n);
  }
}

// The scan's call shape: 4096-row batches, lengths around the batch size,
// starts just past batch boundaries, every legal word. The bytes after the
// last word must stay untouched: the SIMD tails store under a mask.
TEST_P(BitPackRoundTrip, BatchShapes) {
  const int w = GetParam();
  constexpr size_t kBatch = 4096;
  auto values = test::RandomPackedValues(2 * kBatch + 16, w, 101 * w + 3);
  auto packed = test::Pack(values, w);
  constexpr uint8_t kCanary = 0xA5;
  AlignedBuffer out((kBatch + 1) * 8 + 64);
  test::ForEachIsaTier([&](IsaTier tier) {
    for (int word = SmallestWordBytes(w); word <= 8; word *= 2) {
      for (size_t i = 0; i < 32; ++i) {
        const size_t start = (i / 16) * kBatch + i % 16;
        for (size_t n : {kBatch - 1, kBatch, kBatch + 1}) {
          std::memset(out.data(), kCanary, out.size());
          BitUnpackToWord(packed.data(), start, n, w, out.data(), word);
          ASSERT_EQ(FirstMismatch(out.data(), word, &values[start], n), n)
              << "w=" << w << " word=" << word << " start=" << start
              << " n=" << n << " tier=" << IsaTierName(tier);
          for (size_t b = n * word; b < n * word + 64; ++b) {
            ASSERT_EQ(out.data()[b], kCanary)
                << "w=" << w << " word=" << word << " n=" << n
                << " wrote byte " << b << " tier=" << IsaTierName(tier);
          }
        }
      }
    }
  });
}

// The packed stream ends exactly AlignedBuffer::kPaddingBytes before the
// end of its allocation (the buffer size is a multiple of kAlignment and the
// stream sits at its end), so sanitizer builds fail on any read past the
// padding. Value n - 1 = 4096 starts a kernel iteration; for w <= 8 its
// 64-byte load starts on the final packed byte.
TEST_P(BitPackRoundTrip, EndOfStream) {
  const int w = GetParam();
  const size_t n = 4097;
  auto values = test::RandomPackedValues(n, w, 17 * w + 9);
  const auto staged = test::Pack(values, w);
  const size_t bytes = BitPackedBytes(n, w);
  AlignedBuffer buf(CeilDiv(bytes, AlignedBuffer::kAlignment) *
                    AlignedBuffer::kAlignment);
  uint8_t* packed = buf.data() + buf.size() - bytes;
  std::memcpy(packed, staged.data(), bytes);
  AlignedBuffer out(n * 8);
  test::ForEachIsaTier([&](IsaTier tier) {
    for (int word = SmallestWordBytes(w); word <= 8; word *= 2) {
      for (size_t start : {size_t{0}, n - 65, n - 64, n - 9, n - 8, n - 1}) {
        const size_t m = n - start;
        BitUnpackToWord(packed, start, m, w, out.data(), word);
        ASSERT_EQ(FirstMismatch(out.data(), word, &values[start], m), m)
            << "w=" << w << " word=" << word << " start=" << start
            << " tier=" << IsaTierName(tier);
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AllBitWidths, BitPackRoundTrip,
                         ::testing::Range(1, 65));

TEST(BitPackTest, MaximalValuesEveryWidth) {
  // All-ones values stress the mask/shift boundaries.
  for (int w = 1; w <= 64; ++w) {
    const size_t n = 100;
    std::vector<uint64_t> values(n, LowBitsMask(w));
    auto packed = test::Pack(values, w);
    AlignedBuffer out(n * 8);
    test::ForEachIsaTier([&](IsaTier) {
      BitUnpackToWord(packed.data(), 0, n, w, out.data(), 8);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out.data_as<uint64_t>()[i], LowBitsMask(w)) << "w=" << w;
      }
    });
  }
}

// ForEachIsaTier's kAvx2 pass must reach the AVX2 gathers even on VBMI
// hardware, so the VBMI probe follows the tier override.
TEST(BitPackTest, VbmiFollowsTierOverride) {
  SetIsaTierForTesting(IsaTier::kAvx2);
  EXPECT_FALSE(VbmiEnabled());
  SetIsaTierForTesting(DetectIsaTier());
}

TEST(BitPackTest, EmptyInput) {
  AlignedBuffer packed(8);
  uint32_t sink = 0xABCD;
  BitUnpack(packed.data(), 0, 0, 17, &sink);
  EXPECT_EQ(sink, 0xABCDu);  // untouched
}

TEST(BitPackTest, SingleValue) {
  for (int w : {1, 12, 33, 64}) {
    std::vector<uint64_t> values = {LowBitsMask(w) - (w > 1 ? 1 : 0)};
    auto packed = test::Pack(values, w);
    uint64_t out = 0;
    BitUnpackToWord(packed.data(), 0, 1, w, &out, 8);
    EXPECT_EQ(out, values[0]);
  }
}

TEST(BitPackTest, AdjacentValuesDoNotBleed) {
  // Alternating zero / all-ones: any shift bug corrupts the zeros.
  for (int w : {3, 5, 7, 11, 13, 19, 23, 29, 31}) {
    const size_t n = 256;
    std::vector<uint64_t> values(n);
    for (size_t i = 0; i < n; ++i) values[i] = (i % 2) ? LowBitsMask(w) : 0;
    auto packed = test::Pack(values, w);
    AlignedBuffer out(n * 4);
    test::ForEachIsaTier([&](IsaTier) {
      BitUnpackToWord(packed.data(), 0, n, w, out.data(), 4);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(out.data_as<uint32_t>()[i], values[i]) << "w=" << w;
      }
    });
  }
}

// Bit-by-bit reference packer: bit j of value i lands at stream bit
// i * w + j, LSB-first within each byte; the 8 padding bytes stay zero.
std::vector<uint8_t> ReferencePack(const std::vector<uint64_t>& values,
                                   int w) {
  std::vector<uint8_t> out(BitPackedBytes(values.size(), w) + 8, 0);
  for (size_t i = 0; i < values.size(); ++i) {
    for (int j = 0; j < w; ++j) {
      if ((values[i] >> j) & 1) {
        const uint64_t bit = i * static_cast<uint64_t>(w) + j;
        out[bit / 8] = static_cast<uint8_t>(out[bit / 8] | (1u << (bit % 8)));
      }
    }
  }
  return out;
}

// BitPack writes exactly the reference's bytes, padding zeros included,
// into a destination it may not assume zeroed, and nothing past them.
TEST(BitPackTest, OutputBytesMatchReferencePacker) {
  constexpr uint8_t kCanary = 0xA5;
  for (int w = 1; w <= 64; ++w) {
    for (const size_t n : {0, 1, 63, 64, 65, 4097}) {
      const auto values = test::RandomPackedValues(n, w, 64 * n + w);
      const std::vector<uint8_t> expected = ReferencePack(values, w);
      std::vector<uint8_t> got(expected.size() + 1, kCanary);
      BitPack(values.data(), n, w, got.data());
      ASSERT_EQ(got.back(), kCanary) << "w=" << w << " n=" << n;
      got.pop_back();
      ASSERT_EQ(got, expected) << "w=" << w << " n=" << n;
    }
  }
}

}  // namespace
}  // namespace bipie
