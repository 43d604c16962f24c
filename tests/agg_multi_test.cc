#include "vector/agg_multi.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "test_util.h"

namespace bipie {
namespace {

// Slot kinds by input array: kPaired uint32 < 2^16, kWidened int32 of any
// magnitude, kFull int64.
const MultiAggregator::ColumnDesc kPaired{4, false};
const MultiAggregator::ColumnDesc kWidened{4, true};
const MultiAggregator::ColumnDesc kFull{8, false};

// A test harness holding decoded input arrays of mixed widths.
struct MultiAggFixture {
  std::vector<uint8_t> groups;
  std::vector<AlignedBuffer> arrays;
  std::vector<const void*> ptrs;
  std::vector<MultiAggregator::ColumnDesc> descs;
  int num_groups;

  MultiAggFixture(size_t n, int num_groups_in,
                  std::vector<MultiAggregator::ColumnDesc> columns,
                  uint64_t seed)
      : descs(std::move(columns)), num_groups(num_groups_in) {
    Rng rng(seed);
    groups.resize(n);
    for (auto& g : groups) {
      g = static_cast<uint8_t>(rng.NextBounded(num_groups));
    }
    for (const MultiAggregator::ColumnDesc& d : descs) {
      AlignedBuffer buf(n * d.input_bytes);
      for (size_t i = 0; i < n; ++i) {
        if (d.input_bytes == 8) {
          buf.data_as<int64_t>()[i] = rng.NextInRange(-1000000, 1000000);
        } else if (d.widen) {
          // Negative values and both int32 extremes.
          const int64_t pick = rng.NextBounded(8);
          buf.data_as<int32_t>()[i] =
              pick == 0   ? std::numeric_limits<int32_t>::min()
              : pick == 1 ? std::numeric_limits<int32_t>::max()
                          : static_cast<int32_t>(rng.NextInRange(
                                std::numeric_limits<int32_t>::min(),
                                std::numeric_limits<int32_t>::max()));
        } else {
          buf.data_as<uint32_t>()[i] =
              static_cast<uint32_t>(rng.NextBounded(1 << 16));
        }
      }
      arrays.push_back(std::move(buf));
    }
    for (auto& a : arrays) ptrs.push_back(a.data());
  }

  // Plain widths: 4 => kPaired, 8 => kFull.
  MultiAggFixture(size_t n, int num_groups_in, const std::vector<int>& widths,
                  uint64_t seed)
      : MultiAggFixture(n, num_groups_in, Descs(widths), seed) {}

  static std::vector<MultiAggregator::ColumnDesc> Descs(
      const std::vector<int>& widths) {
    std::vector<MultiAggregator::ColumnDesc> out;
    for (int w : widths) out.push_back(w == 4 ? kPaired : kFull);
    return out;
  }

  int64_t Value(size_t c, size_t i) const {
    if (descs[c].input_bytes == 8) return arrays[c].data_as<int64_t>()[i];
    if (descs[c].widen) return arrays[c].data_as<int32_t>()[i];
    return arrays[c].data_as<uint32_t>()[i];
  }

  std::vector<int64_t> ReferenceSums(size_t n) const {
    std::vector<int64_t> sums(num_groups * descs.size(), 0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t c = 0; c < descs.size(); ++c) {
        sums[groups[i] * descs.size() + c] += Value(c, i);
      }
    }
    return sums;
  }
  std::vector<int64_t> ReferenceSums() const {
    return ReferenceSums(groups.size());
  }
};

// The size combinations of the paper's Table 4, mapped to expanded widths
// (1-2 byte inputs -> 4-byte arrays, 4-8 byte inputs -> 8-byte arrays).
class MultiAggLayouts
    : public ::testing::TestWithParam<std::vector<int>> {};

TEST_P(MultiAggLayouts, MatchesReference) {
  MultiAggFixture f(5003, 32, GetParam(), 17);
  test::ForEachIsaTier([&](IsaTier tier) {
    MultiAggregator agg;
    ASSERT_TRUE(agg.Configure(f.descs, f.num_groups).ok());
    agg.Process(f.groups.data(), f.ptrs.data(), f.groups.size());
    std::vector<int64_t> sums(f.num_groups * f.descs.size(), 0);
    agg.Flush(sums.data());
    ASSERT_EQ(sums, f.ReferenceSums()) << "tier=" << IsaTierName(tier);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Table4Layouts, MultiAggLayouts,
    ::testing::Values(std::vector<int>{8, 4},           // 8-2
                      std::vector<int>{8, 8, 4},        // 8-4-1
                      std::vector<int>{8, 8, 8, 4},     // 8-8-4-2
                      std::vector<int>{8, 8, 8, 4, 4},  // 8-4-4-2-2
                      std::vector<int>{8, 8, 4, 4, 4},  // 4-4-2-2-2
                      std::vector<int>{8},              // single 64-bit
                      std::vector<int>{4},              // single 32-bit
                      std::vector<int>{4, 4},
                      std::vector<int>{4, 4, 4},
                      std::vector<int>{4, 4, 4, 4, 4, 4, 4},  // 7 narrow
                      std::vector<int>{8, 8, 8, 8}));

// Every mix of full, widened and paired slots that fits four lanes, at row
// counts 1-7 past a multiple of 4 so the scalar tail sums every slot kind.
TEST(MultiAggregatorTest, EveryLaneMixMatchesReferenceWithTails) {
  test::ForEachIsaTier([&](IsaTier tier) {
    for (int nf = 0; nf <= 4; ++nf) {
      for (int nw = 0; nf + nw <= 4; ++nw) {
        for (int np = 0; nf + nw + (np + 1) / 2 <= 4; ++np) {
          if (nf + nw + np == 0) continue;
          std::vector<MultiAggregator::ColumnDesc> descs;
          // Interleave the kinds so lane order differs from column order.
          for (int k = 0; k < 4; ++k) {
            if (k < np) descs.push_back(kPaired);
            if (k < nw) descs.push_back(kWidened);
            if (k < nf) descs.push_back(kFull);
            if (k + 4 < np) descs.push_back(kPaired);
          }
          for (size_t n = 4096; n <= 4096 + 7; ++n) {
            MultiAggFixture f(n, 7, descs, 100 * nf + 10 * nw + np + n);
            MultiAggregator agg;
            ASSERT_TRUE(agg.Configure(f.descs, f.num_groups).ok());
            agg.Process(f.groups.data(), f.ptrs.data(), n);
            std::vector<int64_t> sums(f.num_groups * f.descs.size(), 0);
            agg.Flush(sums.data());
            ASSERT_EQ(sums, f.ReferenceSums())
                << "tier=" << IsaTierName(tier) << " full=" << nf
                << " widened=" << nw << " paired=" << np << " n=" << n;
          }
        }
      }
    }
  });
}

TEST(MultiAggregatorTest, WidenedTailSignExtends) {
  // Three rows only: every row takes the scalar tail. A zero-extended
  // int32 would turn -1 into 2^32 - 1.
  MultiAggFixture f(3, 1, {kWidened, kPaired}, 41);
  const int32_t values[3] = {-1, std::numeric_limits<int32_t>::min(),
                             std::numeric_limits<int32_t>::max()};
  for (size_t i = 0; i < 3; ++i) f.arrays[0].data_as<int32_t>()[i] = values[i];
  test::ForEachIsaTier([&](IsaTier tier) {
    MultiAggregator agg;
    ASSERT_TRUE(agg.Configure(f.descs, 1).ok());
    agg.Process(f.groups.data(), f.ptrs.data(), 3);
    std::vector<int64_t> sums(2, 0);
    agg.Flush(sums.data());
    EXPECT_EQ(sums[0], -2) << "tier=" << IsaTierName(tier);
    EXPECT_EQ(sums, f.ReferenceSums()) << "tier=" << IsaTierName(tier);
  });
}

TEST(MultiAggregatorTest, RejectsOversizedRow) {
  MultiAggregator agg;
  // Five 64-bit slots do not fit a 256-bit register.
  std::vector<MultiAggregator::ColumnDesc> cols(5, {8});
  EXPECT_EQ(agg.Configure(cols, 8).code(), StatusCode::kNotSupported);
}

TEST(MultiAggregatorTest, RejectsEmptyColumnsAndBadGroups) {
  MultiAggregator agg;
  EXPECT_FALSE(agg.Configure({}, 8).ok());
  EXPECT_FALSE(agg.Configure({{8}}, 0).ok());
  EXPECT_FALSE(agg.Configure({{8}}, 257).ok());
  EXPECT_FALSE(agg.Configure({{3}}, 8).ok());
  EXPECT_FALSE(agg.Configure({{8, true}}, 8).ok());
}

TEST(MultiAggregatorTest, PackedRowBytesReflectsPairing) {
  MultiAggregator agg;
  ASSERT_TRUE(agg.Configure({{8}, {4}, {4}, {4}}, 4).ok());
  // One qword slot + two pairs (one padded) = 24 bytes.
  EXPECT_EQ(agg.packed_row_bytes(), 24);
  // A widened slot takes a whole lane.
  ASSERT_TRUE(agg.Configure({{4, true}, {4}, {4}}, 4).ok());
  EXPECT_EQ(agg.packed_row_bytes(), 16);
}

TEST(MultiAggregatorTest, DrainCadenceSurvivesLongStreams) {
  // > 65536 rows with maximal narrow values: the 32-bit lanes must drain
  // before wrapping.
  const size_t n = 70000;
  MultiAggFixture f(n, 3, std::vector<int>{4, 4}, 23);
  for (size_t i = 0; i < n; ++i) {
    f.arrays[0].data_as<uint32_t>()[i] = 0xFFFF;
    f.arrays[1].data_as<uint32_t>()[i] = 0xFFFF;
  }
  test::ForEachIsaTier([&](IsaTier tier) {
    MultiAggregator agg;
    ASSERT_TRUE(agg.Configure(f.descs, 3).ok());
    agg.Process(f.groups.data(), f.ptrs.data(), n);
    std::vector<int64_t> sums(3 * 2, 0);
    agg.Flush(sums.data());
    EXPECT_EQ(sums, f.ReferenceSums()) << "tier=" << IsaTierName(tier);
  });
}

TEST(MultiAggregatorTest, DrainProofCoversAccumulatorCopies) {
  // Every row in one group with both pair halves at 0xFFFF, across three
  // drains and a tail: each copy's halves reach 16384 * 0xFFFF, and the
  // four copies' sum, 65536 * 0xFFFF, must not carry between the halves.
  // Widened and full lanes ride along.
  const size_t n = 3 * 65536 + 5;
  MultiAggFixture f(n, 1, {kPaired, kPaired, kWidened, kFull}, 43);
  for (size_t i = 0; i < n; ++i) {
    f.arrays[0].data_as<uint32_t>()[i] = 0xFFFF;
    f.arrays[1].data_as<uint32_t>()[i] = 0xFFFF;
  }
  test::ForEachIsaTier([&](IsaTier tier) {
    MultiAggregator agg;
    ASSERT_TRUE(agg.Configure(f.descs, 1).ok());
    // Uneven calls, so drains fall inside a call.
    const size_t cuts[] = {0, 4096, 70001, 131072, n};
    for (size_t k = 0; k + 1 < std::size(cuts); ++k) {
      const void* ptrs[4];
      for (size_t c = 0; c < 4; ++c) {
        ptrs[c] = f.arrays[c].data() + cuts[k] * f.descs[c].input_bytes;
      }
      agg.Process(f.groups.data() + cuts[k], ptrs, cuts[k + 1] - cuts[k]);
    }
    std::vector<int64_t> sums(4, 0);
    agg.Flush(sums.data());
    EXPECT_EQ(sums[0], static_cast<int64_t>(n) * 0xFFFF)
        << "tier=" << IsaTierName(tier);
    EXPECT_EQ(sums, f.ReferenceSums()) << "tier=" << IsaTierName(tier);
  });
}

TEST(MultiAggregatorTest, MultipleProcessCallsAccumulate) {
  MultiAggFixture f(1000, 8, {8, 4}, 29);
  MultiAggregator agg;
  ASSERT_TRUE(agg.Configure(f.descs, 8).ok());
  // Feed in three unevenly sized chunks, including a misaligned split.
  const void* ptrs_mid[2];
  const void* ptrs_last[2];
  ptrs_mid[0] = f.arrays[0].data_as<int64_t>() + 333;
  ptrs_mid[1] = f.arrays[1].data_as<uint32_t>() + 333;
  ptrs_last[0] = f.arrays[0].data_as<int64_t>() + 998;
  ptrs_last[1] = f.arrays[1].data_as<uint32_t>() + 998;
  agg.Process(f.groups.data(), f.ptrs.data(), 333);
  agg.Process(f.groups.data() + 333, ptrs_mid, 665);
  agg.Process(f.groups.data() + 998, ptrs_last, 2);
  std::vector<int64_t> sums(8 * 2, 0);
  agg.Flush(sums.data());
  EXPECT_EQ(sums, f.ReferenceSums());
}

TEST(MultiAggregatorTest, FlushResetsState) {
  MultiAggFixture f(500, 4, std::vector<int>{8}, 31);
  MultiAggregator agg;
  ASSERT_TRUE(agg.Configure(f.descs, 4).ok());
  agg.Process(f.groups.data(), f.ptrs.data(), 500);
  std::vector<int64_t> first(4, 0), second(4, 0);
  agg.Flush(first.data());
  agg.Flush(second.data());
  EXPECT_EQ(first, f.ReferenceSums());
  EXPECT_EQ(second, std::vector<int64_t>(4, 0));
}

TEST(MultiAggregatorTest, MaxGroups256) {
  MultiAggFixture f(10000, 256, {8, 4}, 37);
  MultiAggregator agg;
  ASSERT_TRUE(agg.Configure(f.descs, 256).ok());
  agg.Process(f.groups.data(), f.ptrs.data(), f.groups.size());
  std::vector<int64_t> sums(256 * 2, 0);
  agg.Flush(sums.data());
  EXPECT_EQ(sums, f.ReferenceSums());
}

}  // namespace
}  // namespace bipie
