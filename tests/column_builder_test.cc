#include "storage/column_builder.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/random.h"

namespace bipie {
namespace {

std::vector<int64_t> DecodeAll(const EncodedColumn& col) {
  std::vector<int64_t> out(col.num_rows());
  col.DecodeInt64(0, col.num_rows(), out.data());
  return out;
}

TEST(ColumnBuilderTest, BitPackedRoundTrip) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kBitPacked});
  std::vector<int64_t> v;
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) v.push_back(rng.NextInRange(-100, 1000));
  for (int64_t x : v) b.AppendInt64(x);
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kBitPacked);
  EXPECT_EQ(col.base(), -100);
  EXPECT_EQ(col.meta().min, -100);
  EXPECT_EQ(col.meta().max, 1000);
  EXPECT_EQ(DecodeAll(col), v);
}

TEST(ColumnBuilderTest, DictionaryRoundTrip) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kDictionary});
  std::vector<int64_t> v;
  Rng rng(2);
  const int64_t domain[4] = {1000000, -7, 42, 0};
  for (int i = 0; i < 3000; ++i) v.push_back(domain[rng.NextBounded(4)]);
  for (int64_t x : v) b.AppendInt64(x);
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kDictionary);
  ASSERT_NE(col.int_dictionary(), nullptr);
  EXPECT_EQ(col.int_dictionary()->size(), 4u);
  EXPECT_EQ(col.id_bound(), 4u);
  EXPECT_EQ(col.bit_width(), 2);
  EXPECT_EQ(DecodeAll(col), v);
}

TEST(ColumnBuilderTest, RleRoundTrip) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kRle});
  std::vector<int64_t> v;
  for (int run = 0; run < 10; ++run) v.insert(v.end(), 100, run);
  for (int64_t x : v) b.AppendInt64(x);
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kRle);
  EXPECT_EQ(col.runs().size(), 10u);
  EXPECT_EQ(DecodeAll(col), v);
}

TEST(ColumnBuilderTest, DeltaRoundTrip) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kDelta});
  std::vector<int64_t> v;
  Rng rng(41);
  int64_t x = -1000000;
  for (int i = 0; i < 20000; ++i) {
    v.push_back(x);
    x += rng.NextInRange(-3, 12);
  }
  for (int64_t value : v) b.AppendInt64(value);
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kDelta);
  EXPECT_LE(col.bit_width(), 5);  // delta spread 15 -> 4 bits
  // Checkpoints every 4096 rows.
  EXPECT_EQ(col.delta_checkpoints().size(), (v.size() + 4095) / 4096);
  EXPECT_EQ(DecodeAll(col), v);
  // Windowed decode from a mid-stream checkpoint and off-checkpoint start.
  for (size_t start : {size_t{0}, size_t{4096}, size_t{5000}, size_t{8191},
                       v.size() - 7}) {
    std::vector<int64_t> out(7);
    col.DecodeInt64(start, 7, out.data());
    for (size_t i = 0; i < 7; ++i) {
      ASSERT_EQ(out[i], v[start + i]) << "start=" << start;
    }
  }
}

TEST(ColumnBuilderTest, DeltaSingleValueAndConstant) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kDelta});
  b.AppendInt64(42);
  EncodedColumn one = b.Finish();
  EXPECT_EQ(DecodeAll(one), std::vector<int64_t>{42});

  for (int i = 0; i < 100; ++i) b.AppendInt64(-7);
  EncodedColumn constant = b.Finish();
  EXPECT_EQ(DecodeAll(constant), std::vector<int64_t>(100, -7));
}

TEST(ColumnBuilderTest, DeltaNeverStoresOverflowingDifferences) {
  // Successive differences beyond int64: delta cannot store them, so
  // neither kAuto nor a forced kDelta picks it.
  const std::vector<int64_t> v = {std::numeric_limits<int64_t>::min(), 5,
                                  std::numeric_limits<int64_t>::max(), -3};
  for (const EncodingChoice choice :
       {EncodingChoice::kAuto, EncodingChoice::kDelta}) {
    ColumnBuilder b({"c", ColumnType::kInt64, choice});
    for (int64_t x : v) b.AppendInt64(x);
    EncodedColumn col = b.Finish();
    EXPECT_NE(col.encoding(), Encoding::kDelta);
    EXPECT_TRUE(col.Validate().ok()) << col.Validate().ToString();
    EXPECT_EQ(DecodeAll(col), v);
  }
}

TEST(ColumnBuilderTest, AutoPicksDeltaForMonotonicSequences) {
  // Strictly increasing timestamps with small steps: FOR needs wide
  // offsets, runs are all length 1, dictionary is infeasible — delta wins.
  ColumnBuilder b({"ts", ColumnType::kInt64, EncodingChoice::kAuto});
  Rng rng(43);
  int64_t ts = 1600000000000;
  for (int i = 0; i < 100000; ++i) {
    b.AppendInt64(ts);
    ts += rng.NextInRange(1, 40);
  }
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kDelta);
}

TEST(ColumnBuilderTest, AutoPicksRleForLongRuns) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kAuto});
  for (int run = 0; run < 3; ++run) {
    for (int i = 0; i < 10000; ++i) b.AppendInt64(run);
  }
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kRle);
}

TEST(ColumnBuilderTest, AutoPicksDictionaryForSparseDomain) {
  // Few distinct, widely spread values: dictionary ids (2 bits) beat
  // frame-of-reference offsets (~40 bits), and runs are short.
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kAuto});
  Rng rng(3);
  const int64_t domain[3] = {0, 1'000'000'000'000LL, -55};
  for (int i = 0; i < 20000; ++i) b.AppendInt64(domain[rng.NextBounded(3)]);
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kDictionary);
}

TEST(ColumnBuilderTest, AutoPicksBitPackedForDenseDomain) {
  // Dense small-range values: offsets are as narrow as dictionary ids would
  // be, without the dictionary overhead.
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kAuto});
  Rng rng(4);
  for (int i = 0; i < 20000; ++i) b.AppendInt64(rng.NextInRange(0, 127));
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kBitPacked);
  EXPECT_EQ(col.bit_width(), 7);
}

TEST(ColumnBuilderTest, StringColumnsAlwaysDictionary) {
  ColumnBuilder b({"flag", ColumnType::kString});
  const char* flags[3] = {"A", "N", "R"};
  Rng rng(5);
  std::vector<uint32_t> expected_ids;
  StringDictionary reference;
  for (int i = 0; i < 1000; ++i) {
    const std::string s = flags[rng.NextBounded(3)];
    expected_ids.push_back(reference.GetOrInsert(s));
    b.AppendString(s);
  }
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.encoding(), Encoding::kDictionary);
  ASSERT_NE(col.string_dictionary(), nullptr);
  EXPECT_EQ(col.string_dictionary()->size(), 3u);
  auto ids = DecodeAll(col);
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(ids[i], expected_ids[i]);
  }
}

TEST(ColumnBuilderTest, UnpackIdsMatchesBitWidth) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kBitPacked});
  for (int i = 0; i < 100; ++i) b.AppendInt64(50 + i % 10);
  EncodedColumn col = b.Finish();
  std::vector<uint8_t> ids(100);
  col.UnpackIds(0, 100, ids.data(), 1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ids[i], i % 10);  // offsets from base 50
  }
}

TEST(ColumnBuilderTest, EmptyColumn) {
  ColumnBuilder b({"c", ColumnType::kInt64});
  EncodedColumn col = b.Finish();
  EXPECT_EQ(col.num_rows(), 0u);
}

TEST(ColumnBuilderTest, BuilderResetsBetweenSegments) {
  ColumnBuilder b({"c", ColumnType::kInt64, EncodingChoice::kBitPacked});
  b.AppendInt64(1);
  b.AppendInt64(2);
  EncodedColumn first = b.Finish();
  EXPECT_EQ(first.num_rows(), 2u);
  b.AppendInt64(9);
  EncodedColumn second = b.Finish();
  EXPECT_EQ(second.num_rows(), 1u);
  EXPECT_EQ(DecodeAll(second), std::vector<int64_t>{9});
}

TEST(ColumnBuilderTest, BulkAppendMatchesRowAppend) {
  std::vector<int64_t> v = {5, 6, 7, 8, 9};
  ColumnBuilder bulk({"c", ColumnType::kInt64});
  bulk.AppendInt64Bulk(v.data(), v.size());
  ColumnBuilder rows({"c", ColumnType::kInt64});
  for (int64_t x : v) rows.AppendInt64(x);
  EXPECT_EQ(DecodeAll(bulk.Finish()), DecodeAll(rows.Finish()));
}

}  // namespace
}  // namespace bipie
