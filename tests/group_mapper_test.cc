#include "core/group_mapper.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/random.h"
#include "storage/table.h"

namespace bipie {
namespace {

Table MakeTable(size_t rows, uint64_t seed) {
  Table table({{"flag", ColumnType::kString},
               {"status", ColumnType::kString},
               {"small_int", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"wide", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"runs", ColumnType::kInt64, EncodingChoice::kRle}});
  TableAppender app(&table, rows);
  Rng rng(seed);
  const char* flags[3] = {"A", "N", "R"};
  const char* statuses[2] = {"F", "O"};
  for (size_t i = 0; i < rows; ++i) {
    std::vector<int64_t> ints(5, 0);
    std::vector<std::string> strings(5);
    strings[0] = flags[rng.NextBounded(3)];
    strings[1] = statuses[rng.NextBounded(2)];
    ints[2] = 1000 + static_cast<int64_t>(rng.NextBounded(4)) * 7;
    ints[3] = rng.NextInRange(-100, 100);
    ints[4] = static_cast<int64_t>(i / 100);
    app.AppendRow(ints, strings);
  }
  app.Flush();
  return table;
}

TEST(GroupMapperTest, NoGroupColumnsMapsToGroupZero) {
  Table table = MakeTable(100, 1);
  GroupMapper mapper;
  AlignedBuffer scratch;
  ASSERT_TRUE(mapper.Bind(table.segment(0), {}).ok());
  EXPECT_EQ(mapper.num_groups(), 1);
  std::vector<uint8_t> out(100 + 32);
  mapper.MapBatch(0, 100, out.data(), &scratch);
  for (size_t i = 0; i < 100; ++i) EXPECT_EQ(out[i], 0);
}

TEST(GroupMapperTest, SingleStringColumn) {
  Table table = MakeTable(500, 2);
  const Segment& seg = table.segment(0);
  GroupMapper mapper;
  AlignedBuffer scratch;
  ASSERT_TRUE(mapper.Bind(seg, {0}).ok());
  EXPECT_EQ(mapper.num_groups(), 3);
  std::vector<uint8_t> ids(500 + 32);
  mapper.MapBatch(0, 500, ids.data(), &scratch);
  // Cross-check against decoded ids.
  std::vector<int64_t> decoded(500);
  seg.column(0).DecodeInt64(0, 500, decoded.data());
  for (size_t i = 0; i < 500; ++i) {
    ASSERT_EQ(ids[i], decoded[i]);
  }
  // ValueOf must invert.
  for (int g = 0; g < 3; ++g) {
    const GroupValue v = mapper.ValueOf(g, 0);
    EXPECT_TRUE(v.is_string);
    EXPECT_EQ(seg.column(0).string_dictionary()->Find(v.string_value), g);
  }
}

TEST(GroupMapperTest, TwoColumnCombination) {
  Table table = MakeTable(2000, 3);
  const Segment& seg = table.segment(0);
  GroupMapper mapper;
  AlignedBuffer scratch;
  ASSERT_TRUE(mapper.Bind(seg, {0, 1}).ok());
  EXPECT_EQ(mapper.num_groups(), 6);  // 3 flags x 2 statuses
  std::vector<uint8_t> ids(2000 + 32);
  mapper.MapBatch(0, 2000, ids.data(), &scratch);
  std::vector<int64_t> flag(2000), status(2000);
  seg.column(0).DecodeInt64(0, 2000, flag.data());
  seg.column(1).DecodeInt64(0, 2000, status.data());
  for (size_t i = 0; i < 2000; ++i) {
    ASSERT_EQ(ids[i], flag[i] * 2 + status[i]);
  }
  // Round trip through ValueOf.
  for (int g = 0; g < 6; ++g) {
    const GroupValue f = mapper.ValueOf(g, 0);
    const GroupValue s = mapper.ValueOf(g, 1);
    const int64_t fid = seg.column(0).string_dictionary()->Find(f.string_value);
    const int64_t sid =
        seg.column(1).string_dictionary()->Find(s.string_value);
    EXPECT_EQ(fid * 2 + sid, g);
  }
}

TEST(GroupMapperTest, IntDictionaryValueOf) {
  Table table = MakeTable(300, 4);
  const Segment& seg = table.segment(0);
  GroupMapper mapper;
  ASSERT_TRUE(mapper.Bind(seg, {2}).ok());
  EXPECT_EQ(mapper.num_groups(), 4);
  for (int g = 0; g < 4; ++g) {
    const GroupValue v = mapper.ValueOf(g, 0);
    EXPECT_FALSE(v.is_string);
    EXPECT_EQ(seg.column(2).int_dictionary()->Find(v.int_value), g);
  }
}

TEST(GroupMapperTest, BitPackedGroupColumnUsesOffsets) {
  Table table = MakeTable(300, 5);
  const Segment& seg = table.segment(0);
  GroupMapper mapper;
  ASSERT_TRUE(mapper.Bind(seg, {3}).ok());  // values -100..100 -> 201 ids
  EXPECT_EQ(mapper.num_groups(), 201);
  const GroupValue v = mapper.ValueOf(0, 0);
  EXPECT_EQ(v.int_value, seg.column(3).meta().min);
}

TEST(GroupMapperTest, RleGroupColumnGetsRunIds) {
  Table table = MakeTable(300, 6);
  const Segment& seg = table.segment(0);
  ASSERT_EQ(seg.column(4).encoding(), Encoding::kRle);
  GroupMapper mapper;
  AlignedBuffer scratch;
  ASSERT_TRUE(mapper.Bind(seg, {4}).ok());
  // Values are i / 100 over 300 rows -> 3 distinct run values.
  EXPECT_EQ(mapper.num_groups(), 3);
  std::vector<uint8_t> ids(300 + 32);
  mapper.MapBatch(0, 300, ids.data(), &scratch);
  std::vector<int64_t> decoded(300);
  seg.column(4).DecodeInt64(0, 300, decoded.data());
  for (size_t i = 0; i < 300; ++i) {
    ASSERT_EQ(mapper.ValueOf(ids[i], 0).int_value, decoded[i]) << i;
  }
  // Windowed materialization matches too.
  std::vector<uint8_t> window(100 + 32);
  mapper.MapBatch(150, 100, window.data(), &scratch);
  for (size_t i = 0; i < 100; ++i) ASSERT_EQ(window[i], ids[150 + i]);
  // Selected (gather) materialization agrees with the full map.
  std::vector<uint32_t> indices = {0, 3, 99, 100, 101, 240, 299};
  std::vector<uint8_t> selected(indices.size() + 32);
  mapper.MapSelected(0, indices.data(), indices.size(), selected.data(),
                     &scratch);
  for (size_t i = 0; i < indices.size(); ++i) {
    ASSERT_EQ(selected[i], ids[indices[i]]);
  }
}

TEST(GroupMapperTest, RejectsOversizedCardinality) {
  Table table = MakeTable(300, 6);
  const Segment& seg = table.segment(0);
  GroupMapper mapper;
  // 201 * 6 > 255 -> combined cardinality overflow.
  EXPECT_EQ(mapper.Bind(seg, {3, 0}).code(), StatusCode::kNotSupported);
  // Three columns unsupported.
  EXPECT_EQ(mapper.Bind(seg, {0, 1, 2}).code(), StatusCode::kNotSupported);
  // RLE column with too many distinct run values.
  Table wide({{"r", ColumnType::kInt64, EncodingChoice::kRle}});
  TableAppender app(&wide, 4096);
  for (int i = 0; i < 2000; ++i) app.AppendRow({i});  // 2000 distinct runs
  app.Flush();
  GroupMapper wide_mapper;
  EXPECT_EQ(wide_mapper.Bind(wide.segment(0), {0}).code(),
            StatusCode::kNotSupported);
  // Bit-packed columns with three values over 2^32 + 1 and 2^64 offsets:
  // their id bounds must not wrap into an accepted cardinality.
  Table ranges({{"huge", ColumnType::kInt64, EncodingChoice::kBitPacked},
                {"full", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender ranges_app(&ranges, 4096);
  ranges_app.AppendRow({0, std::numeric_limits<int64_t>::min()});
  ranges_app.AppendRow({int64_t{1} << 31, 0});
  ranges_app.AppendRow({int64_t{1} << 32, std::numeric_limits<int64_t>::max()});
  ranges_app.Flush();
  GroupMapper ranges_mapper;
  EXPECT_EQ(ranges_mapper.Bind(ranges.segment(0), {0}).code(),
            StatusCode::kNotSupported);
  EXPECT_EQ(ranges_mapper.Bind(ranges.segment(0), {1}).code(),
            StatusCode::kNotSupported);
}

TEST(GroupMapperTest, MapSelectedMatchesMapBatch) {
  Table table = MakeTable(4096 * 2, 7);
  const Segment& seg = table.segment(0);
  GroupMapper mapper;
  AlignedBuffer scratch;
  ASSERT_TRUE(mapper.Bind(seg, {0, 1}).ok());
  // Batch window starting at 4096 with a sparse selection.
  std::vector<uint32_t> indices;
  for (uint32_t i = 0; i < 4096; i += 7) indices.push_back(i);
  std::vector<uint8_t> selected(indices.size() + 32);
  mapper.MapSelected(4096, indices.data(), indices.size(), selected.data(),
                     &scratch);
  std::vector<uint8_t> all(4096 + 32);
  mapper.MapBatch(4096, 4096, all.data(), &scratch);
  for (size_t i = 0; i < indices.size(); ++i) {
    ASSERT_EQ(selected[i], all[indices[i]]) << i;
  }
}

}  // namespace
}  // namespace bipie
