#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/random.h"
#include "storage/batch.h"
#include "storage/hybrid_table.h"
#include "storage/segment.h"
#include "storage/table.h"
#include "storage/table_io.h"

namespace bipie {
namespace {

Table MakeTwoColumnTable(size_t rows, size_t segment_rows) {
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"x", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, segment_rows);
  for (size_t i = 0; i < rows; ++i) {
    app.AppendRow({static_cast<int64_t>(i % 4), static_cast<int64_t>(i)});
  }
  app.Flush();
  return table;
}

TEST(TableTest, SegmentsAreCutAtCapacity) {
  Table table = MakeTwoColumnTable(2500, 1000);
  EXPECT_EQ(table.num_segments(), 3u);
  EXPECT_EQ(table.segment(0).num_rows(), 1000u);
  EXPECT_EQ(table.segment(1).num_rows(), 1000u);
  EXPECT_EQ(table.segment(2).num_rows(), 500u);
  EXPECT_EQ(table.num_rows(), 2500u);
}

TEST(TableTest, FindColumn) {
  Table table = MakeTwoColumnTable(10, 100);
  EXPECT_EQ(table.FindColumn("g"), 0);
  EXPECT_EQ(table.FindColumn("x"), 1);
  EXPECT_EQ(table.FindColumn("missing"), -1);
}

TEST(TableTest, RowOrderPreservedAcrossColumns) {
  Table table = MakeTwoColumnTable(1234, 500);
  size_t row = 0;
  for (size_t s = 0; s < table.num_segments(); ++s) {
    const Segment& seg = table.segment(s);
    std::vector<int64_t> g(seg.num_rows()), x(seg.num_rows());
    seg.column(0).DecodeInt64(0, seg.num_rows(), g.data());
    seg.column(1).DecodeInt64(0, seg.num_rows(), x.data());
    for (size_t i = 0; i < seg.num_rows(); ++i, ++row) {
      ASSERT_EQ(g[i], static_cast<int64_t>(row % 4));
      ASSERT_EQ(x[i], static_cast<int64_t>(row));
    }
  }
  EXPECT_EQ(row, 1234u);
}

TEST(TableTest, ChunkAppendMatchesRowAppend) {
  std::vector<int64_t> g, x;
  for (int64_t i = 0; i < 700; ++i) {
    g.push_back(i % 3);
    x.push_back(i * 7);
  }
  Table chunked({{"g"}, {"x"}});
  TableAppender app(&chunked, 256);
  app.AppendChunk({g.data(), x.data()}, g.size());
  app.Flush();
  EXPECT_EQ(chunked.num_rows(), 700u);
  EXPECT_EQ(chunked.num_segments(), 3u);  // 256 + 256 + 188

  size_t row = 0;
  for (size_t s = 0; s < chunked.num_segments(); ++s) {
    const Segment& seg = chunked.segment(s);
    std::vector<int64_t> got(seg.num_rows());
    seg.column(1).DecodeInt64(0, seg.num_rows(), got.data());
    for (size_t i = 0; i < seg.num_rows(); ++i, ++row) {
      ASSERT_EQ(got[i], x[row]);
    }
  }
}

std::string SavedBytes(const Table& table, const std::string& name) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  const Status st = SaveTable(table, path);
  EXPECT_TRUE(st.ok()) << st.ToString();
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// The mutable region's merge encodes exactly what row-by-row appends do:
// same segments, encodings, dictionaries and bytes on disk.
TEST(TableTest, MergedHybridRowsSaveLikeAppendedRows) {
  const Schema schema = {
      {"name", ColumnType::kString},
      {"auto_dict", ColumnType::kInt64},
      {"auto_rle", ColumnType::kInt64},
      {"auto_delta", ColumnType::kInt64},
      {"auto_packed", ColumnType::kInt64},
      {"packed", ColumnType::kInt64, EncodingChoice::kBitPacked},
      {"dict", ColumnType::kInt64, EncodingChoice::kDictionary},
      {"rle", ColumnType::kInt64, EncodingChoice::kRle},
      {"delta", ColumnType::kInt64, EncodingChoice::kDelta},
      {"sliced", ColumnType::kInt64, EncodingChoice::kByteSliced},
      {"tag", ColumnType::kString},
  };
  const char* const names[] = {"alpha", "beta", "", "a much longer name"};
  constexpr size_t kSegmentRows = 1000;
  HybridTable hybrid(schema, kSegmentRows);
  hybrid.set_merge_threshold(1 << 20);
  Table appended(schema);
  TableAppender appender(&appended, kSegmentRows);
  Rng rng(17);
  for (size_t i = 0; i < 2500; ++i) {
    const int64_t row = static_cast<int64_t>(i);
    const std::vector<int64_t> ints = {
        0,
        rng.NextInRange(0, 5) * 1000003,
        row / 200,
        row * 5 + rng.NextInRange(0, 3),
        rng.NextInRange(-(int64_t{1} << 40), int64_t{1} << 40),
        rng.NextInRange(-300, 300),
        rng.NextInRange(0, 20) * 1000,
        row / 64,
        row * 3 + rng.NextInRange(0, 2),
        rng.NextInRange(0, 1 << 20),
        0};
    std::vector<std::string> strings(schema.size());
    strings[0] = names[rng.NextBounded(4)];
    strings[10] = std::to_string(rng.NextBounded(50));
    hybrid.Insert(ints, strings);
    appender.AppendRow(ints, strings);
    // Merges of uneven sizes, each ending in its own short segment; the
    // appender mirrors them with a Flush.
    if (i == 1299 || i == 1999) {
      hybrid.Merge();
      appender.Flush();
    }
  }
  hybrid.Merge();
  appender.Flush();
  ASSERT_EQ(hybrid.immutable().num_segments(), 4u);  // 1000, 300, 700, 500
  ASSERT_EQ(appended.num_segments(), 4u);
  // kAuto reaches each of its encodings.
  const Segment& first = hybrid.immutable().segment(0);
  EXPECT_EQ(first.column(1).encoding(), Encoding::kDictionary);
  EXPECT_EQ(first.column(2).encoding(), Encoding::kRle);
  EXPECT_EQ(first.column(3).encoding(), Encoding::kDelta);
  EXPECT_EQ(first.column(4).encoding(), Encoding::kBitPacked);
  const std::string merged = SavedBytes(hybrid.immutable(), "merged.bipie");
  EXPECT_GT(merged.size(), 2500u);
  EXPECT_EQ(merged, SavedBytes(appended, "appended.bipie"));
}

TEST(SegmentTest, DeleteRowsBuildsAliveMask) {
  Table table = MakeTwoColumnTable(100, 100);
  Segment& seg = table.mutable_segment(0);
  EXPECT_FALSE(seg.has_deleted_rows());
  EXPECT_EQ(seg.alive_bytes(), nullptr);
  seg.DeleteRow(5);
  seg.DeleteRow(5);  // double delete counted once
  seg.DeleteRow(99);
  EXPECT_EQ(seg.num_deleted(), 2u);
  ASSERT_NE(seg.alive_bytes(), nullptr);
  EXPECT_EQ(seg.alive_bytes()[5], 0x00);
  EXPECT_EQ(seg.alive_bytes()[99], 0x00);
  EXPECT_EQ(seg.alive_bytes()[0], 0xFF);
}

TEST(SegmentTest, EliminationUsesMetadata) {
  Table table = MakeTwoColumnTable(100, 100);
  const Segment& seg = table.segment(0);
  // Column x spans [0, 99].
  EXPECT_TRUE(seg.CanEliminate(1, 200, 300));
  EXPECT_TRUE(seg.CanEliminate(1, -10, -1));
  EXPECT_FALSE(seg.CanEliminate(1, 50, 60));
  EXPECT_FALSE(seg.CanEliminate(1, 99, 200));
}

TEST(BatchCursorTest, CoversSegmentExactly) {
  Table table = MakeTwoColumnTable(10000, 10000);
  BatchCursor cursor(table.segment(0));
  BatchView view;
  size_t total = 0, batches = 0;
  while (cursor.Next(&view)) {
    EXPECT_LE(view.num_rows, kBatchRows);
    EXPECT_EQ(view.start, total);
    total += view.num_rows;
    ++batches;
  }
  EXPECT_EQ(total, 10000u);
  EXPECT_EQ(batches, (10000 + kBatchRows - 1) / kBatchRows);
}

TEST(BatchCursorTest, CustomBatchSizeAndReset) {
  Table table = MakeTwoColumnTable(10, 10);
  BatchCursor cursor(table.segment(0), 4);
  BatchView view;
  std::vector<size_t> sizes;
  while (cursor.Next(&view)) sizes.push_back(view.num_rows);
  EXPECT_EQ(sizes, (std::vector<size_t>{4, 4, 2}));
  cursor.Reset();
  ASSERT_TRUE(cursor.Next(&view));
  EXPECT_EQ(view.start, 0u);
}

TEST(BatchCursorTest, AliveBytesWindowed) {
  Table table = MakeTwoColumnTable(20, 20);
  Segment& seg = table.mutable_segment(0);
  seg.DeleteRow(13);
  BatchCursor cursor(seg, 10);
  BatchView view;
  ASSERT_TRUE(cursor.Next(&view));
  ASSERT_NE(view.alive_bytes(), nullptr);
  EXPECT_EQ(view.alive_bytes()[3], 0xFF);
  ASSERT_TRUE(cursor.Next(&view));
  EXPECT_EQ(view.alive_bytes()[3], 0x00);  // absolute row 13
}

}  // namespace
}  // namespace bipie
