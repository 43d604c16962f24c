#include "common/failpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/aligned_buffer.h"
#include "common/status.h"
#include "core/scan.h"
#include "storage/table.h"
#include "storage/table_io.h"

namespace bipie {
namespace {

class FailpointTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::DeactivateAll(); }
};

TEST_F(FailpointTest, UnarmedPointNeverFires) {
  EXPECT_FALSE(Failpoints::Evaluate("test/unarmed"));
  EXPECT_FALSE(Failpoints::Evaluate("test/unarmed"));
  EXPECT_EQ(Failpoints::HitCount("test/unarmed"), 0u);
}

TEST_F(FailpointTest, FailOnceFiresExactlyOnce) {
  Failpoints::FailOnce("test/once");
  EXPECT_TRUE(Failpoints::Evaluate("test/once"));
  EXPECT_FALSE(Failpoints::Evaluate("test/once"));
  EXPECT_FALSE(Failpoints::Evaluate("test/once"));
  EXPECT_EQ(Failpoints::HitCount("test/once"), 3u);
}

TEST_F(FailpointTest, FailEveryNFiresOnMultiples) {
  Failpoints::FailEveryN("test/every3", 3);
  int fired = 0;
  for (int i = 1; i <= 9; ++i) {
    if (Failpoints::Evaluate("test/every3")) {
      ++fired;
      EXPECT_EQ(i % 3, 0) << "fired off-cycle at evaluation " << i;
    }
  }
  EXPECT_EQ(fired, 3);
}

TEST_F(FailpointTest, ProbabilityIsSeededAndDeterministic) {
  auto pattern = [](uint64_t seed) {
    Failpoints::FailWithProbability("test/prob", 0.5, seed);
    std::string bits;
    for (int i = 0; i < 64; ++i) {
      bits += Failpoints::Evaluate("test/prob") ? '1' : '0';
    }
    return bits;
  };
  const std::string a = pattern(42);
  const std::string b = pattern(42);
  const std::string c = pattern(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // astronomically unlikely to collide
  EXPECT_NE(a.find('1'), std::string::npos);
  EXPECT_NE(a.find('0'), std::string::npos);

  // p = 0 never fires; p = 1 always fires.
  Failpoints::FailWithProbability("test/prob", 0.0, 7);
  for (int i = 0; i < 32; ++i) EXPECT_FALSE(Failpoints::Evaluate("test/prob"));
  Failpoints::FailWithProbability("test/prob", 1.0, 7);
  for (int i = 0; i < 32; ++i) EXPECT_TRUE(Failpoints::Evaluate("test/prob"));
}

TEST_F(FailpointTest, DeactivateDisarms) {
  Failpoints::FailEveryN("test/off", 1);
  EXPECT_TRUE(Failpoints::Evaluate("test/off"));
  Failpoints::Deactivate("test/off");
  EXPECT_FALSE(Failpoints::Evaluate("test/off"));
}

TEST_F(FailpointTest, ActiveNamesListsArmedPoints) {
  EXPECT_TRUE(Failpoints::ActiveNames().empty());
  Failpoints::FailOnce("test/b");
  Failpoints::FailOnce("test/a");
  const auto names = Failpoints::ActiveNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "test/a");
  EXPECT_EQ(names[1], "test/b");
}

TEST_F(FailpointTest, ScopedFailpointDisarmsOnExit) {
  {
    ScopedFailpoint fp("test/scoped", uint64_t{1});
    EXPECT_TRUE(Failpoints::Evaluate("test/scoped"));
  }
  EXPECT_FALSE(Failpoints::Evaluate("test/scoped"));
}

#if defined(BIPIE_ENABLE_FAILPOINTS)

// --- Wiring tests: the sites below only exist in failpoint builds. --------

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Table MakeSmallTable() {
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kDictionary},
               {"v", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, 512);
  for (int i = 0; i < 2000; ++i) {
    app.AppendRow({i % 4, i});
  }
  app.Flush();
  return table;
}

TEST_F(FailpointTest, WriteFailureSurfacesAsError) {
  Table table = MakeSmallTable();
  const std::string path = TempPath("fp_write.bipie");
  Failpoints::FailOnce("table_io/write_fail");
  const Status st = SaveTable(table, path);
  EXPECT_FALSE(st.ok());
  EXPECT_GT(Failpoints::HitCount("table_io/write_fail"), 0u);
  std::remove(path.c_str());
}

TEST_F(FailpointTest, ShortReadSurfacesAsDataLoss) {
  Table table = MakeSmallTable();
  const std::string path = TempPath("fp_read.bipie");
  ASSERT_TRUE(SaveTable(table, path).ok());
  Failpoints::FailOnce("table_io/read_short");
  auto loaded = LoadTable(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST_F(FailpointTest, ForcedChecksumMismatchIsDataLoss) {
  Table table = MakeSmallTable();
  const std::string path = TempPath("fp_crc.bipie");
  ASSERT_TRUE(SaveTable(table, path).ok());
  Failpoints::FailOnce("table_io/checksum_mismatch");
  auto loaded = LoadTable(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  // With verification off the forced mismatch is never evaluated.
  Failpoints::FailOnce("table_io/checksum_mismatch");
  LoadOptions no_verify;
  no_verify.verify_checksums = false;
  EXPECT_TRUE(LoadTable(path, no_verify).ok());
  std::remove(path.c_str());
}

TEST_F(FailpointTest, AllocationFailpointFailsTryResize) {
  AlignedBuffer buf;
  Failpoints::FailOnce("aligned_buffer/alloc_fail");
  EXPECT_FALSE(buf.TryResize(1024));
  EXPECT_TRUE(buf.TryResize(1024));
  EXPECT_EQ(buf.size(), 1024u);
}

// With scratch allocation failing on every morsel, the scan must return a
// clean kResourceExhausted — complete-or-error, never partial aggregates.
TEST_F(FailpointTest, ScanScratchFailureIsResourceExhaustedNeverPartial) {
  Table table = MakeSmallTable();
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("v")};
  query.filters.emplace_back("v", CompareOp::kGe, int64_t{100});

  auto expected = ExecuteQuery(table, query);
  ASSERT_TRUE(expected.ok());

  for (size_t num_threads : {size_t{0}, size_t{1}}) {
    Failpoints::FailEveryN("scan/morsel_scratch_alloc", 1);
    ScanOptions options;
    options.num_threads = num_threads;
    auto result = ExecuteQuery(table, query, options);
    ASSERT_FALSE(result.ok()) << "num_threads=" << num_threads;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
    Failpoints::Deactivate("scan/morsel_scratch_alloc");

    // Intermittent failure: every result that does come back is complete.
    Failpoints::FailEveryN("scan/morsel_scratch_alloc", 2);
    for (int attempt = 0; attempt < 4; ++attempt) {
      auto r = ExecuteQuery(table, query, options);
      if (!r.ok()) {
        EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
        continue;
      }
      ASSERT_EQ(r.value().rows.size(), expected.value().rows.size());
      for (size_t i = 0; i < r.value().rows.size(); ++i) {
        EXPECT_EQ(r.value().rows[i].count, expected.value().rows[i].count);
        EXPECT_EQ(r.value().rows[i].sums, expected.value().rows[i].sums);
      }
    }
    Failpoints::Deactivate("scan/morsel_scratch_alloc");
  }
}

#endif  // BIPIE_ENABLE_FAILPOINTS

}  // namespace
}  // namespace bipie
