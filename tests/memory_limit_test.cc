// Memory governance end to end (DESIGN.md §13): per-query and process-wide
// limits driven through every allocation path — specialized scan, pooled
// morsel execution, run-level pipeline, hashed segments, and table IO. Overcommit must surface as kResourceExhausted
// (complete-or-error, never a crash, never a partial result) and every
// failed query must leave its tracker balanced at zero — ExecuteChecked
// asserts that balance on every run below.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "baseline/hash_agg.h"
#include "common/memory_tracker.h"
#include "common/random.h"
#include "core/scan.h"
#include "storage/hybrid_table.h"
#include "storage/table_io.h"
#include "tests/test_util.h"

namespace bipie {
namespace {

// Tight enough that one 4096-row decode buffer (32 KiB) cannot fit.
constexpr uint64_t kTinyLimit = 8 * 1024;
constexpr uint64_t kGenerousLimit = uint64_t{1} << 30;

Table MakeBitPackedTable(size_t rows, size_t segment_rows, int64_t group_card,
                         uint64_t seed) {
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"v", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"f", ColumnType::kInt64, EncodingChoice::kBitPacked}});
  TableAppender app(&table, segment_rows);
  Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    app.AppendRow({rng.NextInRange(0, group_card - 1),
                   rng.NextInRange(0, 999), rng.NextInRange(0, 99)});
  }
  app.Flush();
  return table;
}

// RLE-clustered so the scan resolves kRunBased (run-level pipeline).
Table MakeRunTable(size_t rows, size_t segment_rows) {
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kRle},
               {"amount", ColumnType::kInt64, EncodingChoice::kRle}});
  TableAppender app(&table, segment_rows);
  for (size_t i = 0; i < rows; ++i) {
    app.AppendRow({static_cast<int64_t>((i / 10000) % 5),
                   static_cast<int64_t>((i / 6000) % 100)});
  }
  app.Flush();
  return table;
}

QuerySpec MakeQuery(bool with_filter) {
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("v")};
  if (with_filter) {
    query.filters.emplace_back("f", CompareOp::kLt, int64_t{50});
  }
  return query;
}

void ConfigureLimit(QueryContext* context, uint64_t limit_bytes) {
  ASSERT_TRUE(context->settings()
                  .SetUInt64("memory_limit_bytes", limit_bytes)
                  .ok());
  context->ApplySettings();
}

TEST(MemoryLimitTest, ScanUnderTinyLimitReturnsResourceExhausted) {
  Table table = MakeBitPackedTable(20000, 4096, 8, 1);
  QueryContext context;
  ConfigureLimit(&context, kTinyLimit);
  ScanOptions options;
  options.context = &context;
  Result<QueryResult> got = test::ExecuteChecked(table, MakeQuery(true),
                                                 options);
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
      << got.status().ToString();
  EXPECT_EQ(context.memory_tracker().used(), 0u);
}

TEST(MemoryLimitTest, ScanUnderGenerousLimitMatchesUnlimitedRun) {
  Table table = MakeBitPackedTable(20000, 4096, 8, 2);
  const QuerySpec query = MakeQuery(true);
  Result<QueryResult> unlimited = test::ExecuteChecked(table, query);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();

  QueryContext context;
  ConfigureLimit(&context, kGenerousLimit);
  ScanOptions options;
  options.context = &context;
  Result<QueryResult> limited = test::ExecuteChecked(table, query, options);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited.value().rows.size(), unlimited.value().rows.size());
  for (size_t r = 0; r < limited.value().rows.size(); ++r) {
    EXPECT_EQ(limited.value().rows[r].group, unlimited.value().rows[r].group);
    EXPECT_EQ(limited.value().rows[r].count, unlimited.value().rows[r].count);
    EXPECT_EQ(limited.value().rows[r].sums, unlimited.value().rows[r].sums);
  }
  EXPECT_GT(context.memory_tracker().peak(), 0u);  // work was tracked
  EXPECT_EQ(context.memory_tracker().used(), 0u);
}

TEST(MemoryLimitTest, PooledScanUnderTinyLimitFailsStructurally) {
  // The morsel pool runs the same governed path: every worker binds the
  // query tracker per morsel, and per-morsel failures reduce to one error.
  Table table = MakeBitPackedTable(60000, 4096, 8, 3);
  QueryContext context;
  ConfigureLimit(&context, kTinyLimit);
  ScanOptions options;
  options.context = &context;
  options.num_threads = 0;       // shared pool
  options.morsel_rows = 4096;    // many morsels
  Result<QueryResult> got = test::ExecuteChecked(table, MakeQuery(true),
                                                 options);
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
      << got.status().ToString();
  EXPECT_EQ(context.memory_tracker().used(), 0u);
}

TEST(MemoryLimitTest, RunPipelineUnderTinyLimitFailsStructurally) {
  Table table = MakeRunTable(50000, 50000);
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("amount")};

  // Sanity: this shape really takes the run-based path when unconstrained.
  {
    BIPieScan scan(table, query, {});
    Result<QueryResult> got = scan.Execute();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_GT(scan.stats().runs_aggregated, 0u);
  }

  QueryContext context;
  ConfigureLimit(&context, 1024);  // below even the run-span scratch
  ScanOptions options;
  options.context = &context;
  Result<QueryResult> got = test::ExecuteChecked(table, query, options);
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
      << got.status().ToString();
  EXPECT_EQ(context.memory_tracker().used(), 0u);
}

TEST(MemoryLimitTest, HashFallbackUnderTinyLimitFailsStructurally) {
  // Group cardinality above 255 puts every segment outside the BIPie
  // envelope, so each runs hashed; its hash tables are charged to the same
  // tracker — by pool workers too (num_threads 0).
  Table table = MakeBitPackedTable(20000, 4096, 1000, 4);
  const QuerySpec query = MakeQuery(false);

  for (const size_t threads : {size_t{1}, size_t{0}}) {
    QueryContext context;
    ConfigureLimit(&context, kTinyLimit);
    ScanOptions options;
    options.context = &context;
    options.num_threads = threads;
    Result<QueryResult> got = test::ExecuteChecked(table, query, options);
    EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
        << got.status().ToString();
    EXPECT_EQ(context.memory_tracker().used(), 0u);

    // With room to work, the hashed segments still run to completion and
    // the scan reports them honestly.
    QueryContext roomy;
    ConfigureLimit(&roomy, kGenerousLimit);
    ScanOptions roomy_options;
    roomy_options.context = &roomy;
    roomy_options.num_threads = threads;
    BIPieScan scan(table, query, roomy_options);
    Result<QueryResult> ok = scan.Execute();
    ASSERT_TRUE(ok.ok()) << ok.status().ToString();
    EXPECT_TRUE(scan.stats().used_hash_fallback);
    EXPECT_EQ(ok.value().rows.size(), 1000u);
    EXPECT_GT(roomy.memory_tracker().peak(), 0u);
    EXPECT_EQ(roomy.memory_tracker().used(), 0u);
  }
}

TEST(MemoryLimitTest, HybridRegionSegmentIsGoverned) {
  // 20000 pending rows: the region segment a query builds needs at least a
  // byte per row for each of its three columns, far above kTinyLimit.
  HybridTable hybrid({{"g", ColumnType::kInt64},
                      {"v", ColumnType::kInt64},
                      {"f", ColumnType::kInt64}},
                     4096);
  hybrid.set_merge_threshold(SIZE_MAX);
  Rng rng(6);
  for (int i = 0; i < 20000; ++i) {
    hybrid.Insert({rng.NextInRange(0, 7), rng.NextInRange(0, 999),
                   rng.NextInRange(0, 99)});
  }
  const QuerySpec query = MakeQuery(true);

  QueryContext context;
  ConfigureLimit(&context, kTinyLimit);
  ScanOptions options;
  options.context = &context;
  Result<QueryResult> got = ExecuteQueryHybrid(hybrid, query, options);
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
      << got.status().ToString();
  EXPECT_NE(got.status().message().find("mutable region"), std::string::npos)
      << got.status().ToString();
  EXPECT_EQ(context.memory_tracker().used(), 0u);

  Result<QueryResult> unlimited = ExecuteQueryHybrid(hybrid, query);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  QueryContext roomy;
  ConfigureLimit(&roomy, kGenerousLimit);
  ScanOptions roomy_options;
  roomy_options.context = &roomy;
  Result<QueryResult> limited =
      ExecuteQueryHybrid(hybrid, query, roomy_options);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  ASSERT_EQ(limited.value().rows.size(), unlimited.value().rows.size());
  for (size_t r = 0; r < limited.value().rows.size(); ++r) {
    EXPECT_EQ(limited.value().rows[r].group, unlimited.value().rows[r].group);
    EXPECT_EQ(limited.value().rows[r].count, unlimited.value().rows[r].count);
    EXPECT_EQ(limited.value().rows[r].sums, unlimited.value().rows[r].sums);
  }
  EXPECT_GE(roomy.memory_tracker().peak(), 3 * 20000u);  // region was charged
  EXPECT_EQ(roomy.memory_tracker().used(), 0u);
}

TEST(MemoryLimitTest, SoftLimitLatchesWithoutFailingTheQuery) {
  Table table = MakeBitPackedTable(20000, 4096, 8, 5);
  QueryContext context;
  ASSERT_TRUE(
      context.settings().SetUInt64("memory_soft_limit_bytes", 1024).ok());
  context.ApplySettings();
  ScanOptions options;
  options.context = &context;
  Result<QueryResult> got = test::ExecuteChecked(table, MakeQuery(true),
                                                 options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(context.memory_tracker().soft_limit_exceeded());
  EXPECT_EQ(context.memory_tracker().used(), 0u);
}

TEST(MemoryLimitTest, ProcessWideLimitGovernsEveryQuery) {
  Table table = MakeBitPackedTable(20000, 4096, 8, 6);
  MemoryTracker& process = MemoryTracker::Process();
  // Leave room for what is already resident (other tests' loaded state),
  // but none for this scan's working set.
  process.set_hard_limit(process.used() + 2048);

  QueryContext context;  // no per-query limit: the root alone must stop it
  ScanOptions options;
  options.context = &context;
  Result<QueryResult> got = test::ExecuteChecked(table, MakeQuery(true),
                                                 options);
  process.set_hard_limit(0);  // restore before asserting
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
      << got.status().ToString();
  EXPECT_EQ(context.memory_tracker().used(), 0u);

  Result<QueryResult> after = test::ExecuteChecked(table, MakeQuery(true),
                                                   options);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST(MemoryLimitTest, TableLoadIsGoverned) {
  Table table = MakeBitPackedTable(30000, 4096, 8, 7);
  const std::string path =
      std::string(::testing::TempDir()) + "/memory_limit_io.bipie";
  ASSERT_TRUE(SaveTable(table, path).ok());

  MemoryTracker limited(&MemoryTracker::Process(), "load");
  limited.set_hard_limit(kTinyLimit);
  LoadOptions options;
  options.memory_tracker = &limited;
  Result<Table> failed = LoadTable(path, options);
  EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted)
      << failed.status().ToString();
  EXPECT_EQ(limited.used(), 0u);

  // A governed load that fits charges the tracker transiently, then
  // re-homes the finished table to the process root: the loading query's
  // account drains to zero while the bytes stay tracked.
  MemoryTracker roomy(&MemoryTracker::Process(), "load");
  roomy.set_hard_limit(kGenerousLimit);
  options.memory_tracker = &roomy;
  const size_t process_before = MemoryTracker::Process().used();
  Result<Table> loaded = LoadTable(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(roomy.peak(), 0u);
  EXPECT_EQ(roomy.used(), 0u);
  EXPECT_GT(MemoryTracker::Process().used(), process_before);
  EXPECT_EQ(loaded.value().num_rows(), table.num_rows());
  std::remove(path.c_str());
}

TEST(MemoryLimitTest, ByteSliceDecodeFallbackIsGoverned) {
  // A byte-sliced filter column with the plane kernels forced off takes the
  // assemble-then-compare fallback, whose decode scratch is charged to the
  // query tracker like every other scratch allocation: a tiny limit must
  // fail structurally with a balanced tracker, a generous one must match
  // the kernel path's result exactly.
  Table table({{"g", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"v", ColumnType::kInt64, EncodingChoice::kBitPacked},
               {"s", ColumnType::kInt64, EncodingChoice::kByteSliced}});
  TableAppender app(&table, 4096);
  Rng rng(9);
  for (size_t i = 0; i < 20000; ++i) {
    app.AppendRow({rng.NextInRange(0, 7), rng.NextInRange(0, 999),
                   rng.NextInRange(0, (int64_t{1} << 20) - 1)});
  }
  app.Flush();
  QuerySpec query;
  query.group_by = {"g"};
  query.aggregates = {AggregateSpec::Count(), AggregateSpec::Sum("v")};
  query.filters.emplace_back("s", CompareOp::kLt, int64_t{1} << 17);

  QueryContext tiny;
  ConfigureLimit(&tiny, kTinyLimit);
  ScanOptions options;
  options.context = &tiny;
  options.overrides.byteslice = false;
  Result<QueryResult> got = test::ExecuteChecked(table, query, options);
  EXPECT_EQ(got.status().code(), StatusCode::kResourceExhausted)
      << got.status().ToString();
  EXPECT_EQ(tiny.memory_tracker().used(), 0u);

  QueryContext roomy;
  ConfigureLimit(&roomy, kGenerousLimit);
  options.context = &roomy;
  Result<QueryResult> fallback = test::ExecuteChecked(table, query, options);
  ASSERT_TRUE(fallback.ok()) << fallback.status().ToString();
  EXPECT_EQ(roomy.memory_tracker().used(), 0u);

  options.overrides.byteslice = true;  // plane kernels: no decode scratch
  options.context = nullptr;
  Result<QueryResult> kernel = test::ExecuteChecked(table, query, options);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  ASSERT_EQ(kernel.value().rows.size(), fallback.value().rows.size());
  for (size_t r = 0; r < kernel.value().rows.size(); ++r) {
    EXPECT_EQ(kernel.value().rows[r].count, fallback.value().rows[r].count);
    EXPECT_EQ(kernel.value().rows[r].sums, fallback.value().rows[r].sums);
  }
}

TEST(MemoryLimitTest, ForcedStrategySettingsFlowThroughMakeScanOptions) {
  // MakeScanOptions maps the validated string settings onto ScanOptions;
  // combined with a limit this is the whole settings->execution path.
  Table table = MakeBitPackedTable(20000, 4096, 8, 8);
  QueryContext context;
  ASSERT_TRUE(context.settings().SetUInt64("num_threads", 1).ok());
  ASSERT_TRUE(
      context.settings().SetString("force_selection_strategy", "gather").ok());
  ASSERT_TRUE(context.settings().SetString("force_byteslice", "off").ok());
  ASSERT_TRUE(context.settings()
                  .SetUInt64("memory_limit_bytes", kGenerousLimit)
                  .ok());
  context.ApplySettings();
  ScanOptions options = MakeScanOptions(&context);
  EXPECT_EQ(options.context, &context);
  EXPECT_EQ(options.num_threads, 1u);
  ASSERT_TRUE(options.overrides.byteslice.has_value());
  EXPECT_FALSE(*options.overrides.byteslice);

  BIPieScan scan(table, MakeQuery(true), options);
  Result<QueryResult> got = scan.Execute();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_GT(scan.stats().selection.gather, 0u);
  EXPECT_EQ(scan.stats().selection.compact, 0u);
  EXPECT_EQ(scan.stats().selection.special_group, 0u);
  EXPECT_EQ(context.memory_tracker().used(), 0u);
}

}  // namespace
}  // namespace bipie
