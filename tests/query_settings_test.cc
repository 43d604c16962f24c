// Typed settings registry (DESIGN.md §13): declaration, strict parsing,
// range/allowed-value validation, and the environment fallback path that
// replaced raw strtoull (which silently wrapped "-1" and accepted "8abc").
#include "exec/query_settings.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "exec/query_context.h"

namespace bipie {
namespace {

TEST(QuerySettingsTest, RegistryDeclaresEverySetting) {
  const std::vector<SettingDef>& registry = QuerySettings::Registry();
  ASSERT_FALSE(registry.empty());
  for (const SettingDef& def : registry) {
    EXPECT_NE(def.name, nullptr);
    EXPECT_NE(def.doc, nullptr);
    EXPECT_GT(std::string(def.doc).size(), 0u) << def.name;
    EXPECT_EQ(QuerySettings::Find(def.name), &def);
  }
  EXPECT_EQ(QuerySettings::Find("no_such_setting"), nullptr);
}

TEST(QuerySettingsTest, DefaultsMatchRegistry) {
  QuerySettings settings;
  EXPECT_EQ(settings.num_threads(), 1u);
  EXPECT_EQ(settings.memory_limit_bytes(), 0u);
  EXPECT_EQ(settings.memory_soft_limit_bytes(), 0u);
  EXPECT_EQ(settings.deadline_ms(), 0u);
  EXPECT_EQ(settings.force_selection_strategy(), "");
  EXPECT_EQ(settings.force_aggregation_strategy(), "");
  EXPECT_EQ(settings.force_byteslice(), "");
  EXPECT_EQ(settings.priority(), "normal");
  // Named accessors and generic getters read the same storage.
  for (const SettingDef& def : QuerySettings::Registry()) {
    switch (def.type) {
      case SettingType::kUInt64:
        EXPECT_EQ(settings.GetUInt64(def.name), def.default_u64) << def.name;
        break;
      case SettingType::kString:
        EXPECT_EQ(settings.GetString(def.name), def.default_string)
            << def.name;
        break;
    }
  }
}

TEST(QuerySettingsTest, SetParsesAndValidates) {
  QuerySettings settings;
  EXPECT_TRUE(settings.Set("num_threads", "0").ok());
  EXPECT_EQ(settings.num_threads(), 0u);
  EXPECT_TRUE(settings.Set("memory_limit_bytes", "1048576").ok());
  EXPECT_EQ(settings.memory_limit_bytes(), 1048576u);
  EXPECT_TRUE(settings.Set("force_selection_strategy", "compact").ok());
  EXPECT_EQ(settings.force_selection_strategy(), "compact");
  EXPECT_TRUE(settings.Set("force_selection_strategy", "").ok());  // unset

  // Unknown names, including settings nothing read (LoadTable takes
  // LoadOptions; the morsel size and the elimination switch are ScanOptions
  // fields only).
  for (const char* name :
       {"no_such_setting", "io_verify_checksums", "io_validate", "io_strict",
        "morsel_rows", "enable_segment_elimination"}) {
    EXPECT_EQ(settings.Set(name, "1").code(), StatusCode::kInvalidArgument)
        << name;
  }
  EXPECT_EQ(settings.Set("num_threads", "-1").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(settings.Set("num_threads", "8abc").code(),
            StatusCode::kInvalidArgument);
  // 0 (shared pool) and 1 (inline) are the only execution models.
  EXPECT_EQ(settings.Set("num_threads", "2").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(settings.Set("num_threads", "99999").code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(settings.Set("force_selection_strategy", "fastest").code(),
            StatusCode::kOutOfRange);
  // Failed sets left prior values intact.
  EXPECT_EQ(settings.num_threads(), 0u);
  EXPECT_EQ(settings.force_selection_strategy(), "");
}

TEST(QuerySettingsTest, TypedSettersCheckTypeAndRange) {
  QuerySettings settings;
  EXPECT_TRUE(settings.SetUInt64("deadline_ms", 4096).ok());
  EXPECT_EQ(settings.deadline_ms(), 4096u);
  EXPECT_EQ(settings.SetUInt64("num_threads", 4).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(settings.SetUInt64("priority", 1).code(),
            StatusCode::kInvalidArgument);  // wrong type
  EXPECT_EQ(settings.SetString("num_threads", "1").code(),
            StatusCode::kInvalidArgument);  // wrong type
  EXPECT_TRUE(
      settings.SetString("force_aggregation_strategy", "run-based").ok());
  EXPECT_EQ(settings.SetString("force_aggregation_strategy", "turbo").code(),
            StatusCode::kOutOfRange);
}

TEST(QuerySettingsTest, ParseUInt64Strict) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUInt64Strict("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUInt64Strict("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(ParseUInt64Strict("", &v));
  EXPECT_FALSE(ParseUInt64Strict("-1", &v));
  EXPECT_FALSE(ParseUInt64Strict("+1", &v));
  EXPECT_FALSE(ParseUInt64Strict(" 1", &v));
  EXPECT_FALSE(ParseUInt64Strict("8abc", &v));
  EXPECT_FALSE(ParseUInt64Strict("0x10", &v));
  EXPECT_FALSE(ParseUInt64Strict("18446744073709551616", &v));  // overflow
}

TEST(QuerySettingsTest, EnvUInt64SettingValidatesAndClamps) {
  // Each case uses its own variable: the malformed-value warning is
  // one-time per name, and these tests must not depend on ordering.
  ::unsetenv("BIPIE_TEST_ENV_ABSENT");
  EXPECT_EQ(EnvUInt64Setting("BIPIE_TEST_ENV_ABSENT", 7, 0, 100), 7u);

  ::setenv("BIPIE_TEST_ENV_GOOD", "42", 1);
  EXPECT_EQ(EnvUInt64Setting("BIPIE_TEST_ENV_GOOD", 7, 0, 100), 42u);

  // The two bugs the strict parser exists for: "-1" must not wrap to
  // 2^64-1, and trailing garbage must not be silently ignored.
  ::setenv("BIPIE_TEST_ENV_NEGATIVE", "-1", 1);
  EXPECT_EQ(EnvUInt64Setting("BIPIE_TEST_ENV_NEGATIVE", 7, 0, 100), 7u);
  ::setenv("BIPIE_TEST_ENV_GARBAGE", "8abc", 1);
  EXPECT_EQ(EnvUInt64Setting("BIPIE_TEST_ENV_GARBAGE", 7, 0, 100), 7u);

  ::setenv("BIPIE_TEST_ENV_HIGH", "5000", 1);
  EXPECT_EQ(EnvUInt64Setting("BIPIE_TEST_ENV_HIGH", 7, 0, 100), 100u);
  ::setenv("BIPIE_TEST_ENV_LOW", "1", 1);
  EXPECT_EQ(EnvUInt64Setting("BIPIE_TEST_ENV_LOW", 7, 4, 100), 4u);
}

TEST(QuerySettingsTest, ApplySettingsConfiguresTracker) {
  QueryContext context;
  ASSERT_TRUE(context.settings().Set("memory_limit_bytes", "65536").ok());
  ASSERT_TRUE(
      context.settings().Set("memory_soft_limit_bytes", "32768").ok());
  context.ApplySettings();
  EXPECT_EQ(context.memory_tracker().hard_limit(), 65536u);
  EXPECT_EQ(context.memory_tracker().soft_limit(), 32768u);
}

}  // namespace
}  // namespace bipie
