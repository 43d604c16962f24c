// Calibration profile persistence + cost-model law tests (DESIGN.md §17).
//
// The profile file is untrusted input: the corruption sweep flips every
// byte and tries every truncation length, and all of them must reject with
// a structured Status — never a crash, never a silently-wrong profile. The
// model-law tests pin the monotonicity properties the encoding advisor and
// the decision table rely on.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "cost/calibration.h"
#include "cost/cost_model.h"

namespace bipie {
namespace cost {
namespace {

// --- profile persistence ----------------------------------------------------

TEST(CalibrationProfileTest, BuiltinIsDeterministic) {
  const CalibrationProfile a = BuiltinProfile();
  const CalibrationProfile b = BuiltinProfile();
  EXPECT_EQ(SerializeProfile(a), SerializeProfile(b));
  EXPECT_EQ(a.calibrated, 0u);
  EXPECT_EQ(a.isa_tier, 0u);
}

TEST(CalibrationProfileTest, SerializeParseRoundTrip) {
  CalibrationProfile profile = BuiltinProfile();
  // Perturb every field so the round-trip can't pass by accident.
  for (int b = 0; b < kNumWidthBuckets; ++b) {
    profile.unpack_cycles[b] += 0.01 * (b + 1);
    profile.compare_cycles[b] += 0.001 * (b + 1);
  }
  profile.byteslice_plane_cycles += 0.03;
  profile.rle_run_cycles += 0.5;
  profile.mem_bytes_per_cycle += 1.25;
  profile.isa_tier = 2;
  profile.calibrated = 1;

  const std::vector<uint8_t> image = SerializeProfile(profile);
  auto parsed = ParseProfile(image.data(), image.size());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Exact field equality: serialization is bit-preserving for doubles.
  EXPECT_EQ(SerializeProfile(parsed.value()), image);
  EXPECT_EQ(parsed.value().isa_tier, 2u);
  EXPECT_EQ(parsed.value().calibrated, 1u);
  for (int b = 0; b < kNumWidthBuckets; ++b) {
    EXPECT_EQ(parsed.value().unpack_cycles[b], profile.unpack_cycles[b]);
    EXPECT_EQ(parsed.value().compare_cycles[b], profile.compare_cycles[b]);
  }
  EXPECT_EQ(parsed.value().mem_bytes_per_cycle, profile.mem_bytes_per_cycle);
}

TEST(CalibrationProfileTest, EveryByteFlipRejectsCleanly) {
  const std::vector<uint8_t> image = SerializeProfile(BuiltinProfile());
  for (size_t i = 0; i < image.size(); ++i) {
    std::vector<uint8_t> mutant = image;
    mutant[i] ^= 0xFF;
    auto parsed = ParseProfile(mutant.data(), mutant.size());
    ASSERT_FALSE(parsed.ok()) << "byte flip at offset " << i << " accepted";
    // Any flip breaks the CRC (or the magic/version it guards); the status
    // must be one of the structured rejection classes.
    const StatusCode code = parsed.status().code();
    EXPECT_TRUE(code == StatusCode::kDataLoss ||
                code == StatusCode::kNotSupported ||
                code == StatusCode::kInvalidArgument)
        << "offset " << i << ": " << parsed.status().ToString();
    EXPECT_FALSE(parsed.status().message().empty());
  }
}

TEST(CalibrationProfileTest, EveryTruncationRejectsCleanly) {
  const std::vector<uint8_t> image = SerializeProfile(BuiltinProfile());
  for (size_t n = 0; n < image.size(); ++n) {
    auto parsed = ParseProfile(image.data(), n);
    ASSERT_FALSE(parsed.ok()) << "truncation to " << n << " bytes accepted";
    EXPECT_EQ(parsed.status().code(), StatusCode::kDataLoss)
        << "length " << n;
  }
  // One byte extra is a size mismatch too.
  std::vector<uint8_t> extended = image;
  extended.push_back(0);
  EXPECT_FALSE(ParseProfile(extended.data(), extended.size()).ok());
}

TEST(CalibrationProfileTest, NonFiniteEntryRejects) {
  CalibrationProfile profile = BuiltinProfile();
  profile.gather_row_cycles = -1.0;
  const std::vector<uint8_t> image = SerializeProfile(profile);
  auto parsed = ParseProfile(image.data(), image.size());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(CalibrationProfileTest, VersionMismatchIsNotSupported) {
  std::vector<uint8_t> image = SerializeProfile(BuiltinProfile());
  // Patch the version word (bytes 4..8, LE) and re-seal the CRC so the
  // version check — not the checksum — is what fires.
  const uint32_t bumped = kProfileVersion + 1;
  std::memcpy(image.data() + 4, &bumped, sizeof(bumped));
  const uint32_t crc = Crc32c(image.data(), image.size() - 4);
  std::memcpy(image.data() + image.size() - 4, &crc, sizeof(crc));
  auto parsed = ParseProfile(image.data(), image.size());
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kNotSupported);
}

TEST(CalibrationProfileTest, SaveLoadRoundTripsThroughDisk) {
  const std::string path =
      ::testing::TempDir() + "/bipie_cost_profile_roundtrip.bin";
  const CalibrationProfile profile = BuiltinProfile();
  ASSERT_TRUE(SaveProfile(profile, path).ok());
  auto loaded = LoadProfile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(SerializeProfile(loaded.value()), SerializeProfile(profile));
  std::remove(path.c_str());
}

TEST(CalibrationProfileTest, LoadOrCalibrateRecoversFromBadFile) {
  const std::string path =
      ::testing::TempDir() + "/bipie_cost_profile_corrupt.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "not a calibration profile at all";
    std::fwrite(garbage, 1, sizeof(garbage), f);
    std::fclose(f);
  }
  ASSERT_FALSE(LoadProfile(path).ok());
  const CalibrationProfile fresh = LoadOrCalibrate(path);
  EXPECT_EQ(fresh.calibrated, 1u);
  // The bad file was rewritten with the fresh profile.
  auto reloaded = LoadProfile(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(SerializeProfile(reloaded.value()), SerializeProfile(fresh));
  std::remove(path.c_str());
}

TEST(CalibrationProfileTest, CalibrateProducesValidProfile) {
  CalibrateOptions options;
  options.rows = size_t{1} << 12;  // keep the test fast
  options.repeats = 1;
  const CalibrationProfile measured = Calibrate(options);
  EXPECT_EQ(measured.calibrated, 1u);
  // A measured profile must itself serialize and parse (all entries within
  // the accepted range — Calibrate clamps absurd measurements).
  const std::vector<uint8_t> image = SerializeProfile(measured);
  auto parsed = ParseProfile(image.data(), image.size());
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
}

// --- model laws -------------------------------------------------------------

TEST(CostModelLawTest, UnpackCostNondecreasingInWidth) {
  const CalibrationProfile profile = BuiltinProfile();
  const CostModel model(profile);
  double prev = 0.0;
  for (int w = 1; w <= 64; ++w) {
    const double c = model.UnpackCyclesPerRow(w);
    EXPECT_GE(c, prev) << "width " << w;
    prev = c;
  }
}

TEST(CostModelLawTest, ByteSliceCostIncreasesWithSelectivityAndPlanes) {
  const CalibrationProfile profile = BuiltinProfile();
  const CostModel model(profile);
  for (int planes = 1; planes <= 8; ++planes) {
    double prev = -1.0;
    for (double s = 0.0; s <= 1.0; s += 0.125) {
      const double c = model.ByteSliceFilterCyclesPerRow(planes, s);
      EXPECT_GE(c, prev) << "planes=" << planes << " s=" << s;
      prev = c;
    }
  }
  // More planes cost more at any fixed nonzero selectivity.
  for (int planes = 2; planes <= 8; ++planes) {
    EXPECT_GT(model.ByteSliceFilterCyclesPerRow(planes, 0.5),
              model.ByteSliceFilterCyclesPerRow(planes - 1, 0.5));
  }
}

TEST(CostModelLawTest, ThreePlaneCrossoverMatchesLegacyCeiling) {
  // The builtin profile is tuned so the 3-plane byteslice-vs-decode
  // crossover lands at the legacy selectivity ceiling of 0.8: below it the
  // plane kernels win, above it assemble-and-compare wins.
  const CalibrationProfile profile = BuiltinProfile();
  const CostModel model(profile);
  const int bits = 22;  // 3 planes
  const double decode = model.UnpackCyclesPerRow(bits) +
                        model.CompareCyclesPerRow(bits);
  EXPECT_LT(model.ByteSliceFilterCyclesPerRow(3, 0.7), decode);
  EXPECT_GT(model.ByteSliceFilterCyclesPerRow(3, 0.9), decode);
}

TEST(CostModelLawTest, ScoreSegmentPrefersLowerCostAndBreaksTiesByEnum) {
  const CalibrationProfile profile = BuiltinProfile();
  const CostModel model(profile);
  SegmentCostInputs in;
  in.rows = 4096;
  in.num_sums = 2;
  in.agg_decode_cpr = 1.0;
  in.group_decode_cpr = 0.5;
  in.in_register_feasible = true;
  in.multi_fits = true;
  in.sort_feasible = true;
  const SegmentCosts costs = model.ScoreSegment(in);
  // The chosen entry is the strict argmin of the feasible totals.
  const double chosen_cpr =
      costs.total_cpr[static_cast<int>(costs.chosen)];
  ASSERT_GE(chosen_cpr, 0.0);
  for (int i = 0; i < kNumAggregationStrategies; ++i) {
    if (costs.total_cpr[i] < 0.0) continue;
    EXPECT_GE(costs.total_cpr[i], chosen_cpr);
    if (costs.total_cpr[i] == chosen_cpr) {
      EXPECT_GE(i, static_cast<int>(costs.chosen));  // tie -> lower enum
    }
  }
}

TEST(CostModelLawTest, InfeasibleStrategiesScoreNegative) {
  const CalibrationProfile profile = BuiltinProfile();
  const CostModel model(profile);
  SegmentCostInputs in;
  in.rows = 1024;
  in.num_sums = 1;
  in.agg_decode_cpr = 0.8;
  in.in_register_feasible = false;
  in.multi_fits = false;
  in.sort_feasible = false;
  in.run_capable = false;
  const SegmentCosts costs = model.ScoreSegment(in);
  EXPECT_LT(
      costs.total_cpr[static_cast<int>(AggregationStrategy::kInRegister)],
      0.0);
  EXPECT_LT(
      costs.total_cpr[static_cast<int>(AggregationStrategy::kMultiAggregate)],
      0.0);
  EXPECT_LT(
      costs.total_cpr[static_cast<int>(AggregationStrategy::kSortBased)],
      0.0);
  EXPECT_LT(costs.total_cpr[static_cast<int>(AggregationStrategy::kRunBased)],
            0.0);
  EXPECT_GE(costs.total_cpr[static_cast<int>(AggregationStrategy::kScalar)],
            0.0);
}

}  // namespace
}  // namespace cost
}  // namespace bipie
