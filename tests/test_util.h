// Shared helpers for bipie tests.
#ifndef BIPIE_TESTS_TEST_UTIL_H_
#define BIPIE_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/bits.h"
#include "common/memory_tracker.h"
#include "common/cpu.h"
#include "common/random.h"
#include "core/query.h"
#include "core/scan.h"
#include "encoding/bitpack.h"
#include "obs/plan_explain.h"
#include "storage/table.h"

namespace bipie::test {

// Runs the test body once per ISA tier actually available on this machine,
// restoring the default tier afterwards.
template <typename Fn>
void ForEachIsaTier(Fn&& fn) {
  const IsaTier detected = DetectIsaTier();
  SetIsaTierForTesting(IsaTier::kScalar);
  fn(IsaTier::kScalar);
  if (detected >= IsaTier::kAvx2) {
    SetIsaTierForTesting(IsaTier::kAvx2);
    fn(IsaTier::kAvx2);
  }
  if (detected >= IsaTier::kAvx512) {
    SetIsaTierForTesting(IsaTier::kAvx512);
    fn(IsaTier::kAvx512);
  }
  SetIsaTierForTesting(detected);
}

// Random values each fitting in `bit_width` bits.
inline std::vector<uint64_t> RandomPackedValues(size_t n, int bit_width,
                                                uint64_t seed) {
  std::vector<uint64_t> values(n);
  Rng rng(seed);
  const uint64_t mask = LowBitsMask(bit_width);
  for (auto& v : values) v = rng.Next() & mask;
  return values;
}

// Bit-packs values into a padded buffer.
inline AlignedBuffer Pack(const std::vector<uint64_t>& values,
                          int bit_width) {
  AlignedBuffer buf(BitPackedBytes(values.size(), bit_width) + 8);
  BitPack(values.data(), values.size(), bit_width, buf.data());
  return buf;
}

// Random byte group ids below num_groups, in a padded buffer.
inline AlignedBuffer RandomGroups(size_t n, int num_groups, uint64_t seed) {
  AlignedBuffer buf(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    buf.data()[i] = static_cast<uint8_t>(rng.NextBounded(num_groups));
  }
  return buf;
}

// Copies a vector into a padded AlignedBuffer.
template <typename T>
AlignedBuffer ToPadded(const std::vector<T>& v) {
  AlignedBuffer buf(v.size() * sizeof(T));
  std::memcpy(buf.data(), v.data(), v.size() * sizeof(T));
  return buf;
}

// Cross-checks the accounting identities every *successful* Execute() must
// satisfy, whatever strategies ran and however the work was morselized
// (DESIGN.md §12). Used after every scan in the test suite and as a fuzz
// oracle: a violation means the stats pipeline miscounted, which usually
// flags a real execution bug (double-counted segment, skipped batch, a
// hashed segment's rows lost).
struct StatsInvariants {
  // The invariants decidable from the stats and the query alone.
  // Returns human-readable violation messages; empty means all hold.
  static std::vector<std::string> Check(const ScanStats& stats,
                                        const QuerySpec& query) {
    std::vector<std::string> v;
    auto fail = [&v](std::string msg) { v.push_back(std::move(msg)); };
    auto num = [](size_t n) { return std::to_string(n); };

    if (stats.rows_selected > stats.rows_scanned) {
      fail("rows_selected " + num(stats.rows_selected) + " > rows_scanned " +
           num(stats.rows_scanned));
    }
    if (stats.rows_run_aggregated > stats.rows_selected) {
      fail("rows_run_aggregated " + num(stats.rows_run_aggregated) +
           " > rows_selected " + num(stats.rows_selected));
    }
    // Every aggregated span covers at least one row, so the two run
    // counters are zero together and rows dominate spans.
    if (stats.rows_run_aggregated < stats.runs_aggregated) {
      fail("rows_run_aggregated " + num(stats.rows_run_aggregated) +
           " < runs_aggregated " + num(stats.runs_aggregated));
    }
    if ((stats.runs_aggregated == 0) != (stats.rows_run_aggregated == 0)) {
      fail("runs_aggregated / rows_run_aggregated zero-ness disagrees");
    }
    if (stats.runs_aggregated > 0 &&
        stats.aggregation_segments[static_cast<int>(
            AggregationStrategy::kRunBased)] == 0) {
      fail("run spans aggregated but no segment used kRunBased");
    }

    // Each scanned segment resolves exactly one aggregation strategy or runs
    // hashed, and is counted exactly once however many morsels covered it.
    const size_t strategy_total = StrategyTotal(stats);
    if (strategy_total > stats.segments_scanned) {
      fail("sum(aggregation_segments) " + num(strategy_total) +
           " > segments_scanned " + num(stats.segments_scanned));
    }
    if (stats.used_hash_fallback !=
        (stats.segments_scanned > strategy_total)) {
      fail(std::string("used_hash_fallback ") +
           (stats.used_hash_fallback ? "set" : "clear") + " with " +
           num(stats.segments_scanned - strategy_total) + " hashed segments");
    }

    // One selection decision per batch, except batches whose selection
    // vector came up empty (they return before deciding) — so <=, not ==.
    if (SelectionTotal(stats) > stats.batches) {
      fail("selection decisions " + num(SelectionTotal(stats)) +
           " > batches " + num(stats.batches));
    }
    // Run-based morsels bypass the batch loop entirely.
    if (stats.batches == 0 && stats.rows_scanned > 0 &&
        stats.rows_run_aggregated == 0 && stats.rows_selected > 0) {
      fail("rows selected without batches or run spans");
    }

    if (query.filters.empty() && stats.segments_eliminated > 0) {
      fail("segments eliminated without filters");
    }
    return v;
  }

  // The full set: adds the table-level accounting (row totals, liveness)
  // and, when given, the result-level identity (every selected row lands in
  // exactly one output group). Use after a successful Execute().
  static std::vector<std::string> Check(const ScanStats& stats,
                                        const QuerySpec& query,
                                        const Table& table,
                                        const QueryResult* result = nullptr) {
    std::vector<std::string> v = Check(stats, query);
    auto fail = [&v](std::string msg) { v.push_back(std::move(msg)); };
    auto num = [](size_t n) { return std::to_string(n); };

    size_t nonempty_segments = 0;
    size_t total_rows = 0;
    size_t alive_rows = 0;
    for (size_t s = 0; s < table.num_segments(); ++s) {
      const Segment& segment = table.segment(s);
      if (segment.num_rows() == 0) continue;
      ++nonempty_segments;
      total_rows += segment.num_rows();
      const uint8_t* alive = segment.alive_bytes();
      if (alive == nullptr) {
        alive_rows += segment.num_rows();
      } else {
        for (size_t r = 0; r < segment.num_rows(); ++r) {
          alive_rows += alive[r] != 0 ? 1 : 0;
        }
      }
    }

    if (stats.segments_scanned + stats.segments_eliminated !=
        nonempty_segments) {
      fail("segments scanned " + num(stats.segments_scanned) +
           " + eliminated " + num(stats.segments_eliminated) +
           " != non-empty segments " + num(nonempty_segments));
    }

    if (stats.segments_eliminated == 0) {
      if (stats.rows_scanned != total_rows) {
        fail("rows_scanned " + num(stats.rows_scanned) + " != table rows " +
             num(total_rows) + " with no segment eliminated");
      }
      if (query.filters.empty() && stats.rows_selected != alive_rows) {
        fail("rows_selected " + num(stats.rows_selected) + " != alive rows " +
             num(alive_rows) + " with no filters");
      }
    }
    if (query.filters.empty() && alive_rows == total_rows &&
        stats.rows_selected != stats.rows_scanned) {
      fail("rows_selected != rows_scanned with no filters and no deletes");
    }
    if (result != nullptr) {
      size_t result_rows = 0;
      for (const ResultRow& row : result->rows) result_rows += row.count;
      if (result_rows != stats.rows_selected) {
        fail("sum(result counts) " + num(result_rows) + " != rows_selected " +
             num(stats.rows_selected));
      }
    }
    return v;
  }

  // One line per violation, for assertion messages.
  static std::string Describe(const std::vector<std::string>& violations) {
    std::string out;
    for (const std::string& m : violations) {
      out += "stats invariant violated: " + m + "\n";
    }
    return out;
  }

  // Scanned segments that resolved an aggregation strategy; the rest of
  // segments_scanned ran hashed.
  static size_t StrategyTotal(const ScanStats& stats) {
    size_t total = 0;
    for (size_t a = 0; a < kNumAggregationStrategies; ++a) {
      total += stats.aggregation_segments[a];
    }
    return total;
  }

 private:
  static size_t SelectionTotal(const ScanStats& stats) {
    return stats.selection.gather + stats.selection.compact +
           stats.selection.special_group + stats.selection.unfiltered;
  }
};

// Differences between what Explain() renders for `scan` and what its last
// successful Execute() ran: the outcome kind, the segment counts, the
// hashed segments and the per-strategy count of planned segments. Empty
// means they agree.
inline std::vector<std::string> ExplainDisagreements(const BIPieScan& scan) {
  std::vector<std::string> v;
  Result<PlanExplain> explain = scan.Explain();
  if (!explain.ok()) {
    v.push_back("Explain failed: " + explain.status().ToString());
    return v;
  }
  const PlanExplain& e = explain.value();
  const ScanStats& stats = scan.stats();
  if (e.plan_error) {
    v.push_back("explain reports an error: " + e.plan_error_text);
  }
  const size_t ran_hashed =
      stats.segments_scanned - StatsInvariants::StrategyTotal(stats);
  if (e.segments_hashed != ran_hashed) {
    v.push_back("explain hashes " + std::to_string(e.segments_hashed) +
                " segments, the scan hashed " + std::to_string(ran_hashed));
  }
  if (e.segments_scanned != stats.segments_scanned ||
      e.segments_eliminated != stats.segments_eliminated) {
    v.push_back("explain segments scanned/eliminated " +
                std::to_string(e.segments_scanned) + "/" +
                std::to_string(e.segments_eliminated) + " vs executed " +
                std::to_string(stats.segments_scanned) + "/" +
                std::to_string(stats.segments_eliminated));
  }
  size_t planned[kNumAggregationStrategies] = {0};
  for (const SegmentExplain& seg : e.segments) {
    if (!seg.eliminated && seg.bind_ok) {
      ++planned[static_cast<int>(seg.decision.aggregation)];
    }
  }
  for (size_t a = 0; a < kNumAggregationStrategies; ++a) {
    if (planned[a] != stats.aggregation_segments[a]) {
      v.push_back("explain plans " + std::to_string(planned[a]) + " " +
                  AggregationStrategyName(static_cast<AggregationStrategy>(a)) +
                  " segments, the scan ran " +
                  std::to_string(stats.aggregation_segments[a]));
    }
  }
  return v;
}

// ExecuteQuery with the stats invariants asserted on every successful scan,
// and Explain() checked against what ran (ExplainDisagreements): a
// violation surfaces as an Internal error carrying the violation text, so
// existing ASSERT_TRUE(got.ok()) call sites report it verbatim. Error-path
// expectations (kNotSupported, kOverflowRisk, ...) are unaffected — those
// scans never reach the check.
inline Result<QueryResult> ExecuteChecked(const Table& table, QuerySpec query,
                                          ScanOptions options = {}) {
  BIPieScan scan(table, query, options);
  Result<QueryResult> result = scan.Execute();
  if (result.ok()) {
    std::vector<std::string> violations =
        StatsInvariants::Check(scan.stats(), query, table, &result.value());
    if (!violations.empty()) {
      return Status::Internal(StatsInvariants::Describe(violations));
    }
    violations = ExplainDisagreements(scan);
    if (!violations.empty()) {
      std::string text;
      for (const std::string& m : violations) {
        text += "explain disagrees with execution: " + m + "\n";
      }
      return Status::Internal(text);
    }
  }
  // Tracker-balance invariant (DESIGN.md §13): whether the scan succeeded
  // or failed, every byte charged to the query's tracker must have been
  // released by the time Execute() returns — scratch buffers are re-homed
  // to the process root on morsel-scope exit, and error paths unwind their
  // charges. A residue means a charge/release asymmetry (leak in the
  // accounting, not necessarily in the allocator).
  if (options.context != nullptr) {
    const size_t residue = options.context->memory_tracker().used();
    if (residue != 0) {
      return Status::Internal("memory tracker balance invariant violated: " +
                              std::to_string(residue) +
                              " bytes still charged after Execute()");
    }
  }
  return result;
}

}  // namespace bipie::test

// Asserts the stats invariants for a completed BIPieScan (gtest files only:
// expands to EXPECT_TRUE). `result_ptr` may be null when the QueryResult is
// not at hand.
#define BIPIE_EXPECT_STATS_INVARIANTS(scan, query, table, result_ptr)       \
  do {                                                                      \
    const std::vector<std::string> bipie_stats_violations_ =                \
        ::bipie::test::StatsInvariants::Check((scan).stats(), (query),      \
                                              (table), (result_ptr));       \
    EXPECT_TRUE(bipie_stats_violations_.empty())                            \
        << ::bipie::test::StatsInvariants::Describe(bipie_stats_violations_); \
  } while (0)

#endif  // BIPIE_TESTS_TEST_UTIL_H_
