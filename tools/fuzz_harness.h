// Differential correctness harness (the driver behind tools/bipie_fuzz and
// tests/fuzz_driver_test).
//
// BIPie's correctness surface is combinatorial: 3 selection strategies x 6
// aggregation strategies x ISA tiers x encodings x bit widths x selectivity
// x group counts, all of which must compute exactly the answer of the
// generic hash-aggregation engine. The harness generates random tables and
// queries across that whole matrix from a single seed, executes every
// specialized plan, and diffs each result against the oracle. Failures
// shrink greedily to a minimal parameter set and print a replay line that
// reproduces the exact case locally.
//
// Everything is deterministic: a CaseParams value fully determines the
// table, the query, and the plans run, so a CI seed replays bit-identically
// on any machine (modulo the ISA tiers the hardware offers).
#ifndef BIPIE_TOOLS_FUZZ_HARNESS_H_
#define BIPIE_TOOLS_FUZZ_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace bipie::fuzz {

// Every knob of one generated differential case. MakeCaseParams derives all
// fields from a master seed; the shrinker then overrides individual fields
// and re-runs, so generation must depend only on the explicit field values.
struct CaseParams {
  uint64_t seed = 1;
  size_t rows = 6000;
  size_t segment_rows = 2048;
  int group_columns = 1;  // 0..2 grouping columns
  int group_card = 8;     // per-column group cardinality, 1..300 (values
                          // above 255 push the combined count outside the
                          // specialized envelope -> every segment hashed)
  int num_aggs = 2;       // aggregates beyond the implicit count(*)
  int num_filters = 1;    // 0..3 conjunctive filters
  double delete_frac = 0.0;        // fraction of rows deleted
  double target_selectivity = 0.5; // drives numeric filter literal choice
  int wide_bits = 0;      // >0 adds a wide (41..63 bit) bit-packed column
                          // that filters (and sometimes aggregates) touch
  size_t num_threads = 1; // execution model for the extra adaptive plan:
                          // 0 = shared morsel pool, 1 = inline only
  int64_t cancel_after = 0;  // >0 runs a cancellation pass: the context
                             // trips after this many cancellation checks,
                             // and the scan must return kCancelled or the
                             // complete exact result — never a partial one
  double failpoint_prob = 0.0;  // >0 arms the scan/morsel_scratch_alloc
                                // failpoint at this per-morsel probability
                                // (seeded with `seed`): every plan must then
                                // return its complete exact result or a
                                // structured kResourceExhausted — never a
                                // partial aggregate. No-op in builds without
                                // BIPIE_ENABLE_FAILPOINTS.
  double sorted_fraction = 0.0;  // >0 clusters group and RLE value columns
                                 // into runs of ~sorted_fraction * 8192 rows
                                 // (and pins the group columns to integer
                                 // RLE), putting cases inside the run-level
                                 // execution envelope so the forced
                                 // kRunBased plan diffs against the oracle
                                 // on run-shaped data, morsel boundaries
                                 // included
  uint64_t memory_limit = 0;  // >0 runs a memory-governance pass: a context
                              // with this hard limit (bytes) executes per
                              // model, and every run must return the
                              // complete exact result or a structured
                              // kResourceExhausted — never a partial
                              // aggregate, never a crash — with the query
                              // tracker balanced at zero afterwards
  int wide_segment = 0;  // >0 gives segment wide_segment - 1 a 300-value g1
                         // domain while the others keep group_card, so one
                         // segment runs hashed beside specialized ones
  int expr_shape = 0;    // >0 adds columns x0..x2 and expression sums over
                         // them in a shape the typed expression program
                         // tells apart: 1 = TPC-H Q1's x0 * (K - x1) and
                         // its product with (K2 + x2), sharing the subtree;
                         // 2 = x0 * x1 with bounds at the 2^31 edge, or
                         // beyond int64 with or without rows that overflow;
                         // 3 = an int32 node under a root that does not fit
                         // int32

  // Replay line, e.g. "seed=42 rows=375 segment_rows=128 ...". Parsed back
  // by ParseCaseParams.
  std::string ToString() const;
};

// Derives a full parameter set from a master seed.
CaseParams MakeCaseParams(uint64_t seed);

// Parses a ToString() replay line (space-separated key=value pairs; unknown
// keys are errors). Returns false on malformed input.
bool ParseCaseParams(const std::string& text, CaseParams* out,
                     std::string* error);

// Builds the case and runs the full differential matrix:
//   * the hash-aggregation oracle, itself checked against the naive engine
//     (ExecuteQueryNaive) whenever that engine answers — the scan's hashed
//     segments run the oracle's per-segment aggregator,
//   * the adaptive plan inline plus (when p.num_threads is 0) on the
//     shared morsel pool,
//   * every selection x aggregation override combination, plus each
//     selection-only and aggregation-only override,
//   * when p.cancel_after > 0, a cancellation pass per execution model:
//     a context that cancels after p.cancel_after checks must yield
//     kCancelled or the exact oracle result, never a partial one.
// A forced plan may reject cleanly with kNotSupported (infeasible strategy
// for the shape), and a forced aggregation strategy with kOverflowRisk
// (sums metadata cannot prove int64-safe). When the oracle itself reports
// kOverflowRisk (some aggregated row's expression or some sum leaves
// int64), the naive engine and every plan must report it too. Any other
// error, or any result row differing from the oracle, is a failure.
// Returns true when the case is green; otherwise fills *error with a
// human-readable diagnosis.
bool RunOneCase(const CaseParams& p, std::string* error);

// Greedily shrinks a failing case: tries field reductions in a fixed order,
// keeping each one that still fails, until a fixed point. Returns the
// minimal failing params (callers should re-run RunOneCase on the result to
// obtain the final error text).
CaseParams Shrink(const CaseParams& p);

struct FuzzResult {
  uint64_t iterations = 0;
  uint64_t failures = 0;
  std::string first_error;    // diagnosis of the first failing case
  CaseParams first_failing;   // shrunk params of the first failing case
};

// Runs seeds [seed, seed + iters); stops early once `budget_seconds` of wall
// clock elapse (0 = no budget). Stops at the first failure (after shrinking
// it). When `verbose`, prints one line per iteration to stderr.
FuzzResult RunFuzz(uint64_t seed, uint64_t iters, double budget_seconds,
                   bool verbose);

// ---------------------------------------------------------------------------
// load_table mode: the untrusted-file boundary.
// ---------------------------------------------------------------------------

struct LoadFuzzResult {
  uint64_t iterations = 0;
  uint64_t failures = 0;
  uint64_t first_failing_seed = 0;  // replay: --mode load_table --seed N
  std::string first_error;
};

// Fuzzes LoadTable: builds one golden table, saves it in both format
// versions, and for each seed applies seeded mutations (byte flips,
// truncations, garbage extension) before loading the mutant. Every mutant
// must either fail with a structured load error or produce a validated
// table that scans end to end — any other status (or any crash, which a
// sanitizer build turns into a process abort) is a failure. Stops at the
// first failing seed.
LoadFuzzResult RunLoadTableFuzz(uint64_t seed, uint64_t iters,
                                double budget_seconds, bool verbose);

// ---------------------------------------------------------------------------
// parse_sql mode: the untrusted-query boundary.
// ---------------------------------------------------------------------------

struct SqlFuzzResult {
  uint64_t iterations = 0;
  uint64_t failures = 0;
  uint64_t first_failing_seed = 0;  // replay: --mode parse_sql --seed N
  std::string first_error;
};

// Fuzzes the SQL frontend (src/sql): each seed mutates a valid statement
// (byte flips, truncation, token splices, slice duplication, raw garbage)
// and feeds it to PreparseQuery and ParseQuery. Every input must either
// parse into a QuerySpec that then executes without internal errors, or be
// rejected with a contextful kInvalidArgument — never any other status,
// never an empty message, never a crash (which a sanitizer build turns into
// a process abort). Stops at the first failing seed.
SqlFuzzResult RunParseSqlFuzz(uint64_t seed, uint64_t iters,
                              double budget_seconds, bool verbose);

}  // namespace bipie::fuzz

#endif  // BIPIE_TOOLS_FUZZ_HARNESS_H_
