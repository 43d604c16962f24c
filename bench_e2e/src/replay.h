// Per-layer cost of a query, measured from outside the engine.
//
// BIPieScan::Execute is one opaque call. To split its cost by layer, the
// benchmark re-runs the same query through the public per-segment calls
// that Execute's own morsel loop makes (ScanMorselImpl in src/core/scan.cc):
// segment elimination, AggregateProcessor::Bind, a BatchCursor walk with
// ColumnPredicate::Evaluate + AndSelection + the liveness mask,
// AggregateProcessor::ProcessBatch and Finish — or, for kRunBased segments,
// MatchesAllRows / EvaluateRuns + GroupMapper::AppendRunSpans +
// ProcessRunSpan. The TSC is read around each call. The replayed result
// must equal Execute's; that equality is what makes the split trustworthy.
#ifndef BIPIE_BENCH_E2E_REPLAY_H_
#define BIPIE_BENCH_E2E_REPLAY_H_

#include <vector>

#include "common.h"
#include "core/query.h"
#include "storage/table.h"

namespace bipie::e2e {

// The traced run's per-layer measurement for a set of queries: each query
// runs `repeats` times through Execute (num_threads = 1, timed as a whole)
// and through the replay (timed per call), alternating. morsel_rows == 0
// replays whole segments, as Execute does with num_threads = 1; otherwise
// each segment is cut into batch-aligned morsels of that many rows, each
// binding its own processor, as the pooled path does. Both results are
// checked against `oracles`. Fills the expr.*, core.* and trace.overhead_frac
// metrics of `out` and counts every check in attempted/failed. When
// `execute_ms` is non-null, each Execute call's latency is appended to it.
void ProfileLayers(const Table& table, const std::vector<QuerySpec>& queries,
                   const std::vector<QueryResult>& oracles,
                   size_t morsel_rows, int repeats, WorkloadResult* out,
                   std::vector<double>* execute_ms = nullptr);

}  // namespace bipie::e2e

#endif  // BIPIE_BENCH_E2E_REPLAY_H_
