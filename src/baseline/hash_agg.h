// Row-at-a-time hash aggregation baseline.
//
// Stands in for the classical engine design BIPie is compared against
// (§5, "The Group ID Mapper replaces the hash table lookup step in a
// classical implementation of aggregation"): per batch it decodes the
// needed columns to logical int64 arrays, then walks rows one at a time —
// hash the group key, probe an open-addressing table, update the count and
// every sum. No SIMD, no encoded-domain processing, no operator
// specialization; everything else (storage, expressions, filters) is
// shared, so benchmark deltas isolate the paper's contribution.
#ifndef BIPIE_BASELINE_HASH_AGG_H_
#define BIPIE_BASELINE_HASH_AGG_H_

#include "common/status.h"
#include "core/query.h"
#include "exec/query_context.h"
#include "storage/table.h"

namespace bipie {

// `context` (nullable) supplies cancellation and memory governance: the
// engine checks cancellation per batch, binds the context's MemoryTracker
// around execution and accounts its hash-table growth against it, so a
// limit breach returns kResourceExhausted — the fallback inherits the
// specialized scan's complete-or-error contract. A SUM that does not fit
// int64 returns kOverflowRisk.
Result<QueryResult> ExecuteQueryHashAgg(const Table& table,
                                        const QuerySpec& query,
                                        QueryContext* context = nullptr);

}  // namespace bipie

#endif  // BIPIE_BASELINE_HASH_AGG_H_
