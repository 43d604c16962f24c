// The four workloads of the end-to-end benchmark (see bench_e2e/README.md
// for why each was chosen and which layer it stresses).
//
// Each takes its inputs from the seed, sets up its table (TimedSetup),
// checks every result against an oracle computed untimed, and fills either
// the end-to-end metrics (untraced run) or the per-layer metrics (traced
// run) of a WorkloadResult. Operation counts derive from --seconds through
// frozen nominal per-operation costs, so every commit does the same work.
#ifndef BIPIE_BENCH_E2E_WORKLOADS_H_
#define BIPIE_BENCH_E2E_WORKLOADS_H_

#include "common.h"

namespace bipie::e2e {

enum class ScanQuery { kQ1, kQ6 };

WorkloadResult RunScanWorkload(const RunConfig& config, ScanQuery which);
WorkloadResult RunServerMix(const RunConfig& config);
WorkloadResult RunIngestWindow(const RunConfig& config);

}  // namespace bipie::e2e

#endif  // BIPIE_BENCH_E2E_WORKLOADS_H_
