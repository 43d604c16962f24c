// Order statistics for the end-to-end benchmark's reported timings.
//
// Percentiles use the nearest-rank definition: percentile p of n samples is
// the sample at 1-based rank ceil(p * n / 100) of the sorted list. A tail is
// reported at the highest percentile of a fixed ladder that still leaves at
// least kMinSamplesBeyond samples strictly above its rank, so a reported
// p99 always rests on at least ten slower samples.
#ifndef BIPIE_BENCH_E2E_STATS_H_
#define BIPIE_BENCH_E2E_STATS_H_

#include <cstddef>
#include <vector>

namespace bipie::e2e {

inline constexpr size_t kMinSamplesBeyond = 10;

// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n` samples;
// 0 when n == 0.
size_t NearestRank(size_t n, double p);

// Percentile `p` of `samples` (any order) by nearest rank; 0 when empty.
double Percentile(std::vector<double> samples, double p);

// The highest percentile of {99.9, 99, 98, 95, 90, 80, 75} with at least
// kMinSamplesBeyond samples beyond its rank among `n`; 50 when none has.
double TailPercentile(size_t n);

struct Summary {
  size_t n = 0;
  double p50 = 0;
  double tail_percentile = 50;  // which percentile `tail` is
  double tail = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
};

Summary Summarize(std::vector<double> samples);

// The steady estimate behind the gated end-to-end timings. On a shared host,
// contention from other tenants comes in stretches of seconds that slow
// SIMD-heavy code by up to half, so the median of a run moves by 10-20%
// from run to run while the fastest sample of a kind moves by a few percent:
// contention only ever adds time. Samples are grouped by kind (one kind for
// repeated identical queries; the template, or the size of the data a query
// sees, when costs differ by design). Returns the mean over the non-empty
// kinds of each kind's minimum; 0 when every kind is empty.
double MeanOfMinima(const std::vector<std::vector<double>>& by_kind);

}  // namespace bipie::e2e

#endif  // BIPIE_BENCH_E2E_STATS_H_
