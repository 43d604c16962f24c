#include "stats.h"

#include <algorithm>
#include <cmath>

namespace bipie::e2e {

size_t NearestRank(size_t n, double p) {
  if (n == 0) return 0;
  // Percentiles on the ladder have at most one decimal; working in tenths
  // keeps ceil() exact (0.99 * 1000 is not 990 in binary floating point).
  const auto tenths = static_cast<size_t>(std::llround(p * 10.0));
  const size_t rank = (tenths * n + 999) / 1000;
  return std::clamp<size_t>(rank, 1, n);
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t rank = NearestRank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double TailPercentile(size_t n) {
  for (const double p : {99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0}) {
    if (n - NearestRank(n, p) >= kMinSamplesBeyond) return p;
  }
  return 50.0;
}

Summary Summarize(std::vector<double> samples) {
  Summary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  const auto at = [&](double p) { return samples[NearestRank(s.n, p) - 1]; };
  s.p50 = at(50.0);
  s.tail_percentile = TailPercentile(s.n);
  s.tail = at(s.tail_percentile);
  s.min = samples.front();
  s.max = samples.back();
  double total = 0;
  for (const double v : samples) total += v;
  s.mean = total / static_cast<double>(s.n);
  return s;
}

double MeanOfMinima(const std::vector<std::vector<double>>& by_kind) {
  double total = 0;
  size_t kinds = 0;
  for (const std::vector<double>& samples : by_kind) {
    if (samples.empty()) continue;
    total += *std::min_element(samples.begin(), samples.end());
    ++kinds;
  }
  return kinds == 0 ? 0.0 : total / static_cast<double>(kinds);
}

}  // namespace bipie::e2e
