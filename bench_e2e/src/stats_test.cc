// Unit test for the benchmark's percentile helper: nearest rank, the rule
// that a reported tail has at least ten samples beyond it, and the
// mean-of-minima estimate behind the gated timings.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

}  // namespace

int main() {
  using namespace bipie::e2e;  // NOLINT

  // Nearest rank: ceil(p * n / 100), clamped to [1, n].
  CHECK(NearestRank(0, 50) == 0);
  CHECK(NearestRank(1, 50) == 1);
  CHECK(NearestRank(10, 50) == 5);
  CHECK(NearestRank(11, 50) == 6);
  CHECK(NearestRank(100, 99) == 99);
  CHECK(NearestRank(1000, 99) == 990);
  CHECK(NearestRank(1000, 99.9) == 999);
  CHECK(NearestRank(110, 90) == 99);
  CHECK(NearestRank(5, 100) == 5);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted input
  CHECK(Percentile(v, 50) == 50);
  CHECK(Percentile(v, 90) == 90);
  CHECK(Percentile(v, 99) == 99);
  CHECK(Percentile(v, 100) == 100);
  CHECK(Percentile({}, 50) == 0);
  CHECK(Percentile({7}, 99) == 7);

  // Tail rule: at least ten samples strictly beyond the reported rank.
  CHECK(TailPercentile(1000) == 99.0);  // rank 990, 10 beyond
  CHECK(TailPercentile(999) == 98.0);   // p99 would leave 9
  CHECK(TailPercentile(10000) == 99.9);
  CHECK(TailPercentile(110) == 90.0);   // rank 99, 11 beyond
  CHECK(TailPercentile(100) == 90.0);   // rank 90, exactly 10 beyond
  CHECK(TailPercentile(99) == 80.0);
  CHECK(TailPercentile(5) == 50.0);
  CHECK(TailPercentile(0) == 50.0);
  for (size_t n = 1; n <= 5000; ++n) {
    const double p = TailPercentile(n);
    if (p > 50.0) CHECK(n - NearestRank(n, p) >= kMinSamplesBeyond);
  }

  const Summary s = Summarize(v);
  CHECK(s.n == 100);
  CHECK(s.p50 == 50);
  CHECK(s.tail_percentile == 90.0);
  CHECK(s.tail == 90);
  CHECK(s.min == 1 && s.max == 100);
  CHECK(s.mean == 50.5);
  CHECK(Summarize({}).n == 0);

  // Mean over kinds of each kind's fastest sample; empty kinds are skipped.
  CHECK(MeanOfMinima({{3, 1, 2}}) == 1);
  CHECK(MeanOfMinima({{5, 4}, {}, {9, 8, 10}}) == 6);
  CHECK(MeanOfMinima({}) == 0);
  CHECK(MeanOfMinima({{}, {}}) == 0);

  if (failures == 0) std::printf("bench_stats_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
