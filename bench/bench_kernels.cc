// Google-benchmark microbenchmarks for the Vector Toolbox kernels.
//
// These complement the paper-table binaries with standard google-benchmark
// output (items_per_second = rows/s), useful for regression tracking of
// individual kernels.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/bench_util.h"
#include "vector/toolbox.h"

namespace bipie {
namespace {

constexpr size_t kRows = size_t{1} << 20;

void BM_BitUnpack(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  auto packed = bench::MakePackedColumn(kRows, w, w);
  const int word = SmallestWordBytes(w);
  AlignedBuffer out(kRows * word);
  for (auto _ : state) {
    BitUnpack(packed.data(), 0, kRows, w, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_BitUnpack)->Arg(4)->Arg(7)->Arg(14)->Arg(21)->Arg(28)->Arg(40);

// The scan's call shape: 4096-value batches into one L1-resident buffer at
// a chosen word, so the unpack work shows instead of the store bandwidth of
// BM_BitUnpack's multi-megabyte output.
void BM_BitUnpackBatches(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  const int word = static_cast<int>(state.range(1));
  constexpr size_t kBatch = 4096;
  auto packed = bench::MakePackedColumn(kRows, w, w);
  AlignedBuffer out(kBatch * 8);
  for (auto _ : state) {
    for (size_t start = 0; start < kRows; start += kBatch) {
      BitUnpackToWord(packed.data(), start, kBatch, w, out.data(), word);
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_BitUnpackBatches)
    ->Args({4, 1})
    ->Args({7, 1})
    ->Args({14, 2})
    ->Args({21, 4})
    ->Args({28, 4})
    ->Args({40, 8})
    ->Args({6, 4})
    ->Args({24, 8});

void BM_CompactToIndexVector(benchmark::State& state) {
  const double sel = static_cast<double>(state.range(0)) / 100.0;
  auto bytes = bench::MakeSelection(kRows, sel, 7);
  AlignedBuffer out((kRows + 8) * sizeof(uint32_t));
  for (auto _ : state) {
    const size_t m =
        CompactToIndexVector(bytes.data(), kRows, out.data_as<uint32_t>());
    benchmark::DoNotOptimize(m);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_CompactToIndexVector)->Arg(2)->Arg(50)->Arg(98);

void BM_GatherSelect(benchmark::State& state) {
  const int w = static_cast<int>(state.range(0));
  auto packed = bench::MakePackedColumn(kRows, w, w);
  auto sel = bench::MakeSelection(kRows, 0.5, 9);
  AlignedBuffer idx((kRows + 8) * sizeof(uint32_t));
  const size_t m = CompactToIndexVector(sel.data(), kRows,
                                        idx.data_as<uint32_t>());
  const int word = SmallestWordBytes(w);
  AlignedBuffer out(m * word);
  for (auto _ : state) {
    GatherSelect(packed.data(), w, idx.data_as<uint32_t>(), m, out.data(),
                 word);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_GatherSelect)->Arg(5)->Arg(10)->Arg(20);

void BM_ApplySpecialGroup(benchmark::State& state) {
  auto groups = bench::MakeGroups(kRows, 6, 3);
  auto sel = bench::MakeSelection(kRows, 0.98, 4);
  AlignedBuffer out(kRows);
  for (auto _ : state) {
    ApplySpecialGroup(groups.data(), sel.data(), kRows, 6, out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_ApplySpecialGroup);

void BM_InRegisterCount(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  auto ids = bench::MakeGroups(kRows, groups, groups);
  std::vector<uint64_t> counts(static_cast<size_t>(groups));
  for (auto _ : state) {
    std::fill(counts.begin(), counts.end(), 0);
    InRegisterCount(ids.data(), kRows, groups, counts.data());
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_InRegisterCount)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_InRegisterSum8(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  auto ids = bench::MakeGroups(kRows, groups, groups);
  auto values = bench::MakeDecodedValues(kRows, 8, 1, 5);
  std::vector<uint64_t> sums(static_cast<size_t>(groups));
  for (auto _ : state) {
    std::fill(sums.begin(), sums.end(), 0);
    InRegisterSum8(ids.data(), values.data(), kRows, groups, sums.data());
    benchmark::DoNotOptimize(sums.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_InRegisterSum8)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_SortedBatchSort(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  auto ids = bench::MakeGroups(kRows, groups, groups);
  SortedBatch batch;
  for (auto _ : state) {
    for (size_t start = 0; start < kRows; start += 4096) {
      batch.Sort(ids.data() + start, nullptr, 4096, groups);
    }
    benchmark::DoNotOptimize(batch.indices());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_SortedBatchSort)->Arg(4)->Arg(16)->Arg(64);

void BM_MultiAggregate4Sums(benchmark::State& state) {
  const int groups = static_cast<int>(state.range(0));
  auto ids = bench::MakeGroups(kRows, groups, groups);
  std::vector<AlignedBuffer> arrays;
  arrays.push_back(bench::MakeDecodedValues(kRows, 40, 8, 1));
  arrays.push_back(bench::MakeDecodedValues(kRows, 40, 8, 2));
  arrays.push_back(bench::MakeDecodedValues(kRows, 15, 4, 3));
  arrays.push_back(bench::MakeDecodedValues(kRows, 15, 4, 4));
  std::vector<const void*> ptrs;
  for (auto& a : arrays) ptrs.push_back(a.data());
  MultiAggregator agg;
  BIPIE_DCHECK(agg.Configure({{8}, {8}, {4}, {4}}, groups).ok());
  std::vector<int64_t> sums(static_cast<size_t>(groups) * 4);
  for (auto _ : state) {
    agg.Process(ids.data(), ptrs.data(), kRows);
    agg.Flush(sums.data());
    benchmark::DoNotOptimize(sums.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kRows));
}
BENCHMARK(BM_MultiAggregate4Sums)->Arg(8)->Arg(32)->Arg(128);

}  // namespace
}  // namespace bipie

BENCHMARK_MAIN();
