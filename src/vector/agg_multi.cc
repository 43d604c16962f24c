#include "vector/agg_multi.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/cpu.h"
#include "common/macros.h"

namespace bipie {

namespace {

// SIMD accumulator lanes holding sums of values < 2^16 wrap only after
// 65536 additions; drain at that cadence (§5.4's 65536-row guarantee).
constexpr size_t kDrainRows = 65536;
// Accumulator copies per group (see the header comment).
constexpr int kCopies = 4;

// Typed input arrays, in lane order: full, widened, then pairs.
struct LaneInputs {
  const int64_t* full[4];
  const int32_t* widened[4];
  const uint32_t* pair_a[4];
  const uint32_t* pair_b[4];
};

// One value of column `desc` at row i, as its sum sees it. Each width
// returns on its own: a single conditional over int32 and uint32 operands
// would convert both to uint32 and zero-extend negative values.
int64_t LoadValue(const MultiAggregator::ColumnDesc& desc, const void* data,
                  size_t i) {
  if (desc.input_bytes == 8) return static_cast<const int64_t*>(data)[i];
  if (desc.widen) return static_cast<const int32_t*>(data)[i];
  return static_cast<const uint32_t*>(data)[i];
}

// Accumulates `n` rows (n % 4 == 0) with NF full int64 columns, NW widened
// int32 columns and NP 32-bit pairs. acc holds kCopies 256-bit accumulators
// per group.
template <int NF, int NW, int NP>
void ProcessChunk(const LaneInputs& in, const uint8_t* groups, size_t base,
                  size_t n, __m256i* acc) {
  // Local copies: the accumulator stores may alias anything, and the
  // pointers would otherwise be reloaded after every one.
  const int64_t* full[NF > 0 ? NF : 1];
  const int32_t* widened[NW > 0 ? NW : 1];
  const uint32_t* pair_a[NP > 0 ? NP : 1];
  const uint32_t* pair_b[NP > 0 ? NP : 1];
  for (int j = 0; j < NF; ++j) full[j] = in.full[j];
  for (int j = 0; j < NW; ++j) widened[j] = in.widened[j];
  for (int j = 0; j < NP; ++j) {
    pair_a[j] = in.pair_a[j];
    pair_b[j] = in.pair_b[j];
  }
  for (size_t i = base; i + 4 <= base + n; i += 4) {
    __m256i q[4];
    int s = 0;
    for (int j = 0; j < NF; ++j, ++s) {
      q[s] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(full[j] + i));
    }
    for (int j = 0; j < NW; ++j, ++s) {
      q[s] = _mm256_cvtepi32_epi64(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(widened[j] + i)));
    }
    for (int j = 0; j < NP; ++j, ++s) {
      const __m128i a = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(pair_a[j] + i));
      const __m128i b = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(pair_b[j] + i));
      // Interleave the two 32-bit columns into one pseudo-64-bit column.
      const __m128i lo = _mm_unpacklo_epi32(a, b);
      const __m128i hi = _mm_unpackhi_epi32(a, b);
      q[s] = _mm256_set_m128i(hi, lo);
    }
    for (; s < 4; ++s) q[s] = _mm256_setzero_si256();

    // 4x4 qword transpose: q[s] lane r -> row r lane s.
    const __m256i t0 = _mm256_unpacklo_epi64(q[0], q[1]);
    const __m256i t1 = _mm256_unpackhi_epi64(q[0], q[1]);
    const __m256i t2 = _mm256_unpacklo_epi64(q[2], q[3]);
    const __m256i t3 = _mm256_unpackhi_epi64(q[2], q[3]);
    const __m256i r0 = _mm256_permute2x128_si256(t0, t2, 0x20);
    const __m256i r1 = _mm256_permute2x128_si256(t1, t3, 0x20);
    const __m256i r2 = _mm256_permute2x128_si256(t0, t2, 0x31);
    const __m256i r3 = _mm256_permute2x128_si256(t1, t3, 0x31);

    // One load-add-store per row updates every sum (the paper's pitch);
    // row i + k uses copy k, so the four stores never depend on each other.
    __m256i* a0 = acc + groups[i] * kCopies;
    *a0 = _mm256_add_epi64(*a0, r0);
    __m256i* a1 = acc + groups[i + 1] * kCopies + 1;
    *a1 = _mm256_add_epi64(*a1, r1);
    __m256i* a2 = acc + groups[i + 2] * kCopies + 2;
    *a2 = _mm256_add_epi64(*a2, r2);
    __m256i* a3 = acc + groups[i + 3] * kCopies + 3;
    *a3 = _mm256_add_epi64(*a3, r3);
  }
}

using ChunkFn = void (*)(const LaneInputs&, const uint8_t*, size_t, size_t,
                         __m256i*);

// Kernels for every (full, widened, pairs) lane split, indexed
// full * 25 + widened * 5 + pairs; splits over four lanes stay null.
template <size_t I>
constexpr ChunkFn ChunkEntry() {
  constexpr int kFull = I / 25, kWide = (I / 5) % 5, kPairs = I % 5;
  if constexpr (kFull + kWide + kPairs >= 1 && kFull + kWide + kPairs <= 4) {
    return &ProcessChunk<kFull, kWide, kPairs>;
  } else {
    return nullptr;
  }
}

// A plain array member: __m256i's attributes would be dropped (and warned
// about) in a std::array template argument.
struct ChunkTable {
  ChunkFn fns[125];
};

template <size_t... I>
constexpr ChunkTable MakeChunkTable(std::index_sequence<I...>) {
  return {{ChunkEntry<I>()...}};
}

constexpr ChunkTable kChunkTable =
    MakeChunkTable(std::make_index_sequence<125>{});

}  // namespace

Status MultiAggregator::Configure(const std::vector<ColumnDesc>& columns,
                                  int num_groups) {
  if (columns.empty()) {
    return Status::InvalidArgument("multi-aggregate needs >= 1 column");
  }
  if (num_groups < 1 || num_groups > kMaxGroups) {
    return Status::InvalidArgument("multi-aggregate group count out of range");
  }
  columns_ = columns;
  num_groups_ = num_groups;
  full_cols_.clear();
  widened_cols_.clear();
  pairs_.clear();

  std::vector<int> narrow_cols;
  for (size_t c = 0; c < columns.size(); ++c) {
    const ColumnDesc& d = columns[c];
    if (d.input_bytes == 8 && !d.widen) {
      full_cols_.push_back(static_cast<int>(c));
    } else if (d.input_bytes == 4 && d.widen) {
      widened_cols_.push_back(static_cast<int>(c));
    } else if (d.input_bytes == 4) {
      narrow_cols.push_back(static_cast<int>(c));
    } else {
      return Status::InvalidArgument(
          "multi-aggregate input arrays must be 4 or 8 bytes per element, "
          "and only 4-byte ones widen");
    }
  }
  for (size_t i = 0; i < narrow_cols.size(); i += 2) {
    Pair p;
    p.col_a = narrow_cols[i];
    p.col_b = i + 1 < narrow_cols.size() ? narrow_cols[i + 1] : -1;
    pairs_.push_back(p);
  }
  num_full_ = static_cast<int>(full_cols_.size());
  num_widened_ = static_cast<int>(widened_cols_.size());
  num_pairs_ = static_cast<int>(pairs_.size());
  if (num_full_ + num_widened_ + num_pairs_ > 4) {
    return Status::NotSupported(
        "expanded aggregate row exceeds one 256-bit register");
  }

  acc_.Resize(static_cast<size_t>(num_groups_) * kCopies * sizeof(__m256i));
  acc_.ZeroFill();
  partials_.assign(static_cast<size_t>(num_groups_) * columns_.size(), 0);
  rows_since_drain_ = 0;
  return Status::OK();
}

void MultiAggregator::Process(const uint8_t* groups,
                              const void* const* col_data, size_t n) {
  const size_t ncols = columns_.size();
  size_t i = 0;
  if (CurrentIsaTier() >= IsaTier::kAvx2) {
    LaneInputs in{};
    for (int j = 0; j < num_full_; ++j) {
      in.full[j] = static_cast<const int64_t*>(col_data[full_cols_[j]]);
    }
    for (int j = 0; j < num_widened_; ++j) {
      in.widened[j] = static_cast<const int32_t*>(col_data[widened_cols_[j]]);
    }
    for (int j = 0; j < num_pairs_; ++j) {
      in.pair_a[j] = static_cast<const uint32_t*>(col_data[pairs_[j].col_a]);
      // A dummy half duplicates col_a; its lane is discarded at drain time.
      in.pair_b[j] =
          pairs_[j].col_b >= 0
              ? static_cast<const uint32_t*>(col_data[pairs_[j].col_b])
              : in.pair_a[j];
    }
    const ChunkFn chunk_fn =
        kChunkTable.fns[num_full_ * 25 + num_widened_ * 5 + num_pairs_];
    BIPIE_DCHECK(chunk_fn != nullptr);
    auto* acc = acc_.data_as<__m256i>();
    while (i + 4 <= n) {
      const size_t room = kDrainRows - rows_since_drain_;
      const size_t m = std::min((n - i) & ~size_t{3}, room);
      chunk_fn(in, groups, i, m, acc);
      i += m;
      rows_since_drain_ += m;
      if (rows_since_drain_ >= kDrainRows) DrainSimdAccumulators();
    }
  }
  // Scalar tier, and the SIMD tail: straight to the 64-bit partials.
  for (; i < n; ++i) {
    int64_t* row = partials_.data() + groups[i] * ncols;
    for (size_t c = 0; c < ncols; ++c) {
      row[c] += LoadValue(columns_[c], col_data[c], i);
    }
  }
}

void MultiAggregator::DrainSimdAccumulators() {
  const size_t ncols = columns_.size();
  auto* acc = acc_.data_as<__m256i>();
  for (int g = 0; g < num_groups_; ++g) {
    __m256i* copies = acc + static_cast<size_t>(g) * kCopies;
    // The header's drain proof: no pair half carries in this sum.
    const __m256i sum =
        _mm256_add_epi64(_mm256_add_epi64(copies[0], copies[1]),
                         _mm256_add_epi64(copies[2], copies[3]));
    for (int k = 0; k < kCopies; ++k) copies[k] = _mm256_setzero_si256();
    alignas(32) uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), sum);
    int64_t* row = partials_.data() + static_cast<size_t>(g) * ncols;
    int lane = 0;
    for (int j = 0; j < num_full_; ++j, ++lane) {
      row[full_cols_[j]] += static_cast<int64_t>(lanes[lane]);
    }
    for (int j = 0; j < num_widened_; ++j, ++lane) {
      row[widened_cols_[j]] += static_cast<int64_t>(lanes[lane]);
    }
    for (int j = 0; j < num_pairs_; ++j, ++lane) {
      row[pairs_[j].col_a] += static_cast<int64_t>(lanes[lane] & 0xFFFFFFFFULL);
      if (pairs_[j].col_b >= 0) {
        row[pairs_[j].col_b] += static_cast<int64_t>(lanes[lane] >> 32);
      }
    }
  }
  rows_since_drain_ = 0;
}

void MultiAggregator::Flush(int64_t* sums) {
  if (CurrentIsaTier() >= IsaTier::kAvx2) DrainSimdAccumulators();
  const size_t total = partials_.size();
  for (size_t i = 0; i < total; ++i) {
    sums[i] += partials_[i];
    partials_[i] = 0;
  }
}

}  // namespace bipie
