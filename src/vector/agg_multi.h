// Multi-Aggregate SUM aggregation (§5.4).
//
// Uses data-level parallelism *horizontally*: the values of several
// aggregate columns for the same row are transposed into one 256-bit
// register, so a single load-add-store updates every sum for that row.
//
// Packing rules follow the paper: inputs of 1–2 bytes are expanded to
// 32-bit slots, anything larger to 64-bit slots; 32-bit slots are paired
// into aligned 64-bit lanes. 4-byte inputs that need a 64-bit sum (raw
// offsets of 17–31 bits, int32 expression results) are *widened on load*:
// the kernel sign-extends them into a full lane instead of taking an int64
// array. The whole packed row is accumulated with one 64-bit SIMD
// addition.
//
// Rows i + k of each 4-row chunk add into accumulator copy k of their
// group, so consecutive rows of one group do not wait on each other's
// store (the §5.1 multi-array fix, applied to the packed row). The copies
// are summed at every drain. Drain proof: drains come every 65536 chunk
// rows, each copy sees exactly a quarter of them, so a copy's 32-bit pair
// half holds at most 16384 values < 2^16, and the four copies' halves sum
// to less than 65536 * 2^16 = 2^32 — the 64-bit addition of the copies
// cannot carry from one half into the other.
//
// Column-major inputs become row-major via a 4x4 64-bit SIMD transpose
// (pairs of 32-bit columns are first interleaved into pseudo-64-bit
// columns with PUNPCKL/HDQ, the paper's Figure 6 layout).
#ifndef BIPIE_VECTOR_AGG_MULTI_H_
#define BIPIE_VECTOR_AGG_MULTI_H_

#include <immintrin.h>

#include <cstdint>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"

namespace bipie {

class MultiAggregator {
 public:
  // One aggregate input column.
  struct ColumnDesc {
    // Width of the *decoded* input array elements: 4 => uint32_t values
    // strictly below 2^16 (expanded from 1–2 byte inputs), two per 64-bit
    // lane; 8 => int64 values, one per lane.
    int input_bytes = 8;
    // With input_bytes 4: int32_t values of any magnitude, sign-extended
    // into a full 64-bit lane on load.
    bool widen = false;
  };

  static constexpr int kMaxGroups = 256;

  MultiAggregator() = default;

  // Plans the register layout. Fails with NotSupported if the expanded row
  // does not fit a 256-bit register (more than four 64-bit lanes).
  Status Configure(const std::vector<ColumnDesc>& columns, int num_groups);

  // Accumulates n rows. groups[i] < num_groups. col_data[c] must point to
  // the decoded array for column c with the configured element width, with
  // 32 bytes of read slack past the end.
  void Process(const uint8_t* groups, const void* const* col_data, size_t n);

  // Adds the accumulated per-group per-column sums into
  // sums[g * num_columns + c] and resets the accumulators.
  void Flush(int64_t* sums);

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int num_groups() const { return num_groups_; }
  // Bytes of one packed row after expansion (diagnostics / tests).
  int packed_row_bytes() const {
    return 8 * (num_full_ + num_widened_ + num_pairs_);
  }

 private:
  struct Pair {
    int col_a = -1;
    int col_b = -1;  // -1: dummy half (duplicates col_a, discarded at flush)
  };

  void DrainSimdAccumulators();

  std::vector<ColumnDesc> columns_;
  int num_groups_ = 0;
  std::vector<int> full_cols_;      // int64 columns owning full lanes
  std::vector<int> widened_cols_;   // int32 columns widened into full lanes
  std::vector<Pair> pairs_;         // paired 32-bit lanes
  int num_full_ = 0;
  int num_widened_ = 0;
  int num_pairs_ = 0;

  AlignedBuffer acc_;               // four __m256i copies per group
  std::vector<int64_t> partials_;   // [group][column] drained sums
  size_t rows_since_drain_ = 0;
};

}  // namespace bipie

#endif  // BIPIE_VECTOR_AGG_MULTI_H_
