// Grouped MIN / MAX aggregation.
//
// The paper's evaluation focuses on COUNT and SUM, but its framework
// ("compare against each group id, combine with a lane-wise operation")
// extends mechanically to MIN and MAX — the §2.2 remark about mechanical
// extensions made concrete. The in-register variant keeps one extremum
// register per group: compare-mask, blend the candidate lanes in, lane-wise
// min/max. Kernels accumulate into caller-initialized arrays (+inf / -inf
// sentinels), so batches chain like the other strategies.
#ifndef BIPIE_VECTOR_AGG_MINMAX_H_
#define BIPIE_VECTOR_AGG_MINMAX_H_

#include <cstddef>
#include <cstdint>

namespace bipie {

// extrema[g] = min(extrema[g], min over rows of group g). Values are
// unsigned words of `word_bytes` in {1, 2, 4, 8} (8: a column that a
// multi-aggregate SUM decodes to 8-byte offsets; scalar loop); group ids
// are bytes below num_groups (<= 256). int64 value arrays use the I64
// variants.
void GroupedMinU(const uint8_t* groups, const void* values, int word_bytes,
                 size_t n, int num_groups, uint64_t* extrema);
void GroupedMaxU(const uint8_t* groups, const void* values, int word_bytes,
                 size_t n, int num_groups, uint64_t* extrema);

void GroupedMinI64(const uint8_t* groups, const int64_t* values, size_t n,
                   int num_groups, int64_t* extrema);
void GroupedMaxI64(const uint8_t* groups, const int64_t* values, size_t n,
                   int num_groups, int64_t* extrema);

namespace internal {
void GroupedMinUScalar(const uint8_t* groups, const void* values,
                       int word_bytes, size_t n, uint64_t* extrema);
void GroupedMaxUScalar(const uint8_t* groups, const void* values,
                       int word_bytes, size_t n, uint64_t* extrema);
}  // namespace internal

}  // namespace bipie

#endif  // BIPIE_VECTOR_AGG_MINMAX_H_
