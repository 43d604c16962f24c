// Runtime CPU feature detection used by the Vector Toolbox dispatcher.
//
// The paper's VectorToolbox ships kernels "compiled for different generations
// of CPUs that can be automatically switched at run-time"; this is the
// switching half. bipie implements three tiers: a portable scalar tier, an
// AVX2 tier (with BMI2), and an AVX-512 tier (F+DQ+BW+VL — mask compares,
// compress-store selection, 64-lane aggregation). The highest supported tier
// is selected per process at first use and is overridable for testing.
#ifndef BIPIE_COMMON_CPU_H_
#define BIPIE_COMMON_CPU_H_

namespace bipie {

enum class IsaTier {
  kScalar = 0,
  kAvx2 = 1,
  kAvx512 = 2,
};

// Highest tier supported by the hardware this process runs on.
IsaTier DetectIsaTier();

// Tier the Vector Toolbox will dispatch to. Defaults to DetectIsaTier().
IsaTier CurrentIsaTier();

// Overrides the dispatch tier (clamped to the detected tier). Used by tests
// to exercise the scalar fallbacks on SIMD hardware. Not thread-safe with
// concurrent kernel execution; intended for test setup only.
void SetIsaTierForTesting(IsaTier tier);

// True when kernels may use AVX-512 VBMI (VPERMB, VPMULTISHIFTQB): the
// dispatch tier is kAvx512 and the CPU has VBMI. VBMI is not part of the
// kAvx512 tier contract, so it is probed on its own; lowering the tier with
// SetIsaTierForTesting turns it off.
bool VbmiEnabled();

const char* IsaTierName(IsaTier tier);

}  // namespace bipie

#endif  // BIPIE_COMMON_CPU_H_
