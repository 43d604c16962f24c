#include "common/cpu.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <cpuid.h>
#endif

namespace bipie {

namespace {

IsaTier Detect() {
#if defined(__x86_64__) || defined(_M_X64)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    const bool avx2 = (ebx & (1u << 5)) != 0;
    const bool bmi2 = (ebx & (1u << 8)) != 0;
    const bool avx512f = (ebx & (1u << 16)) != 0;
    const bool avx512dq = (ebx & (1u << 17)) != 0;
    const bool avx512bw = (ebx & (1u << 30)) != 0;
    const bool avx512vl = (ebx & (1u << 31)) != 0;
    if (avx2 && bmi2 && avx512f && avx512dq && avx512bw && avx512vl) {
      return IsaTier::kAvx512;
    }
    if (avx2 && bmi2) return IsaTier::kAvx2;
  }
#endif
  return IsaTier::kScalar;
}

bool DetectVbmi() {
#if defined(__x86_64__) || defined(_M_X64)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    return (ecx & (1u << 1)) != 0;  // AVX512_VBMI
  }
#endif
  return false;
}

IsaTier g_override = IsaTier::kAvx512;  // clamped to detected tier on read

}  // namespace

IsaTier DetectIsaTier() {
  static const IsaTier tier = Detect();
  return tier;
}

IsaTier CurrentIsaTier() {
  const IsaTier detected = DetectIsaTier();
  return g_override < detected ? g_override : detected;
}

void SetIsaTierForTesting(IsaTier tier) { g_override = tier; }

bool VbmiEnabled() {
  static const bool vbmi = DetectVbmi();
  return vbmi && CurrentIsaTier() >= IsaTier::kAvx512;
}

const char* IsaTierName(IsaTier tier) {
  switch (tier) {
    case IsaTier::kScalar:
      return "scalar";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

}  // namespace bipie
