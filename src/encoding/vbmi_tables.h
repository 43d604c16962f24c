// VPERMB index and shift-control tables for the AVX-512 VBMI kernels: the
// bit-unpack kernels (bitpack_avx512.cc) and the run-span SUM
// (vector/run_agg_avx512.cc). They are built at compile time for every width
// a kernel accepts, so a kernel call only loads two vectors.
//
// Bit 0 of the kernel's 64-byte load is bit 0 of value 0. `index` is the
// VPERMB control: bytes a value does not need wrap around (VPERMB reads only
// the low 6 bits of each index) and the kernel masks their bits off.
#ifndef BIPIE_ENCODING_VBMI_TABLES_H_
#define BIPIE_ENCODING_VBMI_TABLES_H_

#include <array>
#include <cstdint>

#include "common/macros.h"

namespace bipie::internal {

struct VbmiTables {
  alignas(64) uint8_t index[64];
  alignas(64) uint8_t shift[64];
};

// lane_bytes in {4, 8}: lane l gets the lane_bytes bytes starting at the
// byte that holds value first_value + l, and `shift` holds that value's bit
// offset in the byte as the lane's VPSRLVD/VPSRLVQ count.
constexpr VbmiTables MakeWindowTables(int bit_width, int lane_bytes,
                                      int first_value) {
  BIPIE_DCHECK(bit_width + 7 <= 8 * lane_bytes);
  BIPIE_DCHECK((first_value + 64 / lane_bytes) * bit_width <= 512);
  VbmiTables t{};
  for (int l = 0; l < 64 / lane_bytes; ++l) {
    const int bit = (first_value + l) * bit_width;
    for (int j = 0; j < lane_bytes; ++j) {
      t.index[l * lane_bytes + j] = static_cast<uint8_t>(((bit >> 3) + j) & 63);
    }
    t.shift[l * lane_bytes] = static_cast<uint8_t>(bit & 7);
  }
  return t;
}

// word_bytes in {1, 2}: qword q gets the 8 bytes starting at the byte that
// holds value q * 8 / word_bytes, and `shift` is the VPMULTISHIFTQB control
// that leaves the qword's 8 / word_bytes values in consecutive words, in
// order, with bits above the value still to mask.
constexpr VbmiTables MakeMultishiftTables(int bit_width, int word_bytes) {
  const int per_qword = 8 / word_bytes;
  VbmiTables t{};
  for (int q = 0; q < 8; ++q) {
    const int bit = q * per_qword * bit_width;
    // The qword's values fit its 64 bits: bit & 7 is 0, or 4 when an odd
    // width <= 15 starts mid-byte.
    BIPIE_DCHECK((bit & 7) + per_qword * bit_width <= 64);
    for (int j = 0; j < 8; ++j) {
      t.index[q * 8 + j] = static_cast<uint8_t>(((bit >> 3) + j) & 63);
      // Output byte j is byte j % word_bytes of value j / word_bytes.
      t.shift[q * 8 + j] = static_cast<uint8_t>(
          (bit & 7) + (j / word_bytes) * bit_width + 8 * (j % word_bytes));
    }
  }
  return t;
}

// make(w) for every width 1..kMaxWidth, indexed by width (entry 0 unused).
template <int kMaxWidth, typename Make>
constexpr std::array<VbmiTables, kMaxWidth + 1> TablesByWidth(Make make) {
  std::array<VbmiTables, kMaxWidth + 1> all{};
  for (int w = 1; w <= kMaxWidth; ++w) all[w] = make(w);
  return all;
}

// Dword lanes 0..15 hold values 0..15.
inline constexpr auto kDwordWindows =
    TablesByWidth<25>([](int w) { return MakeWindowTables(w, 4, 0); });
// Qword lanes 0..7 hold values 0..7.
inline constexpr auto kQwordWindows =
    TablesByWidth<57>([](int w) { return MakeWindowTables(w, 8, 0); });
// Qword lanes 0..7 hold values 8..15 of the same load.
inline constexpr auto kQwordWindowsHigh =
    TablesByWidth<32>([](int w) { return MakeWindowTables(w, 8, 8); });
// 64 values as bytes, 32 values as 16-bit words.
inline constexpr auto kMultishiftBytes =
    TablesByWidth<8>([](int w) { return MakeMultishiftTables(w, 1); });
inline constexpr auto kMultishiftWords =
    TablesByWidth<16>([](int w) { return MakeMultishiftTables(w, 2); });

}  // namespace bipie::internal

#endif  // BIPIE_ENCODING_VBMI_TABLES_H_
