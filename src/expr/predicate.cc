#include "expr/predicate.h"

#include <immintrin.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/bits.h"
#include "common/failpoint.h"
#include "common/memory_tracker.h"
#include "common/cpu.h"
#include "encoding/bitpack.h"
#include "encoding/byteslice.h"
#include "vector/byteslice_scan.h"
#include "vector/selection_vector.h"

namespace bipie {

bool CompareInt64(int64_t value, CompareOp op, int64_t literal,
                  int64_t literal2) {
  switch (op) {
    case CompareOp::kBetween:
      return value >= literal && value <= literal2;
    case CompareOp::kEq:
      return value == literal;
    case CompareOp::kNe:
      return value != literal;
    case CompareOp::kLt:
      return value < literal;
    case CompareOp::kLe:
      return value <= literal;
    case CompareOp::kGt:
      return value > literal;
    case CompareOp::kGe:
      return value >= literal;
  }
  return false;
}

namespace internal {

namespace {

template <typename T>
void CompareScalar(const T* values, size_t n, CompareOp op, uint64_t literal,
                   uint8_t* sel) {
  const uint64_t lit = literal;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = values[i];
    bool hit = false;
    switch (op) {
      case CompareOp::kEq: hit = v == lit; break;
      case CompareOp::kNe: hit = v != lit; break;
      case CompareOp::kLt: hit = v < lit; break;
      case CompareOp::kLe: hit = v <= lit; break;
      case CompareOp::kGt: hit = v > lit; break;
      case CompareOp::kGe: hit = v >= lit; break;
      case CompareOp::kBetween: break;  // unreachable (range kernel)
    }
    sel[i] = hit ? kRowSelected : kRowRejected;
  }
}

// Unsigned comparison masks via the sign-bias trick (AVX2 only has signed
// compares). Returns lanes of all-ones where values[lane] `op` literal.
BIPIE_ALWAYS_INLINE __m256i MaskU8(__m256i x, __m256i lit_biased,
                                   __m256i lit_raw, CompareOp op) {
  const __m256i bias = _mm256_set1_epi8(static_cast<char>(0x80));
  const __m256i xb = _mm256_xor_si256(x, bias);
  switch (op) {
    case CompareOp::kEq:
      return _mm256_cmpeq_epi8(x, lit_raw);
    case CompareOp::kNe:
      return _mm256_xor_si256(_mm256_cmpeq_epi8(x, lit_raw),
                              _mm256_set1_epi8(-1));
    case CompareOp::kGt:
      return _mm256_cmpgt_epi8(xb, lit_biased);
    case CompareOp::kLe:
      return _mm256_xor_si256(_mm256_cmpgt_epi8(xb, lit_biased),
                              _mm256_set1_epi8(-1));
    case CompareOp::kLt:
      return _mm256_cmpgt_epi8(lit_biased, xb);
    case CompareOp::kGe:
      return _mm256_xor_si256(_mm256_cmpgt_epi8(lit_biased, xb),
                              _mm256_set1_epi8(-1));
    case CompareOp::kBetween:
      break;  // unreachable (range kernel)
  }
  return _mm256_setzero_si256();
}

BIPIE_ALWAYS_INLINE __m256i MaskU16(__m256i x, __m256i lit_biased,
                                    __m256i lit_raw, CompareOp op) {
  const __m256i bias = _mm256_set1_epi16(static_cast<short>(0x8000));
  const __m256i xb = _mm256_xor_si256(x, bias);
  switch (op) {
    case CompareOp::kEq:
      return _mm256_cmpeq_epi16(x, lit_raw);
    case CompareOp::kNe:
      return _mm256_xor_si256(_mm256_cmpeq_epi16(x, lit_raw),
                              _mm256_set1_epi8(-1));
    case CompareOp::kGt:
      return _mm256_cmpgt_epi16(xb, lit_biased);
    case CompareOp::kLe:
      return _mm256_xor_si256(_mm256_cmpgt_epi16(xb, lit_biased),
                              _mm256_set1_epi8(-1));
    case CompareOp::kLt:
      return _mm256_cmpgt_epi16(lit_biased, xb);
    case CompareOp::kGe:
      return _mm256_xor_si256(_mm256_cmpgt_epi16(lit_biased, xb),
                              _mm256_set1_epi8(-1));
    case CompareOp::kBetween:
      break;  // unreachable (range kernel)
  }
  return _mm256_setzero_si256();
}

BIPIE_ALWAYS_INLINE __m256i MaskU32(__m256i x, __m256i lit_biased,
                                    __m256i lit_raw, CompareOp op) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i xb = _mm256_xor_si256(x, bias);
  switch (op) {
    case CompareOp::kEq:
      return _mm256_cmpeq_epi32(x, lit_raw);
    case CompareOp::kNe:
      return _mm256_xor_si256(_mm256_cmpeq_epi32(x, lit_raw),
                              _mm256_set1_epi8(-1));
    case CompareOp::kGt:
      return _mm256_cmpgt_epi32(xb, lit_biased);
    case CompareOp::kLe:
      return _mm256_xor_si256(_mm256_cmpgt_epi32(xb, lit_biased),
                              _mm256_set1_epi8(-1));
    case CompareOp::kLt:
      return _mm256_cmpgt_epi32(lit_biased, xb);
    case CompareOp::kGe:
      return _mm256_xor_si256(_mm256_cmpgt_epi32(lit_biased, xb),
                              _mm256_set1_epi8(-1));
    case CompareOp::kBetween:
      break;  // unreachable (range kernel)
  }
  return _mm256_setzero_si256();
}

void CompareU8Avx2(const uint8_t* values, size_t n, CompareOp op,
                   uint64_t literal, uint8_t* sel) {
  const __m256i lit_raw = _mm256_set1_epi8(static_cast<char>(literal));
  const __m256i lit_biased =
      _mm256_xor_si256(lit_raw, _mm256_set1_epi8(static_cast<char>(0x80)));
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel + i),
                        MaskU8(x, lit_biased, lit_raw, op));
  }
  CompareScalar(values + i, n - i, op, literal, sel + i);
}

void CompareU16Avx2(const uint16_t* values, size_t n, CompareOp op,
                    uint64_t literal, uint8_t* sel) {
  const __m256i lit_raw = _mm256_set1_epi16(static_cast<short>(literal));
  const __m256i lit_biased = _mm256_xor_si256(
      lit_raw, _mm256_set1_epi16(static_cast<short>(0x8000)));
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i m0 =
        MaskU16(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(values + i)),
                lit_biased, lit_raw, op);
    const __m256i m1 =
        MaskU16(_mm256_loadu_si256(
                    reinterpret_cast<const __m256i*>(values + i + 16)),
                lit_biased, lit_raw, op);
    // packs keeps 0x0000/0xFFFF masks intact as 0x00/0xFF bytes.
    __m256i bytes = _mm256_packs_epi16(m0, m1);
    bytes = _mm256_permute4x64_epi64(bytes, 0xD8);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel + i), bytes);
  }
  CompareScalar(values + i, n - i, op, literal, sel + i);
}

void CompareU32Avx2(const uint32_t* values, size_t n, CompareOp op,
                    uint64_t literal, uint8_t* sel) {
  const __m256i lit_raw = _mm256_set1_epi32(static_cast<int>(literal));
  const __m256i lit_biased = _mm256_xor_si256(
      lit_raw, _mm256_set1_epi32(static_cast<int>(0x80000000u)));
  const __m256i fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    __m256i m[4];
    for (int k = 0; k < 4; ++k) {
      m[k] = MaskU32(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                         values + i + 8 * k)),
                     lit_biased, lit_raw, op);
    }
    const __m256i p01 = _mm256_packs_epi32(m[0], m[1]);
    const __m256i p23 = _mm256_packs_epi32(m[2], m[3]);
    __m256i bytes = _mm256_packs_epi16(p01, p23);
    bytes = _mm256_permutevar8x32_epi32(bytes, fix);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel + i), bytes);
  }
  CompareScalar(values + i, n - i, op, literal, sel + i);
}

}  // namespace

void CompareUnsignedWordsRange(const void* values, size_t n, int word_bytes,
                               uint64_t lo, uint64_t hi, uint8_t* sel_out) {
  // lo <= x <= hi  <=>  (x - lo) <= (hi - lo) in modular unsigned
  // arithmetic, but the SIMD tier below works directly on the raw values
  // with two fused masks per vector for clarity; the scalar path uses the
  // direct comparison.
  const bool avx2 = CurrentIsaTier() >= IsaTier::kAvx2;
  switch (word_bytes) {
    case 1: {
      const auto* v = static_cast<const uint8_t*>(values);
      if (avx2 && hi <= 0xFF) {
        // min/max clamp: x in range <=> max(min(x, hi), lo) == x is two
        // ops; equivalently clamp and compare.
        const __m256i vlo = _mm256_set1_epi8(static_cast<char>(lo));
        const __m256i vhi = _mm256_set1_epi8(static_cast<char>(hi));
        size_t i = 0;
        for (; i + 32 <= n; i += 32) {
          const __m256i x = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(v + i));
          const __m256i clamped =
              _mm256_max_epu8(_mm256_min_epu8(x, vhi), vlo);
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel_out + i),
                              _mm256_cmpeq_epi8(clamped, x));
        }
        for (; i < n; ++i) {
          sel_out[i] =
              v[i] >= lo && v[i] <= hi ? kRowSelected : kRowRejected;
        }
        return;
      }
      for (size_t i = 0; i < n; ++i) {
        sel_out[i] = v[i] >= lo && v[i] <= hi ? kRowSelected : kRowRejected;
      }
      return;
    }
    case 2: {
      const auto* v = static_cast<const uint16_t*>(values);
      if (avx2 && hi <= 0xFFFF) {
        const __m256i vlo = _mm256_set1_epi16(static_cast<short>(lo));
        const __m256i vhi = _mm256_set1_epi16(static_cast<short>(hi));
        size_t i = 0;
        for (; i + 32 <= n; i += 32) {
          __m256i m[2];
          for (int k = 0; k < 2; ++k) {
            const __m256i x = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(v + i + 16 * k));
            const __m256i clamped =
                _mm256_max_epu16(_mm256_min_epu16(x, vhi), vlo);
            m[k] = _mm256_cmpeq_epi16(clamped, x);
          }
          __m256i bytes = _mm256_packs_epi16(m[0], m[1]);
          bytes = _mm256_permute4x64_epi64(bytes, 0xD8);
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel_out + i),
                              bytes);
        }
        for (; i < n; ++i) {
          sel_out[i] =
              v[i] >= lo && v[i] <= hi ? kRowSelected : kRowRejected;
        }
        return;
      }
      for (size_t i = 0; i < n; ++i) {
        sel_out[i] = v[i] >= lo && v[i] <= hi ? kRowSelected : kRowRejected;
      }
      return;
    }
    case 4: {
      const auto* v = static_cast<const uint32_t*>(values);
      if (avx2 && hi <= 0xFFFFFFFFULL) {
        const __m256i vlo = _mm256_set1_epi32(static_cast<int>(lo));
        const __m256i vhi = _mm256_set1_epi32(static_cast<int>(hi));
        const __m256i fix = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        size_t i = 0;
        for (; i + 32 <= n; i += 32) {
          __m256i m[4];
          for (int k = 0; k < 4; ++k) {
            const __m256i x = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(v + i + 8 * k));
            const __m256i clamped =
                _mm256_max_epu32(_mm256_min_epu32(x, vhi), vlo);
            m[k] = _mm256_cmpeq_epi32(clamped, x);
          }
          const __m256i p01 = _mm256_packs_epi32(m[0], m[1]);
          const __m256i p23 = _mm256_packs_epi32(m[2], m[3]);
          __m256i bytes = _mm256_packs_epi16(p01, p23);
          bytes = _mm256_permutevar8x32_epi32(bytes, fix);
          _mm256_storeu_si256(reinterpret_cast<__m256i*>(sel_out + i),
                              bytes);
        }
        for (; i < n; ++i) {
          sel_out[i] =
              v[i] >= lo && v[i] <= hi ? kRowSelected : kRowRejected;
        }
        return;
      }
      for (size_t i = 0; i < n; ++i) {
        sel_out[i] = v[i] >= lo && v[i] <= hi ? kRowSelected : kRowRejected;
      }
      return;
    }
    case 8: {
      const auto* v = static_cast<const uint64_t*>(values);
      for (size_t i = 0; i < n; ++i) {
        sel_out[i] = v[i] >= lo && v[i] <= hi ? kRowSelected : kRowRejected;
      }
      return;
    }
    default:
      BIPIE_DCHECK(false);
  }
}

void CompareUnsignedWords(const void* values, size_t n, int word_bytes,
                          CompareOp op, uint64_t literal, uint8_t* sel_out) {
  BIPIE_DCHECK(op != CompareOp::kBetween);
  const bool avx2 = CurrentIsaTier() >= IsaTier::kAvx2;
  switch (word_bytes) {
    case 1:
      if (avx2 && literal <= 0xFF) {
        CompareU8Avx2(static_cast<const uint8_t*>(values), n, op, literal,
                      sel_out);
      } else {
        CompareScalar(static_cast<const uint8_t*>(values), n, op, literal,
                      sel_out);
      }
      return;
    case 2:
      if (avx2 && literal <= 0xFFFF) {
        CompareU16Avx2(static_cast<const uint16_t*>(values), n, op, literal,
                       sel_out);
      } else {
        CompareScalar(static_cast<const uint16_t*>(values), n, op, literal,
                      sel_out);
      }
      return;
    case 4:
      if (avx2 && literal <= 0xFFFFFFFFULL) {
        CompareU32Avx2(static_cast<const uint32_t*>(values), n, op, literal,
                       sel_out);
      } else {
        CompareScalar(static_cast<const uint32_t*>(values), n, op, literal,
                      sel_out);
      }
      return;
    case 8:
      CompareScalar(static_cast<const uint64_t*>(values), n, op, literal,
                    sel_out);
      return;
    default:
      BIPIE_DCHECK(false);
  }
}

}  // namespace internal

namespace {

// Outcome of rebasing a literal into a column's unsigned offset domain.
enum class RebasedVerdict { kAllRows, kNoRows, kCompare };

RebasedVerdict RebaseLiteral(CompareOp op, int64_t literal, int64_t base,
                             int64_t max, uint64_t* rebased) {
  // Offsets span [0, max - base].
  if (literal < base) {
    switch (op) {
      case CompareOp::kLt:
      case CompareOp::kLe:
      case CompareOp::kEq:
        return RebasedVerdict::kNoRows;
      default:
        return RebasedVerdict::kAllRows;
    }
  }
  if (literal > max) {
    switch (op) {
      case CompareOp::kLt:
      case CompareOp::kLe:
        return RebasedVerdict::kAllRows;
      case CompareOp::kNe:
        return RebasedVerdict::kAllRows;
      default:
        return RebasedVerdict::kNoRows;
    }
  }
  *rebased = static_cast<uint64_t>(literal) - static_cast<uint64_t>(base);
  return RebasedVerdict::kCompare;
}

// Per-thread unpack scratch, registered with the tracker re-home list: it
// outlives any one query, so a query tracker scope exiting must be able to
// move its retained charge back to the process root.
AlignedBuffer& UnpackScratch() {
  thread_local AlignedBuffer scratch;
  thread_local const bool registered = [] {
    RegisterThreadScratchBuffer(&scratch);
    return true;
  }();
  (void)registered;
  return scratch;
}

}  // namespace

Status ColumnPredicate::Evaluate(const EncodedColumn& col, size_t start,
                                 size_t n, uint8_t* sel_out,
                                 bool use_byteslice_kernel) const {
  switch (col.encoding()) {
    case Encoding::kByteSliced: {
      const int w = col.bit_width();
      const int np = ByteSlicePlanes(w);
      if (op_ == CompareOp::kBetween) {
        // Intersect [literal_, literal2_] with the column domain, exactly
        // like the bit-packed path.
        if (literal2_ < col.meta().min || literal_ > col.meta().max ||
            literal_ > literal2_) {
          std::memset(sel_out, kRowRejected, n);
          return Status::OK();
        }
        if (literal_ <= col.meta().min && literal2_ >= col.meta().max) {
          std::memset(sel_out, kRowSelected, n);
          return Status::OK();
        }
        const int64_t lo_clamped = std::max(literal_, col.meta().min);
        const int64_t hi_clamped = std::min(literal2_, col.meta().max);
        const uint64_t lo_off = static_cast<uint64_t>(lo_clamped) -
                                static_cast<uint64_t>(col.base());
        const uint64_t hi_off = static_cast<uint64_t>(hi_clamped) -
                                static_cast<uint64_t>(col.base());
        if (use_byteslice_kernel) {
          // Plane kernels work on the stored planes directly: no scratch,
          // no decode.
          ByteSliceCompare(col.packed_data(), col.num_rows(), np, start, n,
                           CompareOp::kBetween, ByteSliceShift(lo_off, w),
                           ByteSliceShift(hi_off, w), sel_out);
          return Status::OK();
        }
        const int word = SmallestWordBytes(w);
        if (BIPIE_FAILPOINT("scan/byteslice_scratch_alloc") ||
            !UnpackScratch().TryResize(n * static_cast<size_t>(word))) {
          return Status::ResourceExhausted(
              "byteslice decode scratch allocation failed");
        }
        col.UnpackIds(start, n, UnpackScratch().data(), word);
        internal::CompareUnsignedWordsRange(UnpackScratch().data(), n, word,
                                            lo_off, hi_off, sel_out);
        return Status::OK();
      }
      uint64_t rebased = 0;
      switch (RebaseLiteral(op_, literal_, col.base(), col.meta().max,
                            &rebased)) {
        case RebasedVerdict::kAllRows:
          std::memset(sel_out, kRowSelected, n);
          return Status::OK();
        case RebasedVerdict::kNoRows:
          std::memset(sel_out, kRowRejected, n);
          return Status::OK();
        case RebasedVerdict::kCompare:
          break;
      }
      if (use_byteslice_kernel) {
        ByteSliceCompare(col.packed_data(), col.num_rows(), np, start, n,
                         op_, ByteSliceShift(rebased, w), 0, sel_out);
        return Status::OK();
      }
      const int word = SmallestWordBytes(w);
      if (BIPIE_FAILPOINT("scan/byteslice_scratch_alloc") ||
          !UnpackScratch().TryResize(n * static_cast<size_t>(word))) {
        return Status::ResourceExhausted(
            "byteslice decode scratch allocation failed");
      }
      col.UnpackIds(start, n, UnpackScratch().data(), word);
      internal::CompareUnsignedWords(UnpackScratch().data(), n, word, op_,
                                     rebased, sel_out);
      return Status::OK();
    }
    case Encoding::kBitPacked: {
      if (op_ == CompareOp::kBetween) {
        // Intersect [literal_, literal2_] with the column domain.
        if (literal2_ < col.meta().min || literal_ > col.meta().max ||
            literal_ > literal2_) {
          std::memset(sel_out, kRowRejected, n);
          return Status::OK();
        }
        if (literal_ <= col.meta().min && literal2_ >= col.meta().max) {
          std::memset(sel_out, kRowSelected, n);
          return Status::OK();
        }
        const int64_t lo_clamped = std::max(literal_, col.meta().min);
        const int64_t hi_clamped = std::min(literal2_, col.meta().max);
        const uint64_t lo_off = static_cast<uint64_t>(lo_clamped) -
                                static_cast<uint64_t>(col.base());
        const uint64_t hi_off = static_cast<uint64_t>(hi_clamped) -
                                static_cast<uint64_t>(col.base());
        const int word = SmallestWordBytes(col.bit_width());
        UnpackScratch().Resize(n * word);
        col.UnpackIds(start, n, UnpackScratch().data(), word);
        internal::CompareUnsignedWordsRange(UnpackScratch().data(), n, word,
                                            lo_off, hi_off, sel_out);
        return Status::OK();
      }
      uint64_t rebased = 0;
      switch (RebaseLiteral(op_, literal_, col.base(), col.meta().max,
                            &rebased)) {
        case RebasedVerdict::kAllRows:
          std::memset(sel_out, kRowSelected, n);
          return Status::OK();
        case RebasedVerdict::kNoRows:
          std::memset(sel_out, kRowRejected, n);
          return Status::OK();
        case RebasedVerdict::kCompare:
          break;
      }
      const int word = SmallestWordBytes(col.bit_width());
      UnpackScratch().Resize(n * word);
      col.UnpackIds(start, n, UnpackScratch().data(), word);
      internal::CompareUnsignedWords(UnpackScratch().data(), n, word, op_,
                                     rebased, sel_out);
      return Status::OK();
    }
    case Encoding::kDictionary: {
      // Verdict table over dictionary ids, rebuilt per evaluation window
      // (cheap relative to batch work: <= dictionary size byte writes).
      const size_t dict_size = col.id_bound();
      std::vector<uint8_t> verdict(dict_size);
      if (col.type() == ColumnType::kString) {
        const StringDictionary& dict = *col.string_dictionary();
        for (size_t id = 0; id < dict_size; ++id) {
          bool hit;
          const std::string& v = dict.value(static_cast<uint32_t>(id));
          const int cmp = v.compare(string_literal_);
          switch (op_) {
            case CompareOp::kEq: hit = cmp == 0; break;
            case CompareOp::kNe: hit = cmp != 0; break;
            case CompareOp::kLt: hit = cmp < 0; break;
            case CompareOp::kLe: hit = cmp <= 0; break;
            case CompareOp::kGt: hit = cmp > 0; break;
            case CompareOp::kGe: hit = cmp >= 0; break;
            case CompareOp::kBetween:
              return Status::NotSupported(
                  "BETWEEN on string columns is not supported");
          }
          verdict[id] = hit ? kRowSelected : kRowRejected;
        }
      } else {
        const IntDictionary& dict = *col.int_dictionary();
        for (size_t id = 0; id < dict_size; ++id) {
          verdict[id] = CompareInt64(dict.value(static_cast<uint32_t>(id)),
                                     op_, literal_, literal2_)
                            ? kRowSelected
                            : kRowRejected;
        }
      }
      const int word = SmallestWordBytes(col.bit_width());
      UnpackScratch().Resize(n * word);
      col.UnpackIds(start, n, UnpackScratch().data(), word);
      if (word == 1) {
        const uint8_t* ids = UnpackScratch().data();
        for (size_t i = 0; i < n; ++i) sel_out[i] = verdict[ids[i]];
      } else if (word == 2) {
        const uint16_t* ids = UnpackScratch().data_as<uint16_t>();
        for (size_t i = 0; i < n; ++i) sel_out[i] = verdict[ids[i]];
      } else {
        // Only string dictionaries exceed 2^16 entries (int ones are capped).
        BIPIE_DCHECK(word == 4);
        const uint32_t* ids = UnpackScratch().data_as<uint32_t>();
        for (size_t i = 0; i < n; ++i) sel_out[i] = verdict[ids[i]];
      }
      return Status::OK();
    }
    case Encoding::kDelta: {
      // Sequential representation: decode the window to int64, compare
      // directly in the logical domain.
      static thread_local std::vector<int64_t> decoded;
      decoded.resize(n);
      col.DecodeInt64(start, n, decoded.data());
      for (size_t i = 0; i < n; ++i) {
        sel_out[i] = CompareInt64(decoded[i], op_, literal_, literal2_)
                         ? kRowSelected
                         : kRowRejected;
      }
      return Status::OK();
    }
    case Encoding::kRle: {
      // One verdict per run; memset the covered stretch.
      size_t pos = 0;
      size_t covered = 0;
      for (const RleRun& run : col.runs()) {
        const size_t run_begin = pos;
        const size_t run_end = pos + run.count;
        pos = run_end;
        if (run_end <= start) continue;
        if (run_begin >= start + n) break;
        const size_t lo = run_begin < start ? start : run_begin;
        const size_t hi = run_end > start + n ? start + n : run_end;
        const bool hit = CompareInt64(static_cast<int64_t>(run.value), op_,
                                      literal_, literal2_);
        std::memset(sel_out + (lo - start),
                    hit ? kRowSelected : kRowRejected, hi - lo);
        covered += hi - lo;
      }
      BIPIE_DCHECK(covered == n);
      return Status::OK();
    }
  }
  return Status::Internal("unknown encoding");
}

bool ColumnPredicate::MatchesAllRows(const EncodedColumn& col) const {
  if (is_string_) return false;  // id-space metadata is not value-ordered
  const int64_t min = col.meta().min;
  const int64_t max = col.meta().max;
  switch (op_) {
    case CompareOp::kBetween:
      return min >= literal_ && max <= literal2_;
    case CompareOp::kEq:
      return min == max && min == literal_;
    case CompareOp::kLt:
      return max < literal_;
    case CompareOp::kLe:
      return max <= literal_;
    case CompareOp::kGt:
      return min > literal_;
    case CompareOp::kGe:
      return min >= literal_;
    case CompareOp::kNe:
      return literal_ < min || literal_ > max;
  }
  return false;
}

Status ColumnPredicate::EvaluateRuns(const EncodedColumn& col, size_t start,
                                     size_t n,
                                     std::vector<SelInterval>* out) const {
  if (col.encoding() != Encoding::kRle) {
    return Status::NotSupported("run verdicts require an RLE column");
  }
  if (is_string_) {
    return Status::NotSupported("run verdicts require an integer literal");
  }
  size_t pos = 0;
  for (const RleRun& run : col.runs()) {
    const size_t run_begin = pos;
    const size_t run_end = pos + run.count;
    pos = run_end;
    if (run_end <= start) continue;
    if (run_begin >= start + n) break;
    if (!CompareInt64(static_cast<int64_t>(run.value), op_, literal_,
                      literal2_)) {
      continue;
    }
    const size_t lo = run_begin < start ? start : run_begin;
    const size_t hi = run_end > start + n ? start + n : run_end;
    if (!out->empty() && out->back().start + out->back().len == lo) {
      out->back().len += hi - lo;  // adjacent selected runs merge
    } else {
      out->push_back({lo, hi - lo});
    }
  }
  return Status::OK();
}

bool ColumnPredicate::EliminatesSegment(const EncodedColumn& col) const {
  if (is_string_) return false;  // id-space metadata is not value-ordered
  const int64_t min = col.meta().min;
  const int64_t max = col.meta().max;
  switch (op_) {
    case CompareOp::kBetween:
      return literal2_ < min || literal_ > max || literal_ > literal2_;
    case CompareOp::kEq:
      return literal_ < min || literal_ > max;
    case CompareOp::kLt:
      return min >= literal_;
    case CompareOp::kLe:
      return min > literal_;
    case CompareOp::kGt:
      return max <= literal_;
    case CompareOp::kGe:
      return max < literal_;
    case CompareOp::kNe:
      return min == max && min == literal_;
  }
  return false;
}

}  // namespace bipie
