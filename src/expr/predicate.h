// Filter evaluation (§3, "Filter" component).
//
// Evaluates `column <op> literal` (and conjunctions thereof, via
// AndSelection) over a window of an encoded column, producing a selection
// byte vector — 0xFF selected / 0x00 rejected, the layout SIMD comparisons
// emit natively.
//
// Predicates are evaluated *in the encoded domain* where possible:
//  * bit-packed columns compare unpacked offsets against the literal
//    rebased by the frame-of-reference (no full decode to int64);
//  * dictionary columns precompute a per-id verdict table once and map the
//    id stream through it;
//  * RLE columns evaluate once per run.
#ifndef BIPIE_EXPR_PREDICATE_H_
#define BIPIE_EXPR_PREDICATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/encoded_column.h"

namespace bipie {

// A maximal contiguous row range with one selection verdict — the run-level
// dual of the selection byte vector (DESIGN.md §11). Rows are absolute
// segment row numbers.
struct SelInterval {
  size_t start = 0;
  size_t len = 0;
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kBetween };

// Scalar verdict, used for dictionary tables and RLE runs. For kBetween,
// `literal` is the inclusive lower bound and `literal2` the inclusive upper.
bool CompareInt64(int64_t value, CompareOp op, int64_t literal,
                  int64_t literal2 = 0);

// A compiled predicate bound to one column. Reusable across batches and
// segments (per-segment state is rebuilt lazily).
class ColumnPredicate {
 public:
  ColumnPredicate(std::string column_name, CompareOp op, int64_t literal)
      : column_(std::move(column_name)), op_(op), literal_(literal) {}

  // col BETWEEN lo AND hi (inclusive): one decode pass instead of two
  // stacked comparisons.
  static ColumnPredicate Between(std::string column_name, int64_t lo,
                                 int64_t hi) {
    ColumnPredicate p(std::move(column_name), CompareOp::kBetween, lo);
    p.literal2_ = hi;
    return p;
  }

  // String literal form for dictionary-encoded string columns; the literal
  // is resolved against each segment's dictionary.
  ColumnPredicate(std::string column_name, CompareOp op,
                  std::string string_literal)
      : column_(std::move(column_name)),
        op_(op),
        literal_(0),
        string_literal_(std::move(string_literal)),
        is_string_(true) {}

  const std::string& column_name() const { return column_; }
  CompareOp op() const { return op_; }
  const std::string& string_literal() const { return string_literal_; }
  int64_t literal() const { return literal_; }
  int64_t literal2() const { return literal2_; }
  bool is_string() const { return is_string_; }

  // Evaluates rows [start, start + n) of `col`, writing n selection bytes.
  // sel_out needs 32 bytes of write slack (AlignedBuffer padding).
  //
  // For kByteSliced columns, `use_byteslice_kernel` selects between the
  // early-pruning plane kernels (vector/byteslice_scan.h) and the
  // assemble-then-compare fallback — the strategy layer's admission
  // decision (DESIGN.md §16). Both produce identical bytes; callers that
  // never see byteslice columns (or want the reference path, like the
  // differential oracle) keep the default.
  Status Evaluate(const EncodedColumn& col, size_t start, size_t n,
                  uint8_t* sel_out, bool use_byteslice_kernel = false) const;

  // True when the segment's metadata proves every row fails the predicate.
  bool EliminatesSegment(const EncodedColumn& col) const;

  // Metadata dual of EliminatesSegment: true when min/max prove every row
  // of `col` satisfies the predicate, so run-level execution can drop the
  // filter without touching a single encoded byte.
  bool MatchesAllRows(const EncodedColumn& col) const;

  // Run verdicts instead of bytes: for an RLE column, appends the selected
  // row intervals of rows [start, start + n) to `out` (clipped to the
  // window, ascending, non-overlapping, adjacent intervals merged). One
  // CompareInt64 per overlapping run, zero per-row work. Returns
  // kNotSupported for non-RLE encodings and string literals — callers fall
  // back to the byte-vector Evaluate path.
  Status EvaluateRuns(const EncodedColumn& col, size_t start, size_t n,
                      std::vector<SelInterval>* out) const;

 private:
  std::string column_;
  CompareOp op_;
  int64_t literal_;
  int64_t literal2_ = 0;  // kBetween upper bound
  std::string string_literal_;
  bool is_string_ = false;
};

namespace internal {
// Compares unpacked unsigned words against a literal; used by the
// bit-packed fast path and exposed for tests. word_bytes in {1,2,4,8}.
// literal_in_domain must already be clamped into the unsigned offset domain.
// kBetween is not accepted here; use CompareUnsignedWordsRange.
void CompareUnsignedWords(const void* values, size_t n, int word_bytes,
                          CompareOp op, uint64_t literal, uint8_t* sel_out);

// sel_out[i] = lo <= values[i] <= hi (inclusive, unsigned domain).
void CompareUnsignedWordsRange(const void* values, size_t n, int word_bytes,
                               uint64_t lo, uint64_t hi, uint8_t* sel_out);
}  // namespace internal

}  // namespace bipie

#endif  // BIPIE_EXPR_PREDICATE_H_
