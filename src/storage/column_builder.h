// Builds one encoded column of one segment from raw values.
//
// Mirrors MemSQL's background compression step: "encodings are chosen during
// compression of rows based on two factors: size of the resulting compressed
// data, and usefulness of the encoding for query execution" (§2.1). The
// builder estimates the encoded size of each candidate and applies a
// usefulness tie-break that prefers dictionary (it doubles as a perfect
// group hash) and bit packing over RLE at similar sizes.
#ifndef BIPIE_STORAGE_COLUMN_BUILDER_H_
#define BIPIE_STORAGE_COLUMN_BUILDER_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "cost/cost_model.h"
#include "storage/encoded_column.h"
#include "storage/types.h"

namespace bipie {

// One scored encoding candidate from ColumnBuilder::Advise(): predicted
// roofline scan cost (cost/cost_model.h) plus the size the builder's own
// estimators compute for the accumulated values.
struct EncodingCandidate {
  Encoding encoding = Encoding::kBitPacked;
  bool feasible = false;
  int bit_width = 0;         // packed offset / id / delta width
  size_t encoded_bytes = 0;  // estimated, same formulas Finish() uses
  double scan_cycles_per_row = -1.0;  // -1 when infeasible
};

// The advisor's verdict for one column of one segment. `chosen` minimizes
// predicted scan cycles/row among feasible candidates (ties break toward
// the smaller encoded size, then the lower Encoding enum value — fully
// deterministic under a fixed profile). `builder_pick` is what Finish()
// would choose under EncodingChoice::kAuto, for comparison.
struct EncodingAdvice {
  size_t num_rows = 0;
  int64_t min = 0;
  int64_t max = 0;
  size_t distinct = 0;  // capped at the dictionary feasibility bound + 1
  size_t run_count = 0;
  bool sorted = false;
  Encoding chosen = Encoding::kBitPacked;
  Encoding builder_pick = Encoding::kBitPacked;
  // All candidates in Encoding enum order (not ranked; rank by cost).
  std::vector<EncodingCandidate> candidates;
};

class ColumnBuilder {
 public:
  explicit ColumnBuilder(ColumnSpec spec);

  void AppendInt64(int64_t value);
  void AppendString(const std::string& value);

  void AppendInt64Bulk(const int64_t* values, size_t n);
  // Appends the strings `dictionary` holds at `ids[0..n)`, re-coding each
  // distinct id once into this segment's dictionary.
  void AppendIds(const uint32_t* ids, size_t n,
                 const StringDictionary& dictionary);

  size_t num_rows() const {
    return spec_.type == ColumnType::kString ? str_ids_.size()
                                             : int_values_.size();
  }

  // Encodes the accumulated values and resets the builder for the next
  // segment.
  EncodedColumn Finish();

  // Scores every encoding candidate for the accumulated values under
  // `model` without encoding or resetting anything. String columns return
  // the trivial dictionary-only advice (the only string encoding).
  EncodingAdvice Advise(const cost::CostModel& model) const;

  // Columns of the per-query mutable-region segment (storage/
  // hybrid_table.h): byte-aligned streams, which every kernel reads,
  // written in one pass. Buffers are charged to the thread-current
  // tracker; kResourceExhausted when a limit refuses one.
  //
  // An int column bit-packed over `min`; [min, max] is values' exact range.
  static Result<EncodedColumn> ByteAlignedInts(const int64_t* values,
                                               size_t n, int64_t min,
                                               int64_t max);
  // A string column: ids[0..n) into `dictionary`, which the column shares.
  static Result<EncodedColumn> ByteAlignedIds(
      const uint32_t* ids, size_t n,
      std::shared_ptr<StringDictionary> dictionary);

 private:
  EncodedColumn FinishInt();
  EncodedColumn FinishString();

  ColumnSpec spec_;
  std::vector<int64_t> int_values_;
  // A string column is built as its finished form: the segment's
  // first-occurrence dictionary plus one id per row.
  std::shared_ptr<StringDictionary> str_dict_;
  std::vector<uint64_t> str_ids_;
};

}  // namespace bipie

#endif  // BIPIE_STORAGE_COLUMN_BUILDER_H_
