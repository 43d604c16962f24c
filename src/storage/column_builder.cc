#include "storage/column_builder.h"

#include <algorithm>
#include <cstring>
#include <unordered_set>
#include <utility>

#include "common/bits.h"
#include "encoding/bitpack.h"
#include "encoding/byteslice.h"

namespace bipie {

namespace {

// Above this distinct-value count a dictionary stops paying for itself for
// int columns (ids approach the raw offset width and the dictionary itself
// costs memory).
constexpr size_t kMaxIntDictionarySize = 1u << 16;

// Candidate statistics. kAuto and Advise() read every field; a forced
// encoding reads only what it encodes with (see StatsNeeded), and the
// fields it does not need keep their defaults.
struct IntStats {
  size_t n = 0;
  int64_t min = 0;
  int64_t max = 0;
  bool sorted = true;
  int for_bits = 1;
  size_t for_bytes = 0;
  size_t run_count = 1;
  size_t rle_bytes = 0;
  int64_t dmin = 0;
  int64_t dmax = 0;
  // False when a successive difference overflows int64: delta cannot store
  // the column.
  bool delta_feasible = true;
  int delta_bits = 1;
  size_t delta_bytes = 0;
  bool dict_feasible = false;
  size_t distinct = 0;
  int dict_bits = 64;
  size_t dict_bytes = static_cast<size_t>(-1);
};

// How much of IntStats to compute. Bit-packed, byte-sliced, RLE and
// dictionary columns need only min/max (the metadata every segment keeps);
// delta adds the range of successive differences; kAuto scores every
// candidate, including the distinct count.
enum class StatsNeeded { kRange, kDeltaRange, kAll };

IntStats ComputeIntStats(const std::vector<int64_t>& values,
                         StatsNeeded needed = StatsNeeded::kAll) {
  IntStats st;
  st.n = values.size();
  if (st.n == 0) return st;
  const auto [min_it, max_it] =
      std::minmax_element(values.begin(), values.end());
  st.min = *min_it;
  st.max = *max_it;
  const uint64_t spread =
      static_cast<uint64_t>(st.max) - static_cast<uint64_t>(st.min);
  st.for_bits = BitsRequired(spread);
  st.for_bytes = BitPackedBytes(st.n, st.for_bits);
  if (needed == StatsNeeded::kRange) return st;

  if (st.n > 1) {
    st.delta_feasible =
        !__builtin_sub_overflow(values[1], values[0], &st.dmin);
    st.dmax = st.dmin;
    for (size_t i = 2; i < st.n && st.delta_feasible; ++i) {
      int64_t d = 0;
      st.delta_feasible = !__builtin_sub_overflow(values[i], values[i - 1], &d);
      st.dmin = std::min(st.dmin, d);
      st.dmax = std::max(st.dmax, d);
    }
  }
  st.delta_bits = BitsRequired(static_cast<uint64_t>(st.dmax) -
                               static_cast<uint64_t>(st.dmin));
  st.delta_bytes = BitPackedBytes(st.n > 0 ? st.n - 1 : 0, st.delta_bits) +
                   (st.n / kDeltaCheckpointRows + 1) * sizeof(int64_t);
  if (needed == StatsNeeded::kDeltaRange) return st;

  st.run_count = 1;
  for (size_t i = 1; i < st.n; ++i) {
    st.run_count += values[i] != values[i - 1];
    st.sorted = st.sorted && values[i] >= values[i - 1];
  }
  st.rle_bytes = st.run_count * sizeof(RleRun);

  std::unordered_set<int64_t> distinct;
  for (int64_t v : values) {
    distinct.insert(v);
    if (distinct.size() > kMaxIntDictionarySize) break;
  }
  st.distinct = distinct.size();
  st.dict_feasible = st.distinct <= kMaxIntDictionarySize;
  st.dict_bits = st.dict_feasible ? BitsRequired(st.distinct - 1) : 64;
  st.dict_bytes = st.dict_feasible ? BitPackedBytes(st.n, st.dict_bits) +
                                         st.distinct * sizeof(int64_t)
                                   : static_cast<size_t>(-1);
  return st;
}

// Writes values[i] - base as Words: the bit-packed stream of width
// 8 * sizeof(Word).
template <typename Word, typename T>
void NarrowWords(const T* values, size_t n, uint64_t base, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const Word word =
        static_cast<Word>(static_cast<uint64_t>(values[i]) - base);
    std::memcpy(out + i * sizeof(Word), &word, sizeof(Word));
  }
}

// Writes values[i] - base into `packed` at the narrowest byte-aligned width
// that holds `max_offset`. Returns that width in bits, or 0 when the
// tracker refuses the buffer.
template <typename T>
int WriteByteAligned(const T* values, size_t n, uint64_t base,
                     uint64_t max_offset, AlignedBuffer* packed) {
  const int bytes = SmallestWordBytes(BitsRequired(max_offset));
  if (!packed->TryResize(n * bytes)) return 0;
  uint8_t* out = packed->data();
  switch (bytes) {
    case 1: NarrowWords<uint8_t>(values, n, base, out); break;
    case 2: NarrowWords<uint16_t>(values, n, base, out); break;
    case 4: NarrowWords<uint32_t>(values, n, base, out); break;
    default: NarrowWords<uint64_t>(values, n, base, out); break;
  }
  return 8 * bytes;
}

Status RegionLimit() {
  return Status::ResourceExhausted(
      "mutable region segment exceeds the memory limit");
}

// The EncodingChoice::kAuto tie-break, on precomputed stats.
Encoding AutoPick(const IntStats& st) {
  // Usefulness tie-break: RLE must win by 2x to be chosen (it is the
  // least useful for vectorized processing); dictionary must beat plain
  // bit packing outright (ids narrower than offsets).
  if (st.rle_bytes * 2 < std::min(st.for_bytes, st.dict_bytes)) {
    return Encoding::kRle;
  }
  if (st.delta_feasible &&
      st.delta_bytes * 2 < std::min(st.for_bytes, st.dict_bytes)) {
    // Delta must win big: it decodes sequentially and is the least
    // useful representation for vectorized processing.
    return Encoding::kDelta;
  }
  if (st.dict_feasible && st.dict_bytes < st.for_bytes) {
    return Encoding::kDictionary;
  }
  return Encoding::kBitPacked;
}

}  // namespace

ColumnBuilder::ColumnBuilder(ColumnSpec spec)
    : spec_(std::move(spec)),
      str_dict_(std::make_shared<StringDictionary>()) {}

void ColumnBuilder::AppendInt64(int64_t value) {
  BIPIE_DCHECK(spec_.type == ColumnType::kInt64);
  int_values_.push_back(value);
}

void ColumnBuilder::AppendString(const std::string& value) {
  BIPIE_DCHECK(spec_.type == ColumnType::kString);
  str_ids_.push_back(str_dict_->GetOrInsert(value));
}

void ColumnBuilder::AppendInt64Bulk(const int64_t* values, size_t n) {
  BIPIE_DCHECK(spec_.type == ColumnType::kInt64);
  int_values_.insert(int_values_.end(), values, values + n);
}

void ColumnBuilder::AppendIds(const uint32_t* ids, size_t n,
                              const StringDictionary& dictionary) {
  BIPIE_DCHECK(spec_.type == ColumnType::kString);
  constexpr uint64_t kUnmapped = ~uint64_t{0};
  std::vector<uint64_t> remap(dictionary.size(), kUnmapped);
  const size_t first = str_ids_.size();
  str_ids_.resize(first + n);
  for (size_t i = 0; i < n; ++i) {
    uint64_t& id = remap[ids[i]];
    if (id == kUnmapped) {
      id = str_dict_->GetOrInsert(dictionary.value(ids[i]));
    }
    str_ids_[first + i] = id;
  }
}

EncodedColumn ColumnBuilder::Finish() {
  EncodedColumn out = spec_.type == ColumnType::kString ? FinishString()
                                                        : FinishInt();
  int_values_.clear();
  str_ids_.clear();
  return out;
}

EncodedColumn ColumnBuilder::FinishInt() {
  const size_t n = int_values_.size();
  EncodedColumn col;
  col.type_ = ColumnType::kInt64;
  col.meta_.num_rows = n;
  if (n == 0) {
    col.encoding_ = Encoding::kBitPacked;
    col.packed_.Resize(8);
    return col;
  }
  Encoding pick = Encoding::kBitPacked;
  StatsNeeded needed = StatsNeeded::kRange;
  switch (spec_.encoding) {
    case EncodingChoice::kBitPacked:
      break;
    case EncodingChoice::kDictionary:
      pick = Encoding::kDictionary;
      break;
    case EncodingChoice::kRle:
      pick = Encoding::kRle;
      break;
    case EncodingChoice::kDelta:
      pick = Encoding::kDelta;
      needed = StatsNeeded::kDeltaRange;
      break;
    case EncodingChoice::kByteSliced:
      pick = Encoding::kByteSliced;
      break;
    case EncodingChoice::kAuto:
    default:
      needed = StatsNeeded::kAll;
      break;
  }
  const IntStats st = ComputeIntStats(int_values_, needed);
  if (needed == StatsNeeded::kAll) pick = AutoPick(st);
  // A forced delta column whose differences overflow is bit-packed instead.
  if (pick == Encoding::kDelta && !st.delta_feasible) {
    pick = Encoding::kBitPacked;
  }
  col.meta_.min = st.min;
  col.meta_.max = st.max;
  const int for_bits = st.for_bits;
  const int delta_bits = st.delta_bits;
  const int64_t dmin = st.dmin;

  switch (pick) {
    case Encoding::kBitPacked: {
      col.encoding_ = Encoding::kBitPacked;
      col.base_ = col.meta_.min;
      col.bit_width_ = for_bits;
      std::vector<uint64_t> offsets(n);
      for (size_t i = 0; i < n; ++i) {
        offsets[i] = static_cast<uint64_t>(int_values_[i]) -
                     static_cast<uint64_t>(col.base_);
      }
      col.packed_.Resize(BitPackedBytes(n, for_bits) + 8);
      BitPack(offsets.data(), n, for_bits, col.packed_.data());
      break;
    }
    case Encoding::kDictionary: {
      col.encoding_ = Encoding::kDictionary;
      auto dict = std::make_shared<IntDictionary>();
      std::vector<uint64_t> ids(n);
      for (size_t i = 0; i < n; ++i) ids[i] = dict->GetOrInsert(int_values_[i]);
      BIPIE_DCHECK(dict->size() <= kMaxIntDictionarySize);
      col.bit_width_ = BitsRequired(dict->size() - 1);
      col.int_dict_ = std::move(dict);
      col.packed_.Resize(BitPackedBytes(n, col.bit_width_) + 8);
      BitPack(ids.data(), n, col.bit_width_, col.packed_.data());
      break;
    }
    case Encoding::kByteSliced: {
      // Same frame-of-reference offsets as kBitPacked, split into padded
      // byte planes (auto never picks this: it trades size — whole bytes
      // per value — for early-exit predicate evaluation, a call the
      // strategy layer makes per workload, not the builder per column).
      col.encoding_ = Encoding::kByteSliced;
      col.base_ = col.meta_.min;
      col.bit_width_ = for_bits;
      std::vector<uint64_t> offsets(n);
      for (size_t i = 0; i < n; ++i) {
        offsets[i] = static_cast<uint64_t>(int_values_[i]) -
                     static_cast<uint64_t>(col.base_);
      }
      col.packed_.Resize(ByteSliceBytes(n, for_bits));
      ByteSlicePack(offsets.data(), n, for_bits, col.packed_.data());
      break;
    }
    case Encoding::kRle: {
      col.encoding_ = Encoding::kRle;
      col.runs_ = RleEncode(
          reinterpret_cast<const uint64_t*>(int_values_.data()), n);
      break;
    }
    case Encoding::kDelta: {
      col.encoding_ = Encoding::kDelta;
      col.delta_min_ = dmin;
      col.bit_width_ = delta_bits;
      std::vector<uint64_t> offsets(n > 0 ? n - 1 : 0);
      for (size_t i = 1; i < n; ++i) {
        offsets[i - 1] =
            static_cast<uint64_t>(int_values_[i] - int_values_[i - 1]) -
            static_cast<uint64_t>(dmin);
      }
      col.packed_.Resize(BitPackedBytes(offsets.size(), delta_bits) + 8);
      if (!offsets.empty()) {
        BitPack(offsets.data(), offsets.size(), delta_bits,
                col.packed_.data());
      }
      for (size_t row = 0; row < n; row += kDeltaCheckpointRows) {
        col.checkpoints_.push_back(int_values_[row]);
      }
      break;
    }
  }
  return col;
}

Result<EncodedColumn> ColumnBuilder::ByteAlignedInts(const int64_t* values,
                                                     size_t n, int64_t min,
                                                     int64_t max) {
  EncodedColumn col;
  col.encoding_ = Encoding::kBitPacked;
  col.meta_ = {min, max, n};
  col.base_ = min;
  const uint64_t base = static_cast<uint64_t>(min);
  col.bit_width_ = WriteByteAligned(
      values, n, base, static_cast<uint64_t>(max) - base, &col.packed_);
  if (col.bit_width_ == 0) return RegionLimit();
  return col;
}

Result<EncodedColumn> ColumnBuilder::ByteAlignedIds(
    const uint32_t* ids, size_t n,
    std::shared_ptr<StringDictionary> dictionary) {
  EncodedColumn col;
  col.type_ = ColumnType::kString;
  col.encoding_ = Encoding::kDictionary;
  // String metadata tracks the id range, as in FinishString.
  col.meta_ = {0, static_cast<int64_t>(dictionary->size()) - 1, n};
  col.bit_width_ = WriteByteAligned(ids, n, 0, dictionary->size() - 1,
                                    &col.packed_);
  if (col.bit_width_ == 0) return RegionLimit();
  col.str_dict_ = std::move(dictionary);
  return col;
}

EncodingAdvice ColumnBuilder::Advise(const cost::CostModel& model) const {
  EncodingAdvice advice;
  if (spec_.type == ColumnType::kString) {
    // Strings only encode as dictionary; the advice is the scan cost of the
    // id stream (width set by the distinct count, bounded by n).
    const size_t n = str_ids_.size();
    advice.num_rows = n;
    advice.distinct = str_dict_->size();
    advice.run_count = n > 0 ? 1 : 0;
    for (size_t i = 1; i < n; ++i) {
      advice.run_count += str_ids_[i] != str_ids_[i - 1];
    }
    const int bits = n == 0 ? 1 : BitsRequired(str_dict_->size() - 1);
    EncodingCandidate cand;
    cand.encoding = Encoding::kDictionary;
    cand.feasible = true;
    cand.bit_width = bits;
    cand.encoded_bytes = BitPackedBytes(n, bits);
    cand.scan_cycles_per_row = model.ScanCyclesPerRow(
        Encoding::kDictionary, bits, n, 1, cand.encoded_bytes);
    advice.chosen = Encoding::kDictionary;
    advice.builder_pick = Encoding::kDictionary;
    advice.candidates.push_back(cand);
    return advice;
  }

  const IntStats st = ComputeIntStats(int_values_);
  advice.num_rows = st.n;
  advice.min = st.min;
  advice.max = st.max;
  advice.distinct = st.distinct;
  advice.run_count = st.n == 0 ? 0 : st.run_count;
  advice.sorted = st.n > 0 && st.sorted;
  advice.builder_pick = st.n == 0 ? Encoding::kBitPacked : AutoPick(st);

  auto add = [&](Encoding enc, bool feasible, int bits, size_t bytes,
                 size_t runs) {
    EncodingCandidate cand;
    cand.encoding = enc;
    cand.feasible = feasible;
    cand.bit_width = bits;
    cand.encoded_bytes = bytes;
    if (feasible && st.n > 0) {
      cand.scan_cycles_per_row =
          model.ScanCyclesPerRow(enc, bits, st.n, runs, bytes);
    }
    advice.candidates.push_back(cand);
  };
  add(Encoding::kBitPacked, true, st.for_bits, st.for_bytes, 1);
  add(Encoding::kDictionary, st.dict_feasible, st.dict_bits, st.dict_bytes, 1);
  add(Encoding::kRle, true, 64, st.rle_bytes, st.run_count);
  add(Encoding::kDelta, st.delta_feasible, st.delta_bits, st.delta_bytes, 1);
  add(Encoding::kByteSliced, true, st.for_bits,
      ByteSliceBytes(st.n, st.for_bits), 1);

  // Cheapest predicted scan; ties break toward the smaller encoded size,
  // then the lower enum value (candidates are in enum order).
  const EncodingCandidate* best = nullptr;
  for (const EncodingCandidate& cand : advice.candidates) {
    if (!cand.feasible || cand.scan_cycles_per_row < 0.0) continue;
    if (best == nullptr || cand.scan_cycles_per_row < best->scan_cycles_per_row ||
        (cand.scan_cycles_per_row == best->scan_cycles_per_row &&
         cand.encoded_bytes < best->encoded_bytes)) {
      best = &cand;
    }
  }
  advice.chosen = best != nullptr ? best->encoding : Encoding::kBitPacked;
  return advice;
}

EncodedColumn ColumnBuilder::FinishString() {
  const size_t n = str_ids_.size();
  EncodedColumn col;
  col.type_ = ColumnType::kString;
  col.encoding_ = Encoding::kDictionary;
  col.meta_.num_rows = n;
  col.bit_width_ = n == 0 ? 1 : BitsRequired(str_dict_->size() - 1);
  // Metadata for a string column tracks the id range.
  col.meta_.min = 0;
  col.meta_.max = n == 0 ? 0 : static_cast<int64_t>(str_dict_->size()) - 1;
  col.str_dict_ =
      std::exchange(str_dict_, std::make_shared<StringDictionary>());
  col.packed_.Resize(BitPackedBytes(n, col.bit_width_) + 8);
  if (n > 0) BitPack(str_ids_.data(), n, col.bit_width_, col.packed_.data());
  return col;
}

}  // namespace bipie
