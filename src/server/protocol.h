// The bipie wire protocol (DESIGN.md §14).
//
// Length-prefixed binary frames over a byte stream:
//
//   u32 payload_len (LE) | u8 frame_type | payload[payload_len]
//
// Client -> server: Query (SQL text), SetSetting (name/value), Cancel.
// Server -> client: zero or more ResultBatch frames followed by one Stats
// frame (success), one Explain frame (EXPLAIN statements), or one Error
// frame (failure); Ok acknowledges SetSetting.
//
// Everything arriving off the wire is untrusted, exactly like a table file
// (DESIGN.md §10): the payload length is bounded before any allocation,
// every string length is checked against both its own cap and the bytes
// actually remaining in the frame, and decoders return a structured
// kInvalidArgument — never trusting a length, never crashing. Integers are
// fixed-width little-endian; strings are u32 length + raw bytes.
#ifndef BIPIE_SERVER_PROTOCOL_H_
#define BIPIE_SERVER_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query.h"

namespace bipie::server {

// Hard ceiling on one frame's payload: big enough for any result batch the
// server cuts, small enough that a hostile length cannot balloon a read
// buffer. Frames above it are protocol errors (connection closed).
inline constexpr uint32_t kMaxFramePayload = 16u << 20;
// Per-string ceiling inside a payload (SQL text, error messages, names).
inline constexpr uint32_t kMaxStringBytes = 1u << 20;
// Result rows per ResultBatch frame; larger results span several frames.
inline constexpr size_t kMaxResultRowsPerBatch = 1024;
// Frame header: u32 payload length + u8 type.
inline constexpr size_t kFrameHeaderBytes = 5;

enum class FrameType : uint8_t {
  kQuery = 1,        // str sql
  kSetSetting = 2,   // str name | str value
  kCancel = 3,       // (empty) cancel the in-flight query, if any
  kResultBatch = 4,  // result header + rows (see EncodeResultFrames)
  kStats = 5,        // QueryStatsWire; terminates a successful query
  kError = 6,        // u8 status code | str message | [u32 retry-after ms]
  kOk = 7,           // (empty) acknowledges SetSetting
  kExplain = 8,      // str text; terminates an EXPLAIN statement
  kPing = 9,         // u64 token; liveness probe, bypasses admission
  kPong = 10,        // u64 token; echoes the Ping's token
};
inline constexpr uint8_t kMaxFrameType = 10;

// Per-query execution stats returned in the Stats frame. queue_wait_ns /
// exec_ns split the server-side latency into admission queueing vs scan
// execution; peak_memory_bytes is the query tracker's high-water mark.
struct QueryStatsWire {
  uint64_t rows_scanned = 0;
  uint64_t rows_selected = 0;
  uint64_t batches = 0;
  uint64_t segments_scanned = 0;
  uint64_t segments_eliminated = 0;
  uint64_t runs_aggregated = 0;
  uint64_t queue_wait_ns = 0;
  uint64_t exec_ns = 0;
  uint64_t peak_memory_bytes = 0;
  bool used_hash_fallback = false;  // at least one segment ran hashed
  // The server's degraded-mode flag at reply time: true while the overload
  // shed policy is rejecting low-band queries (soft memory limit latched or
  // queue wait over the shed threshold). Lets clients and load balancers
  // see overload on every response, not only on rejections.
  bool degraded = false;
};

// Stable status-code wire values (the StatusCode enum itself is not a wire
// contract). Unknown wire values decode as kInternal.
uint8_t WireCodeOfStatus(StatusCode code);
StatusCode StatusCodeOfWire(uint8_t wire);

// ---------------------------------------------------------------------------
// Encoding (trusted side: lengths are produced, not believed).

// Builds one frame: header plus typed payload appended via the Put* calls.
class FrameBuilder {
 public:
  explicit FrameBuilder(FrameType type);

  void PutU8(uint8_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v);
  void PutString(const std::string& s);  // caller keeps s under kMaxStringBytes

  // Patches the length header and returns the wire bytes. The builder is
  // spent afterwards.
  std::vector<uint8_t> Finish();

 private:
  std::vector<uint8_t> bytes_;
};

std::vector<uint8_t> EncodeQueryFrame(const std::string& sql);
std::vector<uint8_t> EncodeSetSettingFrame(const std::string& name,
                                           const std::string& value);
std::vector<uint8_t> EncodeCancelFrame();
std::vector<uint8_t> EncodeOkFrame();
std::vector<uint8_t> EncodePingFrame(uint64_t token);
std::vector<uint8_t> EncodePongFrame(uint64_t token);
// A retry_after_ms > 0 appends a retry-after hint (kUnavailable shedding /
// draining rejections); 0 keeps the legacy two-field payload.
std::vector<uint8_t> EncodeErrorFrame(const Status& status,
                                      uint32_t retry_after_ms = 0);
std::vector<uint8_t> EncodeExplainFrame(const std::string& text);
std::vector<uint8_t> EncodeStatsFrame(const QueryStatsWire& stats);
// Splits `result` into ResultBatch frames of at most kMaxResultRowsPerBatch
// rows each (at least one frame, so empty results still round-trip the
// column header) and appends them to `out`.
void EncodeResultFrames(const QueryResult& result,
                        std::vector<std::vector<uint8_t>>* out);

// ---------------------------------------------------------------------------
// Decoding (untrusted side).

// Bounds-checked cursor over one frame payload. Get* return false once the
// payload is exhausted or a nested length lies about the remaining bytes.
class PayloadReader {
 public:
  PayloadReader(const uint8_t* data, size_t size)
      : data_(data), size_(size) {}

  bool GetU8(uint8_t* v);
  bool GetU32(uint32_t* v);
  bool GetU64(uint64_t* v);
  bool GetI64(int64_t* v);
  bool GetString(std::string* s);
  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// One complete frame located inside a receive buffer (borrowed bytes).
struct FrameView {
  FrameType type = FrameType::kOk;
  const uint8_t* payload = nullptr;
  size_t size = 0;
};

enum class FrameScan { kFrame, kNeedMore, kError };

// Tries to take the next complete frame from buffer[*offset..). On kFrame,
// fills *frame and advances *offset past it. kNeedMore means the buffer
// ends mid-frame (read more bytes and retry). kError (oversized length,
// unknown frame type) fills *error; the connection should be dropped.
FrameScan NextFrame(const std::vector<uint8_t>& buffer, size_t* offset,
                    FrameView* frame, Status* error);

Status DecodeQueryFrame(const FrameView& frame, std::string* sql);
Status DecodeSetSettingFrame(const FrameView& frame, std::string* name,
                             std::string* value);
// A non-null `retry_after_ms` receives the optional retry-after hint
// (0 when the frame carries none).
Status DecodeErrorFrame(const FrameView& frame, Status* out,
                        uint32_t* retry_after_ms = nullptr);
Status DecodePingFrame(const FrameView& frame, uint64_t* token);
Status DecodePongFrame(const FrameView& frame, uint64_t* token);
Status DecodeExplainFrame(const FrameView& frame, std::string* text);
Status DecodeStatsFrame(const FrameView& frame, QueryStatsWire* stats);
// Appends the batch's rows to *result (sets the column header on the first
// batch and cross-checks it on later ones).
Status DecodeResultBatch(const FrameView& frame, QueryResult* result);

}  // namespace bipie::server

#endif  // BIPIE_SERVER_PROTOCOL_H_
