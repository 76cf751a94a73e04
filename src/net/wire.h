#ifndef SEMCOR_NET_WIRE_H_
#define SEMCOR_NET_WIRE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "txn/isolation.h"

namespace semcor::net {

/// Protocol version spoken by this build. HELLO carries the client's
/// version; the server rejects mismatches with kError so an incompatible
/// client fails fast instead of mis-parsing frames. v2 added the TIMEOUT
/// frame, which the server may send unsolicited — a v1 client would treat
/// it as garbage, hence the bump. v3 added EXEC, whose answer is two frames
/// (BEGIN_OK then the step report) — a v2 peer would read one and fall out
/// of step. v4 made EXEC the only way to run a transaction: BEGIN, STMT,
/// COMMIT and ABORT retired, and the step report lost its retry hint and
/// step count, so a v3 peer would mis-parse it. Retiring BUSY needed no
/// bump: a server that no longer sends a frame cannot be misread.
inline constexpr uint32_t kProtocolVersion = 4;

/// Hard cap on one frame body (type byte + payload). Anything larger is a
/// protocol error: the parser refuses to buffer it, so a hostile 4-byte
/// length header can never become a memory-exhaustion primitive.
inline constexpr uint32_t kMaxFrameBytes = 1u << 20;

/// EXEC's requested-level byte meaning "negotiate": the server picks the
/// lowest semantically-correct level for the transaction type (the paper's
/// §5 procedure) and reports the discharged-obligation verdict back.
inline constexpr uint8_t kNegotiateLevel = 0xFF;

/// Frame type tags. Every frame on the wire is
///   [u32 length][u8 MsgType][payload]   (length = 1 + payload bytes, LE).
/// Tags 3, 5, 7 and 8 (v3's BEGIN, STMT, COMMIT, ABORT) and 11 (BUSY, which
/// shed frames past a full session queue) are retired; a peer that sends
/// one gets the ordinary unexpected-frame kBadFrame error.
enum class MsgType : uint8_t {
  kHello = 1,        ///< c->s: version check, open session
  kHelloOk = 2,      ///< s->c
  kBeginOk = 4,      ///< s->c: EXEC started (type and level granted)
  kStepReport = 6,   ///< s->c: the EXEC's terminal outcome
  kStats = 9,        ///< c->s
  kStatsOk = 10,     ///< s->c
  kError = 12,       ///< s->c: protocol violation / bad state
  kShutdown = 13,    ///< c->s: ask the server to stop (bench/CI convenience)
  kShutdownOk = 14,  ///< s->c
  kTimeout = 15,     ///< s->c: a deadline fired (may arrive unsolicited)
  /// c->s: run one transaction, BEGIN through COMMIT, in one request
  /// (payload: BeginReq). Answer: BEGIN_OK followed by the terminal step
  /// report (or a kNotDurable ERROR), or a lone ERROR when the transaction
  /// never started (a bad request, a draining server). Nothing stays open
  /// between requests.
  kExec = 16,
};

const char* MsgTypeName(MsgType type);

/// kError reason codes.
enum class WireError : uint16_t {
  kBadFrame = 1,      ///< undecodable payload / unknown frame type
  kBadVersion = 2,    ///< HELLO version mismatch
  kBadState = 3,      ///< request illegal in the session's current state
  kBadRequest = 4,    ///< well-formed but unsatisfiable (unknown type/level)
  kNotDurable = 5,    ///< commit applied but durability could not be promised
  kShuttingDown = 6,  ///< server draining; no new transactions
};

/// What deadline a kTimeout frame reports. Values 1 and 2 (v3's statement
/// and transaction deadlines) are retired.
enum class TimeoutKind : uint8_t {
  kIdle = 3,  ///< session idle past --idle-timeout (connection closes)
};

/// Transaction outcome carried by kStepReport (values 0-2, v3's
/// intermediate stepping outcomes, are retired).
enum class StepWire : uint8_t {
  kCommitted = 3,  ///< transaction committed
  kAborted = 4,    ///< transaction aborted (detail says why)
};

// ---------------------------------------------------------------------------
// Primitive codec: bounds-checked little-endian integers + length-prefixed
// strings. WireReader never reads past the payload and never throws; a
// failed read poisons the reader.
// ---------------------------------------------------------------------------

class WireWriter {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { PutLe(v, 2); }
  void U32(uint32_t v) { PutLe(v, 4); }
  void U64(uint64_t v) { PutLe(v, 8); }
  void I64(int64_t v) { PutLe(static_cast<uint64_t>(v), 8); }
  void F64(double v);
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.append(s);
  }

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void PutLe(uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    }
  }
  std::string out_;
};

class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v);
  bool U16(uint16_t* v);
  bool U32(uint32_t* v);
  bool U64(uint64_t* v);
  bool I64(int64_t* v);
  bool F64(double* v);
  bool Str(std::string* v);

  bool failed() const { return failed_; }
  /// True when every payload byte was consumed and nothing failed — decoders
  /// require this, so trailing garbage is an error, not silently ignored.
  bool Done() const { return !failed_ && pos_ == data_.size(); }

 private:
  bool Take(size_t n, const char** p);
  std::string_view data_;
  size_t pos_ = 0;
  bool failed_ = false;
};

// ---------------------------------------------------------------------------
// Messages. Each struct encodes to a payload (no frame header) and decodes
// from one, requiring full consumption. kStats/kShutdown have empty payloads
// and no struct.
// ---------------------------------------------------------------------------

struct HelloReq {
  uint32_t version = kProtocolVersion;
  std::string client_name;

  std::string Encode() const;
  static Result<HelloReq> Decode(std::string_view payload);
};

struct HelloResp {
  uint32_t version = kProtocolVersion;
  uint64_t session_id = 0;
  std::string workload;

  std::string Encode() const;
  static Result<HelloResp> Decode(std::string_view payload);
};

/// Payload of EXEC.
struct BeginReq {
  /// Transaction type to run; empty = the server draws one from its
  /// workload mix (using the session's seeded RNG).
  std::string txn_type;
  /// IsoLevel index, or kNegotiateLevel to let the server pick (§5).
  uint8_t requested_level = kNegotiateLevel;
  /// Explicit program parameters; empty = the server draws random ones.
  std::vector<std::pair<std::string, int64_t>> params;

  std::string Encode() const;
  static Result<BeginReq> Decode(std::string_view payload);
};

struct BeginResp {
  std::string txn_type;  ///< actual type (echo, or the server's draw)
  uint8_t level = 0;     ///< IsoLevel index actually granted
  bool negotiated = false;
  /// Whether the static analysis says the granted level is semantically
  /// correct for this type (always true for negotiated sessions; explicit
  /// under-isolated requests are honoured but flagged).
  bool advisor_correct = false;
  std::string verdict;  ///< one-line advisor summary for logging

  std::string Encode() const;
  static Result<BeginResp> Decode(std::string_view payload);
};

struct StepResp {
  uint8_t outcome = 0;  ///< StepWire
  std::string detail;   ///< abort reason

  std::string Encode() const;
  static Result<StepResp> Decode(std::string_view payload);
};

struct StatsResp {
  std::vector<std::pair<std::string, int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;

  int64_t Counter(const std::string& name, int64_t def = 0) const;
  double Gauge(const std::string& name, double def = 0) const;

  std::string Encode() const;
  static Result<StatsResp> Decode(std::string_view payload);
};

struct ErrorResp {
  uint16_t code = 0;  ///< WireError
  std::string message;

  std::string Encode() const;
  static Result<ErrorResp> Decode(std::string_view payload);
};

/// A deadline fired: sent unsolicited, between requests, when the loop's
/// sweep reaps an idle session just before it closes the connection.
struct TimeoutResp {
  uint8_t what = 0;  ///< TimeoutKind
  std::string detail;

  std::string Encode() const;
  static Result<TimeoutResp> Decode(std::string_view payload);
};

// ---------------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------------

struct Frame {
  MsgType type = MsgType::kError;
  std::string payload;
};

/// Wraps a payload in the length-prefixed frame header.
std::string EncodeFrame(MsgType type, const std::string& payload);

/// Incremental frame splitter for a byte stream. Feed raw bytes in any
/// chunking; Pop yields complete frames. A malformed header (zero or
/// oversized length) is a sticky error — the stream cannot be resynchronized
/// after it, so the connection must be closed.
class FrameParser {
 public:
  enum class PopResult { kFrame, kNeedMore, kError };

  void Feed(const char* data, size_t n) { buf_.append(data, n); }
  PopResult Pop(Frame* out);

  const std::string& error() const { return error_; }

 private:
  std::string buf_;
  std::string error_;
};

}  // namespace semcor::net

#endif  // SEMCOR_NET_WIRE_H_
