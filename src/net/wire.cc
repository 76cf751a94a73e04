#include "net/wire.h"

#include <cstring>

#include "common/str_util.h"

namespace semcor::net {

namespace {

/// Container entries are length-prefixed with u32 counts; cap them so a
/// corrupt count cannot drive a huge allocation before the bounds checks of
/// the individual reads kick in. A frame body is at most kMaxFrameBytes, so
/// no legitimate message can carry more entries than that anyway.
constexpr uint32_t kMaxListEntries = 1u << 16;

Status DecodeError(const char* what) {
  return Status::InvalidArgument(StrCat("wire: undecodable ", what));
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello: return "HELLO";
    case MsgType::kHelloOk: return "HELLO_OK";
    case MsgType::kBeginOk: return "BEGIN_OK";
    case MsgType::kStepReport: return "STEP_REPORT";
    case MsgType::kStats: return "STATS";
    case MsgType::kStatsOk: return "STATS_OK";
    case MsgType::kError: return "ERROR";
    case MsgType::kShutdown: return "SHUTDOWN";
    case MsgType::kShutdownOk: return "SHUTDOWN_OK";
    case MsgType::kTimeout: return "TIMEOUT";
    case MsgType::kExec: return "EXEC";
  }
  return "?";
}

void WireWriter::F64(double v) {
  static_assert(sizeof(double) == 8, "wire doubles are 8 bytes");
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  U64(bits);
}

bool WireReader::Take(size_t n, const char** p) {
  if (failed_ || data_.size() - pos_ < n) {
    failed_ = true;
    return false;
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool WireReader::U8(uint8_t* v) {
  const char* p;
  if (!Take(1, &p)) return false;
  *v = static_cast<uint8_t>(*p);
  return true;
}

bool WireReader::U16(uint16_t* v) {
  const char* p;
  if (!Take(2, &p)) return false;
  *v = 0;
  for (int i = 0; i < 2; ++i) {
    *v |= static_cast<uint16_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return true;
}

bool WireReader::U32(uint32_t* v) {
  const char* p;
  if (!Take(4, &p)) return false;
  *v = 0;
  for (int i = 0; i < 4; ++i) {
    *v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return true;
}

bool WireReader::U64(uint64_t* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  *v = 0;
  for (int i = 0; i < 8; ++i) {
    *v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return true;
}

bool WireReader::I64(int64_t* v) {
  uint64_t u;
  if (!U64(&u)) return false;
  std::memcpy(v, &u, 8);
  return true;
}

bool WireReader::F64(double* v) {
  uint64_t u;
  if (!U64(&u)) return false;
  std::memcpy(v, &u, 8);
  return true;
}

bool WireReader::Str(std::string* v) {
  uint32_t n;
  if (!U32(&n)) return false;
  const char* p;
  if (!Take(n, &p)) return false;  // bounds check covers hostile lengths
  v->assign(p, n);
  return true;
}

// ---------------------------------------------------------------------------
// Messages.
// ---------------------------------------------------------------------------

std::string HelloReq::Encode() const {
  WireWriter w;
  w.U32(version);
  w.Str(client_name);
  return w.Take();
}

Result<HelloReq> HelloReq::Decode(std::string_view payload) {
  WireReader r(payload);
  HelloReq m;
  if (!r.U32(&m.version) || !r.Str(&m.client_name) || !r.Done()) {
    return DecodeError("HELLO");
  }
  return m;
}

std::string HelloResp::Encode() const {
  WireWriter w;
  w.U32(version);
  w.U64(session_id);
  w.Str(workload);
  return w.Take();
}

Result<HelloResp> HelloResp::Decode(std::string_view payload) {
  WireReader r(payload);
  HelloResp m;
  if (!r.U32(&m.version) || !r.U64(&m.session_id) || !r.Str(&m.workload) ||
      !r.Done()) {
    return DecodeError("HELLO_OK");
  }
  return m;
}

std::string BeginReq::Encode() const {
  WireWriter w;
  w.Str(txn_type);
  w.U8(requested_level);
  w.U32(static_cast<uint32_t>(params.size()));
  for (const auto& [key, value] : params) {
    w.Str(key);
    w.I64(value);
  }
  return w.Take();
}

Result<BeginReq> BeginReq::Decode(std::string_view payload) {
  WireReader r(payload);
  BeginReq m;
  uint32_t n = 0;
  if (!r.Str(&m.txn_type) || !r.U8(&m.requested_level) || !r.U32(&n) ||
      n > kMaxListEntries) {
    return DecodeError("EXEC");
  }
  m.params.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string key;
    int64_t value;
    if (!r.Str(&key) || !r.I64(&value)) return DecodeError("EXEC");
    m.params.emplace_back(std::move(key), value);
  }
  if (!r.Done()) return DecodeError("EXEC");
  return m;
}

std::string BeginResp::Encode() const {
  WireWriter w;
  w.Str(txn_type);
  w.U8(level);
  w.U8(negotiated ? 1 : 0);
  w.U8(advisor_correct ? 1 : 0);
  w.Str(verdict);
  return w.Take();
}

Result<BeginResp> BeginResp::Decode(std::string_view payload) {
  WireReader r(payload);
  BeginResp m;
  uint8_t negotiated, correct;
  if (!r.Str(&m.txn_type) || !r.U8(&m.level) || !r.U8(&negotiated) ||
      !r.U8(&correct) || !r.Str(&m.verdict) || !r.Done()) {
    return DecodeError("BEGIN_OK");
  }
  m.negotiated = negotiated != 0;
  m.advisor_correct = correct != 0;
  return m;
}

std::string StepResp::Encode() const {
  WireWriter w;
  w.U8(outcome);
  w.Str(detail);
  return w.Take();
}

Result<StepResp> StepResp::Decode(std::string_view payload) {
  WireReader r(payload);
  StepResp m;
  if (!r.U8(&m.outcome) || !r.Str(&m.detail) || !r.Done()) {
    return DecodeError("STEP_REPORT");
  }
  if (m.outcome != static_cast<uint8_t>(StepWire::kCommitted) &&
      m.outcome != static_cast<uint8_t>(StepWire::kAborted)) {
    return DecodeError("STEP_REPORT outcome");
  }
  return m;
}

int64_t StatsResp::Counter(const std::string& name, int64_t def) const {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  return def;
}

double StatsResp::Gauge(const std::string& name, double def) const {
  for (const auto& [key, value] : gauges) {
    if (key == name) return value;
  }
  return def;
}

std::string StatsResp::Encode() const {
  WireWriter w;
  w.U32(static_cast<uint32_t>(counters.size()));
  for (const auto& [key, value] : counters) {
    w.Str(key);
    w.I64(value);
  }
  w.U32(static_cast<uint32_t>(gauges.size()));
  for (const auto& [key, value] : gauges) {
    w.Str(key);
    w.F64(value);
  }
  return w.Take();
}

Result<StatsResp> StatsResp::Decode(std::string_view payload) {
  WireReader r(payload);
  StatsResp m;
  uint32_t n = 0;
  if (!r.U32(&n) || n > kMaxListEntries) return DecodeError("STATS_OK");
  m.counters.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string key;
    int64_t value;
    if (!r.Str(&key) || !r.I64(&value)) return DecodeError("STATS_OK");
    m.counters.emplace_back(std::move(key), value);
  }
  if (!r.U32(&n) || n > kMaxListEntries) return DecodeError("STATS_OK");
  m.gauges.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    std::string key;
    double value;
    if (!r.Str(&key) || !r.F64(&value)) return DecodeError("STATS_OK");
    m.gauges.emplace_back(std::move(key), value);
  }
  if (!r.Done()) return DecodeError("STATS_OK");
  return m;
}

std::string ErrorResp::Encode() const {
  WireWriter w;
  w.U16(code);
  w.Str(message);
  return w.Take();
}

Result<ErrorResp> ErrorResp::Decode(std::string_view payload) {
  WireReader r(payload);
  ErrorResp m;
  if (!r.U16(&m.code) || !r.Str(&m.message) || !r.Done()) {
    return DecodeError("ERROR");
  }
  return m;
}

std::string TimeoutResp::Encode() const {
  WireWriter w;
  w.U8(what);
  w.Str(detail);
  return w.Take();
}

Result<TimeoutResp> TimeoutResp::Decode(std::string_view payload) {
  WireReader r(payload);
  TimeoutResp m;
  if (!r.U8(&m.what) || !r.Str(&m.detail) || !r.Done()) {
    return DecodeError("TIMEOUT");
  }
  if (m.what != static_cast<uint8_t>(TimeoutKind::kIdle)) {
    return DecodeError("TIMEOUT kind");
  }
  return m;
}

// ---------------------------------------------------------------------------
// Frames.
// ---------------------------------------------------------------------------

std::string EncodeFrame(MsgType type, const std::string& payload) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(payload.size() + 1));
  w.U8(static_cast<uint8_t>(type));
  std::string out = w.Take();
  out += payload;
  return out;
}

FrameParser::PopResult FrameParser::Pop(Frame* out) {
  if (!error_.empty()) return PopResult::kError;
  if (buf_.size() < 4) return PopResult::kNeedMore;
  uint32_t body = 0;
  for (int i = 0; i < 4; ++i) {
    body |= static_cast<uint32_t>(static_cast<uint8_t>(buf_[i])) << (8 * i);
  }
  if (body == 0 || body > kMaxFrameBytes) {
    error_ = StrCat("frame body length ", body, " out of range (1..",
                    kMaxFrameBytes, ")");
    return PopResult::kError;
  }
  if (buf_.size() < 4u + body) return PopResult::kNeedMore;
  out->type = static_cast<MsgType>(static_cast<uint8_t>(buf_[4]));
  out->payload.assign(buf_, 5, body - 1);
  buf_.erase(0, 4u + body);
  return PopResult::kFrame;
}

}  // namespace semcor::net
