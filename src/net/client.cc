#include "net/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/str_util.h"

namespace semcor::net {

namespace {

Status Errno(const char* what) {
  return Status::Internal(StrCat(what, ": ", std::strerror(errno)));
}

Status Unexpected(const Frame& frame) {
  if (frame.type == MsgType::kError) {
    Result<ErrorResp> err = ErrorResp::Decode(frame.payload);
    if (err.ok()) {
      if (err.value().code ==
          static_cast<uint16_t>(WireError::kShuttingDown)) {
        return Status::Aborted(StrCat("server draining: ",
                                      err.value().message));
      }
      return Status::InvalidArgument(
          StrCat("server error ", err.value().code, ": ",
                 err.value().message));
    }
  }
  return Status::Internal(
      StrCat("unexpected frame ", MsgTypeName(frame.type)));
}

}  // namespace

Client::~Client() { Close(); }

Status Client::Connect() {
  if (fd_ >= 0) return Status::Internal("already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.recv_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.recv_timeout_ms / 1000;
    tv.tv_usec = (options_.recv_timeout_ms % 1000) * 1000;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::InvalidArgument(StrCat("bad host '", options_.host, "'"));
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Errno("connect");
    Close();
    return s;
  }
  return Status::Ok();
}

void Client::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  parser_ = FrameParser();
}

Status Client::SendRaw(const std::string& bytes) {
  if (fd_ < 0) return Status::Internal("not connected");
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status Client::SendFrame(MsgType type, const std::string& payload) {
  return SendRaw(EncodeFrame(type, payload));
}

Status Client::RecvFrame(Frame* out) {
  if (fd_ < 0) return Status::Internal("not connected");
  for (;;) {
    switch (parser_.Pop(out)) {
      case FrameParser::PopResult::kFrame:
        return Status::Ok();
      case FrameParser::PopResult::kError:
        return Status::InvalidArgument(StrCat("frame error: ",
                                              parser_.error()));
      case FrameParser::PopResult::kNeedMore:
        break;
    }
    char buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      parser_.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0) return Status::Aborted("connection closed by server");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return Status::Internal("receive timeout");
    }
    return Errno("recv");
  }
}

Result<Frame> Client::Call(MsgType type, const std::string& payload) {
  if (Status s = SendFrame(type, payload); !s.ok()) return s;
  return NextResponse();
}

Result<Frame> Client::NextResponse() {
  Frame frame;
  if (Status s = RecvFrame(&frame); !s.ok()) return s;
  if (frame.type != MsgType::kTimeout) return frame;
  Result<TimeoutResp> timeout = TimeoutResp::Decode(frame.payload);
  if (!timeout.ok()) return timeout.status();
  return Status::Timeout(StrCat("session reaped: ", timeout.value().detail));
}

Result<HelloResp> Client::Hello() {
  HelloReq req;
  req.client_name = options_.client_name;
  Result<Frame> frame = Call(MsgType::kHello, req.Encode());
  if (!frame.ok()) return frame.status();
  if (frame.value().type != MsgType::kHelloOk) return Unexpected(frame.value());
  return HelloResp::Decode(frame.value().payload);
}

namespace {

/// The EXEC's terminal answer: a step report, or a kNotDurable error, which
/// becomes kAborted — whatever the live store did, the server would not
/// promise the commit survives a crash and the client must not count it.
Result<StepResp> AsStepReport(const Frame& frame) {
  if (frame.type == MsgType::kError) {
    Result<ErrorResp> err = ErrorResp::Decode(frame.payload);
    if (err.ok() &&
        err.value().code == static_cast<uint16_t>(WireError::kNotDurable)) {
      StepResp aborted;
      aborted.outcome = static_cast<uint8_t>(StepWire::kAborted);
      aborted.detail = err.value().message;
      return aborted;
    }
  }
  if (frame.type != MsgType::kStepReport) return Unexpected(frame);
  return StepResp::Decode(frame.payload);
}

}  // namespace

Result<StatsResp> Client::Stats() {
  Result<Frame> frame = Call(MsgType::kStats, "");
  if (!frame.ok()) return frame.status();
  if (frame.value().type != MsgType::kStatsOk) return Unexpected(frame.value());
  return StatsResp::Decode(frame.value().payload);
}

Status Client::Shutdown() {
  Result<Frame> frame = Call(MsgType::kShutdown, "");
  if (!frame.ok()) return frame.status();
  if (frame.value().type != MsgType::kShutdownOk) {
    return Unexpected(frame.value());
  }
  return Status::Ok();
}

Result<TxnResult> Client::RunTxn(
    const std::string& txn_type, uint8_t level,
    const std::vector<std::pair<std::string, int64_t>>& params) {
  BeginReq req;
  req.txn_type = txn_type;
  req.requested_level = level;
  req.params = params;
  Result<Frame> admitted = Call(MsgType::kExec, req.Encode());
  if (!admitted.ok()) return admitted.status();
  if (admitted.value().type != MsgType::kBeginOk) {
    return Unexpected(admitted.value());
  }
  Result<BeginResp> begin = BeginResp::Decode(admitted.value().payload);
  if (!begin.ok()) return begin.status();
  TxnResult result;
  result.txn_type = begin.value().txn_type;
  result.level = begin.value().level;
  result.negotiated = begin.value().negotiated;
  result.advisor_correct = begin.value().advisor_correct;

  // The terminal report follows BEGIN_OK.
  Result<Frame> report = NextResponse();
  if (!report.ok()) return report.status();
  Result<StepResp> step = AsStepReport(report.value());
  if (!step.ok()) return step.status();
  result.committed =
      static_cast<StepWire>(step.value().outcome) == StepWire::kCommitted;
  result.detail = step.value().detail;
  return result;
}

}  // namespace semcor::net
