#ifndef SEMCOR_NET_CLIENT_H_
#define SEMCOR_NET_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/wire.h"

namespace semcor::net {

struct ClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Receive timeout. Every blocking call fails instead of hanging, so a
  /// wedged server turns into a test failure, not a stuck CI job.
  int recv_timeout_ms = 20000;
  std::string client_name = "semcor-client";
  /// Read by nothing: RunTxn never retries. The perfbench driver still
  /// assigns it; the ROADMAP item 11 benchmark change removes that
  /// assignment and this field together.
  uint64_t backoff_seed = 1;
};

/// End-to-end outcome of one RunTxn call.
struct TxnResult {
  bool committed = false;
  std::string txn_type;
  uint8_t level = 0;
  bool negotiated = false;
  bool advisor_correct = false;
  std::string detail;  ///< abort reason when !committed
};

/// Blocking client for the semcor transaction server. One connection, one
/// session, strictly request/response — not thread-safe; use one Client per
/// thread (the load generator does exactly that).
class Client {
 public:
  explicit Client(ClientOptions options) : options_(std::move(options)) {}
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// TCP connect only; Hello() completes the protocol handshake.
  Status Connect();
  /// Closes the socket and forgets any partly parsed input, so a later
  /// Connect() starts from a clean stream.
  void Close();
  bool connected() const { return fd_ >= 0; }

  Result<HelloResp> Hello();
  Result<StatsResp> Stats();
  Status Shutdown();

  /// Runs one transaction to a terminal state in one EXEC round trip: the
  /// server runs BEGIN, the body and COMMIT, waiting out lock conflicts
  /// itself. level: an IsoLevel index, or kNegotiateLevel for server-side
  /// selection; txn_type empty = the server draws from its mix; params
  /// empty = random.
  Result<TxnResult> RunTxn(
      const std::string& txn_type, uint8_t level,
      const std::vector<std::pair<std::string, int64_t>>& params = {});

  // --- raw access for protocol tests ---
  Status SendFrame(MsgType type, const std::string& payload);
  Status SendRaw(const std::string& bytes);
  Status RecvFrame(Frame* out);

 private:
  /// Sends a request and returns its response frame.
  Result<Frame> Call(MsgType type, const std::string& payload);
  /// Call's receive half: the next response frame. An idle-reap TIMEOUT
  /// fails the call (the server is closing this connection). EXEC uses it
  /// for the step report that follows BEGIN_OK.
  Result<Frame> NextResponse();

  ClientOptions options_;
  int fd_ = -1;
  FrameParser parser_;
};

}  // namespace semcor::net

#endif  // SEMCOR_NET_CLIENT_H_
