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
  /// RunTxn retry backoff: exponential from base to max (doubling per
  /// consecutive BUSY), with deterministic jitter drawn from
  /// backoff_seed so a fixed seed replays the identical sleep sequence.
  /// The server's retry-after hint always acts as a floor.
  uint32_t backoff_base_ms = 1;
  uint32_t backoff_max_ms = 64;
  uint64_t backoff_seed = 1;
};

/// End-to-end outcome of one RunTxn call.
struct TxnResult {
  bool committed = false;
  std::string txn_type;
  uint8_t level = 0;
  bool negotiated = false;
  bool advisor_correct = false;
  std::string detail;        ///< abort reason when !committed
  int busy_retries = 0;      ///< BUSY responses absorbed (full session queue)
  uint64_t backoff_ms = 0;   ///< total retry sleep this call
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
  /// empty = random. Absorbs BUSY (session queue backpressure) by
  /// sleeping for the server's retry hint and re-sending the EXEC; gives up
  /// after `max_busy_retries` consecutive BUSY responses.
  Result<TxnResult> RunTxn(
      const std::string& txn_type, uint8_t level,
      const std::vector<std::pair<std::string, int64_t>>& params = {},
      int max_busy_retries = 1000);

  // --- raw access for protocol tests ---
  Status SendFrame(MsgType type, const std::string& payload);
  Status SendRaw(const std::string& bytes);
  Status RecvFrame(Frame* out);

  /// Next backoff delay for the given consecutive-retry count: exponential
  /// base<<attempt capped at backoff_max_ms, jittered into [half, full] by
  /// the deterministic seed stream, floored at the server's hint. Public so
  /// the jitter schedule is unit-testable without a server.
  uint32_t NextBackoffMs(int attempt, uint32_t server_hint_ms);

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
  uint64_t backoff_state_ = 0;
};

}  // namespace semcor::net

#endif  // SEMCOR_NET_CLIENT_H_
