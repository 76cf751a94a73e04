#include "net/chaos.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/str_util.h"

namespace semcor::net {

namespace {

// SplitMix64 — the same deterministic stream generator the disk-fault plan
// uses, so one seed convention covers both fault boundaries.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double UnitDraw(uint64_t seed, uint64_t conn, int dir, uint64_t chunk) {
  const uint64_t h =
      Mix(seed ^ Mix(conn * 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(dir))
               ^ Mix(chunk + 0x1234));
  return static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);  // 2^53
}

enum class ChunkFault { kNone, kClose, kTruncate, kDuplicate, kDelay };

ChunkFault Decide(const ChaosOptions& o, uint64_t conn, int dir,
                  uint64_t chunk) {
  const double u = UnitDraw(o.seed, conn, dir, chunk);
  double edge = o.p_close;
  if (u < edge) return ChunkFault::kClose;
  edge += o.p_truncate;
  if (u < edge) return ChunkFault::kTruncate;
  edge += o.p_duplicate;
  if (u < edge) return ChunkFault::kDuplicate;
  edge += o.p_delay;
  if (u < edge) return ChunkFault::kDelay;
  return ChunkFault::kNone;
}

}  // namespace

// Both fds and both pump threads for one proxied connection. Threads only
// read their own direction's fd and write the opposite one; Kill() shuts
// down both sockets so each pump's blocking read returns immediately.
struct ChaosProxy::Conn {
  uint64_t id = 0;
  int client_fd = -1;
  int server_fd = -1;
  std::thread fwd;   // client -> server
  std::thread bwd;   // server -> client
  std::atomic<bool> dead{false};

  void Kill() {
    if (dead.exchange(true)) return;
    ::shutdown(client_fd, SHUT_RDWR);
    ::shutdown(server_fd, SHUT_RDWR);
  }
};

ChaosProxy::~ChaosProxy() { Stop(); }

Status ChaosProxy::Start() {
  if (started_) return Status::InvalidArgument("chaos proxy already started");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StrCat("socket: ", std::strerror(errno)));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::Internal(StrCat("bind: ", std::strerror(errno)));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) < 0) {
    return Status::Internal(StrCat("listen: ", std::strerror(errno)));
  }
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void ChaosProxy::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  // Shutting the listener down pops AcceptLoop out of accept(2). The fd is
  // closed and reset only once that thread, its reader, has exited.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  std::vector<std::shared_ptr<Conn>> conns;
  {
    std::lock_guard<std::mutex> lk(mu_);
    conns.swap(conns_);
  }
  for (auto& c : conns) c->Kill();
  for (auto& c : conns) {
    if (c->fwd.joinable()) c->fwd.join();
    if (c->bwd.joinable()) c->bwd.join();
    ::close(c->client_fd);
    ::close(c->server_fd);
  }
  started_ = false;
}

ChaosStats ChaosProxy::Stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void ChaosProxy::AcceptLoop() {
  for (;;) {
    int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (stopping_.load(std::memory_order_acquire)) return;
      if (errno == EINTR) continue;
      return;
    }
    int server = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in up{};
    up.sin_family = AF_INET;
    up.sin_port = htons(options_.upstream_port);
    ::inet_pton(AF_INET, options_.upstream_host.c_str(), &up.sin_addr);
    if (server < 0 ||
        ::connect(server, reinterpret_cast<sockaddr*>(&up), sizeof(up)) < 0) {
      ::close(client);
      if (server >= 0) ::close(server);
      continue;
    }
    int one = 1;
    ::setsockopt(client, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(server, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto conn = std::make_shared<Conn>();
    conn->client_fd = client;
    conn->server_fd = server;
    {
      std::lock_guard<std::mutex> lk(mu_);
      conn->id = next_conn_id_++;
      stats_.connections++;
      conns_.push_back(conn);
    }
    conn->fwd = std::thread(
        [this, conn] { Pump(conn, conn->client_fd, conn->server_fd, 0); });
    conn->bwd = std::thread(
        [this, conn] { Pump(conn, conn->server_fd, conn->client_fd, 1); });
  }
}

bool ChaosProxy::ForwardAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    size_t want = data.size() - off;
    if (options_.split_bytes > 0 && want > options_.split_bytes) {
      want = options_.split_bytes;
    }
    ssize_t n = ::send(fd, data.data() + off, want, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
    // A short pause between split pieces forces the receiver to observe the
    // partial frame on its own read, not coalesced by the kernel.
    if (options_.split_bytes > 0 && off < data.size()) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  return true;
}

void ChaosProxy::Pump(const std::shared_ptr<Conn>& conn, int src, int dst,
                      int dir) {
  char buf[4096];
  uint64_t chunk = 0;
  for (;;) {
    ssize_t n = ::recv(src, buf, sizeof(buf), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    std::string data(buf, static_cast<size_t>(n));
    const ChunkFault fault = Decide(options_, conn->id, dir, chunk++);
    {
      std::lock_guard<std::mutex> lk(mu_);
      stats_.chunks++;
      switch (fault) {
        case ChunkFault::kClose:
          stats_.closes++;
          break;
        case ChunkFault::kTruncate:
          stats_.truncates++;
          break;
        case ChunkFault::kDuplicate:
          stats_.duplicates++;
          break;
        case ChunkFault::kDelay:
          stats_.delays++;
          break;
        case ChunkFault::kNone:
          break;
      }
    }
    switch (fault) {
      case ChunkFault::kClose:
        conn->Kill();
        return;
      case ChunkFault::kTruncate:
        // Half a chunk then a hard drop: the receiver holds a torn frame in
        // its parser when the connection dies.
        ForwardAll(dst, data.substr(0, data.size() / 2));
        conn->Kill();
        return;
      case ChunkFault::kDuplicate:
        if (!ForwardAll(dst, data) || !ForwardAll(dst, data)) {
          conn->Kill();
          return;
        }
        continue;
      case ChunkFault::kDelay:
        std::this_thread::sleep_for(
            std::chrono::milliseconds(options_.delay_ms));
        break;
      case ChunkFault::kNone:
        break;
    }
    if (!ForwardAll(dst, data)) {
      conn->Kill();
      return;
    }
  }
  // Natural EOF / error on one side: propagate the close to the other so
  // neither endpoint waits on a half-open conversation.
  conn->Kill();
}

}  // namespace semcor::net
