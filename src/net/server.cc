#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/rng.h"
#include "common/str_util.h"
#include "sem/expr/eval.h"
#include "txn/interpreter.h"

namespace semcor::net {

namespace {

/// The retry hint a BUSY frame carries.
constexpr uint32_t kBusyRetryAfterMs = 5;

Status Errno(const char* what) {
  return Status::Internal(StrCat(what, ": ", std::strerror(errno)));
}

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

bool MakeWorkloadByName(const ServerOptions& options, Workload* out) {
  const std::string& name = options.workload;
  if (name == "banking") {
    *out = MakeBankingWorkload();
  } else if (name == "payroll") {
    *out = MakePayrollWorkload();
  } else if (name == "orders") {
    *out = MakeOrdersWorkload();
  } else if (name == "orders_unique") {
    *out = MakeOrdersWorkload(/*one_order_per_day=*/true);
  } else if (name == "tpcc") {
    *out = MakeTpccWorkload(options.tpcc_warehouses, options.tpcc_districts,
                            options.tpcc_customers, options.tpcc_items);
  } else {
    return false;
  }
  return true;
}

/// EXEC's integer parameters as a request for Workload::Instantiate.
ParamList WireParams(const BeginReq& req) {
  ParamList params;
  for (const auto& [name, value] : req.params) {
    params.emplace_back(name, Value::Int(value));
  }
  return params;
}

std::string ErrorFrame(WireError code, const std::string& message) {
  ErrorResp resp;
  resp.code = static_cast<uint16_t>(code);
  resp.message = message;
  return EncodeFrame(MsgType::kError, resp.Encode());
}

/// Frames in an encoded reply: one, except EXEC's BEGIN_OK + step report.
long CountFrames(const std::string& bytes) {
  long frames = 0;
  for (size_t pos = 0; pos + 4 <= bytes.size(); ++frames) {
    uint32_t body = 0;
    for (int i = 0; i < 4; ++i) {
      body |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[pos + i]))
              << (8 * i);
    }
    pos += 4u + body;
  }
  return frames;
}

}  // namespace

long ServerMetricsSnapshot::Committed() const {
  long n = 0;
  for (long c : commits) n += c;
  return n;
}

long ServerMetricsSnapshot::Aborted() const {
  long n = 0;
  for (long a : aborts) n += a;
  return n;
}

/// All counters behind one mutex; workers touch it only at txn boundaries,
/// never per row.
struct Server::MetricsState {
  mutable std::mutex mu;
  ServerMetricsSnapshot data;
};

/// Connection state. Field ownership follows the threading model:
///  - `fd`, registration, and all socket I/O belong to the loop thread.
///  - Everything under `mu` (queue, outbox, flags) is shared loop<->worker.
///  - `rng` and `hello_done` are touched only by the worker that holds the
///    `in_worker` baton.
/// A session holds no transaction state: each EXEC runs start to finish
/// inside one worker call.
struct Server::Session {
  int fd = -1;
  uint64_t id = 0;
  Rng rng{0};
  FrameParser parser;  ///< loop thread only (all reads happen there)

  std::mutex mu;
  std::deque<Frame> pending;  ///< parsed frames awaiting a worker
  std::string outbox;         ///< bytes awaiting the loop thread's write
  bool in_worker = false;     ///< a worker holds this session's baton
  bool closed = false;        ///< fd closed / deregistered by the loop
  bool close_after_flush = false;
  MonoTime last_activity{};   ///< set at accept + every inbound read

  bool hello_done = false;

  /// The loop reads nothing more while this holds (caller holds `mu`): the
  /// peer owes a read of its answers first, or the session is closing.
  bool InputPaused() const {
    return outbox.size() > kMaxOutboxBytes || close_after_flush;
  }
};

Status ParseWalOptions(const ServerOptions& options, wal::WalOptions* out) {
  if (!wal::ParseFsyncPolicy(options.wal_fsync, &out->fsync)) {
    return Status::InvalidArgument(
        StrCat("bad --wal-fsync '", options.wal_fsync, "' (none|group)"));
  }
  if (!wal::ParseFsyncFailurePolicy(options.wal_fsync_failure,
                                    &out->fsync_failure)) {
    return Status::InvalidArgument(
        StrCat("bad --wal-fsync-failure '", options.wal_fsync_failure,
               "' (panic|degrade)"));
  }
  if (!wal::ParseDiskFaultPlan(options.disk_faults, &out->disk_faults)) {
    return Status::InvalidArgument(
        StrCat("bad --disk-faults '", options.disk_faults,
               "' (none | seed:N[:p_append[:p_short[:p_sync]]])"));
  }
  return Status::Ok();
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      locks_(options_.lock_shards),
      metrics_(new MetricsState) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) return Status::Internal("server already started");

  // Bind before anything touches the WAL directory: a second server started
  // on a taken port with the same --wal-dir must fail here, not after its
  // OpenDir has replayed and re-checkpointed a live server's log.
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Errno("socket");
  // Stop() only tears down a server that started, so every failure from
  // here on closes the listener itself.
  auto fail = [this](Status s) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  };
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return fail(Errno("bind"));
  }
  if (::listen(listen_fd_, 64) != 0) return fail(Errno("listen"));
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    return fail(Errno("getsockname"));
  }
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  if (!MakeWorkloadByName(options_, &workload_)) {
    return fail(Status::InvalidArgument(
        StrCat("unknown workload '", options_.workload,
               "' (banking|payroll|orders|orders_unique|tpcc)")));
  }
  if (Status s = workload_.setup(&store_); !s.ok()) return fail(s);

  if (!options_.wal_dir.empty()) {
    wal::WalOptions wopts;
    if (Status s = ParseWalOptions(options_, &wopts); !s.ok()) return fail(s);
    // OpenDir replays whatever a previous incarnation left in the log over
    // the setup state (a fresh log just re-checkpoints the setup), so a
    // kill -9 mid-bench resumes from exactly the durable committed prefix.
    Result<std::unique_ptr<wal::WriteAheadLog>> w = wal::WriteAheadLog::OpenDir(
        options_.wal_dir, &store_, wopts, &recovery_);
    if (!w.ok()) return fail(w.status());
    wal_ = w.take();
    mgr_.SetWal(wal_.get());
    // Ids restart above everything the log ever assigned, so recovered and
    // new transactions never collide in the chronicle.
    mgr_.ResetIds(recovery_.max_txn_id + 1);
  }

  // The §5 analysis runs once at startup; EXEC negotiation is then a map
  // lookup, so static checking never sits on the request path. The advisor
  // stays resident: its obligation cache makes re-advising after a workload
  // edit O(K) pair checks instead of a fresh O(K²) sweep.
  advisor_ = std::make_unique<IncrementalAdvisor>(workload_.app,
                                                  IncrementalOptions{});
  for (LevelAdvice& advice : advisor_->AdviseAll()) {
    advice_[advice.txn_type] = std::move(advice);
  }

  if (Status s = loop_.Init(); !s.ok()) return fail(s);
  loop_.Register(listen_fd_, [this](bool, bool) { OnAccept(); });
  loop_.SetWakeupHandler([this] { OnWakeup(); });
  loop_.SetTimerHandler([this] { SweepDeadlines(); });
  // The loop thread does not exist yet, so arming here is safe.
  if (options_.idle_timeout_us > 0) loop_.ArmTimer(MonoClock::now());

  start_time_ = std::chrono::steady_clock::now();
  serving_.store(true, std::memory_order_release);
  started_ = true;

  loop_thread_ = std::thread([this] {
    loop_.Run();
    serving_.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(state_mu_);
    state_cv_.notify_all();
  });
  const int workers = options_.workers > 0 ? options_.workers : 1;
  workers_.reserve(workers);
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
  return Status::Ok();
}

Status Server::WalFailure() const {
  if (!wal_ || !wal_->panicked()) return Status::Ok();
  return wal_->device_error();
}

void Server::Stop() {
  if (!started_ || stopped_joined_) return;
  stopped_joined_ = true;

  serving_.store(false, std::memory_order_release);
  loop_.Stop();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  // With every thread joined, session state is exclusively ours, and every
  // transaction has settled (none outlives its worker call).
  for (auto& [fd, session] : sessions_) ::close(fd);
  sessions_.clear();
  // The WAL has seen every transaction end; a final checkpoint makes the
  // next start's recovery trivial.
  if (wal_) {
    wal_->Checkpoint();
    wal_->Stop();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  state_cv_.notify_all();
}

void Server::WaitUntilStopped() {
  std::unique_lock<std::mutex> lock(state_mu_);
  state_cv_.wait(lock, [this] { return !serving(); });
}

ServerMetricsSnapshot Server::Metrics() const {
  std::lock_guard<std::mutex> lock(metrics_->mu);
  return metrics_->data;
}

bool Server::InvariantHolds() const {
  const auto ctx = store_.SnapshotToMap();
  Result<bool> r = EvalBool(workload_.app.invariant, ctx);
  return r.ok() && r.value();
}

// ---------------------------------------------------------------------------
// Loop thread.
// ---------------------------------------------------------------------------

void Server::OnAccept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN (or transient error): poll will re-arm
    SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    // A fixed send buffer instead of the kernel's autotuning (up to
    // tcp_wmem's max): what a non-reading client can park in the kernel is
    // then bounded too.
    const int sndbuf = kSessionSendBufferBytes;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf));
    auto session = std::make_shared<Session>();
    session->fd = fd;
    session->id = next_session_id_++;
    session->last_activity = MonoClock::now();
    // Deterministic per-session stream: server draws (types, params) are
    // reproducible for a fixed seed and connection order.
    session->rng = Rng(options_.seed * 0x9E3779B97F4A7C15ull + session->id);
    sessions_[fd] = session;
    {
      std::lock_guard<std::mutex> lock(metrics_->mu);
      metrics_->data.sessions_accepted++;
    }
    std::weak_ptr<Session> weak = session;
    loop_.Register(fd, [this, weak](bool readable, bool writable) {
      if (auto s = weak.lock()) OnSessionIo(s, readable, writable);
    });
  }
}

void Server::OnSessionIo(const std::shared_ptr<Session>& session,
                         bool readable, bool writable) {
  if (readable) {
    // Reads until EAGAIN or until input pauses; TryFlush then keeps POLLIN
    // off until the peer has read enough of its answers.
    bool enqueue = false;
    bool paused = false;
    char buf[4096];
    while (!paused) {
      const ssize_t n = ::read(session->fd, buf, sizeof(buf));
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        CloseSession(session);  // EOF or hard error
        return;
      }
      session->parser.Feed(buf, static_cast<size_t>(n));
      std::lock_guard<std::mutex> lock(session->mu);
      session->last_activity = MonoClock::now();
      Frame frame;
      for (;;) {
        const FrameParser::PopResult r = session->parser.Pop(&frame);
        if (r == FrameParser::PopResult::kNeedMore) break;
        if (r == FrameParser::PopResult::kError) {
          // Unrecoverable: framing is lost. Report, flush, close.
          std::lock_guard<std::mutex> mlock(metrics_->mu);
          metrics_->data.protocol_errors++;
          session->outbox +=
              ErrorFrame(WireError::kBadFrame, session->parser.error());
          metrics_->data.frames_out++;
          session->close_after_flush = true;
          break;
        }
        {
          std::lock_guard<std::mutex> mlock(metrics_->mu);
          metrics_->data.frames_in++;
        }
        if (session->pending.size() >= options_.session_queue_limit) {
          // Per-session backpressure: a pipelining client that outruns the
          // workers gets an immediate BUSY instead of unbounded buffering.
          BusyResp busy;
          busy.retry_after_ms = kBusyRetryAfterMs;
          busy.reason = "session queue full";
          session->outbox += EncodeFrame(MsgType::kBusy, busy.Encode());
          std::lock_guard<std::mutex> mlock(metrics_->mu);
          metrics_->data.queue_rejected++;
          metrics_->data.frames_out++;
          continue;
        }
        session->pending.push_back(std::move(frame));
      }
      if (!session->pending.empty() && !session->in_worker &&
          !session->closed) {
        session->in_worker = true;
        enqueue = true;
      }
      paused = session->InputPaused();
    }
    if (enqueue) EnqueueWork(session);
  }
  if (writable || readable) TryFlush(session);
}

void Server::TryFlush(std::shared_ptr<Session> session) {
  bool close_now = false;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    if (session->closed) return;
    while (!session->outbox.empty()) {
      const ssize_t n = ::send(session->fd, session->outbox.data(),
                               session->outbox.size(), MSG_NOSIGNAL);
      if (n > 0) {
        session->outbox.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      close_now = true;  // peer vanished
      break;
    }
    if (!close_now) {
      loop_.WantWrite(session->fd, !session->outbox.empty());
      loop_.WantRead(session->fd, !session->InputPaused());
      if (session->outbox.empty() && session->close_after_flush) {
        close_now = true;
      }
    }
  }
  if (close_now) CloseSession(std::move(session));
}

void Server::CloseSession(std::shared_ptr<Session> session) {
  bool shutdown_now = false;
  {
    std::lock_guard<std::mutex> lock(session->mu);
    if (session->closed) return;
    session->closed = true;
    loop_.Deregister(session->fd);
    ::close(session->fd);
    sessions_.erase(session->fd);
    // A worker running this session's EXEC finishes the transaction and
    // drops the answer (see ServeSession).
    shutdown_now = shutdown_requested_.load(std::memory_order_acquire);
  }
  {
    std::lock_guard<std::mutex> lock(metrics_->mu);
    metrics_->data.sessions_closed++;
  }
  if (shutdown_now) loop_.Stop();
}

void Server::OnWakeup() {
  std::vector<int> fds;
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    fds.swap(flush_fds_);
  }
  for (int fd : fds) {
    auto it = sessions_.find(fd);
    if (it != sessions_.end()) TryFlush(it->second);
  }
  if (draining_.load(std::memory_order_acquire) && !drain_deadline_) {
    BeginDrain();
  }
}

void Server::BeginDrain() {
  const MonoTime now = MonoClock::now();
  drain_deadline_ = options_.drain_timeout_us > 0
                        ? now + std::chrono::microseconds(
                                    options_.drain_timeout_us)
                        : MonoTime::max();
  // No new connections; existing sessions keep their sockets until their
  // transactions settle (new EXECs are refused with kShuttingDown).
  if (listen_fd_ >= 0) {
    loop_.Deregister(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  loop_.ArmTimer(now);
}

void Server::SweepDeadlines() {
  const MonoTime now = MonoClock::now();
  const auto idle_to = std::chrono::microseconds(options_.idle_timeout_us);
  std::vector<std::shared_ptr<Session>> to_close;
  for (auto& [fd, session] : sessions_) {
    std::lock_guard<std::mutex> lock(session->mu);
    if (session->closed) continue;
    if (options_.idle_timeout_us > 0 && !session->in_worker &&
        session->pending.empty() && now - session->last_activity >= idle_to) {
      // Reap regardless of outbox state: a peer that stopped reading (or a
      // half-open connection) would otherwise keep its session, socket and
      // unsent bytes until process exit. The TIMEOUT frame is best-effort;
      // the close is not.
      TimeoutResp timeout;
      timeout.what = static_cast<uint8_t>(TimeoutKind::kIdle);
      timeout.detail = StrCat("idle for ", options_.idle_timeout_us, "us");
      session->outbox += EncodeFrame(MsgType::kTimeout, timeout.Encode());
      {
        std::lock_guard<std::mutex> mlock(metrics_->mu);
        metrics_->data.idle_timeouts++;
        metrics_->data.frames_out++;
      }
      to_close.push_back(session);
    }
  }
  for (auto& session : to_close) {
    TryFlush(session);       // best-effort TIMEOUT bytes
    CloseSession(session);   // idempotent if TryFlush already closed
  }

  if (drain_deadline_) {
    if (now >= *drain_deadline_) {
      loop_.Stop();  // forced: drain_timeout_us passed with work unsettled
      return;
    }
    long inflight;
    {
      std::lock_guard<std::mutex> lock(metrics_->mu);
      inflight = metrics_->data.inflight;
    }
    bool queue_empty;
    {
      std::lock_guard<std::mutex> lock(work_mu_);
      queue_empty = work_queue_.empty();
    }
    // A worker that just finished its transaction may not have parked its
    // response in the outbox yet (inflight dropped first), and a parked
    // response may not have flushed: stopping now would eat the final ack.
    bool sessions_settled = true;
    for (auto& [fd, session] : sessions_) {
      std::lock_guard<std::mutex> lock(session->mu);
      if (session->closed) continue;
      if (session->in_worker || !session->pending.empty() ||
          !session->outbox.empty()) {
        sessions_settled = false;
        break;
      }
    }
    if (inflight == 0 && queue_empty && sessions_settled) {
      loop_.Stop();
      return;
    }
  }
  // Re-arm: a quarter of the idle timeout, clamped to [5ms, 250ms] (drain
  // polls at the floor so completion is noticed promptly).
  uint64_t period_us = 250'000;
  if (options_.idle_timeout_us > 0) {
    period_us = std::min(period_us, options_.idle_timeout_us / 4);
  }
  if (drain_deadline_) period_us = 5'000;
  period_us = std::max<uint64_t>(period_us, 5'000);
  loop_.ArmTimer(now + std::chrono::microseconds(period_us));
}

// ---------------------------------------------------------------------------
// Worker threads.
// ---------------------------------------------------------------------------

void Server::EnqueueWork(const std::shared_ptr<Session>& session) {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(work_mu_);
    work_queue_.push_back(session);
    depth = work_queue_.size();
  }
  work_cv_.notify_one();
  std::lock_guard<std::mutex> lock(metrics_->mu);
  if (static_cast<long>(depth) > metrics_->data.queue_depth_peak) {
    metrics_->data.queue_depth_peak = static_cast<long>(depth);
  }
}

void Server::RequestFlush(int fd) {
  {
    std::lock_guard<std::mutex> lock(flush_mu_);
    flush_fds_.push_back(fd);
  }
  loop_.Wakeup();
}

void Server::WorkerMain() {
  for (;;) {
    std::shared_ptr<Session> session;
    {
      std::unique_lock<std::mutex> lock(work_mu_);
      work_cv_.wait(lock, [this] { return work_stop_ || !work_queue_.empty(); });
      if (work_stop_) return;
      session = std::move(work_queue_.front());
      work_queue_.pop_front();
    }
    ServeSession(session);
  }
}

void Server::ServeSession(const std::shared_ptr<Session>& session) {
  int fd = -1;
  for (;;) {
    Frame frame;
    {
      std::lock_guard<std::mutex> lock(session->mu);
      if (session->closed) {
        session->in_worker = false;
        return;  // fd already closed; nothing to flush
      }
      if (session->pending.empty()) {
        session->in_worker = false;
        fd = session->fd;
        break;
      }
      frame = std::move(session->pending.front());
      session->pending.pop_front();
    }
    // The baton (`in_worker`) makes this the only thread serving the
    // session, so Dispatch runs without the session mutex.
    std::string resp = Dispatch(*session, frame);
    {
      std::lock_guard<std::mutex> lock(session->mu);
      if (!session->closed) {
        session->outbox += resp;
        std::lock_guard<std::mutex> mlock(metrics_->mu);
        metrics_->data.frames_out += CountFrames(resp);
      }
    }
  }
  if (fd >= 0) RequestFlush(fd);
}

std::string Server::Dispatch(Session& session, const Frame& frame) {
  switch (frame.type) {
    case MsgType::kHello:
      return HandleHello(session, frame);
    case MsgType::kExec:
      return HandleExec(session, frame);
    case MsgType::kStats:
      return BuildStats();
    case MsgType::kShutdown: {
      shutdown_requested_.store(true, std::memory_order_release);
      std::lock_guard<std::mutex> lock(session.mu);
      session.close_after_flush = true;
      return EncodeFrame(MsgType::kShutdownOk, "");
    }
    default: {
      std::lock_guard<std::mutex> lock(metrics_->mu);
      metrics_->data.protocol_errors++;
      return ErrorFrame(
          WireError::kBadFrame,
          StrCat("unexpected frame type ", static_cast<int>(frame.type), " (",
                 MsgTypeName(frame.type), ")"));
    }
  }
}

std::string Server::HandleHello(Session& session, const Frame& frame) {
  Result<HelloReq> req = HelloReq::Decode(frame.payload);
  if (!req.ok()) {
    std::lock_guard<std::mutex> lock(metrics_->mu);
    metrics_->data.protocol_errors++;
    return ErrorFrame(WireError::kBadFrame, req.status().message());
  }
  if (session.hello_done) {
    return ErrorFrame(WireError::kBadState, "duplicate HELLO");
  }
  if (req.value().version != kProtocolVersion) {
    std::lock_guard<std::mutex> lock(session.mu);
    session.close_after_flush = true;
    return ErrorFrame(WireError::kBadVersion,
                      StrCat("server speaks protocol ", kProtocolVersion,
                             ", client sent ", req.value().version));
  }
  session.hello_done = true;
  HelloResp resp;
  resp.session_id = session.id;
  resp.workload = options_.workload;
  return EncodeFrame(MsgType::kHelloOk, resp.Encode());
}

std::string Server::HandleExec(Session& session, const Frame& frame) {
  Result<BeginReq> req = BeginReq::Decode(frame.payload);
  if (!req.ok()) {
    std::lock_guard<std::mutex> lock(metrics_->mu);
    metrics_->data.protocol_errors++;
    return ErrorFrame(WireError::kBadFrame, req.status().message());
  }
  if (!session.hello_done) {
    return ErrorFrame(WireError::kBadState, "EXEC before HELLO");
  }
  if (draining()) {
    std::lock_guard<std::mutex> lock(metrics_->mu);
    metrics_->data.drain_rejects++;
    return ErrorFrame(WireError::kShuttingDown,
                      "server draining; no new transactions");
  }
  const BeginReq& begin = req.value();

  // Resolve the program. An empty type or parameter list is drawn from the
  // session's stream; explicit parameters must match the type's signature.
  const std::string& type = begin.txn_type.empty()
                                ? workload_.DrawType(session.rng)
                                : begin.txn_type;
  Result<std::shared_ptr<const TxnProgram>> program =
      begin.params.empty() ? workload_.Instantiate(type, session.rng)
                           : workload_.Instantiate(type, WireParams(begin));
  if (!program.ok()) {
    return ErrorFrame(WireError::kBadRequest, program.status().message());
  }

  // Negotiate (or validate) the isolation level.
  const auto advice_it = advice_.find(type);
  IsoLevel level;
  BeginResp resp;
  if (begin.requested_level == kNegotiateLevel) {
    // §5: run at the lowest level the static analysis proved correct.
    if (advice_it == advice_.end()) {
      return ErrorFrame(WireError::kBadRequest,
                        StrCat("no advice for type '", type, "'"));
    }
    level = advice_it->second.recommended;
    resp.negotiated = true;
    resp.advisor_correct = true;
    std::lock_guard<std::mutex> lock(metrics_->mu);
    metrics_->data.negotiated_begins++;
  } else {
    if (!IsoLevelFromIndex(begin.requested_level, &level)) {
      return ErrorFrame(WireError::kBadRequest,
                        StrCat("bad isolation level index ",
                               begin.requested_level));
    }
    // Honour the explicit choice, but tell the client what the analysis
    // thinks of it (under-isolation is flagged, not forbidden).
    resp.advisor_correct = advice_it != advice_.end() &&
                           advice_it->second.CorrectAt(level);
  }
  if (advice_it != advice_.end()) {
    resp.verdict = SummarizeAdvice(advice_it->second);
  }

  // The transaction is in flight from here until this worker settles it,
  // so `inflight` never exceeds the worker count.
  const int level_idx = static_cast<int>(level);
  {
    std::lock_guard<std::mutex> lock(metrics_->mu);
    ServerMetricsSnapshot& m = metrics_->data;
    m.inflight_peak = std::max(m.inflight_peak, ++m.inflight);
    m.begins[level_idx]++;
    m.per_type[type].begins++;
    if (advice_it != advice_.end()) {
      const IsoLevel recommended = advice_it->second.recommended;
      m.advisor_recommended[static_cast<int>(recommended)]++;
      if (!resp.negotiated && level != recommended) m.advisor_overridden++;
    }
  }
  resp.txn_type = type;
  resp.level = static_cast<uint8_t>(level);
  std::string reply = EncodeFrame(MsgType::kBeginOk, resp.Encode());

  // The whole transaction runs here, with blocking lock acquires. A lock
  // wait parks this worker behind another worker's running transaction
  // (none is ever left open between frames), and a wait-for cycle aborts
  // the requester that closes it with kDeadlock.
  ProgramRun run(&mgr_, program.take(), level);
  const auto begin_time = std::chrono::steady_clock::now();
  const bool committed = run.RunToCompletion() == StepOutcome::kCommitted;
  const Status& failure = run.failure();
  // Durable-ack gate: a commit may only be acknowledged as kCommitted when
  // its WAL record is actually durable. A failed fsync makes txn().durable
  // false; the commit applied in the live store (other transactions saw it)
  // but the promise "survives a crash" would be a lie, so the client gets
  // kNotDurable instead.
  const bool refuse_ack = committed && wal_ && !run.txn().durable;
  {
    std::lock_guard<std::mutex> lock(metrics_->mu);
    ServerMetricsSnapshot& m = metrics_->data;
    ServerMetricsSnapshot::TypeMetrics& t = m.per_type[type];
    m.inflight--;
    if (committed) {
      m.commits[level_idx]++;
      t.commits[level_idx]++;
      if (refuse_ack) m.commit_acks_refused++;
      const int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now() - begin_time)
                             .count();
      m.latency_ns.Record(ns);
      t.latency_ns.Record(ns);
    } else {
      m.aborts[level_idx]++;
      t.aborts[level_idx]++;
      if (failure.code() == Code::kDeadlock) m.deadlocks++;
      if (failure.code() == Code::kConflict) m.fcw_conflicts++;
    }
  }
  if (refuse_ack) {
    // Under the panic policy the WAL is now frozen; no future commit can be
    // made durable either, so the server winds down (serverd exits non-zero
    // via WalFailure).
    if (wal_->panicked()) RequestStop();
    return reply + ErrorFrame(WireError::kNotDurable,
                              StrCat("commit applied but not durable: ",
                                     wal_->device_error().ToString()));
  }
  StepResp step;
  step.outcome = static_cast<uint8_t>(committed ? StepWire::kCommitted
                                                : StepWire::kAborted);
  if (!committed) step.detail = failure.ToString();
  return reply + EncodeFrame(MsgType::kStepReport, step.Encode());
}

std::string Server::BuildStats() {
  StatsResp stats;
  ServerMetricsSnapshot m;
  {
    std::lock_guard<std::mutex> lock(metrics_->mu);
    m = metrics_->data;
  }
  auto c = [&stats](const std::string& name, long v) {
    stats.counters.emplace_back(name, static_cast<int64_t>(v));
  };
  // ExecStats-parity block: same names and meanings as the in-process
  // executor/driver counters, so tests can equate the two directly.
  c("committed", m.Committed());
  c("aborted", m.Aborted());
  c("deadlocks", m.deadlocks);
  c("fcw_conflicts", m.fcw_conflicts);
  c("injected_faults", 0);
  c("retries_exhausted", m.retries_exhausted);
  // Server-side lifecycle and backpressure.
  c("sessions_accepted", m.sessions_accepted);
  c("sessions_closed", m.sessions_closed);
  c("frames_in", m.frames_in);
  c("frames_out", m.frames_out);
  c("protocol_errors", m.protocol_errors);
  c("queue_rejected", m.queue_rejected);
  c("negotiated_begins", m.negotiated_begins);
  c("inflight", m.inflight);
  c("inflight_peak", m.inflight_peak);
  c("queue_depth_peak", m.queue_depth_peak);
  // Deadlines, drain, and fault posture.
  c("idle_timeouts", m.idle_timeouts);
  c("commit_acks_refused", m.commit_acks_refused);
  c("drain_rejects", m.drain_rejects);
  c("draining", draining() ? 1 : 0);
  for (int i = 0; i < kIsoLevelCount; ++i) {
    IsoLevel level;
    if (!IsoLevelFromIndex(i, &level)) continue;
    const char* name = IsoLevelName(level);
    if (m.begins[i] != 0) c(StrCat("begin.", name), m.begins[i]);
    if (m.commits[i] != 0) c(StrCat("commit.", name), m.commits[i]);
    if (m.aborts[i] != 0) c(StrCat("abort.", name), m.aborts[i]);
  }
  // Advisor attribution: how often each level was the recommendation, and
  // how many explicit BEGINs ran at something else. Together with the
  // per-level begin/commit/abort counters this lets a mixed-level study
  // attribute aborts to the level a session actually ran at — including
  // explicit-level sessions whose advisor_correct flag alone would blur
  // the picture.
  for (int i = 0; i < kIsoLevelCount; ++i) {
    IsoLevel level;
    if (!IsoLevelFromIndex(i, &level)) continue;
    if (m.advisor_recommended[i] != 0) {
      c(StrCat("begin.recommended.", IsoLevelName(level)),
        m.advisor_recommended[i]);
    }
  }
  c("advisor_overridden", m.advisor_overridden);
  // Per-transaction-type breakdown: begins, commit/abort by negotiated
  // level, so a TPC-C run can report tail latency and abort rate for
  // NewOrder separately from StockLevel.
  for (const auto& [type, t] : m.per_type) {
    if (t.begins != 0) c(StrCat("type.", type, ".begin"), t.begins);
    for (int i = 0; i < kIsoLevelCount; ++i) {
      IsoLevel level;
      if (!IsoLevelFromIndex(i, &level)) continue;
      const char* name = IsoLevelName(level);
      if (t.commits[i] != 0) {
        c(StrCat("type.", type, ".commit.", name), t.commits[i]);
      }
      if (t.aborts[i] != 0) {
        c(StrCat("type.", type, ".abort.", name), t.aborts[i]);
      }
    }
  }
  // SSI activity: dangerous-structure aborts with their required /
  // false-positive split (nonzero only when kSsi sessions ran).
  const SsiCounters ssi = mgr_.ssi().counters();
  c("ssi_aborts", ssi.aborts);
  c("ssi_false_positive_aborts", ssi.false_positive_aborts);
  c("ssi_required_aborts", ssi.required_aborts);
  const LockManager::Stats lock = locks_.stats();
  c("lock.grants", lock.grants);
  c("lock.blocks", lock.blocks);
  c("lock.deadlocks", lock.deadlocks);
  c("lock.contention_waits", lock.contention_waits);
  const std::vector<LockManager::Stats> shards = locks_.ShardStats();
  c("lock.shards", static_cast<long>(shards.size()));
  for (size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].grants == 0 && shards[i].blocks == 0) continue;
    c(StrCat("lock.shard", i, ".grants"), shards[i].grants);
    c(StrCat("lock.shard", i, ".blocks"), shards[i].blocks);
  }
  // Durability: live WAL activity plus what recovery replayed at startup.
  // recovered_commits is cumulative across the log's whole history (the
  // checkpoint record carries the running total), so a bench client can
  // check counter parity across a kill -9 / restart cycle.
  if (wal_) {
    const wal::WalStats w = wal_->stats();
    c("wal_appends", static_cast<long>(w.appends));
    c("fsyncs", static_cast<long>(w.fsyncs));
    c("group_commit_batches", static_cast<long>(w.group_commit_batches));
    c("wal_checkpoints", static_cast<long>(w.checkpoints));
    c("wal_log_bytes", static_cast<long>(w.log_bytes));
    c("recovery_replayed_txns", static_cast<long>(recovery_.replayed_txns));
    c("recovered_commits", static_cast<long>(wal_->committed_total()));
    c("recovery_losers_aborted", static_cast<long>(recovery_.losers_aborted));
    // Fault posture: degraded means acks flow without durability claims;
    // crashed under a device error means the log froze (panic policy).
    c("wal_degraded", wal_->degraded() ? 1 : 0);
    c("wal_panicked", wal_->panicked() ? 1 : 0);
    c("wal_device_errors", static_cast<long>(w.device_errors));
    c("wal_fsyncs_skipped", static_cast<long>(w.fsyncs_skipped));
    c("wal_unsafe_acks", static_cast<long>(w.unsafe_acks));
    const wal::DiskFaultStats df = wal_->disk_fault_stats();
    if (df.injected > 0) {
      c("disk_faults_injected", df.injected);
      c("disk_faults_append_eio", df.append_eio);
      c("disk_faults_short_writes", df.short_writes);
      c("disk_faults_sync_failures", df.sync_failures);
    }
  }
  // Exact only at quiescence; see Server::InvariantHolds.
  c("invariant_ok", InvariantHolds() ? 1 : 0);

  const double uptime =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start_time_)
          .count();
  auto g = [&stats](const std::string& name, double v) {
    stats.gauges.emplace_back(name, v);
  };
  g("uptime_s", uptime);
  g("throughput_tps", uptime > 0 ? m.Committed() / uptime : 0);
  // Histograms hold ns; the gauges keep their µs names and units.
  auto us = [](const Histogram& h, double p) {
    return static_cast<double>(h.Percentile(p)) / 1000.0;
  };
  g("p50_us", us(m.latency_ns, 50));
  g("p95_us", us(m.latency_ns, 95));
  g("p99_us", us(m.latency_ns, 99));
  for (const auto& [type, t] : m.per_type) {
    if (t.latency_ns.Count() == 0) continue;
    g(StrCat("type.", type, ".p50_us"), us(t.latency_ns, 50));
    g(StrCat("type.", type, ".p95_us"), us(t.latency_ns, 95));
    g(StrCat("type.", type, ".p99_us"), us(t.latency_ns, 99));
  }
  if (wal_) g("group_commit_mean_batch", wal_->stats().MeanBatchSize());
  return EncodeFrame(MsgType::kStatsOk, stats.Encode());
}

}  // namespace semcor::net
