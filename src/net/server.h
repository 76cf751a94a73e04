#ifndef SEMCOR_NET_SERVER_H_
#define SEMCOR_NET_SERVER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/histogram.h"
#include "net/event_loop.h"
#include "net/wire.h"
#include "sem/check/advisor.h"
#include "sem/check/incremental.h"
#include "txn/txn.h"
#include "wal/wal.h"
#include "workload/workload.h"

namespace semcor::net {

/// A session stops being read while its outbox holds more than this, and
/// resumes once TryFlush drains it back under: a client that pipelines
/// frames and never reads its answers cannot grow server memory without
/// limit. The answers to the frames already queued for a worker are the
/// most it can overshoot by.
inline constexpr size_t kMaxOutboxBytes = 1 << 20;

/// A session stops being read while this many of its frames wait for a
/// worker, and frames the parser already holds stay there until the queue
/// has room: a pipelining client is held back by not being read, the same
/// way as one that does not read its answers.
inline constexpr size_t kMaxPendingFrames = 8;

/// SO_SNDBUF of every accepted socket. Linux doubles the value it is given
/// for its own bookkeeping, so a session's answers parked in the kernel are
/// at most twice this.
inline constexpr int kSessionSendBufferBytes = 256 << 10;

struct ServerOptions {
  std::string workload = "banking";  ///< banking|payroll|orders|orders_unique|tpcc
  /// TPC-C sizing (used only when workload == "tpcc"): warehouses plus the
  /// per-warehouse district/customer/stock-item counts.
  int tpcc_warehouses = 2;
  int tpcc_districts = 2;
  int tpcc_customers = 8;
  int tpcc_items = 16;
  uint16_t port = 0;                 ///< 0 = kernel-assigned ephemeral port
  /// Fixed worker pool size. Each EXEC runs start to finish on one worker,
  /// so this is also the bound on transactions in flight.
  int workers = 4;
  uint64_t seed = 42;                ///< server-side instance draws
  size_t lock_shards = 0;            ///< 0 = LockManager default
  /// Write-ahead-log directory; empty = memory-only (no durability). When
  /// set, Start() recovers whatever a previous incarnation left there before
  /// serving, and COMMIT acknowledgements wait for the commit record's
  /// fsync (see wal_fsync).
  std::string wal_dir;
  /// Fsync policy: "none" | "group" (each committer's fsync covers every
  /// commit appended before it starts).
  std::string wal_fsync = "group";
  /// Reaction to a failed WAL fsync: "panic" (freeze the log, refuse acks,
  /// stop serving) or "degrade" (keep serving without durability claims).
  std::string wal_fsync_failure = "panic";
  /// Deterministic disk-fault plan spec ("seed:N[:p...]"), empty = none.
  std::string disk_faults;
  /// Reaps sessions with no inbound frames for this long (monotonic-clock
  /// microseconds; 0 disables).
  uint64_t idle_timeout_us = 0;
  /// Drain: how long RequestDrain waits for in-flight transactions before
  /// forcing the stop anyway (0 = never forced).
  uint64_t drain_timeout_us = 5'000'000;
};

/// Parses the WAL policy names in `options` (wal_fsync, wal_fsync_failure,
/// disk_faults) into `out`; a bad one is InvalidArgument naming its flag.
/// Start() uses it, and so does serverd at flag parse, so that a bad name
/// is a usage error before any setup runs.
Status ParseWalOptions(const ServerOptions& options, wal::WalOptions* out);

/// Counter snapshot returned by Server::Metrics and serialized (plus derived
/// gauges) into the STATS response. The committed/aborted/deadlocks/
/// fcw_conflicts names deliberately mirror ExecStats so tests can equate
/// server counters with in-process runs of the same workload (STATS also
/// reports ExecStats' injected_faults and retries_exhausted, always 0: the
/// server injects no faults and retries nothing).
struct ServerMetricsSnapshot {
  long sessions_accepted = 0;
  long sessions_closed = 0;
  long frames_in = 0;
  long frames_out = 0;
  long protocol_errors = 0;
  long negotiated_begins = 0;
  long fcw_conflicts = 0;     ///< first-committer-wins aborts
  long deadlocks = 0;         ///< wait-for-graph deadlock aborts
  long inflight = 0;          ///< EXECs running on a worker (≤ workers)
  long inflight_peak = 0;
  long queue_depth_peak = 0;  ///< worker-queue high-water mark
  long idle_timeouts = 0;     ///< sessions reaped at --idle-timeout
  long commit_acks_refused = 0;  ///< commits applied but not durable (kNotDurable)
  long drain_rejects = 0;        ///< EXECs refused while draining
  std::array<long, kIsoLevelCount> begins{};
  std::array<long, kIsoLevelCount> commits{};
  std::array<long, kIsoLevelCount> aborts{};
  /// What the advisor recommends for each EXEC's type, counted per level —
  /// including sessions that requested an explicit level. In a mixed-level
  /// run this keeps per-level abort attribution honest: an explicit session
  /// flagged advisor_correct=false still shows up under the level the §5
  /// analysis would have negotiated.
  std::array<long, kIsoLevelCount> advisor_recommended{};
  long advisor_overridden = 0;  ///< explicit EXECs whose level != recommended
  Histogram latency_ns;  ///< begin→commit, committed txns only

  /// Per-transaction-type split of the same lifecycle counters, keyed by
  /// the type each EXEC resolved to (after any server-side mix draw).
  struct TypeMetrics {
    long begins = 0;
    std::array<long, kIsoLevelCount> commits{};
    std::array<long, kIsoLevelCount> aborts{};
    Histogram latency_ns;  ///< committed txns only
  };
  std::map<std::string, TypeMetrics> per_type;

  long Committed() const;
  long Aborted() const;
};

/// Multi-client transaction server: exposes one workload's transaction types
/// over the wire protocol of net/wire.h. A poll(2) event loop owns the
/// sockets and framing; parsed requests are dispatched onto a fixed worker
/// pool (one in-flight request per session, FIFO per session). EXEC is the
/// only way to run a transaction, and its whole life is one call on one
/// worker: the worker runs it to completion with blocking lock acquires,
/// exactly like the in-process executor. Nothing stays open between frames,
/// so every lock holder is running on some worker; a worker parked in the
/// LockManager waits either on a worker that is making progress or inside a
/// wait-for cycle, which the LockManager breaks with a kDeadlock abort.
/// EXEC negotiates the isolation level per transaction: an explicit
/// level is honoured (and flagged when the static analysis rejects it), and
/// kNegotiateLevel runs the paper's §5 procedure from an IncrementalAdvisor
/// whose memoized pair cache is computed at startup (and stays warm for any
/// future workload edits).
class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds and listens first, so a taken port fails before the WAL
  /// directory is opened (opening replays and re-checkpoints it); then sets
  /// up the workload, recovers the WAL, precomputes the advisor cache, and
  /// spawns the loop thread and the worker pool. On success port() is the
  /// bound port.
  Status Start();

  /// Graceful stop: stops the loop, joins all threads (each worker finishes
  /// the transaction it is running), closes every socket. Idempotent.
  void Stop();

  /// Async-signal-safe stop request (atomic flag + self-pipe write): the
  /// loop thread winds down on its own and WaitUntilStopped returns. Stop()
  /// must still be called (from normal context) to join the threads.
  void RequestStop() { loop_.Stop(); }

  /// Async-signal-safe graceful drain (SIGTERM): stop accepting, refuse new
  /// EXECs with kShuttingDown, let in-flight transactions finish (up to
  /// drain_timeout_us, then force), then stop the loop. Stop() must still be
  /// called to join threads, write the final checkpoint, and close the WAL.
  void RequestDrain() {
    draining_.store(true, std::memory_order_release);
    loop_.Wakeup();
  }
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Non-OK once the WAL froze on a device error under the panic policy;
  /// serverd exits non-zero with this reason.
  Status WalFailure() const;

  /// Blocks until the server stops serving — via Stop(), a client SHUTDOWN
  /// request, or a fatal loop error. Stop() must still be called to join.
  void WaitUntilStopped();

  bool serving() const { return serving_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }

  ServerMetricsSnapshot Metrics() const;

  /// Evaluates the workload's consistency constraint I against the current
  /// committed store state. Exact when the server is quiescent (STATS after
  /// clients drained); advisory under load.
  bool InvariantHolds() const;

  /// What WAL recovery did at Start() (all zeros when running memory-only
  /// or on a fresh log).
  const wal::RecoveryResult& Recovery() const { return recovery_; }

  /// The write-ahead log Start() opened (nullptr when memory-only); tests
  /// reach its crash-point hook through it.
  wal::WriteAheadLog* wal() const { return wal_.get(); }

 private:
  struct Session;
  struct MetricsState;

  // --- loop thread ---
  void OnAccept();
  void OnSessionIo(const std::shared_ptr<Session>& session, bool readable,
                   bool writable);
  /// Moves whole frames from the session's parser into its queue until
  /// input pauses (caller holds session.mu). True when the caller must hand
  /// the session to a worker.
  bool TakeFrames(Session& session);
  // Both take the session by value: CloseSession erases the sessions_ map
  // entry, which destroys the shared_ptr stored there — a caller passing a
  // reference into the map would hand us a pointer that dies mid-call.
  void TryFlush(std::shared_ptr<Session> session);
  void CloseSession(std::shared_ptr<Session> session);
  void OnWakeup();
  /// The loop's timer handler: reaps idle sessions and (while draining)
  /// stops the loop once nothing is in flight or the drain deadline has
  /// passed. Re-arms the timer.
  void SweepDeadlines();
  /// First OnWakeup after RequestDrain: close the listener, set the drain
  /// deadline, and sweep now.
  void BeginDrain();

  // --- worker threads ---
  void WorkerMain();
  void ServeSession(const std::shared_ptr<Session>& session);
  std::string Dispatch(Session& session, const Frame& frame);
  std::string HandleHello(Session& session, const Frame& frame);
  /// Resolves, runs and settles one transaction; see kExec in net/wire.h.
  std::string HandleExec(Session& session, const Frame& frame);
  std::string BuildStats();

  // --- shared ---
  void EnqueueWork(const std::shared_ptr<Session>& session);
  void RequestFlush(int fd);

  ServerOptions options_;
  uint16_t port_ = 0;
  int listen_fd_ = -1;

  Workload workload_;
  Store store_;
  LockManager locks_;
  TxnManager mgr_{&store_, &locks_};
  std::unique_ptr<wal::WriteAheadLog> wal_;
  wal::RecoveryResult recovery_;
  /// Incremental §5 checker: hash-consed decision memo + per-(pair, level)
  /// obligation cache, built once at Start(). Kept alive (not a startup
  /// temporary) so a re-registered type re-checks O(K) pairs, not O(K²).
  std::unique_ptr<IncrementalAdvisor> advisor_;
  /// Startup advisor cache: type name → advice (negotiation + verdicts).
  std::map<std::string, LevelAdvice> advice_;

  EventLoop loop_;
  std::thread loop_thread_;
  std::map<int, std::shared_ptr<Session>> sessions_;  // loop thread only
  uint64_t next_session_id_ = 1;                      // loop thread only

  std::vector<std::thread> workers_;
  std::mutex work_mu_;
  std::condition_variable work_cv_;
  std::deque<std::shared_ptr<Session>> work_queue_;
  bool work_stop_ = false;

  std::mutex flush_mu_;
  std::vector<int> flush_fds_;

  std::unique_ptr<MetricsState> metrics_;

  std::atomic<bool> serving_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> draining_{false};
  /// Set once the drain begins; past it the sweep forces the stop
  /// (MonoTime::max() when drain_timeout_us is 0: never forced). Loop
  /// thread only.
  std::optional<MonoTime> drain_deadline_;
  bool started_ = false;
  bool stopped_joined_ = false;
  std::mutex state_mu_;
  std::condition_variable state_cv_;
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace semcor::net

#endif  // SEMCOR_NET_SERVER_H_
