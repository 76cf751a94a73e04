// Network-boundary chaos tests: the client's deterministic backoff schedule,
// the idle deadline over the wire, graceful drain, disconnect cleanup (no
// locks left behind, inflight drains to zero), and the ChaosProxy — seeded
// frame drops/truncation/duplication/splitting between a real client and a
// real server. The acceptance property throughout: the server never hangs
// or crashes, a torn-down session leaves no transaction or lock behind, and
// the workload invariant holds once the dust settles.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/chaos.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

namespace semcor::net {
namespace {

using std::chrono::milliseconds;

// ---------------------------------------------------------------------------
// Client backoff schedule.
// ---------------------------------------------------------------------------

TEST(BackoffTest, DeterministicExponentialWithJitter) {
  ClientOptions opts;
  opts.backoff_base_ms = 2;
  opts.backoff_max_ms = 64;
  opts.backoff_seed = 7;
  Client a(opts), b(opts);

  std::vector<uint32_t> sa, sb;
  for (int i = 0; i < 12; ++i) {
    sa.push_back(a.NextBackoffMs(i, 0));
    sb.push_back(b.NextBackoffMs(i, 0));
  }
  EXPECT_EQ(sa, sb);  // same seed, same schedule — replayable retries
  for (int i = 0; i < 12; ++i) {
    const uint32_t ceiling =
        std::min<uint32_t>(opts.backoff_max_ms, 2u << std::min(i, 16));
    EXPECT_GE(sa[i], ceiling / 2) << i;   // equal-jitter floor
    EXPECT_LE(sa[i], ceiling) << i;       // capped
  }
  // Late attempts sit at the cap's jitter band, early ones far below it.
  EXPECT_LT(sa[0], 3u);
  EXPECT_GE(sa[11], 32u);

  // The server's retry-after hint is a floor, never ignored.
  EXPECT_GE(a.NextBackoffMs(0, 50), 50u);

  ClientOptions other = opts;
  other.backoff_seed = 8;
  Client c(other);
  std::vector<uint32_t> sc;
  for (int i = 0; i < 12; ++i) sc.push_back(c.NextBackoffMs(i, 0));
  EXPECT_NE(sc, sa);  // different seeds decorrelate
}

// ---------------------------------------------------------------------------
// Server deadlines over the wire.
// ---------------------------------------------------------------------------

ServerOptions BankingOptions() {
  ServerOptions options;
  options.workload = "banking";
  options.workers = 2;
  return options;
}

Client MakeClient(uint16_t port) {
  ClientOptions copts;
  copts.port = port;
  copts.recv_timeout_ms = 20000;  // a wedged server fails the test, fast
  return Client(copts);
}

/// Polls the server until no transaction is in flight (all cleanup ran).
bool DrainsInflight(Server& server, int timeout_ms = 5000) {
  for (int i = 0; i < timeout_ms; ++i) {
    if (server.Metrics().inflight == 0) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return false;
}

/// Polls the server until it has closed every session it accepted: the loop
/// thread notices a peer's disconnect asynchronously, and a session that
/// never began a transaction leaves no in-flight count to wait on.
bool ClosesAllSessions(Server& server, int timeout_ms = 5000) {
  for (int i = 0; i < timeout_ms; ++i) {
    const ServerMetricsSnapshot m = server.Metrics();
    if (m.sessions_closed == m.sessions_accepted) return true;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return false;
}

TEST(DeadlineTest, IdleSessionIsReapedWithTimeoutFrame) {
  ServerOptions options = BankingOptions();
  options.idle_timeout_us = 50'000;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server.port());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());

  // Stop sending; the server owes us a TIMEOUT(idle) frame and a close —
  // never a silent hang.
  Frame frame;
  Status s = client.RecvFrame(&frame);
  if (s.ok()) {
    EXPECT_EQ(frame.type, MsgType::kTimeout);
    Result<TimeoutResp> to = TimeoutResp::Decode(frame.payload);
    ASSERT_TRUE(to.ok());
    EXPECT_EQ(to.value().what, static_cast<uint8_t>(TimeoutKind::kIdle));
    // After the frame, EOF.
    EXPECT_FALSE(client.RecvFrame(&frame).ok());
  } else {
    // The reap may close before our read lands; either way no hang.
    EXPECT_EQ(s.code(), Code::kAborted);
  }
  EXPECT_TRUE(DrainsInflight(server));
  EXPECT_GE(server.Metrics().idle_timeouts, 1L);
  server.Stop();
}

/// Parks whichever thread reaches the WAL's pre-sync crash site until
/// Open() (or 10 s, so a failed test cannot wedge the server's workers).
/// The hook never crashes the log.
struct SyncLatch {
  std::mutex mu;
  std::condition_variable cv;
  bool parked = false;
  bool open = false;

  wal::WriteAheadLog::FaultHook Hook() {
    return [this](FaultSite site, TxnId) {
      if (site != FaultSite::kWalPreSync) return false;
      std::unique_lock<std::mutex> lock(mu);
      parked = true;
      cv.notify_all();
      cv.wait_for(lock, std::chrono::seconds(10), [this] { return open; });
      return false;
    };
  }
  bool WaitParked() {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(10),
                       [this] { return parked; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(mu);
    open = true;
    cv.notify_all();
  }
};

TEST(DeadlineTest, DrainFinishesInflightAndRefusesNewWork) {
  // An EXEC held at its commit's fsync is in flight when the drain starts.
  // It must still commit and deliver its answer, while a new EXEC from an
  // already-connected session is refused with kShuttingDown. (New
  // *connections* are refused outright once draining — the listener
  // closes.) The loop then stops on its own.
  ServerOptions options = BankingOptions();
  options.wal_dir = ::testing::TempDir() + "chaos_test_drain_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(options.wal_dir);
  options.drain_timeout_us = 5'000'000;
  SyncLatch latch;  // outlives the server, whose WAL calls its hook
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  server.wal()->SetFaultHook(latch.Hook());
  Client inflight_client = MakeClient(server.port());
  ASSERT_TRUE(inflight_client.Connect().ok());
  ASSERT_TRUE(inflight_client.Hello().ok());
  Client idle_client = MakeClient(server.port());
  ASSERT_TRUE(idle_client.Connect().ok());
  ASSERT_TRUE(idle_client.Hello().ok());

  BeginReq exec;
  exec.txn_type = "Withdraw_sav";
  exec.params = {{"i", 0}, {"w", 1}};
  ASSERT_TRUE(inflight_client.SendFrame(MsgType::kExec, exec.Encode()).ok());
  ASSERT_TRUE(latch.WaitParked()) << "the EXEC never reached its fsync";
  ASSERT_EQ(server.Metrics().inflight, 1);
  server.RequestDrain();

  Result<TxnResult> refused =
      idle_client.RunTxn("Withdraw_sav", kNegotiateLevel, {{"i", 1}, {"w", 1}});
  latch.Open();
  ASSERT_FALSE(refused.ok()) << "EXEC admitted during drain";
  EXPECT_NE(refused.status().ToString().find("draining"), std::string::npos)
      << refused.status().ToString();

  // The in-flight EXEC still gets its whole answer.
  Frame frame;
  ASSERT_TRUE(inflight_client.RecvFrame(&frame).ok());
  ASSERT_EQ(frame.type, MsgType::kBeginOk);
  ASSERT_TRUE(inflight_client.RecvFrame(&frame).ok());
  ASSERT_EQ(frame.type, MsgType::kStepReport);
  Result<StepResp> step = StepResp::Decode(frame.payload);
  ASSERT_TRUE(step.ok());
  EXPECT_EQ(static_cast<StepWire>(step.value().outcome), StepWire::kCommitted)
      << step.value().detail;

  // With nothing left in flight the loop stops on its own.
  server.WaitUntilStopped();
  server.Stop();
  std::filesystem::remove_all(options.wal_dir);
  const ServerMetricsSnapshot m = server.Metrics();
  EXPECT_EQ(m.Committed(), 1);
  EXPECT_GE(m.drain_rejects, 1L);
  EXPECT_TRUE(server.InvariantHolds());
}

// ---------------------------------------------------------------------------
// Disconnect in the middle of an EXEC (the leak regression).
// ---------------------------------------------------------------------------

TEST(DisconnectTest, DisconnectMidExecLeavesNoLocksOrSlotsBehind) {
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  const uint8_t rr = static_cast<uint8_t>(IsoLevel::kRepeatableRead);
  BeginReq exec;
  exec.txn_type = "Withdraw_sav";
  exec.requested_level = rr;
  exec.params = {{"i", 0}, {"w", 1}};
  {
    // Vanish right after sending the EXEC: the server either never runs it
    // or runs it to the end and drops the answer.
    Client client = MakeClient(server.port());
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Hello().ok());
    ASSERT_TRUE(client.SendFrame(MsgType::kExec, exec.Encode()).ok());
    client.Close();
  }
  EXPECT_TRUE(ClosesAllSessions(server));
  EXPECT_TRUE(DrainsInflight(server));

  // A conflicting EXEC on a fresh session commits: nothing holds account 0
  // (stuck locks would park it in the lock manager until its wait gives up).
  Client fresh = MakeClient(server.port());
  ASSERT_TRUE(fresh.Connect().ok());
  ASSERT_TRUE(fresh.Hello().ok());
  Result<TxnResult> run = fresh.RunTxn("Withdraw_ch", rr, {{"i", 0}, {"w", 1}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run.value().committed) << run.value().detail;

  const ServerMetricsSnapshot m = server.Metrics();
  EXPECT_GE(m.Committed(), 1);
  EXPECT_LE(m.Committed(), 2);  // the abandoned EXEC may have run
  EXPECT_EQ(m.Aborted(), 0);
  EXPECT_EQ(m.inflight, 0);
  EXPECT_TRUE(server.InvariantHolds());
  server.Stop();
}

// ---------------------------------------------------------------------------
// ChaosProxy: frame mangling between a live client and server.
// ---------------------------------------------------------------------------

TEST(ChaosProxyTest, SplitFramesReassembleByteByByte) {
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  ChaosOptions copts;
  copts.upstream_port = server.port();
  copts.split_bytes = 3;  // every frame arrives in 3-byte shards
  ChaosProxy proxy(copts);
  ASSERT_TRUE(proxy.Start().ok());

  Client client = MakeClient(proxy.port());
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  for (int i = 0; i < 5; ++i) {
    Result<TxnResult> run = client.RunTxn("Withdraw_sav", kNegotiateLevel,
                                          {{"i", i % 4}, {"w", 1}});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run.value().committed) << run.value().detail;
  }
  EXPECT_GT(proxy.Stats().chunks, 0L);
  proxy.Stop();
  EXPECT_TRUE(DrainsInflight(server));
  EXPECT_TRUE(server.InvariantHolds());
  server.Stop();
}

TEST(ChaosProxyTest, TruncatedFrameTearsDownSessionCleanly) {
  // Satellite: FrameParser + session teardown under a torn frame. The
  // truncate fault forwards half a chunk and drops the connection, so the
  // server's parser is left holding a partial frame at EOF — it must tear
  // the session down (rolling back any transaction) without wedging.
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  ChaosOptions copts;
  copts.upstream_port = server.port();
  copts.seed = 5;
  copts.p_truncate = 1.0;  // second chunk onward: guaranteed torn
  ChaosProxy proxy(copts);
  ASSERT_TRUE(proxy.Start().ok());

  Client client = MakeClient(proxy.port());
  ASSERT_TRUE(client.Connect().ok());
  // Some call fails when its frame is torn mid-flight; which one depends on
  // the seed's first-chunk decision. Either way: no hang, clean teardown.
  Result<HelloResp> hello = client.Hello();
  if (hello.ok()) {
    (void)client.RunTxn("Withdraw_sav", kNegotiateLevel, {{"i", 0}, {"w", 1}});
  }
  client.Close();
  proxy.Stop();

  EXPECT_TRUE(DrainsInflight(server));
  EXPECT_TRUE(ClosesAllSessions(server));
  EXPECT_TRUE(server.InvariantHolds());
  server.Stop();
}

TEST(ChaosProxyTest, SeededFaultSoakNeverWedgesTheServer) {
  // The acceptance soak in miniature: many clients, every chaos knob on.
  // Individual transactions may fail arbitrarily; the server must survive
  // all of it — every torn-down session cleaned up, inflight zero,
  // invariant intact — and still serve a clean client afterwards.
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  ChaosOptions copts;
  copts.upstream_port = server.port();
  copts.seed = 1234;
  copts.p_close = 0.04;
  copts.p_truncate = 0.02;
  copts.p_duplicate = 0.02;
  copts.p_delay = 0.05;
  copts.delay_ms = 2;
  copts.split_bytes = 7;
  ChaosProxy proxy(copts);
  ASSERT_TRUE(proxy.Start().ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 12; ++i) {
        ClientOptions cl;
        cl.port = proxy.port();
        cl.recv_timeout_ms = 10000;
        cl.backoff_seed = static_cast<uint64_t>(t) * 100 + i;
        Client client(cl);
        if (!client.Connect().ok()) continue;
        if (!client.Hello().ok()) continue;
        // Outcomes are whatever chaos makes them; only liveness matters.
        (void)client.RunTxn("Withdraw_sav", kNegotiateLevel,
                            {{"i", (t * 12 + i) % 4}, {"w", 1}});
      }
    });
  }
  for (auto& th : threads) th.join();
  proxy.Stop();

  EXPECT_TRUE(DrainsInflight(server));
  const ChaosStats cs = proxy.Stats();
  EXPECT_GT(cs.connections, 0L);
  EXPECT_GT(cs.closes + cs.truncates + cs.duplicates, 0L);

  // A clean (direct) client still gets normal service.
  Client fresh = MakeClient(server.port());
  ASSERT_TRUE(fresh.Connect().ok());
  ASSERT_TRUE(fresh.Hello().ok());
  Result<TxnResult> run =
      fresh.RunTxn("Withdraw_sav", kNegotiateLevel, {{"i", 0}, {"w", 1}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run.value().committed) << run.value().detail;
  EXPECT_TRUE(server.InvariantHolds());
  server.Stop();
}

}  // namespace
}  // namespace semcor::net
