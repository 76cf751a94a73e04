// Tests for src/net/: wire codec round-trips and hostile-input behaviour,
// the loopback server end to end (negotiation, backpressure, server-side
// lock waits, shutdown), and counter parity between the server and the
// in-process step driver.

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "sync_latch.h"
#include "txn/driver.h"
#include "workload/workload.h"

namespace semcor::net {
namespace {

// ---------------------------------------------------------------------------
// Wire codec.
// ---------------------------------------------------------------------------

TEST(WireTest, HelloRoundTrip) {
  HelloReq req;
  req.version = 7;
  req.client_name = "bench \"quoted\" \n client";
  Result<HelloReq> back = HelloReq::Decode(req.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().version, 7u);
  EXPECT_EQ(back.value().client_name, req.client_name);

  HelloResp resp;
  resp.session_id = 0xDEADBEEFCAFEull;
  resp.workload = "banking";
  Result<HelloResp> rback = HelloResp::Decode(resp.Encode());
  ASSERT_TRUE(rback.ok());
  EXPECT_EQ(rback.value().session_id, resp.session_id);
  EXPECT_EQ(rback.value().workload, "banking");
}

TEST(WireTest, BeginRoundTrip) {
  BeginReq req;
  req.txn_type = "Withdraw_sav";
  req.requested_level = kNegotiateLevel;
  req.params = {{"i", 3}, {"w", -42}};
  Result<BeginReq> back = BeginReq::Decode(req.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().txn_type, "Withdraw_sav");
  EXPECT_EQ(back.value().requested_level, kNegotiateLevel);
  ASSERT_EQ(back.value().params.size(), 2u);
  EXPECT_EQ(back.value().params[1].first, "w");
  EXPECT_EQ(back.value().params[1].second, -42);

  BeginResp resp;
  resp.txn_type = "Withdraw_sav";
  resp.level = 3;
  resp.negotiated = true;
  resp.advisor_correct = true;
  resp.verdict = "lowest correct level = REPEATABLE-READ";
  Result<BeginResp> rback = BeginResp::Decode(resp.Encode());
  ASSERT_TRUE(rback.ok());
  EXPECT_EQ(rback.value().level, 3);
  EXPECT_TRUE(rback.value().negotiated);
  EXPECT_TRUE(rback.value().advisor_correct);
  EXPECT_EQ(rback.value().verdict, resp.verdict);
}

TEST(WireTest, StepAndStatsRoundTrip) {
  StepResp step;
  step.outcome = static_cast<uint8_t>(StepWire::kAborted);
  step.detail = "deadlock";
  Result<StepResp> stback = StepResp::Decode(step.Encode());
  ASSERT_TRUE(stback.ok());
  EXPECT_EQ(stback.value().outcome, step.outcome);
  EXPECT_EQ(stback.value().detail, "deadlock");

  StatsResp stats;
  stats.counters = {{"committed", 12}, {"aborted", -1}};
  stats.gauges = {{"p99_us", 1234.5}, {"uptime_s", 0.25}};
  Result<StatsResp> back = StatsResp::Decode(stats.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().Counter("committed"), 12);
  EXPECT_EQ(back.value().Counter("aborted"), -1);
  EXPECT_EQ(back.value().Counter("missing", -7), -7);
  EXPECT_DOUBLE_EQ(back.value().Gauge("p99_us"), 1234.5);

  ErrorResp err;
  err.code = static_cast<uint16_t>(WireError::kBadVersion);
  err.message = "nope";
  Result<ErrorResp> eback = ErrorResp::Decode(err.Encode());
  ASSERT_TRUE(eback.ok());
  EXPECT_EQ(eback.value().code, static_cast<uint16_t>(WireError::kBadVersion));
}

TEST(WireTest, TruncatedAndTrailingGarbageAreErrors) {
  BeginReq req;
  req.txn_type = "T";
  req.params = {{"k", 1}};
  const std::string good = req.Encode();
  // Every proper prefix must fail to decode (bounds check), never crash.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(BeginReq::Decode(good.substr(0, cut)).ok()) << cut;
  }
  // Trailing garbage means the payload was not fully consumed: an error.
  EXPECT_FALSE(BeginReq::Decode(good + "x").ok());
  EXPECT_FALSE(
      StepResp::Decode(StepResp().Encode() + std::string(1, '\0')).ok());

  // Only terminal outcomes exist; an out-of-range or retired one (0..2 were
  // v3's running/blocked/body-done) is rejected even if structurally valid.
  for (const uint8_t outcome : {0, 1, 2, 250}) {
    StepResp bad;
    bad.outcome = outcome;
    EXPECT_FALSE(StepResp::Decode(bad.Encode()).ok()) << int{outcome};
  }
}

TEST(WireTest, RandomGarbageNeverCrashesDecoders) {
  Rng rng(20260806);
  for (int i = 0; i < 500; ++i) {
    std::string junk;
    const int len = static_cast<int>(rng.Uniform(0, 64));
    for (int j = 0; j < len; ++j) {
      junk.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    // None of these may crash; decode success is allowed but irrelevant.
    (void)HelloReq::Decode(junk);
    (void)HelloResp::Decode(junk);
    (void)BeginReq::Decode(junk);
    (void)BeginResp::Decode(junk);
    (void)StepResp::Decode(junk);
    (void)TimeoutResp::Decode(junk);
    (void)StatsResp::Decode(junk);
    (void)ErrorResp::Decode(junk);
  }
}

TEST(WireTest, SeededRandomFramesRoundTripThroughParser) {
  Rng rng(42);
  std::vector<Frame> sent;
  std::string stream;
  for (int i = 0; i < 100; ++i) {
    Frame f;
    f.type = static_cast<MsgType>(
        rng.Uniform(1, static_cast<int>(MsgType::kExec)));
    const int len = static_cast<int>(rng.Uniform(0, 200));
    for (int j = 0; j < len; ++j) {
      f.payload.push_back(static_cast<char>(rng.Uniform(0, 255)));
    }
    stream += EncodeFrame(f.type, f.payload);
    sent.push_back(std::move(f));
  }
  // Deliver in random-sized chunks; every frame must come back intact.
  FrameParser parser;
  std::vector<Frame> got;
  size_t pos = 0;
  while (pos < stream.size()) {
    const size_t n = std::min<size_t>(
        static_cast<size_t>(rng.Uniform(1, 97)), stream.size() - pos);
    parser.Feed(stream.data() + pos, n);
    pos += n;
    Frame f;
    while (parser.Pop(&f) == FrameParser::PopResult::kFrame) {
      got.push_back(std::move(f));
    }
  }
  ASSERT_EQ(got.size(), sent.size());
  for (size_t i = 0; i < sent.size(); ++i) {
    EXPECT_EQ(got[i].type, sent[i].type) << i;
    EXPECT_EQ(got[i].payload, sent[i].payload) << i;
  }
}

/// v3's BEGIN, STMT, COMMIT and ABORT tags, and BUSY's.
constexpr int kRetiredTags[] = {3, 5, 7, 8, 11};

TEST(WireTest, EveryMsgTypeHasAName) {
  for (int t = 1; t <= static_cast<int>(MsgType::kExec); ++t) {
    const bool retired = std::find(std::begin(kRetiredTags),
                                   std::end(kRetiredTags),
                                   t) != std::end(kRetiredTags);
    EXPECT_EQ(std::string(MsgTypeName(static_cast<MsgType>(t))) == "?",
              retired)
        << t;
  }
  EXPECT_STREQ(MsgTypeName(MsgType::kExec), "EXEC");
}

TEST(WireTest, FrameParserRejectsZeroAndOversizedLengths) {
  {
    FrameParser parser;
    const char zero[4] = {0, 0, 0, 0};
    parser.Feed(zero, 4);
    Frame f;
    EXPECT_EQ(parser.Pop(&f), FrameParser::PopResult::kError);
    EXPECT_FALSE(parser.error().empty());
    // Sticky: feeding valid bytes afterwards cannot resurrect the stream.
    const std::string ok = EncodeFrame(MsgType::kStats, "");
    parser.Feed(ok.data(), ok.size());
    EXPECT_EQ(parser.Pop(&f), FrameParser::PopResult::kError);
  }
  {
    FrameParser parser;
    WireWriter w;
    w.U32(kMaxFrameBytes + 1);
    const std::string hdr = w.Take();
    parser.Feed(hdr.data(), hdr.size());
    Frame f;
    EXPECT_EQ(parser.Pop(&f), FrameParser::PopResult::kError);
  }
}

// ---------------------------------------------------------------------------
// Server: handshake, negotiation, protocol errors.
// ---------------------------------------------------------------------------

ServerOptions BankingOptions() {
  ServerOptions options;
  options.workload = "banking";
  options.workers = 2;
  return options;
}

Client MakeClient(const Server& server) {
  ClientOptions copts;
  copts.port = server.port();
  copts.recv_timeout_ms = 20000;  // a wedged server fails the test, fast
  return Client(copts);
}

/// Banking options whose commits each wait for a WAL fsync (in a fresh
/// directory under the test temp dir, per process). A banking transaction
/// otherwise finishes in a few microseconds, less than a worker takes to
/// wake up, so one worker tends to drain the whole queue alone and EXECs
/// from different sessions rarely overlap. The fsync keeps each EXEC on its
/// worker long enough that every worker is busy at once, so the EXECs that
/// follow start together and run into each other's locks. (A commit
/// releases its locks before it waits for the fsync.)
ServerOptions FsyncingBankingOptions(const std::string& dir_name) {
  ServerOptions options = BankingOptions();
  options.wal_dir =
      ::testing::TempDir() + dir_name + "_" + std::to_string(::getpid());
  std::filesystem::remove_all(options.wal_dir);
  options.wal_fsync = "group";
  return options;
}

TEST(ServerTest, NegotiatesLevelAndCommits) {
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok()) << server.port();
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  Result<HelloResp> hello = client.Hello();
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_EQ(hello.value().workload, "banking");

  Result<TxnResult> run =
      client.RunTxn("Withdraw_sav", kNegotiateLevel, {{"i", 0}, {"w", 1}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run.value().committed) << run.value().detail;
  EXPECT_TRUE(run.value().negotiated);
  EXPECT_TRUE(run.value().advisor_correct);
  // The paper's analysis puts banking withdrawals at REPEATABLE READ.
  EXPECT_EQ(static_cast<IsoLevel>(run.value().level),
            IsoLevel::kRepeatableRead);

  const ServerMetricsSnapshot m = server.Metrics();
  EXPECT_EQ(m.Committed(), 1);
  EXPECT_EQ(m.Aborted(), 0);
  EXPECT_EQ(m.negotiated_begins, 1);
  EXPECT_TRUE(server.InvariantHolds());
  server.Stop();
}

TEST(ServerTest, ExplicitLevelHonoredButFlagged) {
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());

  // READ UNCOMMITTED is below the recommended level: honoured, but the
  // analysis verdict says it is not semantically correct.
  const uint8_t ru = static_cast<uint8_t>(IsoLevel::kReadUncommitted);
  Result<TxnResult> run = client.RunTxn("Withdraw_sav", ru, {{"i", 1}, {"w", 1}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run.value().level, ru);
  EXPECT_FALSE(run.value().negotiated);
  EXPECT_FALSE(run.value().advisor_correct);

  // At or above the recommendation the same request is marked correct.
  const uint8_t ser = static_cast<uint8_t>(IsoLevel::kSerializable);
  run = client.RunTxn("Withdraw_sav", ser, {{"i", 1}, {"w", 1}});
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run.value().advisor_correct);
  server.Stop();
}

TEST(ServerTest, RejectsBadVersionBadStateAndUnknownType) {
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  {
    // Version mismatch: kError(kBadVersion), then the server closes.
    Client client = MakeClient(server);
    ASSERT_TRUE(client.Connect().ok());
    HelloReq req;
    req.version = 99;
    ASSERT_TRUE(client.SendFrame(MsgType::kHello, req.Encode()).ok());
    Frame frame;
    ASSERT_TRUE(client.RecvFrame(&frame).ok());
    ASSERT_EQ(frame.type, MsgType::kError);
    Result<ErrorResp> err = ErrorResp::Decode(frame.payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err.value().code, static_cast<uint16_t>(WireError::kBadVersion));
  }
  {
    // EXEC before HELLO is a state error: a lone kBadState, no transaction
    // started, and the session survives it.
    Client client = MakeClient(server);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.SendFrame(MsgType::kExec, BeginReq().Encode()).ok());
    Frame frame;
    ASSERT_TRUE(client.RecvFrame(&frame).ok());
    ASSERT_EQ(frame.type, MsgType::kError);
    Result<ErrorResp> err = ErrorResp::Decode(frame.payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err.value().code, static_cast<uint16_t>(WireError::kBadState));
    ASSERT_TRUE(client.Hello().ok());
    EXPECT_EQ(server.Metrics().inflight, 0);
  }
  {
    Client client = MakeClient(server);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Hello().ok());
    Result<TxnResult> run = client.RunTxn("NoSuchType", kNegotiateLevel);
    EXPECT_FALSE(run.ok());  // surfaced as a server-error status
  }
  server.Stop();
}

TEST(ServerTest, RetiredSteppingFramesAreBadFrameNotFatal) {
  // v3's BEGIN/STMT/COMMIT/ABORT tags and BUSY's fall into the
  // unexpected-frame path: one kBadFrame each, nothing begun, and the
  // session keeps working.
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  for (const int tag : kRetiredTags) {
    ASSERT_TRUE(client
                    .SendFrame(static_cast<MsgType>(tag),
                               tag == 3 ? BeginReq().Encode() : "")
                    .ok());
    Frame frame;
    ASSERT_TRUE(client.RecvFrame(&frame).ok()) << tag;
    ASSERT_EQ(frame.type, MsgType::kError) << tag;
    Result<ErrorResp> err = ErrorResp::Decode(frame.payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err.value().code, static_cast<uint16_t>(WireError::kBadFrame))
        << tag;
  }
  Result<TxnResult> run =
      client.RunTxn("Deposit_ch", kNegotiateLevel, {{"i", 0}, {"d", 1}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_TRUE(run.value().committed);
  const ServerMetricsSnapshot m = server.Metrics();
  EXPECT_EQ(m.protocol_errors, static_cast<long>(std::size(kRetiredTags)));
  EXPECT_EQ(m.Committed() + m.Aborted(), 1);
  server.Stop();
}

TEST(ServerTest, GarbageFrameGetsErrorAndClose) {
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  // A zero-length frame header destroys framing: expect kError, then EOF.
  ASSERT_TRUE(client.SendRaw(std::string(8, '\0')).ok());
  Frame frame;
  ASSERT_TRUE(client.RecvFrame(&frame).ok());
  EXPECT_EQ(frame.type, MsgType::kError);
  Status eof = client.RecvFrame(&frame);
  EXPECT_FALSE(eof.ok());
  EXPECT_EQ(eof.code(), Code::kAborted);  // connection closed by server
  server.Stop();
}

TEST(ServerTest, UnknownFrameTypeIsReportedNotFatal) {
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  // kHelloOk is a server->client tag; sending it is a protocol error but
  // framing is intact, so the session survives.
  ASSERT_TRUE(client.SendFrame(MsgType::kHelloOk, "").ok());
  Frame frame;
  ASSERT_TRUE(client.RecvFrame(&frame).ok());
  EXPECT_EQ(frame.type, MsgType::kError);
  Result<StatsResp> stats = client.Stats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  server.Stop();
}

// ---------------------------------------------------------------------------
// Pipelined backpressure.
// ---------------------------------------------------------------------------

TEST(ServerTest, PipelinedFloodIsAnsweredFrameForFrame) {
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());

  // Fire a burst of STATS requests, more than a session queues, without
  // reading responses. Every frame must be served and the session must stay
  // usable; no response may be dropped and nothing may hang.
  constexpr size_t kBurst = 4 * kMaxPendingFrames;
  std::string burst;
  for (size_t i = 0; i < kBurst; ++i) {
    burst += EncodeFrame(MsgType::kStats, "");
  }
  ASSERT_TRUE(client.SendRaw(burst).ok());
  for (size_t i = 0; i < kBurst; ++i) {
    Frame frame;
    ASSERT_TRUE(client.RecvFrame(&frame).ok()) << "response " << i;
    EXPECT_EQ(frame.type, MsgType::kStatsOk) << MsgTypeName(frame.type);
  }
  Result<StatsResp> after = client.Stats();
  ASSERT_TRUE(after.ok());  // session still healthy after the flood
  server.Stop();
}

TEST(ServerTest, FullSessionQueueStopsReadingTheSession) {
  // An EXEC waits at its commit's fsync while the client pipelines a flood
  // of STATS frames behind it on the same session. Once kMaxPendingFrames
  // wait for the worker the server must stop reading and parsing the
  // session: the frames of a read past the queue bound stay in the parser
  // while the worker is held. On release every frame gets exactly one
  // STATS_OK, in order.
  ServerOptions options = FsyncingBankingOptions("net_test_pending_bound");
  SyncLatch latch;  // outlives the server, whose WAL calls its hook
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  server.wal()->SetFaultHook(latch.Hook());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  BeginReq exec;
  exec.txn_type = "Deposit_sav";
  exec.params = {{"i", 0}, {"d", 1}};
  ASSERT_TRUE(client.SendFrame(MsgType::kExec, exec.Encode()).ok());
  ASSERT_TRUE(latch.WaitParked()) << "the EXEC never reached its fsync";

  constexpr int kFlood = 2000;
  const std::string stats = EncodeFrame(MsgType::kStats, "");
  std::string flood;
  for (int i = 0; i < kFlood; ++i) flood += stats;
  ASSERT_TRUE(client.SendRaw(flood).ok());  // fits the socket buffers
  // HELLO, the EXEC, and a full queue: reached, and then not passed.
  const long parsed = 2 + static_cast<long>(kMaxPendingFrames);
  int settled_polls = 0;
  for (int i = 1; i <= 1000 && settled_polls < 50; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const long frames_in = server.Metrics().frames_in;
    ASSERT_LE(frames_in, parsed) << "after " << 5 * i << "ms";
    if (frames_in == parsed) ++settled_polls;
  }
  EXPECT_EQ(settled_polls, 50) << "the queue never filled";
  EXPECT_EQ(server.Metrics().inflight, 1);  // the worker is still held
  latch.Open();

  Frame frame;
  ASSERT_TRUE(client.RecvFrame(&frame).ok());
  ASSERT_EQ(frame.type, MsgType::kBeginOk) << MsgTypeName(frame.type);
  ASSERT_TRUE(client.RecvFrame(&frame).ok());
  ASSERT_EQ(frame.type, MsgType::kStepReport) << MsgTypeName(frame.type);
  // One worker serves the session's frames one at a time, so the k-th
  // STATS answer counts HELLO_OK, the EXEC's two frames and the k answers
  // before it.
  for (int k = 0; k < kFlood; ++k) {
    ASSERT_TRUE(client.RecvFrame(&frame).ok()) << "response " << k;
    ASSERT_EQ(frame.type, MsgType::kStatsOk) << MsgTypeName(frame.type);
    Result<StatsResp> st = StatsResp::Decode(frame.payload);
    ASSERT_TRUE(st.ok());
    ASSERT_EQ(st.value().Counter("frames_out"), 3 + k) << "response " << k;
  }
  EXPECT_EQ(server.Metrics().frames_in, 2 + kFlood);
  server.Stop();
  std::filesystem::remove_all(options.wal_dir);
}

TEST(ServerTest, NonReadingClientCannotGrowServerMemory) {
  // A client pipelines STATS frames and never reads. Every answer waits in
  // the outbox, so unless the server stops reading the session, the outbox
  // grows as fast as the workers can answer. Once the outbox is over its
  // bound the server must stop reading, so the client's sends stall once
  // the socket buffers between the two fill up. Reading then drains
  // everything, and every frame sent is served.
  ServerOptions options = BankingOptions();
  options.workers = 1;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  const int small = 4096;  // stall soon after the server stops reading
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(server.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);

  const std::string stats = EncodeFrame(MsgType::kStats, "");
  std::string chunk;
  for (int i = 0; i < 1000; ++i) chunk += stats;
  // The server would take well over the time limit to read the cap.
  constexpr size_t kCap = 64u << 20;
  const auto limit = std::chrono::seconds(10);
  const auto stall = std::chrono::seconds(1);
  size_t pushed = 0;
  const auto start = std::chrono::steady_clock::now();
  auto last_progress = start;
  bool stalled = false;
  while (pushed < kCap) {
    const auto now = std::chrono::steady_clock::now();
    if (now - last_progress >= stall) {
      stalled = true;
      break;
    }
    if (now - start >= limit) break;
    const size_t off = pushed % chunk.size();
    const ssize_t n =
        ::send(fd, chunk.data() + off, chunk.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      pushed += static_cast<size_t>(n);
      last_progress = now;
    } else {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK) << errno;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // The stall is the server's doing: it has left frames unread in its
  // socket.
  const long parsed = server.Metrics().frames_in;
  EXPECT_TRUE(stalled) << "pushed " << pushed << " bytes without stalling";
  EXPECT_LT(parsed, static_cast<long>(pushed / stats.size()));

  // Now read. The rest of a frame cut short by the stall goes out as the
  // server frees up; every frame gets exactly one answer.
  std::string tail = stats.substr(pushed % stats.size());
  if (tail.size() == stats.size()) tail.clear();
  const size_t frames = (pushed + tail.size()) / stats.size();
  FrameParser parser;
  size_t served = 0, shed = 0;
  // Bytes of the answers to the first `parsed` frames: everything the
  // server had produced for this client when its sends stalled, wherever it
  // waited (outbox, the server's kernel send buffer, or this socket's
  // small receive buffer).
  size_t held = 0;
  char buf[65536];
  while (served + shed < frames) {
    pollfd p{fd, static_cast<short>(POLLIN | (tail.empty() ? 0 : POLLOUT)),
             0};
    ASSERT_GT(::poll(&p, 1, 20000), 0) << served + shed << "/" << frames;
    if ((p.revents & POLLOUT) != 0) {
      const ssize_t n = ::send(fd, tail.data(), tail.size(), MSG_NOSIGNAL);
      if (n > 0) tail.erase(0, static_cast<size_t>(n));
    }
    if ((p.revents & POLLIN) == 0) continue;
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EAGAIN) continue;
    ASSERT_GT(n, 0) << served + shed << "/" << frames;
    parser.Feed(buf, static_cast<size_t>(n));
    Frame frame;
    while (parser.Pop(&frame) == FrameParser::PopResult::kFrame) {
      if (served + shed < static_cast<size_t>(parsed)) {
        held += EncodeFrame(frame.type, frame.payload).size();
      }
      if (frame.type == MsgType::kStatsOk) {
        served++;
      } else {
        shed++;
      }
    }
  }
  EXPECT_EQ(served, frames);
  EXPECT_EQ(shed, 0u);
  EXPECT_EQ(server.Metrics().frames_in, static_cast<long>(frames));
  // The outbox bound plus the kernel's share: the accepted socket's send
  // buffer is capped (Linux accounts twice the configured value), so it no
  // longer autotunes to megabytes.
  std::printf("answers held when the client stalled: %zu bytes (%ld frames)\n",
              held, parsed);
  EXPECT_LE(held, kMaxOutboxBytes + 2 * size_t{kSessionSendBufferBytes});
  ::close(fd);
  server.Stop();
}

/// Counts this process's open file descriptors.
size_t OpenFds() {
  size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

TEST(ServerTest, FailedStartClosesItsListener) {
  // Start fails at bind: another server holds the port. The listening
  // socket it had already opened must be closed, by Start itself, since
  // Stop() does nothing for a server that never started.
  Server holder(BankingOptions());
  ASSERT_TRUE(holder.Start().ok());
  ServerOptions options = BankingOptions();
  options.port = holder.port();
  const size_t before = OpenFds();
  for (int i = 0; i < 5; ++i) {
    Server server(options);
    EXPECT_FALSE(server.Start().ok());
  }
  EXPECT_EQ(OpenFds(), before);
  holder.Stop();
}

TEST(ServerTest, FailedBindNeverTouchesTheWalDirectory) {
  // Start binds before it opens the WAL: a second server started on a taken
  // port must fail without recovering, re-checkpointing or even creating a
  // log, or a mistyped restart would atomically replace the log of the
  // live server holding that port.
  Server holder(BankingOptions());
  ASSERT_TRUE(holder.Start().ok());
  ServerOptions options = FsyncingBankingOptions("net_test_taken_port");
  options.port = holder.port();
  Server server(options);
  EXPECT_FALSE(server.Start().ok());
  EXPECT_FALSE(std::filesystem::exists(options.wal_dir + "/wal.log"));
  std::filesystem::remove_all(options.wal_dir);
  holder.Stop();
}

// ---------------------------------------------------------------------------
// EXEC: BEGIN, body and COMMIT in one round trip.
// ---------------------------------------------------------------------------

std::string ExecPayload(const std::string& type, uint8_t level,
                        std::vector<std::pair<std::string, int64_t>> params) {
  BeginReq req;
  req.txn_type = type;
  req.requested_level = level;
  req.params = std::move(params);
  return req.Encode();
}

/// Reads one complete EXEC answer: BEGIN_OK plus the frame behind it, or the
/// lone frame of a transaction that never started.
std::vector<Frame> RecvExecAnswer(Client& client) {
  std::vector<Frame> frames(1);
  EXPECT_TRUE(client.RecvFrame(&frames[0]).ok());
  if (frames[0].type == MsgType::kBeginOk) {
    frames.emplace_back();
    EXPECT_TRUE(client.RecvFrame(&frames[1]).ok());
  }
  return frames;
}

StepWire StepOutcomeOf(const Frame& frame) {
  EXPECT_EQ(frame.type, MsgType::kStepReport) << MsgTypeName(frame.type);
  Result<StepResp> step = StepResp::Decode(frame.payload);
  EXPECT_TRUE(step.ok());
  return step.ok() ? static_cast<StepWire>(step.value().outcome)
                   : StepWire::kAborted;
}

uint16_t ErrorCodeOf(const Frame& frame) {
  EXPECT_EQ(frame.type, MsgType::kError) << MsgTypeName(frame.type);
  Result<ErrorResp> err = ErrorResp::Decode(frame.payload);
  EXPECT_TRUE(err.ok());
  return err.ok() ? err.value().code : 0;
}

/// A STATS round trip whose answer must be the very next frame, proving
/// nothing else (a stray BEGIN_OK or report) was queued ahead of it.
void ExpectNothingPending(Client& client) {
  ASSERT_TRUE(client.SendFrame(MsgType::kStats, "").ok());
  Frame frame;
  ASSERT_TRUE(client.RecvFrame(&frame).ok());
  EXPECT_EQ(frame.type, MsgType::kStatsOk) << MsgTypeName(frame.type);
}

TEST(ExecTest, CommitsWithOneFrameInPerTransaction) {
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());

  // The answer to one EXEC is exactly BEGIN_OK then a committed report.
  ASSERT_TRUE(client
                  .SendFrame(MsgType::kExec,
                             ExecPayload("Deposit_sav", kNegotiateLevel,
                                         {{"i", 0}, {"d", 1}}))
                  .ok());
  const std::vector<Frame> answer = RecvExecAnswer(client);
  ASSERT_EQ(answer.size(), 2u);
  Result<BeginResp> begin = BeginResp::Decode(answer[0].payload);
  ASSERT_TRUE(begin.ok());
  EXPECT_EQ(begin.value().txn_type, "Deposit_sav");
  EXPECT_TRUE(begin.value().negotiated);
  EXPECT_EQ(StepOutcomeOf(answer[1]), StepWire::kCommitted);

  // RunTxn costs one inbound frame per transaction: the STATS delta is the
  // transactions plus the second STATS request itself.
  Result<StatsResp> before = client.Stats();
  ASSERT_TRUE(before.ok());
  constexpr int kTxns = 6;
  for (int i = 0; i < kTxns; ++i) {
    Result<TxnResult> run = client.RunTxn("Withdraw_sav", kNegotiateLevel,
                                          {{"i", i % 4}, {"w", 1}});
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    EXPECT_TRUE(run.value().committed) << run.value().detail;
  }
  Result<StatsResp> after = client.Stats();
  ASSERT_TRUE(after.ok());
  const StatsResp& a = after.value();
  const StatsResp& b = before.value();
  EXPECT_EQ(a.Counter("frames_in") - b.Counter("frames_in"), kTxns + 1);
  EXPECT_EQ(a.Counter("committed") - b.Counter("committed"), kTxns);
  // Outbound: the first STATS answer plus two frames per EXEC.
  EXPECT_EQ(a.Counter("frames_out") - b.Counter("frames_out"), 2 * kTxns + 1);
  EXPECT_EQ(server.Metrics().inflight, 0);
  EXPECT_TRUE(server.InvariantHolds());
  server.Stop();
}

TEST(ExecTest, UnknownTypeIsBadRequestAndLeaksNoSlot) {
  // An EXEC that does not bind to a type's signature (unknown type; a
  // parameter missing, unknown, sent twice or out of range for a boolean)
  // gets exactly one ERROR(kBadRequest) naming what is wrong. It leaves
  // nothing in flight, and the session goes on to commit its next
  // transaction.
  using WireParams = std::vector<std::pair<std::string, int64_t>>;
  struct BadExec {
    std::string type;
    WireParams params;
    std::string named;  ///< must appear in the error message
  };
  const WireParams new_order = {{"d", 0},        {"c", 0},   {"item", 0},
                                {"supply_w", 0}, {"qty", 1}};
  auto with_rollback = [&](int64_t flag) {
    WireParams params = new_order;
    params.emplace_back("rollback", flag);
    return params;
  };
  const struct {
    std::string workload;
    std::vector<BadExec> bad;
    std::string good_type;
    WireParams good_params;
  } servers[] = {
      {"banking",
       {{"NoSuchType", {}, "'NoSuchType'"},
        {"Withdraw_sav", {{"w", 1}}, "missing parameter 'i'"},
        {"Withdraw_sav", {{"i", 0}, {"w", 1}, {"zz", 1}}, "'zz'"},
        {"Withdraw_sav",
         {{"i", 0}, {"w", 1}, {"i", 1}},
         "duplicated parameter 'i'"}},
       "Deposit_ch",
       {{"i", 0}, {"d", 1}}},
      {"tpcc",
       {{"TNewOrder", with_rollback(2), "parameter 'rollback'"},
        {"TNewOrder", new_order, "missing parameter 'rollback'"}},
       "TPayment",
       {}},
  };
  for (const auto& config : servers) {
    SCOPED_TRACE(config.workload);
    ServerOptions options;
    options.workload = config.workload;
    options.workers = 2;
    Server server(options);
    ASSERT_TRUE(server.Start().ok());
    Client client = MakeClient(server);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.Hello().ok());
    for (const BadExec& exec : config.bad) {
      SCOPED_TRACE(exec.named);
      ASSERT_TRUE(client
                      .SendFrame(MsgType::kExec,
                                 ExecPayload(exec.type, kNegotiateLevel,
                                             exec.params))
                      .ok());
      const std::vector<Frame> answer = RecvExecAnswer(client);
      ASSERT_EQ(answer.size(), 1u);
      EXPECT_EQ(ErrorCodeOf(answer[0]),
                static_cast<uint16_t>(WireError::kBadRequest));
      Result<ErrorResp> err = ErrorResp::Decode(answer[0].payload);
      ASSERT_TRUE(err.ok());
      EXPECT_NE(err.value().message.find(exec.named), std::string::npos)
          << err.value().message;
      ExpectNothingPending(client);
      EXPECT_EQ(server.Metrics().inflight, 0);

      Result<TxnResult> bad = client.RunTxn(exec.type, kNegotiateLevel,
                                            exec.params);
      EXPECT_FALSE(bad.ok());  // surfaced as a server-error status
      Result<TxnResult> good = client.RunTxn(
          config.good_type, kNegotiateLevel, config.good_params);
      ASSERT_TRUE(good.ok()) << good.status().ToString();
      EXPECT_TRUE(good.value().committed) << good.value().detail;
      EXPECT_EQ(server.Metrics().inflight, 0);
    }
    if (config.workload == "tpcc") {
      // The wire's rollback=1 binds to the boolean and rolls the order back.
      Result<TxnResult> rolled_back =
          client.RunTxn("TNewOrder", kNegotiateLevel, with_rollback(1));
      ASSERT_TRUE(rolled_back.ok()) << rolled_back.status().ToString();
      EXPECT_FALSE(rolled_back.value().committed);
      EXPECT_NE(rolled_back.value().detail.find("explicit abort"),
                std::string::npos)
          << rolled_back.value().detail;
      EXPECT_EQ(server.Metrics().inflight, 0);
    }
    server.Stop();
  }
}

TEST(ExecTest, ConflictingExecsWaitServerSide) {
  // Every session hammers account 0 with the four banking types at
  // REPEATABLE READ, pipelining a few EXECs per write, and each commit
  // waits for an fsync that keeps its worker busy, so the EXECs overlap
  // constantly: each withdrawal S-locks both balances and then upgrades
  // one, the classic upgrade deadlock. The server waits out each conflict
  // in the lock manager and the wait-for graph picks the deadlock victims.
  // Every EXEC is answered, nothing is re-sent, and each abort a client
  // sees is one deadlock the lock manager detected.
  ServerOptions options = FsyncingBankingOptions("net_test_conflicts");
  options.workers = 4;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  constexpr int kSessions = 6;
  constexpr int kBatches = 50;
  constexpr int kPipeline = 4;  // within the default session queue limit
  const uint8_t rr = static_cast<uint8_t>(IsoLevel::kRepeatableRead);
  const std::string kTypes[] = {"Withdraw_sav", "Withdraw_ch", "Deposit_sav",
                                "Deposit_ch"};
  ClientOptions copts;
  copts.port = server.port();
  copts.recv_timeout_ms = 10000;
  std::vector<std::unique_ptr<Client>> clients;
  for (int t = 0; t < kSessions; ++t) {
    clients.push_back(std::make_unique<Client>(copts));
    ASSERT_TRUE(clients.back()->Connect().ok());
    ASSERT_TRUE(clients.back()->Hello().ok());
  }
  Client control(copts);
  ASSERT_TRUE(control.Connect().ok());
  ASSERT_TRUE(control.Hello().ok());
  Result<StatsResp> before = control.Stats();
  ASSERT_TRUE(before.ok());

  std::atomic<long> committed{0};
  std::atomic<long> aborted{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < kSessions; ++t) {
    pool.emplace_back([&, t] {
      Client& client = *clients[static_cast<size_t>(t)];
      for (int batch = 0; batch < kBatches; ++batch) {
        std::string frames;
        for (int k = 0; k < kPipeline; ++k) {
          const std::string& type = kTypes[(t + batch + k) % 4];
          const std::string amount = type.starts_with("Withdraw") ? "w" : "d";
          frames += EncodeFrame(MsgType::kExec,
                                ExecPayload(type, rr, {{"i", 0}, {amount, 1}}));
        }
        ASSERT_TRUE(client.SendRaw(frames).ok());
        for (int k = 0; k < kPipeline; ++k) {
          const std::vector<Frame> answer = RecvExecAnswer(client);
          ASSERT_EQ(answer.size(), 2u) << MsgTypeName(answer[0].type);
          (StepOutcomeOf(answer[1]) == StepWire::kCommitted ? committed
                                                            : aborted)++;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  Result<StatsResp> after = control.Stats();
  ASSERT_TRUE(after.ok());
  const StatsResp& a = after.value();
  const StatsResp& b = before.value();

  constexpr long kExecs = kSessions * kBatches * kPipeline;
  EXPECT_EQ(committed + aborted, kExecs);
  // One inbound frame per EXEC (plus this STATS request): no re-sends.
  EXPECT_EQ(a.Counter("frames_in") - b.Counter("frames_in"), kExecs + 1);
  EXPECT_EQ(a.Counter("committed") - b.Counter("committed"), committed.load());
  EXPECT_EQ(a.Counter("aborted") - b.Counter("aborted"), aborted.load());
  EXPECT_EQ(a.Counter("deadlocks"), a.Counter("lock.deadlocks"));
  EXPECT_EQ(a.Counter("deadlocks"), aborted.load());
  EXPECT_GT(a.Counter("lock.blocks"), 0);  // the EXECs did wait on each other
  EXPECT_EQ(server.Metrics().inflight, 0);
  EXPECT_TRUE(server.InvariantHolds());
  server.Stop();
  std::filesystem::remove_all(options.wal_dir);
}

TEST(ExecTest, TwoPipelinedExecsGetTwoCompleteAnswers) {
  // What a duplicated chunk does to an EXEC: the second copy is a second
  // transaction, served in order once the first has settled.
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  const std::string exec = EncodeFrame(
      MsgType::kExec,
      ExecPayload("Deposit_ch", kNegotiateLevel, {{"i", 2}, {"d", 3}}));
  ASSERT_TRUE(client.SendRaw(exec + exec).ok());
  for (int i = 0; i < 2; ++i) {
    const std::vector<Frame> answer = RecvExecAnswer(client);
    ASSERT_EQ(answer.size(), 2u) << i;
    EXPECT_EQ(StepOutcomeOf(answer[1]), StepWire::kCommitted) << i;
  }
  ExpectNothingPending(client);
  const ServerMetricsSnapshot m = server.Metrics();
  EXPECT_EQ(m.Committed(), 2);
  EXPECT_EQ(m.inflight, 0);
  EXPECT_TRUE(server.InvariantHolds());
  server.Stop();
}

TEST(ExecTest, StatsLatencyGaugesComeFromOneBoundedHistogram) {
  // Committed EXECs feed the server's latency histograms: STATS reports
  // ordered, positive percentiles, a per-type gauge for exactly the types
  // that committed (not for a TPC-C NewOrder that began and rolled itself
  // back), and the global histogram counts every commit.
  ServerOptions options;
  options.workload = "tpcc";
  options.workers = 2;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  Result<TxnResult> rolled_back = client.RunTxn(
      "TNewOrder", kNegotiateLevel,
      {{"d", 0}, {"c", 0}, {"item", 0}, {"supply_w", 0}, {"qty", 1},
       {"rollback", 1}});
  ASSERT_TRUE(rolled_back.ok()) << rolled_back.status().ToString();
  ASSERT_FALSE(rolled_back.value().committed);
  constexpr int kTxns = 40;
  std::set<std::string> committed_types;
  for (int i = 0; i < kTxns; ++i) {
    // Empty params: the server draws them (a drawn TPayment or TOrderStatus
    // never rolls back).
    Result<TxnResult> run = client.RunTxn(
        i % 2 == 0 ? "TPayment" : "TOrderStatus", kNegotiateLevel);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
    if (run.value().committed) committed_types.insert(run.value().txn_type);
  }
  ASSERT_FALSE(committed_types.empty());

  Result<StatsResp> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  const StatsResp& st = stats.value();
  const double p50 = st.Gauge("p50_us");
  EXPECT_GT(p50, 0);
  EXPECT_LE(p50, st.Gauge("p95_us"));
  EXPECT_LE(st.Gauge("p95_us"), st.Gauge("p99_us"));
  std::set<std::string> gauge_types;
  const std::string prefix = "type.";
  const std::string suffix = ".p50_us";
  for (const auto& [name, value] : st.gauges) {
    if (!name.starts_with(prefix) || !name.ends_with(suffix)) continue;
    gauge_types.insert(name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size()));
    EXPECT_GT(value, 0) << name;
  }
  EXPECT_EQ(gauge_types, committed_types);
  EXPECT_EQ(st.Counter("type.TNewOrder.begin"), 1);

  const ServerMetricsSnapshot m = server.Metrics();
  EXPECT_EQ(m.Aborted(), 1);
  EXPECT_EQ(m.latency_ns.Count(), static_cast<uint64_t>(m.Committed()));
  EXPECT_EQ(st.Counter("committed"), m.Committed());
  server.Stop();
}

// ---------------------------------------------------------------------------
// Loopback smoke: concurrent mixed-level load, tallies equal server stats.
// ---------------------------------------------------------------------------

struct SmokeTally {
  std::array<long, kIsoLevelCount> commits{};
  std::array<long, kIsoLevelCount> aborts{};
};

void RunSmoke(const std::string& workload, int threads, int txns_per_thread,
              SmokeTally* total) {
  ServerOptions options;
  options.workload = workload;
  options.workers = 3;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  std::mutex mu;
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ClientOptions copts;
      copts.port = server.port();
      Client client(copts);
      if (!client.Connect().ok() || !client.Hello().ok()) {
        failures++;
        return;
      }
      SmokeTally local;
      for (int i = 0; i < txns_per_thread; ++i) {
        // Empty type: the server draws from its mix, then negotiates the
        // lowest statically-correct level for the drawn type.
        Result<TxnResult> run = client.RunTxn("", kNegotiateLevel);
        if (!run.ok()) {
          failures++;
          return;
        }
        const TxnResult& r = run.value();
        EXPECT_TRUE(r.negotiated);
        EXPECT_TRUE(r.advisor_correct);
        if (r.committed) {
          local.commits[r.level]++;
        } else {
          local.aborts[r.level]++;
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      for (int i = 0; i < kIsoLevelCount; ++i) {
        total->commits[i] += local.commits[i];
        total->aborts[i] += local.aborts[i];
      }
    });
  }
  for (std::thread& t : pool) t.join();
  ASSERT_EQ(failures.load(), 0);

  // Quiescent now: the server's counters must equal the client tallies
  // exactly, level by level, and the workload invariant must hold.
  const ServerMetricsSnapshot m = server.Metrics();
  long committed = 0, aborted = 0;
  for (int i = 0; i < kIsoLevelCount; ++i) {
    EXPECT_EQ(m.commits[i], total->commits[i]) << "level " << i;
    EXPECT_EQ(m.aborts[i], total->aborts[i]) << "level " << i;
    committed += total->commits[i];
    aborted += total->aborts[i];
  }
  EXPECT_EQ(m.Committed(), committed);
  EXPECT_EQ(m.Aborted(), aborted);
  EXPECT_EQ(m.Committed() + m.Aborted(),
            static_cast<long>(threads) * txns_per_thread);
  EXPECT_EQ(m.inflight, 0);
  // Each EXEC runs start to finish on one worker: the pool is the bound.
  EXPECT_LE(m.inflight_peak, options.workers);
  EXPECT_TRUE(server.InvariantHolds());

  // The same numbers via the wire: STATS must agree with Metrics().
  Client control = MakeClient(server);
  ASSERT_TRUE(control.Connect().ok());
  ASSERT_TRUE(control.Hello().ok());
  Result<StatsResp> stats = control.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().Counter("committed"), committed);
  EXPECT_EQ(stats.value().Counter("aborted"), aborted);
  EXPECT_EQ(stats.value().Counter("invariant_ok"), 1);
  EXPECT_EQ(stats.value().Counter("injected_faults"), 0);
  server.Stop();
}

TEST(ServerTest, LoopbackSmokeBankingAndOrders) {
  // 4 threads x (30 + 25) = 220 transactions total across two workloads at
  // negotiated levels — banking lands on REPEATABLE READ, orders mixes
  // levels per type (the §6 assignment).
  SmokeTally banking;
  RunSmoke("banking", 4, 30, &banking);
  SmokeTally orders;
  RunSmoke("orders", 4, 25, &orders);
  long total = 0;
  for (int i = 0; i < kIsoLevelCount; ++i) {
    total += banking.commits[i] + banking.aborts[i] + orders.commits[i] +
             orders.aborts[i];
  }
  EXPECT_EQ(total, 4 * 30 + 4 * 25);
}

// ---------------------------------------------------------------------------
// Parity with the in-process stack.
// ---------------------------------------------------------------------------

TEST(ServerTest, SequentialCountersMatchInProcessDriver) {
  // The same seeded sequence of programs through (a) the server over the
  // wire and (b) a fresh in-process ProgramRun stack; every ExecStats-shaped
  // counter must agree.
  const std::vector<std::pair<std::string,
                              std::vector<std::pair<std::string, int64_t>>>>
      script = {
          {"Withdraw_sav", {{"i", 0}, {"w", 3}}},
          {"Deposit_ch", {{"i", 0}, {"d", 2}}},
          {"Withdraw_ch", {{"i", 1}, {"w", 1}}},
          {"Deposit_sav", {{"i", 2}, {"d", 5}}},
          {"Withdraw_sav", {{"i", 2}, {"w", 100}}},  // guard fails, still commits
          {"Withdraw_ch", {{"i", 3}, {"w", 2}}},
      };
  const uint8_t rr = static_cast<uint8_t>(IsoLevel::kRepeatableRead);

  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  for (const auto& [type, params] : script) {
    Result<TxnResult> run = client.RunTxn(type, rr, params);
    ASSERT_TRUE(run.ok()) << run.status().ToString();
  }
  const ServerMetricsSnapshot server_m = server.Metrics();
  server.Stop();

  Workload workload = MakeBankingWorkload();
  Store store;
  LockManager locks;
  TxnManager mgr(&store, &locks);
  ASSERT_TRUE(workload.setup(&store).ok());
  CommitLog log;
  StepDriver driver(&mgr, &log);
  long committed = 0, aborted = 0;
  for (const auto& [type, params] : script) {
    ParamList value_params;
    for (const auto& [key, v] : params) {
      value_params.emplace_back(key, Value::Int(v));
    }
    auto program = workload.Instantiate(type, value_params);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    const int idx = driver.Add(program.value(), IsoLevel::kRepeatableRead);
    while (!driver.run(idx).Done()) driver.Step(idx);
    (driver.run(idx).outcome() == StepOutcome::kCommitted ? committed
                                                          : aborted)++;
  }
  EXPECT_EQ(server_m.Committed(), committed);
  EXPECT_EQ(server_m.Aborted(), aborted);
  EXPECT_EQ(server_m.deadlocks, 0);
  EXPECT_EQ(server_m.fcw_conflicts, 0);
  EXPECT_EQ(driver.deadlock_victims(), 0);
}

// ---------------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------------

/// A loopback listener on an ephemeral port, for tests that script the
/// server's side of the protocol by hand. Returns the fd (-1 on failure).
int RawListener(uint16_t* port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) return -1;
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  if (::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(listener, 1) != 0 ||
      ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) !=
          0) {
    ::close(listener);
    return -1;
  }
  *port = ntohs(addr.sin_port);
  return listener;
}

TEST(ClientTest, CloseDropsPartialFrameBeforeReconnect) {
  // A peer that sends part of a frame header and hangs up leaves bytes in
  // the client's parser. Close() must drop them, so a Connect() on the same
  // Client (to a real server on the same port) parses a clean stream.
  uint16_t port = 0;
  const int listener = RawListener(&port);
  ASSERT_GE(listener, 0);
  std::thread peer([listener] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    // Three bytes of a length header: followed by any real frame they read
    // as a body length far past kMaxFrameBytes.
    const char partial[3] = {5, 0, 0};
    (void)::send(fd, partial, sizeof(partial), MSG_NOSIGNAL);
    ::close(fd);
  });

  ClientOptions copts;
  copts.port = port;
  copts.recv_timeout_ms = 20000;
  Client client(copts);
  ASSERT_TRUE(client.Connect().ok());
  peer.join();
  ::close(listener);
  Frame frame;
  EXPECT_FALSE(client.RecvFrame(&frame).ok());  // EOF mid-header
  client.Close();

  ServerOptions options = BankingOptions();
  options.port = port;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(client.Connect().ok());
  Result<HelloResp> hello = client.Hello();
  EXPECT_TRUE(hello.ok()) << hello.status().ToString();
  server.Stop();
}

// ---------------------------------------------------------------------------
// Shutdown protocol.
// ---------------------------------------------------------------------------

TEST(ServerTest, ClientRequestedShutdownStopsServing) {
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_TRUE(client.Shutdown().ok());
  server.WaitUntilStopped();
  EXPECT_FALSE(server.serving());
  server.Stop();  // join; must be clean and idempotent
  server.Stop();
}

}  // namespace
}  // namespace semcor::net
