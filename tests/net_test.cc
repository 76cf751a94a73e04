// Tests for src/net/: wire codec round-trips and hostile-input behaviour,
// the loopback server end to end (negotiation, backpressure, shutdown), and
// counter parity between the server and the in-process step driver.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
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
  StmtReq stmt;
  stmt.max_steps = 17;
  Result<StmtReq> sback = StmtReq::Decode(stmt.Encode());
  ASSERT_TRUE(sback.ok());
  EXPECT_EQ(sback.value().max_steps, 17u);

  StepResp step;
  step.outcome = static_cast<uint8_t>(StepWire::kBlocked);
  step.steps = 5;
  step.retry_after_ms = 2;
  step.detail = "lock conflict";
  Result<StepResp> stback = StepResp::Decode(step.Encode());
  ASSERT_TRUE(stback.ok());
  EXPECT_EQ(stback.value().outcome, step.outcome);
  EXPECT_EQ(stback.value().retry_after_ms, 2u);

  StatsResp stats;
  stats.counters = {{"committed", 12}, {"aborted", -1}};
  stats.gauges = {{"p99_us", 1234.5}, {"uptime_s", 0.25}};
  Result<StatsResp> back = StatsResp::Decode(stats.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().Counter("committed"), 12);
  EXPECT_EQ(back.value().Counter("aborted"), -1);
  EXPECT_EQ(back.value().Counter("missing", -7), -7);
  EXPECT_DOUBLE_EQ(back.value().Gauge("p99_us"), 1234.5);

  BusyResp busy;
  busy.retry_after_ms = 9;
  busy.reason = "full";
  Result<BusyResp> bback = BusyResp::Decode(busy.Encode());
  ASSERT_TRUE(bback.ok());
  EXPECT_EQ(bback.value().retry_after_ms, 9u);

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
  EXPECT_FALSE(StmtReq::Decode(StmtReq().Encode() + std::string(1, '\0')).ok());

  // An out-of-range step outcome is rejected even if structurally valid.
  StepResp bad;
  bad.outcome = 250;
  EXPECT_FALSE(StepResp::Decode(bad.Encode()).ok());
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
    (void)StmtReq::Decode(junk);
    (void)StepResp::Decode(junk);
    (void)StatsResp::Decode(junk);
    (void)BusyResp::Decode(junk);
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

TEST(WireTest, EveryMsgTypeHasAName) {
  for (int t = 1; t <= static_cast<int>(MsgType::kExec); ++t) {
    EXPECT_STRNE(MsgTypeName(static_cast<MsgType>(t)), "?") << t;
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
    // BEGIN before HELLO is a state error; the session survives it.
    Client client = MakeClient(server);
    ASSERT_TRUE(client.Connect().ok());
    ASSERT_TRUE(client.SendFrame(MsgType::kBegin, BeginReq().Encode()).ok());
    Frame frame;
    ASSERT_TRUE(client.RecvFrame(&frame).ok());
    ASSERT_EQ(frame.type, MsgType::kError);
    Result<ErrorResp> err = ErrorResp::Decode(frame.payload);
    ASSERT_TRUE(err.ok());
    EXPECT_EQ(err.value().code, static_cast<uint16_t>(WireError::kBadState));
    ASSERT_TRUE(client.Hello().ok());  // recovery after the error
  }
  {
    // So is EXEC before HELLO: a lone kBadState, no transaction started.
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
    Result<BeginResult> begin = client.Begin("NoSuchType", kNegotiateLevel);
    EXPECT_FALSE(begin.ok());  // surfaced as a server-error status
  }
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
// Admission control and pipelined backpressure.
// ---------------------------------------------------------------------------

TEST(ServerTest, AdmissionControlReturnsRetryAfterInsteadOfHanging) {
  ServerOptions options = BankingOptions();
  options.max_inflight_txns = 1;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Client holder = MakeClient(server);
  ASSERT_TRUE(holder.Connect().ok());
  ASSERT_TRUE(holder.Hello().ok());
  Result<BeginResult> held =
      holder.Begin("Withdraw_sav", kNegotiateLevel, {{"i", 0}, {"w", 1}});
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(held.value().admitted);

  // Second transaction: must get BUSY with a retry hint, promptly.
  Client blocked = MakeClient(server);
  ASSERT_TRUE(blocked.Connect().ok());
  ASSERT_TRUE(blocked.Hello().ok());
  Result<BeginResult> rejected =
      blocked.Begin("Deposit_sav", kNegotiateLevel, {{"i", 1}, {"d", 1}});
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  EXPECT_FALSE(rejected.value().admitted);
  EXPECT_GT(rejected.value().retry_after_ms, 0u);

  // Finish the holder; the slot frees and the retry is admitted.
  for (;;) {
    Result<StepResp> step = holder.Stmt();
    ASSERT_TRUE(step.ok());
    const StepWire outcome = static_cast<StepWire>(step.value().outcome);
    ASSERT_NE(outcome, StepWire::kAborted);
    if (outcome == StepWire::kBodyDone) break;
  }
  Result<StepResp> committed = holder.Commit();
  ASSERT_TRUE(committed.ok());
  ASSERT_EQ(static_cast<StepWire>(committed.value().outcome),
            StepWire::kCommitted);

  Result<TxnResult> retry =
      blocked.RunTxn("Deposit_sav", kNegotiateLevel, {{"i", 1}, {"d", 1}});
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry.value().committed);

  const ServerMetricsSnapshot m = server.Metrics();
  EXPECT_GE(m.admission_rejected, 1);
  EXPECT_EQ(m.inflight, 0);
  server.Stop();
}

TEST(ServerTest, PipelinedFloodIsAnsweredFrameForFrame) {
  ServerOptions options = BankingOptions();
  options.session_queue_limit = 2;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());

  // Fire a burst of STATS requests without reading responses. Every frame
  // must be answered — served (kStatsOk) or shed (kBusy) — and the session
  // must stay usable; no response may be dropped and nothing may hang.
  constexpr int kBurst = 32;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += EncodeFrame(MsgType::kStats, "");
  ASSERT_TRUE(client.SendRaw(burst).ok());
  int served = 0, shed = 0;
  for (int i = 0; i < kBurst; ++i) {
    Frame frame;
    ASSERT_TRUE(client.RecvFrame(&frame).ok()) << "response " << i;
    if (frame.type == MsgType::kStatsOk) {
      served++;
    } else {
      ASSERT_EQ(frame.type, MsgType::kBusy);
      Result<BusyResp> busy = BusyResp::Decode(frame.payload);
      ASSERT_TRUE(busy.ok());
      EXPECT_GT(busy.value().retry_after_ms, 0u);
      shed++;
    }
  }
  EXPECT_EQ(served + shed, kBurst);
  EXPECT_GT(served, 0);
  Result<StatsResp> after = client.Stats();
  ASSERT_TRUE(after.ok());  // session still healthy after the flood
  server.Stop();
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
/// lone frame of a transaction that was not admitted.
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
    EXPECT_EQ(run.value().busy_retries + run.value().blocked_retries, 0);
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

TEST(ExecTest, OverAdmissionCapGetsLoneBusyThenRetryIsAdmitted) {
  ServerOptions options = BankingOptions();
  options.max_inflight_txns = 1;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());

  Client holder = MakeClient(server);
  ASSERT_TRUE(holder.Connect().ok());
  ASSERT_TRUE(holder.Hello().ok());
  Result<BeginResult> held =
      holder.Begin("Withdraw_sav", kNegotiateLevel, {{"i", 0}, {"w", 1}});
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(held.value().admitted);

  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  const std::string exec =
      ExecPayload("Deposit_sav", kNegotiateLevel, {{"i", 1}, {"d", 1}});
  ASSERT_TRUE(client.SendFrame(MsgType::kExec, exec).ok());
  const std::vector<Frame> answer = RecvExecAnswer(client);
  ASSERT_EQ(answer.size(), 1u);
  ASSERT_EQ(answer[0].type, MsgType::kBusy);
  Result<BusyResp> busy = BusyResp::Decode(answer[0].payload);
  ASSERT_TRUE(busy.ok());
  EXPECT_GT(busy.value().retry_after_ms, 0u);
  ExpectNothingPending(client);  // no BEGIN_OK trails the BUSY
  EXPECT_EQ(server.Metrics().inflight, 1);  // only the holder's slot

  Result<StepResp> aborted = holder.Abort();
  ASSERT_TRUE(aborted.ok());
  EXPECT_EQ(static_cast<StepWire>(aborted.value().outcome), StepWire::kAborted);
  EXPECT_EQ(server.Metrics().inflight, 0);

  // The re-sent EXEC is admitted and commits in the same round trip.
  ASSERT_TRUE(client.SendFrame(MsgType::kExec, exec).ok());
  const std::vector<Frame> retry = RecvExecAnswer(client);
  ASSERT_EQ(retry.size(), 2u);
  EXPECT_EQ(StepOutcomeOf(retry[1]), StepWire::kCommitted);

  const ServerMetricsSnapshot m = server.Metrics();
  EXPECT_EQ(m.admission_rejected, 1);
  EXPECT_EQ(m.inflight, 0);
  EXPECT_EQ(m.Committed(), 1);
  server.Stop();
}

TEST(ExecTest, WhileATransactionIsActiveIsBadStateAndLeavesItAlone) {
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  Result<BeginResult> begin =
      client.Begin("Withdraw_sav", kNegotiateLevel, {{"i", 0}, {"w", 1}});
  ASSERT_TRUE(begin.ok());
  ASSERT_TRUE(begin.value().admitted);
  Result<StepResp> first = client.Stmt(1);
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(static_cast<StepWire>(first.value().outcome), StepWire::kRunning);

  ASSERT_TRUE(client
                  .SendFrame(MsgType::kExec,
                             ExecPayload("Deposit_sav", kNegotiateLevel,
                                         {{"i", 1}, {"d", 1}}))
                  .ok());
  const std::vector<Frame> answer = RecvExecAnswer(client);
  ASSERT_EQ(answer.size(), 1u);
  EXPECT_EQ(ErrorCodeOf(answer[0]),
            static_cast<uint16_t>(WireError::kBadState));
  ExpectNothingPending(client);

  // The live transaction carries on where it was and commits.
  for (;;) {
    Result<StepResp> step = client.Stmt();
    ASSERT_TRUE(step.ok());
    const StepWire outcome = static_cast<StepWire>(step.value().outcome);
    ASSERT_EQ(outcome == StepWire::kRunning || outcome == StepWire::kBodyDone,
              true)
        << StepWireName(outcome);
    if (outcome == StepWire::kBodyDone) break;
  }
  Result<StepResp> commit = client.Commit();
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(static_cast<StepWire>(commit.value().outcome),
            StepWire::kCommitted);

  const ServerMetricsSnapshot m = server.Metrics();
  EXPECT_EQ(m.Committed(), 1);
  EXPECT_EQ(m.Aborted(), 0);
  EXPECT_EQ(m.per_type.count("Deposit_sav"), 0u);  // never begun
  EXPECT_EQ(m.inflight, 0);
  server.Stop();
}

TEST(ExecTest, UnknownTypeIsBadRequestAndLeaksNoSlot) {
  ServerOptions options = BankingOptions();
  options.max_inflight_txns = 1;  // a leaked slot would BUSY the next EXEC
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());

  ASSERT_TRUE(client
                  .SendFrame(MsgType::kExec,
                             ExecPayload("NoSuchType", kNegotiateLevel, {}))
                  .ok());
  const std::vector<Frame> answer = RecvExecAnswer(client);
  ASSERT_EQ(answer.size(), 1u);
  EXPECT_EQ(ErrorCodeOf(answer[0]),
            static_cast<uint16_t>(WireError::kBadRequest));
  ExpectNothingPending(client);
  EXPECT_EQ(server.Metrics().inflight, 0);

  Result<TxnResult> bad = client.RunTxn("NoSuchType", kNegotiateLevel);
  EXPECT_FALSE(bad.ok());  // surfaced as a server-error status
  Result<TxnResult> good =
      client.RunTxn("Deposit_ch", kNegotiateLevel, {{"i", 0}, {"d", 1}});
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_TRUE(good.value().committed);
  EXPECT_EQ(good.value().busy_retries, 0);
  EXPECT_EQ(server.Metrics().inflight, 0);
  server.Stop();
}

TEST(ExecTest, BlockedBehindRrHolderCommitsThroughCommitRetry) {
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  const uint8_t rr = static_cast<uint8_t>(IsoLevel::kRepeatableRead);
  const std::vector<std::pair<std::string, int64_t>> params = {{"i", 0},
                                                               {"d", 1}};

  // The holder writes sav[0] under REPEATABLE READ and stops before COMMIT,
  // so it keeps the exclusive lock.
  Client holder = MakeClient(server);
  ASSERT_TRUE(holder.Connect().ok());
  ASSERT_TRUE(holder.Hello().ok());
  Result<BeginResult> held = holder.Begin("Deposit_sav", rr, params);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(held.value().admitted);
  for (;;) {
    Result<StepResp> step = holder.Stmt();
    ASSERT_TRUE(step.ok());
    const StepWire outcome = static_cast<StepWire>(step.value().outcome);
    ASSERT_EQ(outcome, outcome == StepWire::kBodyDone ? StepWire::kBodyDone
                                                      : StepWire::kRunning);
    if (outcome == StepWire::kBodyDone) break;
  }

  // An EXEC reading sav[0] is admitted, then blocks on the read lock.
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  ASSERT_TRUE(
      client.SendFrame(MsgType::kExec, ExecPayload("Deposit_sav", rr, params))
          .ok());
  const std::vector<Frame> answer = RecvExecAnswer(client);
  ASSERT_EQ(answer.size(), 2u);
  EXPECT_EQ(StepOutcomeOf(answer[1]), StepWire::kBlocked);
  EXPECT_EQ(server.Metrics().inflight, 2);

  Result<StepResp> holder_commit = holder.Commit();
  ASSERT_TRUE(holder_commit.ok());
  EXPECT_EQ(static_cast<StepWire>(holder_commit.value().outcome),
            StepWire::kCommitted);

  // The blocked EXEC finishes through the ordinary COMMIT retry.
  Result<StepResp> commit = client.Commit();
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(static_cast<StepWire>(commit.value().outcome),
            StepWire::kCommitted);

  const ServerMetricsSnapshot m = server.Metrics();
  EXPECT_EQ(m.Committed(), 2);
  EXPECT_GE(m.blocked_retries, 1);
  EXPECT_EQ(m.inflight, 0);
  EXPECT_TRUE(server.InvariantHolds());
  server.Stop();
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
  // that committed (not for one that only began and aborted), and the
  // global histogram counts every commit.
  Server server(BankingOptions());
  ASSERT_TRUE(server.Start().ok());
  Client client = MakeClient(server);
  ASSERT_TRUE(client.Connect().ok());
  ASSERT_TRUE(client.Hello().ok());
  Result<BeginResult> begun =
      client.Begin("Deposit_ch", kNegotiateLevel, {{"i", 0}, {"d", 1}});
  ASSERT_TRUE(begun.ok() && begun.value().admitted);
  ASSERT_TRUE(client.Abort().ok());
  constexpr int kTxns = 40;
  std::set<std::string> committed_types;
  for (int i = 0; i < kTxns; ++i) {
    const bool deposit = i % 2 == 0;
    Result<TxnResult> run = client.RunTxn(
        deposit ? "Deposit_sav" : "Withdraw_ch", kNegotiateLevel,
        {{"i", i % 4}, {deposit ? "d" : "w", 1}});
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
  long busy = 0;
  long blocked = 0;
};

void RunSmoke(const std::string& workload, int threads, int txns_per_thread,
              SmokeTally* total) {
  ServerOptions options;
  options.workload = workload;
  options.workers = 3;
  options.max_inflight_txns = 16;
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
        local.busy += r.busy_retries;
        local.blocked += r.blocked_retries;
      }
      std::lock_guard<std::mutex> lock(mu);
      for (int i = 0; i < kIsoLevelCount; ++i) {
        total->commits[i] += local.commits[i];
        total->aborts[i] += local.aborts[i];
      }
      total->busy += local.busy;
      total->blocked += local.blocked;
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
    EXPECT_EQ(run.value().blocked_retries, 0);  // sequential: no conflicts
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
    std::map<std::string, Value> value_params;
    for (const auto& [key, v] : params) value_params[key] = Value::Int(v);
    auto program = workload.InstantiateWith(type, value_params);
    ASSERT_NE(program, nullptr);
    const int idx = driver.Add(program, IsoLevel::kRepeatableRead);
    while (!driver.run(idx).Done()) driver.Step(idx);
    (driver.run(idx).outcome() == StepOutcome::kCommitted ? committed
                                                          : aborted)++;
  }
  EXPECT_EQ(server_m.Committed(), committed);
  EXPECT_EQ(server_m.Aborted(), aborted);
  EXPECT_EQ(server_m.deadlocks, 0);
  EXPECT_EQ(server_m.fcw_conflicts, 0);
  EXPECT_EQ(server_m.deadlock_victims, driver.deadlock_victims());
  EXPECT_EQ(server_m.blocked_retries, driver.blocked_steps());
}

TEST(ServerTest, DeadlockParityWithStepDriver) {
  // Withdraw_sav(0) and Withdraw_ch(0) at REPEATABLE READ S-lock both
  // balances, then upgrade different ones: a classic upgrade deadlock. The
  // in-process round-robin driver resolves it with one victim; the server's
  // bounded-wait policy must converge to the same counts.
  const std::vector<std::pair<std::string, int64_t>> params = {{"i", 0},
                                                               {"w", 1}};
  const uint8_t rr = static_cast<uint8_t>(IsoLevel::kRepeatableRead);

  // In-process baseline.
  Workload workload = MakeBankingWorkload();
  long driver_committed = 0, driver_aborted = 0;
  long driver_victims;
  {
    Store store;
    LockManager locks;
    TxnManager mgr(&store, &locks);
    ASSERT_TRUE(workload.setup(&store).ok());
    std::map<std::string, Value> value_params = {{"i", Value::Int(0)},
                                                 {"w", Value::Int(1)}};
    StepDriver driver(&mgr);
    driver.Add(workload.InstantiateWith("Withdraw_sav", value_params),
               IsoLevel::kRepeatableRead);
    driver.Add(workload.InstantiateWith("Withdraw_ch", value_params),
               IsoLevel::kRepeatableRead);
    driver.RunRoundRobin();
    for (int i = 0; i < 2; ++i) {
      (driver.run(i).outcome() == StepOutcome::kCommitted ? driver_committed
                                                          : driver_aborted)++;
    }
    driver_victims = driver.deadlock_victims();
    ASSERT_EQ(driver_victims, 1);
  }

  // Server twin: step the two sessions alternately one statement at a time
  // until both are blocked, then hammer session 1 until the bounded-wait
  // policy aborts it, and let session 2 finish.
  ServerOptions options = BankingOptions();
  options.blocked_abort_threshold = 3;
  Server server(options);
  ASSERT_TRUE(server.Start().ok());
  Client c1 = MakeClient(server);
  Client c2 = MakeClient(server);
  ASSERT_TRUE(c1.Connect().ok());
  ASSERT_TRUE(c2.Connect().ok());
  ASSERT_TRUE(c1.Hello().ok());
  ASSERT_TRUE(c2.Hello().ok());
  Result<BeginResult> b1 = c1.Begin("Withdraw_sav", rr, params);
  Result<BeginResult> b2 = c2.Begin("Withdraw_ch", rr, params);
  ASSERT_TRUE(b1.ok() && b1.value().admitted);
  ASSERT_TRUE(b2.ok() && b2.value().admitted);

  // Alternate single statements until both report kBlocked back to back.
  auto step_one = [](Client& c) -> StepWire {
    Result<StepResp> r = c.Stmt(1);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return static_cast<StepWire>(r.value().outcome);
  };
  StepWire s1 = StepWire::kRunning, s2 = StepWire::kRunning;
  for (int i = 0; i < 64; ++i) {
    s1 = step_one(c1);
    s2 = step_one(c2);
    if (s1 == StepWire::kBlocked && s2 == StepWire::kBlocked) break;
  }
  ASSERT_EQ(s1, StepWire::kBlocked);
  ASSERT_EQ(s2, StepWire::kBlocked);

  // Hammer session 1 past the threshold: it becomes the deadlock victim.
  bool aborted = false;
  for (int i = 0; i < 16 && !aborted; ++i) {
    aborted = step_one(c1) == StepWire::kAborted;
  }
  ASSERT_TRUE(aborted);

  // Session 2 is unblocked now and must run to commit.
  for (;;) {
    const StepWire outcome = step_one(c2);
    ASSERT_NE(outcome, StepWire::kAborted);
    if (outcome == StepWire::kBodyDone) break;
  }
  Result<StepResp> commit = c2.Commit();
  ASSERT_TRUE(commit.ok());
  ASSERT_EQ(static_cast<StepWire>(commit.value().outcome),
            StepWire::kCommitted);

  const ServerMetricsSnapshot m = server.Metrics();
  EXPECT_EQ(m.Committed(), driver_committed);
  EXPECT_EQ(m.Aborted(), driver_aborted);
  EXPECT_EQ(m.deadlock_victims, driver_victims);
  EXPECT_EQ(m.deadlocks, driver_victims);
  EXPECT_TRUE(server.InvariantHolds());
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
