// semcor_chaos: the chaos soak — seeded faults at both I/O boundaries, with
// the oracles checked at the end.
//
//   semcor_chaos --duration-s=30 --threads=4 --seed=42
//
// Two phases, each half the budget:
//
//   net:  a server with an idle deadline serves clients through the
//         ChaosProxy (frame drops, truncation, duplication, delays,
//         byte-splitting). Individual transactions may fail
//         arbitrarily; at the end the server must drain gracefully with
//         nothing in flight, every session closed, and the workload
//         invariant intact.
//
//   disk: a server with a WAL under a seeded disk-fault plan (append EIO,
//         short writes, fsync failures; panic policy) serves direct
//         clients. Every commit the client counts as acked carried a
//         durable fsync; after the run the WAL directory is recovered by a
//         fresh server and must hold at least those acked commits, with
//         the invariant intact over the recovered state.
//
// Writes BENCH_E12.json; exits non-zero if any oracle fails. Every fault is
// a pure function of --seed, so a failing run replays exactly.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/str_util.h"
#include "net/chaos.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"

namespace {

using namespace std::chrono;

struct SoakCounters {
  std::atomic<long> attempted{0};
  std::atomic<long> committed{0};
  std::atomic<long> aborted{0};
  std::atomic<long> conn_errors{0};
};

/// Hammers RunTxn against `port` until the deadline, reconnecting (fresh
/// session, fresh chaos stream) whenever the connection dies under us.
void ClientLoop(uint16_t port, steady_clock::time_point until,
                SoakCounters* out) {
  int txn = 0;
  while (steady_clock::now() < until) {
    semcor::net::ClientOptions copts;
    copts.port = port;
    copts.recv_timeout_ms = 5000;
    semcor::net::Client client(copts);
    if (!client.Connect().ok() || !client.Hello().ok()) {
      out->conn_errors.fetch_add(1);
      std::this_thread::sleep_for(milliseconds(10));
      continue;
    }
    while (steady_clock::now() < until) {
      out->attempted.fetch_add(1);
      semcor::Result<semcor::net::TxnResult> run = client.RunTxn(
          "Withdraw_sav", semcor::net::kNegotiateLevel,
          {{"i", txn++ % 4}, {"w", 1}});
      if (!run.ok()) {
        out->conn_errors.fetch_add(1);
        break;  // connection torn — reconnect
      }
      if (run.value().committed) {
        out->committed.fetch_add(1);
      } else {
        out->aborted.fetch_add(1);
      }
    }
  }
}

int Fail(const char* what) {
  std::fprintf(stderr, "semcor_chaos: ORACLE FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int duration_s = 30;
  int threads = 4;
  uint64_t seed = 42;
  std::string wal_dir = "chaos_wal_dir";
  std::string report_id = "E12";

  semcor::cli::Flags flags(
      "semcor_chaos",
      "Seeded disk + network fault soak against the transaction server; "
      "checks the durability and graceful-degradation oracles.");
  flags.Int("duration-s", &duration_s, "total soak budget, split across phases");
  flags.Int("threads", &threads, "concurrent client threads");
  flags.U64("seed", &seed, "fault-plan seed (replays exactly)");
  flags.Str("wal-dir", &wal_dir, "scratch WAL directory for the disk phase");
  flags.Str("report-id", &report_id, "BENCH_<id>.json report id");
  if (!flags.Parse(argc, argv)) return 2;
  if (flags.help_requested() || flags.version_requested()) return 0;

  semcor::bench::JsonReport json(report_id);
  json.Scalar("seed", static_cast<long>(seed));
  json.Scalar("duration_s", duration_s);
  json.Scalar("threads", threads);
  const auto phase_budget = seconds(duration_s) / 2;
  int failures = 0;

  // ---- Phase 1: network chaos + idle deadline + drain ----
  {
    semcor::net::ServerOptions sopts;
    sopts.workload = "banking";
    sopts.workers = 2;
    sopts.seed = seed;
    sopts.idle_timeout_us = 2'000'000;
    semcor::net::Server server(sopts);
    if (semcor::Status s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "semcor_chaos: net server: %s\n",
                   s.ToString().c_str());
      return 1;
    }
    semcor::net::ChaosOptions copts;
    copts.upstream_port = server.port();
    copts.seed = seed;
    copts.p_close = 0.02;
    copts.p_truncate = 0.01;
    copts.p_duplicate = 0.01;
    copts.p_delay = 0.05;
    copts.delay_ms = 2;
    copts.split_bytes = 16;
    semcor::net::ChaosProxy proxy(copts);
    if (semcor::Status s = proxy.Start(); !s.ok()) {
      std::fprintf(stderr, "semcor_chaos: proxy: %s\n", s.ToString().c_str());
      return 1;
    }

    SoakCounters net;
    const auto until = steady_clock::now() + phase_budget;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(ClientLoop, proxy.port(), until, &net);
    }
    for (auto& th : pool) th.join();
    proxy.Stop();

    // Graceful drain: stop accepting, settle everything in flight, stop.
    server.RequestDrain();
    server.WaitUntilStopped();
    server.Stop();

    const semcor::net::ServerMetricsSnapshot m = server.Metrics();
    const semcor::net::ChaosStats cs = proxy.Stats();
    std::printf(
        "semcor_chaos: net phase: attempted=%ld committed=%ld aborted=%ld "
        "conn_errors=%ld chaos(chunks=%ld closes=%ld truncates=%ld "
        "dups=%ld) idle_timeouts=%ld\n",
        net.attempted.load(), net.committed.load(), net.aborted.load(),
        net.conn_errors.load(), cs.chunks, cs.closes, cs.truncates,
        cs.duplicates, m.idle_timeouts);
    json.Scalar("net_attempted", net.attempted.load());
    json.Scalar("net_committed", net.committed.load());
    json.Scalar("net_conn_errors", net.conn_errors.load());
    json.Scalar("net_chaos_chunks", cs.chunks);
    json.Scalar("net_chaos_closes", cs.closes);
    json.Scalar("net_chaos_truncates", cs.truncates);
    json.Scalar("net_idle_timeouts", m.idle_timeouts);

    if (m.inflight != 0) failures += Fail("net: transactions still in flight");
    if (m.sessions_closed != m.sessions_accepted) {
      failures += Fail("net: leaked sessions");
    }
    if (!server.InvariantHolds()) failures += Fail("net: invariant violated");
    if (net.committed.load() == 0) failures += Fail("net: nothing committed");
    if (cs.closes + cs.truncates + cs.duplicates == 0) {
      failures += Fail("net: chaos injected nothing");
    }
    json.Scalar("net_ok", failures == 0 ? 1L : 0L);
  }

  // ---- Phase 2: disk faults under the panic policy ----
  long acked = 0;
  {
    std::remove((wal_dir + "/wal.log").c_str());
    semcor::net::ServerOptions sopts;
    sopts.workload = "banking";
    sopts.workers = 2;
    sopts.seed = seed;
    sopts.wal_dir = wal_dir;
    sopts.wal_fsync = "group";
    sopts.wal_fsync_failure = "panic";
    // Sync failures only: an append fault would freeze the log within a few
    // transactions and end the phase immediately; sync faults exercise the
    // policy decision on every commit.
    sopts.disk_faults = semcor::StrCat("seed:", seed, ":0:0:0.002");
    semcor::net::Server server(sopts);
    if (semcor::Status s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "semcor_chaos: disk server: %s\n",
                   s.ToString().c_str());
      return 1;
    }

    SoakCounters disk;
    const auto until = steady_clock::now() + phase_budget;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
      pool.emplace_back(ClientLoop, server.port(), until, &disk);
    }
    for (auto& th : pool) th.join();
    server.Stop();
    acked = disk.committed.load();

    const semcor::net::ServerMetricsSnapshot m = server.Metrics();
    std::printf(
        "semcor_chaos: disk phase: attempted=%ld acked=%ld aborted=%ld "
        "acks_refused=%ld wal_failure=%s\n",
        disk.attempted.load(), acked, disk.aborted.load(),
        m.commit_acks_refused, server.WalFailure().ToString().c_str());
    json.Scalar("disk_attempted", disk.attempted.load());
    json.Scalar("disk_acked", acked);
    json.Scalar("disk_acks_refused", m.commit_acks_refused);
    json.Scalar("disk_wal_failure", server.WalFailure().ToString());

    if (acked == 0) failures += Fail("disk: nothing acked");
  }

  // ---- Oracle: recovery of the faulted log holds every acked commit ----
  {
    semcor::net::ServerOptions sopts;
    sopts.workload = "banking";
    sopts.workers = 1;
    sopts.wal_dir = wal_dir;  // no faults this time
    semcor::net::Server server(sopts);
    if (semcor::Status s = server.Start(); !s.ok()) {
      json.Write();
      std::fprintf(stderr, "semcor_chaos: recovery failed: %s\n",
                   s.ToString().c_str());
      return Fail("disk: recovery of the faulted log failed");
    }
    const long recovered =
        static_cast<long>(server.Recovery().recovered_commits);
    const bool invariant_ok = server.InvariantHolds();
    server.Stop();
    std::printf("semcor_chaos: recovery: recovered_commits=%ld acked=%ld "
                "invariant_ok=%d\n",
                recovered, acked, invariant_ok ? 1 : 0);
    json.Scalar("recovered_commits", recovered);
    if (recovered < acked) {
      failures += Fail("disk: recovery lost an acked commit");
    }
    if (!invariant_ok) {
      failures += Fail("disk: invariant violated over recovered state");
    }
  }

  json.Scalar("all_ok", failures == 0 ? 1L : 0L);
  json.Write();
  if (failures == 0) std::printf("semcor_chaos: OK\n");
  return failures == 0 ? 0 : 1;
}
