// semcor_bench_client: closed-loop load generator for semcor_serverd.
//
//   semcor_bench_client --port=7421 --threads=4 --txns=50 --levels=negotiate
//
// Each thread opens one session and runs --txns transactions drawn by the
// server from its workload mix, either negotiating the isolation level
// per the paper's §5 procedure (--levels=negotiate) or pinning one level
// per thread round-robin from a comma-separated list (--levels=ru,rc,rr,si).
// Afterwards it fetches STATS, cross-checks the server's commit/abort/level
// counters against the client-side tallies, and writes BENCH_<id>.json.
// Exit codes: 0 = done and counters consistent, 1 = run failure or counter
// mismatch, 2 = usage error.

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/str_util.h"
#include "net/client.h"
#include "txn/isolation.h"

namespace {

using namespace semcor;
using net::Client;
using net::ClientOptions;
using net::TxnResult;

struct Tally {
  std::array<long, kIsoLevelCount> commits{};
  std::array<long, kIsoLevelCount> aborts{};
  long negotiated = 0;
  long advisor_correct = 0;

  long Committed() const {
    long n = 0;
    for (long c : commits) n += c;
    return n;
  }
  long Aborted() const {
    long n = 0;
    for (long a : aborts) n += a;
    return n;
  }
  void Merge(const Tally& other) {
    for (int i = 0; i < kIsoLevelCount; ++i) {
      commits[i] += other.commits[i];
      aborts[i] += other.aborts[i];
    }
    negotiated += other.negotiated;
    advisor_correct += other.advisor_correct;
  }
};

bool ParseLevelList(const std::string& spec, std::vector<uint8_t>* out) {
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string name =
        spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    IsoLevel level;
    if (!ParseIsoLevel(name, &level)) return false;
    out->push_back(static_cast<uint8_t>(level));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return !out->empty();
}

}  // namespace

int main(int argc, char** argv) {
  std::string host = "127.0.0.1";
  int port = 0;
  int threads = 4;
  int txns = 50;
  std::string levels_spec = "negotiate";
  std::string report_id = "E10";
  bool shutdown_server = false;
  int timeout_ms = 20000;

  cli::Flags flags("semcor_bench_client",
                   "Closed-loop load generator and counter cross-check for "
                   "semcor_serverd.");
  flags.Str("host", &host, "server host");
  flags.Int("port", &port, "server port (required)");
  flags.Int("threads", &threads, "client threads (one session each)");
  flags.Int("txns", &txns, "transactions per thread");
  flags.Str("levels", &levels_spec,
            "'negotiate' or CSV of levels pinned per thread round-robin "
            "(ru,rc,rc_fcw,rr,ser,si)");
  flags.Str("report-id", &report_id, "writes BENCH_<id>.json");
  flags.Bool("shutdown-server", &shutdown_server,
             "send SHUTDOWN after the run (CI convenience)");
  flags.Int("timeout-ms", &timeout_ms, "per-receive timeout");
  if (!flags.Parse(argc, argv)) return 2;
  if (flags.help_requested() || flags.version_requested()) return 0;
  if (port <= 0 || port > 65535) {
    std::fprintf(stderr, "semcor_bench_client: --port is required\n");
    return 2;
  }
  if (threads < 1) threads = 1;
  if (txns < 1) txns = 1;

  std::vector<uint8_t> pinned_levels;
  if (levels_spec != "negotiate" &&
      !ParseLevelList(levels_spec, &pinned_levels)) {
    std::fprintf(stderr, "semcor_bench_client: bad --levels='%s'\n",
                 levels_spec.c_str());
    return 2;
  }

  ClientOptions copts;
  copts.host = host;
  copts.port = static_cast<uint16_t>(port);
  copts.recv_timeout_ms = timeout_ms;

  Tally total;
  std::mutex tally_mu;
  std::vector<std::string> errors;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  const auto start = std::chrono::steady_clock::now();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      Tally local;
      Client client(copts);
      auto fail = [&](const std::string& what, const Status& s) {
        std::lock_guard<std::mutex> lock(tally_mu);
        errors.push_back(StrCat("thread ", t, ": ", what, ": ", s.ToString()));
      };
      if (Status s = client.Connect(); !s.ok()) return fail("connect", s);
      Result<net::HelloResp> hello = client.Hello();
      if (!hello.ok()) return fail("hello", hello.status());
      const uint8_t level =
          pinned_levels.empty()
              ? net::kNegotiateLevel
              : pinned_levels[static_cast<size_t>(t) % pinned_levels.size()];
      for (int i = 0; i < txns; ++i) {
        // Empty type: the server draws from its workload mix.
        Result<TxnResult> run = client.RunTxn("", level);
        if (!run.ok()) return fail(StrCat("txn ", i), run.status());
        const TxnResult& r = run.value();
        if (r.committed) {
          local.commits[r.level]++;
        } else {
          local.aborts[r.level]++;
        }
        if (r.negotiated) local.negotiated++;
        if (r.advisor_correct) local.advisor_correct++;
      }
      std::lock_guard<std::mutex> lock(tally_mu);
      total.Merge(local);
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall =
      std::chrono::duration_cast<std::chrono::duration<double>>(
          std::chrono::steady_clock::now() - start)
          .count();
  if (!errors.empty()) {
    for (const std::string& e : errors) {
      std::fprintf(stderr, "semcor_bench_client: %s\n", e.c_str());
    }
    return 1;
  }

  // Fetch the server's view and cross-check it against the client tallies.
  Client control(copts);
  if (Status s = control.Connect(); !s.ok()) {
    std::fprintf(stderr, "semcor_bench_client: stats connect: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  if (Result<net::HelloResp> h = control.Hello(); !h.ok()) {
    std::fprintf(stderr, "semcor_bench_client: stats hello: %s\n",
                 h.status().ToString().c_str());
    return 1;
  }
  Result<net::StatsResp> stats_result = control.Stats();
  if (!stats_result.ok()) {
    std::fprintf(stderr, "semcor_bench_client: stats: %s\n",
                 stats_result.status().ToString().c_str());
    return 1;
  }
  const net::StatsResp& stats = stats_result.value();

  bool consistent = true;
  auto check = [&consistent](const std::string& what, long client_v,
                             int64_t server_v) {
    if (client_v != server_v) {
      std::fprintf(stderr,
                   "semcor_bench_client: MISMATCH %s: client=%ld server=%lld\n",
                   what.c_str(), client_v,
                   static_cast<long long>(server_v));
      consistent = false;
    }
  };
  check("committed", total.Committed(), stats.Counter("committed"));
  check("aborted", total.Aborted(), stats.Counter("aborted"));
  bench::Table per_level({"level", "commits", "aborts"});
  for (int i = 0; i < kIsoLevelCount; ++i) {
    IsoLevel level;
    if (!IsoLevelFromIndex(i, &level)) continue;
    const char* name = IsoLevelName(level);
    check(StrCat("commit.", name), total.commits[i],
          stats.Counter(StrCat("commit.", name)));
    check(StrCat("abort.", name), total.aborts[i],
          stats.Counter(StrCat("abort.", name)));
    if (total.commits[i] == 0 && total.aborts[i] == 0) continue;
    per_level.AddRow({name, std::to_string(total.commits[i]),
                      std::to_string(total.aborts[i])});
  }
  const int64_t invariant_ok = stats.Counter("invariant_ok", -1);
  if (invariant_ok != 1) {
    std::fprintf(stderr, "semcor_bench_client: server invariant violated\n");
    consistent = false;
  }

  std::printf(
      "bench: %ld committed, %ld aborted in %.2fs (%.0f tps); "
      "negotiated=%ld; server p50=%.0fus p95=%.0fus p99=%.0fus; "
      "counters %s\n",
      total.Committed(), total.Aborted(), wall,
      wall > 0 ? total.Committed() / wall : 0, total.negotiated,
      stats.Gauge("p50_us"), stats.Gauge("p95_us"), stats.Gauge("p99_us"),
      consistent ? "consistent" : "INCONSISTENT");
  per_level.Print();

  bench::JsonReport json(report_id);
  json.Scalar("tool", "semcor_bench_client");
  json.Scalar("levels", levels_spec);
  json.Scalar("threads", threads);
  json.Scalar("txns_per_thread", txns);
  json.Scalar("committed", total.Committed());
  json.Scalar("aborted", total.Aborted());
  json.Scalar("wall_s", wall);
  json.Scalar("throughput_tps", wall > 0 ? total.Committed() / wall : 0.0);
  json.Scalar("negotiated", total.negotiated);
  json.Scalar("p50_us", stats.Gauge("p50_us"));
  json.Scalar("p95_us", stats.Gauge("p95_us"));
  json.Scalar("p99_us", stats.Gauge("p99_us"));
  // At most one EXEC per worker is ever in flight; ci.sh checks it.
  json.Scalar("server_inflight_peak", stats.Counter("inflight_peak"));
  json.Scalar("server_invariant_ok", invariant_ok);
  // Frame accounting: RunTxn sends one EXEC per transaction and never
  // re-sends it, so frames_in is exactly the transactions plus this
  // client's own session frames (a HELLO per thread, the control HELLO and
  // this STATS) — the ci.sh E10 stage gates on it.
  json.Scalar("server_frames_in", stats.Counter("frames_in"));
  json.Scalar("client_session_frames", static_cast<long>(threads) + 2);
  // Durability counters: all zero when the server runs memory-only (the
  // counters are simply absent from STATS and Counter() defaults to 0).
  json.Scalar("server_wal_appends", stats.Counter("wal_appends"));
  json.Scalar("server_fsyncs", stats.Counter("fsyncs"));
  json.Scalar("server_group_commit_batches",
              stats.Counter("group_commit_batches"));
  json.Scalar("server_mean_batch_size", stats.Gauge("group_commit_mean_batch"));
  json.Scalar("server_recovery_replayed_txns",
              stats.Counter("recovery_replayed_txns"));
  json.Scalar("server_recovered_commits", stats.Counter("recovered_commits"));
  json.Scalar("counters_consistent", consistent ? 1L : 0L);
  json.AddTable("per_level", per_level);
  if (!json.Write()) return 1;

  if (shutdown_server) {
    if (Status s = control.Shutdown(); !s.ok()) {
      std::fprintf(stderr, "semcor_bench_client: shutdown: %s\n",
                   s.ToString().c_str());
      return 1;
    }
  }
  return consistent ? 0 : 1;
}
