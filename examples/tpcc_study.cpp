// semcor_tpcc_study: the E15 mixed-level TPC-C study, over the wire.
//
//   semcor_tpcc_study --warehouses=2 --rate=400 --measure-ms=2000
//
// Runs the scaled TPC-C workload through the full network stack — the same
// net::Server that semcor_serverd wraps, restarted per configuration for a
// clean initial state, driven by net::Client sessions over real loopback
// TCP — under the open-loop load generator of src/load/. One configuration
// per isolation posture:
//
//   ser        every session pinned to SERIALIZABLE (2PL)
//   si         every session pinned to SNAPSHOT (FCW, no skew detection)
//   ssi        every session pinned to SSI (snapshot + dangerous structures)
//   negotiate  each BEGIN takes the server's per-type §5 recommendation
//
// The load is open-loop (pgbench --rate discipline): arrivals fire at the
// target rate regardless of completion speed, latency is measured from the
// *scheduled* arrival so queueing behind a slow posture is not coordinated
// away, and connections exceed load workers so backlog queues rather than
// throttling arrivals. The per-type think times in the workload metadata
// describe the spec's per-terminal pacing; the aggregate target rate here
// plays the role of the terminal population.
//
// Emits BENCH_E15.json with a tpmC-style metric (measured NewOrder commits
// per minute), p50/p95/p99 per transaction type, and per-level abort rates.
// Exit codes: 0 = all configurations ran with the invariant green and the
// advisor-negotiated mix sustained at least the all-SERIALIZABLE goodput,
// 1 = run failure or gate miss, 2 = usage error.

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/cli.h"
#include "common/str_util.h"
#include "load/clock.h"
#include "load/load.h"
#include "net/client.h"
#include "net/server.h"
#include "txn/isolation.h"

namespace {

using namespace semcor;

struct ConfigResult {
  std::string name;
  load::LoadReport report;
  net::StatsResp stats;
  long errors = 0;           ///< client-side transport/protocol failures
  int levels_used = 0;       ///< distinct levels with server-side begins
  bool invariant_ok = false;
  double tpmc = 0;           ///< measured NewOrder commits per minute
};

std::vector<std::string> SplitCsv(const std::string& spec) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= spec.size()) {
    const size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? std::string::npos
                                                    : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Maps a config token to the BEGIN level byte. "negotiate" asks the server
/// to pick per the paper's §5 procedure; everything else pins a level.
bool ConfigLevel(const std::string& name, uint8_t* out) {
  if (name == "negotiate") {
    *out = net::kNegotiateLevel;
    return true;
  }
  IsoLevel level;
  if (!ParseIsoLevel(name, &level)) return false;
  *out = static_cast<uint8_t>(level);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int warehouses = 2;
  int districts = 2;
  int customers = 8;
  int items = 16;
  int rate = 400;
  int load_workers = 4;
  int connections = 16;
  int server_workers = 4;
  int64_t warmup_ms = 200;
  int64_t measure_ms = 2000;
  int64_t drain_ms = 4000;
  uint64_t seed = 1;
  std::string configs_spec = "ser,si,ssi,negotiate";
  std::string report_id = "E15";

  cli::Flags flags("semcor_tpcc_study",
                   "Open-loop TPC-C study over the wire across the isolation "
                   "grid (E15): pinned SERIALIZABLE/SNAPSHOT/SSI vs the "
                   "advisor-negotiated mix.");
  flags.Int("warehouses", &warehouses, "TPC-C warehouses (scale unit)");
  flags.Int("districts", &districts, "districts per warehouse");
  flags.Int("customers", &customers, "customers per warehouse");
  flags.Int("items", &items, "items in the catalog");
  flags.Int("rate", &rate, "open-loop arrival rate, txns/s");
  flags.Int("load-workers", &load_workers, "load generator worker threads");
  flags.Int("connections", &connections,
            "client sessions (should exceed --load-workers)");
  flags.Int("server-workers", &server_workers, "server worker threads");
  flags.I64("warmup-ms", &warmup_ms, "unrecorded warmup window");
  flags.I64("measure-ms", &measure_ms, "recorded measurement window");
  flags.I64("drain-ms", &drain_ms, "backlog grace before arrivals drop");
  flags.U64("seed", &seed, "server-side draw seed");
  flags.Str("configs", &configs_spec,
            "CSV from {ser,si,ssi,negotiate} (also accepts full level names)");
  flags.Str("report-id", &report_id, "writes BENCH_<id>.json");
  if (!flags.Parse(argc, argv)) return 2;
  if (flags.help_requested() || flags.version_requested()) return 0;
  if (warehouses < 2) {
    // One warehouse removes the remote-supply path NewOrder needs for
    // cross-warehouse contention; the study is not TPC-C shaped below 2.
    std::fprintf(stderr, "semcor_tpcc_study: --warehouses must be >= 2\n");
    return 2;
  }

  std::vector<std::string> config_names;
  for (const std::string& name : SplitCsv(configs_spec)) {
    uint8_t level;
    if (!ConfigLevel(name, &level)) {
      std::fprintf(stderr, "semcor_tpcc_study: bad config '%s'\n",
                   name.c_str());
      return 2;
    }
    config_names.push_back(name);
  }
  if (config_names.empty()) {
    std::fprintf(stderr, "semcor_tpcc_study: --configs is empty\n");
    return 2;
  }

  std::vector<ConfigResult> results;
  for (const std::string& config : config_names) {
    uint8_t level = 0;
    ConfigLevel(config, &level);

    net::ServerOptions sopts;
    sopts.workload = "tpcc";
    sopts.tpcc_warehouses = warehouses;
    sopts.tpcc_districts = districts;
    sopts.tpcc_customers = customers;
    sopts.tpcc_items = items;
    sopts.workers = server_workers;
    sopts.seed = seed;
    net::Server server(sopts);
    if (Status s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "semcor_tpcc_study: [%s] server start: %s\n",
                   config.c_str(), s.ToString().c_str());
      return 1;
    }

    net::ClientOptions copts;
    copts.port = server.port();
    std::vector<std::unique_ptr<net::Client>> clients;
    clients.reserve(connections);
    bool connected = true;
    for (int i = 0; i < connections; ++i) {
      auto client = std::make_unique<net::Client>(copts);
      if (Status s = client->Connect(); !s.ok()) {
        std::fprintf(stderr, "semcor_tpcc_study: [%s] connect %d: %s\n",
                     config.c_str(), i, s.ToString().c_str());
        connected = false;
        break;
      }
      if (Result<net::HelloResp> h = client->Hello(); !h.ok()) {
        std::fprintf(stderr, "semcor_tpcc_study: [%s] hello %d: %s\n",
                     config.c_str(), i, h.status().ToString().c_str());
        connected = false;
        break;
      }
      clients.push_back(std::move(client));
    }
    if (!connected) {
      server.Stop();
      return 1;
    }

    load::LoadOptions lopts;
    lopts.target_rate = rate;
    lopts.workers = load_workers;
    lopts.connections = connections;
    lopts.warmup_us = warmup_ms * 1000;
    lopts.measure_us = measure_ms * 1000;
    lopts.max_drain_us = drain_ms * 1000;

    std::mutex err_mu;
    long errors = 0;
    load::RealClock clock;
    // Each connection slot is owned by exactly one load worker, so the
    // non-thread-safe Client behind it is never shared.
    load::LoadGenerator gen(lopts, &clock, [&](int conn, uint64_t) {
      load::OpOutcome out;
      Result<net::TxnResult> run =
          clients[static_cast<size_t>(conn)]->RunTxn("", level);
      if (!run.ok()) {
        // The transport or the protocol failed; it counts as a
        // non-committed outcome so the open loop keeps its schedule.
        std::lock_guard<std::mutex> lock(err_mu);
        ++errors;
        out.type = "error";
        out.busy = true;
        return out;
      }
      const net::TxnResult& r = run.value();
      out.type = r.txn_type;
      out.committed = r.committed;
      out.busy_retries = r.busy_retries;
      return out;
    });
    ConfigResult result;
    result.name = config;
    result.report = gen.Run();
    result.errors = errors;

    // All workers have joined: the server is quiescent, so invariant_ok in
    // STATS is exact and the per-level counters are final.
    net::Client control(copts);
    Status cs = control.Connect();
    Result<net::HelloResp> ch =
        cs.ok() ? control.Hello() : Result<net::HelloResp>(cs);
    Result<net::StatsResp> stats =
        ch.ok() ? control.Stats() : Result<net::StatsResp>(ch.status());
    server.Stop();
    if (!stats.ok()) {
      std::fprintf(stderr, "semcor_tpcc_study: [%s] stats: %s\n",
                   config.c_str(), stats.status().ToString().c_str());
      return 1;
    }
    result.stats = stats.value();
    result.invariant_ok = result.stats.Counter("invariant_ok", -1) == 1;
    for (int i = 0; i < kIsoLevelCount; ++i) {
      IsoLevel l;
      if (!IsoLevelFromIndex(i, &l)) continue;
      if (result.stats.Counter(StrCat("begin.", IsoLevelName(l))) > 0) {
        result.levels_used++;
      }
    }
    const auto no = result.report.per_type.find("TNewOrder");
    if (no != result.report.per_type.end() &&
        result.report.measured_seconds > 0) {
      result.tpmc = static_cast<double>(no->second.committed) /
                    result.report.measured_seconds * 60.0;
    }
    std::printf(
        "[%s] scheduled=%ld measured=%ld committed=%ld aborted=%ld "
        "busy=%ld dropped=%ld errors=%ld tpmC=%.0f p99=%lldus "
        "levels_used=%d invariant=%s\n",
        config.c_str(), result.report.scheduled, result.report.measured,
        result.report.committed, result.report.aborted, result.report.busy,
        result.report.dropped, result.errors, result.tpmc,
        static_cast<long long>(result.report.latency.Percentile(99)),
        result.levels_used, result.invariant_ok ? "ok" : "VIOLATED");
    results.push_back(std::move(result));
  }

  // --- report ---
  bench::Table summary({"config", "committed", "aborted", "busy", "dropped",
                        "tput_tps", "tpmC", "p50_us", "p99_us", "levels",
                        "invariant"});
  bench::Table per_type({"config", "type", "completed", "committed",
                         "aborted", "p50_us", "p95_us", "p99_us"});
  bench::Table per_level({"config", "level", "commits", "aborts",
                          "abort_rate"});
  for (const ConfigResult& r : results) {
    summary.AddRow({r.name, std::to_string(r.report.committed),
                    std::to_string(r.report.aborted),
                    std::to_string(r.report.busy),
                    std::to_string(r.report.dropped),
                    StrCat(static_cast<long>(r.report.throughput())),
                    StrCat(static_cast<long>(r.tpmc)),
                    std::to_string(r.report.latency.Percentile(50)),
                    std::to_string(r.report.latency.Percentile(99)),
                    std::to_string(r.levels_used),
                    r.invariant_ok ? "ok" : "VIOLATED"});
    for (const auto& [type, t] : r.report.per_type) {
      per_type.AddRow({r.name, type, std::to_string(t.completed),
                       std::to_string(t.committed), std::to_string(t.aborted),
                       std::to_string(t.latency.Percentile(50)),
                       std::to_string(t.latency.Percentile(95)),
                       std::to_string(t.latency.Percentile(99))});
    }
    for (int i = 0; i < kIsoLevelCount; ++i) {
      IsoLevel l;
      if (!IsoLevelFromIndex(i, &l)) continue;
      const char* name = IsoLevelName(l);
      const int64_t commits = r.stats.Counter(StrCat("commit.", name));
      const int64_t aborts = r.stats.Counter(StrCat("abort.", name));
      if (commits == 0 && aborts == 0) continue;
      const double rate_pct =
          100.0 * static_cast<double>(aborts) /
          static_cast<double>(commits + aborts);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f%%", rate_pct);
      per_level.AddRow({r.name, name, std::to_string(commits),
                        std::to_string(aborts), buf});
    }
  }
  summary.Print();
  per_type.Print();
  per_level.Print();

  // --- gates ---
  bool ok = true;
  const ConfigResult* ser = nullptr;
  const ConfigResult* negotiated = nullptr;
  for (const ConfigResult& r : results) {
    if (!r.invariant_ok) {
      std::fprintf(stderr,
                   "semcor_tpcc_study: GATE invariant violated under %s\n",
                   r.name.c_str());
      ok = false;
    }
    if (r.name == "ser" || r.name == "serializable") ser = &r;
    if (r.name == "negotiate") negotiated = &r;
  }
  if (ser != nullptr && negotiated != nullptr &&
      negotiated->report.committed < ser->report.committed) {
    std::fprintf(stderr,
                 "semcor_tpcc_study: GATE advisor-negotiated goodput %ld < "
                 "all-SERIALIZABLE %ld\n",
                 negotiated->report.committed, ser->report.committed);
    ok = false;
  }

  bench::JsonReport json(report_id);
  json.Scalar("tool", "semcor_tpcc_study");
  json.Scalar("warehouses", warehouses);
  json.Scalar("districts_per_warehouse", districts);
  json.Scalar("customers_per_warehouse", customers);
  json.Scalar("items", items);
  json.Scalar("target_rate_tps", rate);
  json.Scalar("connections", connections);
  json.Scalar("load_workers", load_workers);
  json.Scalar("server_workers", server_workers);
  json.Scalar("measure_ms", measure_ms);
  for (const ConfigResult& r : results) {
    json.Scalar(StrCat(r.name, ".committed"), r.report.committed);
    json.Scalar(StrCat(r.name, ".aborted"), r.report.aborted);
    json.Scalar(StrCat(r.name, ".busy"), r.report.busy);
    json.Scalar(StrCat(r.name, ".dropped"), r.report.dropped);
    json.Scalar(StrCat(r.name, ".errors"), r.errors);
    json.Scalar(StrCat(r.name, ".throughput_tps"), r.report.throughput());
    json.Scalar(StrCat(r.name, ".tpmC"), r.tpmc);
    json.Scalar(StrCat(r.name, ".p50_us"),
                static_cast<long>(r.report.latency.Percentile(50)));
    json.Scalar(StrCat(r.name, ".p95_us"),
                static_cast<long>(r.report.latency.Percentile(95)));
    json.Scalar(StrCat(r.name, ".p99_us"),
                static_cast<long>(r.report.latency.Percentile(99)));
    json.Scalar(StrCat(r.name, ".levels_used"), r.levels_used);
    json.Scalar(StrCat(r.name, ".invariant_ok"), r.invariant_ok ? 1L : 0L);
    json.Scalar(StrCat(r.name, ".ssi_aborts"),
                r.stats.Counter("ssi_aborts"));
    json.Scalar(StrCat(r.name, ".ssi_false_positive_aborts"),
                r.stats.Counter("ssi_false_positive_aborts"));
    json.Scalar(StrCat(r.name, ".advisor_overridden"),
                r.stats.Counter("advisor_overridden"));
  }
  json.Scalar("gates_ok", ok ? 1L : 0L);
  json.AddTable("summary", summary);
  json.AddTable("per_type", per_type);
  json.AddTable("per_level", per_level);
  if (!json.Write()) return 1;
  return ok ? 0 : 1;
}
