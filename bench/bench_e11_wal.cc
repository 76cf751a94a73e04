// E11: durability cost — what write-ahead logging and its fsyncs do to
// commit throughput and tail latency.
//
//   bench_e11_wal --threads=4 --txns=150 --level=ser
//
// Runs the banking workload through the closed-loop executor three times:
// no WAL at all, WAL with no fsync (logging cost alone), and group commit
// (each committer's fsync covers every commit appended before it starts).
// Every WAL run logs to a real file device (fdatasync and all), then
// reopens the log directory afterwards and checks that recovery replays
// exactly the transactions the run committed — the bench doubles as an
// end-to-end recovery counter-parity check. Writes BENCH_E11.json.

#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "common/cli.h"
#include "common/str_util.h"
#include "lock/lock_manager.h"
#include "storage/store.h"
#include "txn/executor.h"
#include "txn/txn.h"
#include "wal/wal.h"
#include "workload/workload.h"

namespace {

using namespace semcor;

struct Config {
  const char* name;
  bool use_wal;
  wal::FsyncPolicy policy = wal::FsyncPolicy::kNone;
};

constexpr Config kConfigs[] = {
    {"no_wal", false},
    {"wal_nosync", true, wal::FsyncPolicy::kNone},
    {"group", true, wal::FsyncPolicy::kGroupCommit},
};

struct RunReport {
  ExecStats stats;
  double wall = 0;
  double tps = 0;
  uint64_t recovered = 0;  ///< commits the post-run recovery replayed
  bool recovery_matches = true;
};

bool RunConfig(const Config& cfg, const Workload& workload, IsoLevel level,
               int threads, int txns, uint64_t seed, RunReport* out) {
  Store store;
  LockManager locks;
  TxnManager mgr(&store, &locks);
  if (!workload.setup(&store).ok()) return false;

  const std::string dir = StrCat("e11_wal_", cfg.name);
  std::unique_ptr<wal::WriteAheadLog> log;
  if (cfg.use_wal) {
    std::remove(StrCat(dir, "/wal.log").c_str());  // fresh log per run
    wal::WalOptions wopts;
    wopts.fsync = cfg.policy;
    wal::RecoveryResult rec;
    Result<std::unique_ptr<wal::WriteAheadLog>> opened =
        wal::WriteAheadLog::OpenDir(dir, &store, wopts, &rec);
    if (!opened.ok()) {
      std::fprintf(stderr, "[bench] %s: %s\n", cfg.name,
                   opened.status().ToString().c_str());
      return false;
    }
    log = opened.take();
    mgr.SetWal(log.get());
  }

  std::map<std::string, IsoLevel> assignment;
  for (const auto& [type, unused] : workload.paper_levels) {
    assignment[type] = level;
  }
  CommitLog commit_log;
  ConcurrentExecutor executor(&mgr, threads);
  RetryPolicy retry;
  retry.max_attempts = 4;
  out->stats = executor.Run(
      [&](Rng& rng) { return workload.DrawFromMix(rng, assignment, level); },
      txns, retry, &commit_log, &out->wall, seed, nullptr);
  out->tps = out->wall > 0 ? out->stats.committed / out->wall : 0;

  if (cfg.use_wal) {
    mgr.SetWal(nullptr);
    log->Stop();
    log.reset();
    // Recovery parity: reopening the directory must replay exactly the
    // commits this run performed on top of the startup checkpoint.
    Store recovered;
    wal::RecoveryResult rec;
    Result<std::unique_ptr<wal::WriteAheadLog>> reopened =
        wal::WriteAheadLog::OpenDir(dir, &recovered, wal::WalOptions(), &rec);
    if (!reopened.ok()) {
      std::fprintf(stderr, "[bench] %s reopen: %s\n", cfg.name,
                   reopened.status().ToString().c_str());
      return false;
    }
    reopened.value()->Stop();
    out->stats.recovery_replayed_txns = static_cast<long>(rec.replayed_txns);
    out->recovered = rec.replayed_txns;
    out->recovery_matches =
        rec.replayed_txns == static_cast<uint64_t>(out->stats.committed);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int threads = 4;
  int txns = 150;
  std::string level_name = "ser";
  uint64_t seed = 42;
  cli::Flags flags("bench_e11_wal",
                   "Durability cost: commit throughput and tail latency "
                   "with and without WAL fsyncs.");
  flags.Int("threads", &threads, "executor threads");
  flags.Int("txns", &txns, "transactions per thread");
  flags.Str("level", &level_name, "isolation level for every transaction");
  flags.U64("seed", &seed, "executor seed");
  if (!flags.Parse(argc, argv)) return 2;
  if (flags.help_requested() || flags.version_requested()) return 0;
  IsoLevel level;
  if (!ParseIsoLevel(level_name, &level)) {
    std::fprintf(stderr, "bench_e11_wal: bad --level=%s\n", level_name.c_str());
    return 2;
  }

  bench::Banner("E11: WAL fsync policies (banking, closed loop)");
  const Workload workload = MakeBankingWorkload();
  bench::Table table({"config", "committed", "tps", "p50 (us)", "p99 (us)",
                      "wal appends", "fsyncs", "gc batches", "mean batch",
                      "recovered"});
  bench::JsonReport json("E11");
  json.Scalar("tool", "bench_e11_wal");
  json.Scalar("threads", threads);
  json.Scalar("txns_per_thread", txns);
  json.Scalar("level", IsoLevelName(level));

  bool all_ok = true;
  double baseline_tps = 0;
  std::map<std::string, double> tps_by_config;
  for (const Config& cfg : kConfigs) {
    RunReport report;
    if (!RunConfig(cfg, workload, level, threads, txns, seed, &report)) {
      all_ok = false;
      continue;
    }
    if (!report.recovery_matches) {
      std::fprintf(stderr,
                   "[bench] %s: recovery replayed %llu of %ld commits\n",
                   cfg.name, static_cast<unsigned long long>(report.recovered),
                   report.stats.committed);
      all_ok = false;
    }
    tps_by_config[cfg.name] = report.tps;
    if (!cfg.use_wal) baseline_tps = report.tps;
    table.AddRow({cfg.name, std::to_string(report.stats.committed),
                  bench::Fmt(report.tps, 0),
                  bench::Fmt(report.stats.LatencyPercentileUs(50), 0),
                  bench::Fmt(report.stats.LatencyPercentileUs(99), 0),
                  std::to_string(report.stats.wal_appends),
                  std::to_string(report.stats.fsyncs),
                  std::to_string(report.stats.group_commit_batches),
                  bench::Fmt(report.stats.MeanBatchSize(), 1),
                  std::to_string(report.stats.recovery_replayed_txns)});
  }
  table.Print();
  json.AddTable("configs", table);
  if (baseline_tps > 0) {
    // The headline ratio: durable group commit vs memory-only.
    json.Scalar("group_vs_no_wal", tps_by_config["group"] / baseline_tps);
  }
  json.Scalar("all_ok", all_ok ? 1L : 0L);
  if (!json.Write()) return 1;
  return all_ok ? 0 : 1;
}
