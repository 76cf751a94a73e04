// perfbench_driver: one benchmark run of semcor on one workload.
//
//   perfbench_driver --workload=tpcc_wire --seed=1 --seconds=10 --trace=0
//
// Workloads. All are closed loops of 4 clients: a client sends its next
// transaction only after the previous one finished.
//
//   banking_wire    banking (4 accounts) at SSI over loopback TCP: 4
//                   net::Client sessions against an in-process net::Server
//                   with 4 workers
//   tpcc_wire       scaled TPC-C at SNAPSHOT, same topology
//   banking_inproc  banking (4 accounts) at the paper's per-type levels: 4
//                   threads driving ProgramRun against one TxnManager
//   tpcc_inproc     scaled TPC-C at the paper's per-type levels (the
//                   advisor's mix of READ UNCOMMITTED, READ COMMITTED with
//                   first-committer-wins and REPEATABLE READ), same shape
//
// A run is 2 x `--seconds` half-second windows, after four unrecorded
// warmup windows. Each window sets the system up from scratch (a fresh
// database, and over the wire a fresh server and fresh sessions, with the
// window's own seed), runs the clients for half a second, checks the
// result, and tears the system down. Fresh state keeps the windows alike:
// TPC-C tables and version chains grow while it runs, so a long single run
// would slow down as it goes. Every metric is the median over the windows:
//
//   throughput_tps   transactions committed in the window, per second
//   latency_p50_ms   median time of one committed transaction, as its
//   latency_p99_ms   client sees it, and the 99th percentile
//   setup_s          time to set the system up until clients can send
//
// With --trace=1 the run also times the calls into each layer from here
// (workload instantiation, every interpreter step and the commit step in
// process; over the wire, the server's own BEGIN-to-commit latency and
// counters from STATS) and reports the per-layer metrics instead.
//
// Correctness, checked after every window: the workload invariant (the
// banking balance conditions, the TPC-C consistency conditions) holds on the
// final database, and over the wire the server's commit and abort counters
// equal the clients' tallies. The levels used on the wire (SSI for banking,
// SNAPSHOT for TPC-C) and the paper's levels in process keep the invariant.
// The wire does not use the advisor-negotiated levels: their lock-based
// levels answer a conflict with kBlocked, the client sleeps and resends, and
// deadlocks wait out a bounded retry streak, so whole windows stall. Banking
// at READ COMMITTED is not an option either: it can break the invariant.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 = run completed (even if `correct` is false), 1 = the system
// could not be set up or driven, 2 = usage error.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "lock/lock_manager.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "sem/expr/eval.h"
#include "storage/store.h"
#include "txn/interpreter.h"
#include "txn/isolation.h"
#include "txn/txn.h"
#include "workload/workload.h"

namespace {

using namespace semcor;
using Clock = std::chrono::steady_clock;

// Scaled TPC-C: 4 warehouses x 4 districts, 16 customers per warehouse, 64
// items in the catalog.
constexpr int kTpccWarehouses = 4;
constexpr int kTpccDistricts = 4;
constexpr int kTpccCustomers = 16;
constexpr int kTpccItems = 64;
constexpr int kBankingAccounts = 4;  // what the server's banking workload has

constexpr int kClients = 4;
constexpr int kServerWorkers = 4;
// Each measured second is two windows. The first windows of a process run
// differently (in process TPC-C: p50 a quarter and p99 three times what
// later windows show, for about three windows), so four warmup windows run
// first and are not recorded.
constexpr int kWindowsPerSecond = 2;
constexpr int kWarmupWindows = 4;
constexpr std::chrono::milliseconds kWindow(1000 / kWindowsPerSecond);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  const size_t k = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return v[k];
}
double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// One client's tallies for one window.
struct Tally {
  long attempted = 0;
  long committed = 0;
  long committed_in_window = 0;  // finished before the window closed
  long aborted = 0;  // the system aborted it (conflict, deadlock, rollback)
  long failed = 0;   // the system could not carry it out at all
  long deadlocks = 0;
  long conflicts = 0;  // first-committer-wins and SSI aborts
  long steps = 0;
  std::vector<double> latency_us;  // committed, finished in the window
  // Layer spans (µs), recorded in process with --trace=1.
  std::vector<double> instantiate_us;
  std::vector<double> engine_us;
  std::vector<double> stmt_us;
  std::vector<double> commit_us;

  void Merge(const Tally& o) {
    attempted += o.attempted;
    committed += o.committed;
    committed_in_window += o.committed_in_window;
    aborted += o.aborted;
    failed += o.failed;
    deadlocks += o.deadlocks;
    conflicts += o.conflicts;
    steps += o.steps;
    auto append = [](std::vector<double>& a, const std::vector<double>& b) {
      a.insert(a.end(), b.begin(), b.end());
    };
    append(latency_us, o.latency_us);
    append(instantiate_us, o.instantiate_us);
    append(engine_us, o.engine_us);
    append(stmt_us, o.stmt_us);
    append(commit_us, o.commit_us);
  }
};

/// Layer counters read from the system at the end of one window.
struct LayerCounters {
  double engine_p50_us = 0;  // BEGIN->commit p50 inside the engine
  long frames_in = 0;
  long server_txns = 0;
  long queue_depth_peak = 0;
  long busy = 0;     // BEGINs and frames the server turned away with BUSY
  long blocked = 0;  // statements answered kBlocked (client sleeps, resends)
  long lock_grants = 0;
  long lock_blocks = 0;
  long lock_contention_waits = 0;
  long deadlocks = 0;
  long conflicts = 0;
  long ssi_aborts = 0;
  long ssi_false_positives = 0;
};

/// Records one finished operation into the client's tally.
void Finish(Tally& t, bool committed, Clock::time_point t0,
            Clock::time_point t1, Clock::time_point window_end) {
  if (!committed) {
    ++t.aborted;
    return;
  }
  ++t.committed;
  if (t1 <= window_end) {
    ++t.committed_in_window;
    t.latency_us.push_back(Micros(t1 - t0));
  }
}

// ---------------------------------------------------------------------------
// In process: ProgramRun against one TxnManager.
// ---------------------------------------------------------------------------

class InprocSystem {
 public:
  InprocSystem(bool tpcc, const Options& opt, uint64_t window)
      : tpcc_(tpcc), opt_(opt), window_(window) {}

  Status Setup() {
    workload_ = tpcc_ ? MakeTpccWorkload(kTpccWarehouses, kTpccDistricts,
                                         kTpccCustomers, kTpccItems)
                      : MakeBankingWorkload(kBankingAccounts);
    return workload_.setup(&store_);
  }

  void Client(int index, const std::atomic<bool>& stop,
              Clock::time_point window_end, Tally& t) {
    Rng rng(opt_.seed * 0x9E3779B97F4A7C15ull + window_ * 1000003 +
            static_cast<uint64_t>(index));
    while (!stop.load(std::memory_order_relaxed)) {
      const Clock::time_point t0 = Clock::now();
      const WorkItem item = workload_.DrawFromMix(
          rng, workload_.paper_levels, IsoLevel::kSerializable);
      ++t.attempted;
      const Clock::time_point t1 = Clock::now();
      ProgramRun run(&mgr_, item.program, item.level);
      if (!opt_.trace) {
        run.RunToCompletion();
      } else {
        while (!run.Done()) {
          const Clock::time_point s0 = Clock::now();
          const StepOutcome outcome = run.Step(/*wait=*/true);
          const double us = Micros(Clock::now() - s0);
          ++t.steps;
          (outcome == StepOutcome::kCommitted ? t.commit_us : t.stmt_us)
              .push_back(us);
        }
      }
      const Clock::time_point t2 = Clock::now();
      const bool committed = run.outcome() == StepOutcome::kCommitted;
      Finish(t, committed, t0, t2, window_end);
      if (committed && opt_.trace) {
        t.instantiate_us.push_back(Micros(t1 - t0));
        t.engine_us.push_back(Micros(t2 - t1));
      }
      if (run.failure().code() == Code::kDeadlock) ++t.deadlocks;
      if (run.failure().code() == Code::kConflict) ++t.conflicts;
    }
  }

  /// Reads the layer counters and checks the final database.
  bool Check(const Tally& window, LayerCounters* l, std::string* why) {
    const LockManager::Stats lock = locks_.stats();
    const SsiCounters ssi = mgr_.ssi().counters();
    l->engine_p50_us = Median(window.engine_us);
    l->lock_grants = lock.grants;
    l->lock_blocks = lock.blocks;
    l->lock_contention_waits = lock.contention_waits;
    l->deadlocks = window.deadlocks;
    l->conflicts = window.conflicts;
    l->ssi_aborts = ssi.aborts;
    l->ssi_false_positives = ssi.false_positive_aborts;
    Result<bool> inv =
        EvalBool(workload_.app.invariant, store_.SnapshotToMap());
    if (!inv.ok() || !inv.value()) {
      *why = "workload invariant violated";
      return false;
    }
    return true;
  }

 private:
  const bool tpcc_;
  const Options& opt_;
  const uint64_t window_;
  Workload workload_;
  Store store_;
  LockManager locks_;
  TxnManager mgr_{&store_, &locks_};
};

// ---------------------------------------------------------------------------
// Over the wire: net::Client sessions against an in-process net::Server.
// ---------------------------------------------------------------------------

class WireSystem {
 public:
  WireSystem(bool tpcc, const Options& opt, uint64_t window)
      : tpcc_(tpcc), opt_(opt), window_(window) {}
  ~WireSystem() {
    for (auto& c : clients_) c->Close();
    if (server_) server_->Stop();
  }
  WireSystem(const WireSystem&) = delete;
  WireSystem& operator=(const WireSystem&) = delete;

  Status Setup() {
    net::ServerOptions sopts;
    sopts.workload = tpcc_ ? "tpcc" : "banking";
    sopts.tpcc_warehouses = kTpccWarehouses;
    sopts.tpcc_districts = kTpccDistricts;
    sopts.tpcc_customers = kTpccCustomers;
    sopts.tpcc_items = kTpccItems;
    sopts.workers = kServerWorkers;
    sopts.seed = opt_.seed * 1000003 + window_;
    server_ = std::make_unique<net::Server>(sopts);
    if (Status s = server_->Start(); !s.ok()) return s;
    for (int i = 0; i < kClients; ++i) {
      auto client = std::make_unique<net::Client>(ClientOpts(i));
      if (Status s = client->Connect(); !s.ok()) return s;
      if (Result<net::HelloResp> h = client->Hello(); !h.ok()) {
        return h.status();
      }
      clients_.push_back(std::move(client));
    }
    return Status::Ok();
  }

  void Client(int index, const std::atomic<bool>& stop,
              Clock::time_point window_end, Tally& t) {
    net::Client& client = *clients_[static_cast<size_t>(index)];
    const uint8_t level = static_cast<uint8_t>(
        tpcc_ ? IsoLevel::kSnapshot : IsoLevel::kSsi);
    while (!stop.load(std::memory_order_relaxed)) {
      const Clock::time_point t0 = Clock::now();
      // Empty type: the server draws type and parameters from its mix,
      // seeded from --seed.
      Result<net::TxnResult> run = client.RunTxn("", level);
      const Clock::time_point t1 = Clock::now();
      ++t.attempted;
      if (!run.ok()) {
        ++t.failed;
        continue;
      }
      Finish(t, run.value().committed, t0, t1, window_end);
    }
  }

  bool Check(const Tally& window, LayerCounters* l, std::string* why) {
    net::Client control(ClientOpts(kClients));
    Status cs = control.Connect();
    Result<net::HelloResp> ch =
        cs.ok() ? control.Hello() : Result<net::HelloResp>(cs);
    Result<net::StatsResp> stats =
        ch.ok() ? control.Stats() : Result<net::StatsResp>(ch.status());
    if (!stats.ok()) {
      *why = "STATS failed: " + stats.status().ToString();
      return false;
    }
    const net::StatsResp& st = stats.value();
    l->engine_p50_us = st.Gauge("p50_us");
    l->frames_in = st.Counter("frames_in");
    l->server_txns = st.Counter("committed") + st.Counter("aborted");
    l->queue_depth_peak = st.Counter("queue_depth_peak");
    l->busy = st.Counter("admission_rejected") + st.Counter("queue_rejected");
    l->blocked = st.Counter("blocked_retries");
    l->lock_grants = st.Counter("lock.grants");
    l->lock_blocks = st.Counter("lock.blocks");
    l->lock_contention_waits = st.Counter("lock.contention_waits");
    l->deadlocks = st.Counter("deadlocks");
    l->conflicts = st.Counter("fcw_conflicts");  // SSI aborts included
    l->ssi_aborts = st.Counter("ssi_aborts");
    l->ssi_false_positives = st.Counter("ssi_false_positive_aborts");
    // Every client has joined, so the server is quiescent: the invariant
    // check is exact and the counters are final.
    if (!server_->InvariantHolds()) {
      *why = "workload invariant violated";
      return false;
    }
    if (st.Counter("committed") != window.committed ||
        st.Counter("aborted") != window.aborted) {
      *why = "server commit/abort counters disagree with the clients";
      return false;
    }
    return true;
  }

 private:
  net::ClientOptions ClientOpts(int index) const {
    net::ClientOptions copts;
    copts.port = server_->port();
    copts.backoff_seed =
        (opt_.seed * 1000003 + window_) * 131 + static_cast<uint64_t>(index);
    return copts;
  }

  const bool tpcc_;
  const Options& opt_;
  const uint64_t window_;
  std::unique_ptr<net::Server> server_;
  std::vector<std::unique_ptr<net::Client>> clients_;
};

// ---------------------------------------------------------------------------
// Windows.
// ---------------------------------------------------------------------------

struct WindowResult {
  double setup_s = 0;
  double tps = 0;
  double p50_us = 0;
  double p99_us = 0;
  Tally tally;
  LayerCounters layers;
};

/// Runs one window: fresh system, kClients clients for kWindow, check.
template <typename System>
bool RunWindow(bool tpcc, const Options& opt, uint64_t window,
               WindowResult* out, bool* correct, std::string* why) {
  const Clock::time_point t0 = Clock::now();
  System sys(tpcc, opt, window);
  if (Status s = sys.Setup(); !s.ok()) {
    std::fprintf(stderr, "perfbench: setup: %s\n", s.ToString().c_str());
    return false;
  }
  const Clock::time_point start = Clock::now();
  out->setup_s = Seconds(start - t0);

  const Clock::time_point end = start + kWindow;
  std::atomic<bool> stop{false};
  std::vector<Tally> tallies(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      sys.Client(i, stop, end, tallies[static_cast<size_t>(i)]);
    });
  }
  std::this_thread::sleep_until(end);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  for (const Tally& t : tallies) out->tally.Merge(t);

  out->tps = static_cast<double>(out->tally.committed_in_window) /
             std::chrono::duration<double>(kWindow).count();
  out->p50_us = Quantile(out->tally.latency_us, 0.5);
  out->p99_us = Quantile(out->tally.latency_us, 0.99);
  if (!sys.Check(out->tally, &out->layers, why)) *correct = false;
  return true;
}

// ---------------------------------------------------------------------------
// Report.
// ---------------------------------------------------------------------------

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

std::string Json(bool correct, long attempted, long failed,
                 const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    if (i > 0) s += ", ";
    s += std::string("\"") + metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    if (arg == "--workload") {
      opt->workload = value;
    } else if (arg == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt->seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      opt->trace = value == "1";
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds >= 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const std::string wl = ParseArgs(argc, argv, &opt) ? opt.workload : "";
  const bool wire = wl == "banking_wire" || wl == "tpcc_wire";
  const bool tpcc = wl == "tpcc_wire" || wl == "tpcc_inproc";
  if (!wire && !tpcc && wl != "banking_inproc") {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload=<banking_wire|tpcc_wire|"
                 "banking_inproc|tpcc_inproc> --seed=N --seconds=S "
                 "--trace=0|1\n");
    return 2;
  }

  bool correct = true;
  std::string why;
  const int measured = opt.seconds * kWindowsPerSecond;
  std::vector<WindowResult> windows;
  Tally all;
  LayerCounters layers;
  for (int w = 0; w < kWarmupWindows + measured; ++w) {
    WindowResult r;
    const uint64_t index = static_cast<uint64_t>(w);
    const bool ran =
        wire ? RunWindow<WireSystem>(tpcc, opt, index, &r, &correct, &why)
             : RunWindow<InprocSystem>(tpcc, opt, index, &r, &correct, &why);
    if (!ran) return 1;
    std::fprintf(stderr,
                 "window %d: setup %.6fs %.0f tps p50 %.1fus p99 %.1fus\n", w,
                 r.setup_s, r.tps, r.p50_us, r.p99_us);
    if (w < kWarmupWindows) continue;
    all.Merge(r.tally);
    const LayerCounters& l = r.layers;
    layers.frames_in += l.frames_in;
    layers.server_txns += l.server_txns;
    layers.queue_depth_peak =
        std::max(layers.queue_depth_peak, l.queue_depth_peak);
    layers.busy += l.busy;
    layers.blocked += l.blocked;
    layers.lock_grants += l.lock_grants;
    layers.lock_blocks += l.lock_blocks;
    layers.lock_contention_waits += l.lock_contention_waits;
    layers.deadlocks += l.deadlocks;
    layers.conflicts += l.conflicts;
    layers.ssi_aborts += l.ssi_aborts;
    layers.ssi_false_positives += l.ssi_false_positives;
    r.tally = Tally();  // merged into `all`; only the window figures remain
    windows.push_back(std::move(r));
  }
  if (!correct) std::fprintf(stderr, "perfbench: INCORRECT: %s\n", why.c_str());

  auto median_of = [&windows](double WindowResult::*field) {
    std::vector<double> v;
    for (const WindowResult& r : windows) v.push_back(r.*field);
    return Median(std::move(v));
  };
  std::vector<double> engine_p50;
  for (const WindowResult& r : windows) {
    engine_p50.push_back(r.layers.engine_p50_us);
  }
  const double p50_us = median_of(&WindowResult::p50_us);
  const double engine_p50_us = Median(engine_p50);
  const double txns = std::max<double>(1, static_cast<double>(all.attempted));
  const double per_k = 1000.0 / txns;

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"throughput_tps", median_of(&WindowResult::tps), "1/s"},
        {"latency_p50_ms", p50_us / 1000.0, "ms"},
        {"latency_p99_ms", median_of(&WindowResult::p99_us) / 1000.0, "ms"},
        {"setup_s", median_of(&WindowResult::setup_s), "s"},
    };
  } else {
    metrics = {
        {"traced_throughput_tps", median_of(&WindowResult::tps), "1/s"},
        {"engine_p50_us", engine_p50_us, "us"},
        {"engine_share", p50_us > 0 ? engine_p50_us / p50_us : 0, "ratio"},
        {"instantiate_p50_us", Median(all.instantiate_us), "us"},
        {"stmt_p50_us", Median(all.stmt_us), "us"},
        {"stmt_p99_us", Quantile(all.stmt_us, 0.99), "us"},
        {"commit_p50_us", Median(all.commit_us), "us"},
        {"steps_per_txn", static_cast<double>(all.steps) / txns, "count"},
        {"frames_per_txn",
         static_cast<double>(layers.frames_in) /
             std::max<double>(1, static_cast<double>(layers.server_txns)),
         "count"},
        {"busy_retries_per_txn", static_cast<double>(layers.busy) / txns,
         "count"},
        {"blocked_retries_per_txn",
         static_cast<double>(layers.blocked) / txns, "count"},
        {"queue_depth_peak", static_cast<double>(layers.queue_depth_peak),
         "count"},
        {"lock_grants_per_txn",
         static_cast<double>(layers.lock_grants) / txns, "count"},
        {"lock_blocks_per_txn",
         static_cast<double>(layers.lock_blocks) / txns, "count"},
        {"lock_waits_per_txn",
         static_cast<double>(layers.lock_contention_waits) / txns, "count"},
        {"abort_ratio", static_cast<double>(all.aborted) / txns, "ratio"},
        {"deadlock_aborts_per_ktxn",
         static_cast<double>(layers.deadlocks) * per_k, "count"},
        {"conflict_aborts_per_ktxn",
         static_cast<double>(layers.conflicts) * per_k, "count"},
        {"ssi_aborts_per_ktxn",
         static_cast<double>(layers.ssi_aborts) * per_k, "count"},
        {"ssi_false_positive_share",
         layers.ssi_aborts > 0
             ? static_cast<double>(layers.ssi_false_positives) /
                   static_cast<double>(layers.ssi_aborts)
             : 0,
         "ratio"},
    };
  }
  std::printf("%s\n",
              Json(correct, all.attempted, all.failed, metrics).c_str());
  return 0;
}
