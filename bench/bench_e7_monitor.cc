// E7 — interference vs invalidation (§2): the runtime monitor watches every
// live transaction's active assertion while a payroll mix executes under a
// randomized deterministic schedule. It counts *invalidations* — statically
// interfering statements whose interleaving actually falsified an active
// assertion — per isolation level, and reports the monitoring overhead.

#include <chrono>

#include "bench/bench_util.h"
#include "sem/rt/monitor.h"
#include "workload/workload.h"

namespace semcor {
namespace {

struct MonitorRun {
  long invalidations = 0;
  long violated_pres = 0;
  long evaluations = 0;
  long steps = 0;
  double wall_ms = 0;
};

MonitorRun RunRounds(IsoLevel print_level, bool with_monitor, int rounds) {
  Workload w = MakePayrollWorkload();
  MonitorRun out;
  Rng rng(0xE7);
  const auto start = std::chrono::steady_clock::now();
  for (int round = 0; round < rounds; ++round) {
    Store store;
    LockManager locks;
    TxnManager mgr(&store, &locks);
    if (!w.setup(&store).ok()) continue;
    StepDriver driver(&mgr);
    std::unique_ptr<InvalidationMonitor> monitor;
    if (with_monitor) {
      monitor = std::make_unique<InvalidationMonitor>(&store, &driver);
    }
    // Two Hours writers and two readers on overlapping employees.
    for (int i = 0; i < 2; ++i) {
      driver.Add(w.Instantiate("Hours", rng).value(), IsoLevel::kReadCommitted);
      driver.Add(w.Instantiate("Print_Records", rng).value(), print_level);
    }
    for (int step = 0; step < 64 && !driver.AllDone(); ++step) {
      driver.Step(static_cast<int>(rng.Uniform(0, driver.size() - 1)));
      ++out.steps;
    }
    driver.RunRoundRobin();
    if (monitor) {
      out.invalidations += static_cast<long>(monitor->events().size());
      out.violated_pres += monitor->violated_preconditions();
      out.evaluations += monitor->evaluations();
    }
  }
  const auto end = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  return out;
}

}  // namespace
}  // namespace semcor

int main() {
  using namespace semcor;
  bench::Banner("E7: runtime invalidation monitoring (payroll, Example 2)");

  constexpr int kRounds = 150;
  bench::JsonReport json("E7");
  json.Scalar("rounds_per_level", kRounds);
  bench::Table table({"Print_Records level", "transient invalidations",
                      "violated pres at exec", "assertion evals", "steps",
                      "wall ms"});
  for (IsoLevel level :
       {IsoLevel::kReadUncommitted, IsoLevel::kReadCommitted,
        IsoLevel::kRepeatableRead}) {
    MonitorRun r = RunRounds(level, /*with_monitor=*/true, kRounds);
    table.AddRow({IsoLevelName(level), std::to_string(r.invalidations),
                  std::to_string(r.violated_pres),
                  std::to_string(r.evaluations), std::to_string(r.steps),
                  bench::Fmt(r.wall_ms)});
  }
  table.Print();
  json.AddTable("invalidations", table);

  bench::Banner("monitoring overhead");
  MonitorRun with = RunRounds(IsoLevel::kReadUncommitted, true, kRounds);
  MonitorRun without = RunRounds(IsoLevel::kReadUncommitted, false, kRounds);
  bench::Table overhead({"configuration", "wall ms", "ms/step x1000"});
  overhead.AddRow({"with monitor", bench::Fmt(with.wall_ms),
                   bench::Fmt(1000.0 * with.wall_ms / with.steps, 2)});
  overhead.AddRow({"without monitor", bench::Fmt(without.wall_ms),
                   bench::Fmt(1000.0 * without.wall_ms / without.steps, 2)});
  overhead.Print();
  json.AddTable("overhead", overhead);
  json.Write();
  std::printf(
      "\nExpected shape: invalidations occur at READ-UNCOMMITTED (dirty "
      "half-updates of\nHours) and vanish at READ-COMMITTED and above — "
      "interference without invalidation.\n");
  return 0;
}
