// The paper's §7 future work, realized: analyze the TPC-C-lite transaction
// types with the per-level theorems, assign each its lowest correct level,
// and compare throughput against all-SERIALIZABLE on the testbed.

#include <cstdio>

#include "sem/check/advisor.h"
#include "sem/rt/oracle.h"
#include "txn/executor.h"
#include "workload/workload.h"

using namespace semcor;

namespace {

double RunMix(const Workload& w, const std::map<std::string, IsoLevel>& levels,
              bool* correct) {
  Store store;
  LockManager locks;
  TxnManager mgr(&store, &locks);
  (void)w.setup(&store);
  MapEvalContext initial = store.SnapshotToMap();
  CommitLog log;
  ConcurrentExecutor executor(&mgr, 4);
  double wall = 0;
  ExecStats stats = executor.Run(
      [&](Rng& rng) {
        return w.DrawFromMix(rng, levels, IsoLevel::kSerializable);
      },
      150, RetryPolicy{.max_attempts = 26, .backoff_base_us = 50}, &log,
      &wall);
  *correct =
      CheckSemanticCorrectness(initial, store, log, w.app.invariant).ok();
  return stats.Throughput(wall);
}

}  // namespace

int main() {
  Workload w = MakeTpccWorkload();

  std::printf("Analyzing TPC-C-lite transaction types...\n");
  LevelAdvisor advisor(w.app, AdvisorOptions());
  std::map<std::string, IsoLevel> advised;
  for (const LevelAdvice& a : advisor.AdviseAll()) {
    advised[a.txn_type] = a.recommended;
    std::printf("  %-13s -> %-20s (snapshot ok: %s)\n", a.txn_type.c_str(),
                IsoLevelName(a.recommended),
                a.snapshot_correct ? "yes" : "no");
  }

  std::printf("\nRunning 600-transaction mixes (4 threads)...\n");
  bool ok_ser = false, ok_mixed = false;
  const double tps_ser = RunMix(w, {}, &ok_ser);  // fallback: all SER
  const double tps_mixed = RunMix(w, advised, &ok_mixed);
  std::printf("  all SERIALIZABLE : %7.0f txn/s  (%s)\n", tps_ser,
              ok_ser ? "semantically correct" : "VIOLATION");
  std::printf("  advised levels   : %7.0f txn/s  (%s)\n", tps_mixed,
              ok_mixed ? "semantically correct" : "VIOLATION");
  std::printf("  speedup          : %.2fx\n",
              tps_ser > 0 ? tps_mixed / tps_ser : 0.0);
  return ok_mixed && ok_ser ? 0 : 1;
}
