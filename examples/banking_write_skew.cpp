// Example 3 / Figure 1 end-to-end: the write-skew anomaly.
//
// Two withdrawal transaction types share the constraint
// acct_sav + acct_ch >= 0. Each is individually correct; the static
// analysis (Theorem 5) shows their SNAPSHOT pair condition fails, and the
// testbed exhibits the anomaly live — then shows SERIALIZABLE preventing it
// and first-committer-wins resolving the same-item case.

#include <cstdio>

#include "sem/check/advisor.h"
#include "sem/rt/monitor.h"
#include "sem/rt/oracle.h"
#include "workload/workload.h"

using namespace semcor;

namespace {

void RunPair(const Workload& w, IsoLevel level) {
  Store store;
  LockManager locks;
  TxnManager mgr(&store, &locks);
  (void)w.setup(&store);
  MapEvalContext initial = store.SnapshotToMap();
  CommitLog log;
  StepDriver driver(&mgr, &log);
  InvalidationMonitor monitor(&store, &driver);
  const ParamList params = {{"i", Value::Int(1)}, {"w", Value::Int(15)}};
  driver.Add(w.Instantiate("Withdraw_sav", params).value(), level);
  driver.Add(w.Instantiate("Withdraw_ch", params).value(), level);
  driver.RunRoundRobin();

  const int64_t sav = store.ReadItemCommitted("acct_sav[1].bal").value().AsInt();
  const int64_t ch = store.ReadItemCommitted("acct_ch[1].bal").value().AsInt();
  OracleReport oracle =
      CheckSemanticCorrectness(initial, store, log, w.app.invariant);
  std::printf(
      "%-13s: committed=%d sav=%lld ch=%lld sum=%lld invalidations=%zu -> %s\n",
      IsoLevelName(level),
      (driver.run(0).outcome() == StepOutcome::kCommitted) +
          (driver.run(1).outcome() == StepOutcome::kCommitted),
      static_cast<long long>(sav), static_cast<long long>(ch),
      static_cast<long long>(sav + ch), monitor.events().size(),
      oracle.ok() ? "semantically correct" : "VIOLATION");
}

}  // namespace

int main() {
  Workload w = MakeBankingWorkload();

  // --- static side: what do the theorems say? ---
  std::printf("Static analysis (Theorem 5, SNAPSHOT pair conditions):\n");
  TheoremEngine engine(w.app, CheckOptions());
  LevelCheckReport snapshot =
      engine.CheckAtLevel("Withdraw_sav", IsoLevel::kSnapshot);
  for (const Obligation& o : snapshot.obligations) {
    std::printf("  vs %-28s %s%s\n", o.source.c_str(),
                o.Passed() ? "ok" : "FAILS",
                o.excused ? "  (write sets intersect: FCW resolves)" : "");
  }
  std::printf("  => Withdraw_sav at SNAPSHOT: %s\n\n",
              snapshot.correct ? "correct" : "NOT semantically correct");

  LevelAdvisor advisor(w.app, AdvisorOptions());
  LevelAdvice advice = advisor.Advise("Withdraw_sav");
  std::printf("Advisor: Withdraw_sav -> %s (snapshot correct: %s)\n\n",
              IsoLevelName(advice.recommended),
              advice.snapshot_correct ? "yes" : "no");

  // --- dynamic side: exhibit and prevent the anomaly ---
  std::printf("Testbed, Withdraw_sav(15) || Withdraw_ch(15), account 1 "
              "(sav=ch=10):\n");
  RunPair(w, IsoLevel::kSnapshot);      // both commit; sum goes negative
  RunPair(w, IsoLevel::kSerializable);  // blocking/aborts keep sum >= 0
  RunPair(w, IsoLevel::kRepeatableRead);

  return 0;
}
