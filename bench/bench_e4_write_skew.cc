// E4 — Example 3 / the write-skew anomaly: Withdraw_sav and Withdraw_ch on
// the same account are each correct alone, but SNAPSHOT isolation admits
// interleavings that drive the combined balance negative (their write sets
// are disjoint, defeating first-committer-wins). SERIALIZABLE prevents it.
//
// Contention is swept through the number of accounts: fewer accounts means
// more same-account concurrent withdrawals and a higher anomaly rate.

#include "bench/bench_util.h"
#include "sem/rt/oracle.h"
#include "txn/driver.h"
#include "workload/workload.h"

namespace semcor {
namespace {

/// One adversarial round: a pair of cross-account-leg withdrawals plus a
/// deposit, interleaved by a random schedule under the step driver. Returns
/// whether the final state violated semantic correctness, plus commits.
struct RoundOutcome {
  bool violated = false;
  int committed = 0;
  int aborted = 0;
};

RoundOutcome RunRound(const Workload& w, IsoLevel level, int accounts,
                      Rng* rng) {
  Store store;
  LockManager locks;
  TxnManager mgr(&store, &locks);
  if (!w.setup(&store).ok()) return {};
  MapEvalContext initial = store.SnapshotToMap();
  CommitLog log;
  StepDriver driver(&mgr, &log);

  auto program = [&](const char* type, const char* amount_name,
                     int64_t amount) {
    return w
        .Instantiate(type, {{"i", Value::Int(rng->Uniform(0, accounts - 1))},
                            {amount_name, Value::Int(amount)}})
        .value();
  };
  // Withdrawals sized so that one succeeds alone but two overdraw.
  driver.Add(program("Withdraw_sav", "w", 15), level);
  driver.Add(program("Withdraw_ch", "w", 15), level);
  driver.Add(program("Deposit_sav", "d", 3), level);

  // Random interleaving, then drain.
  for (int step = 0; step < 64 && !driver.AllDone(); ++step) {
    driver.Step(static_cast<int>(rng->Uniform(0, driver.size() - 1)));
  }
  driver.RunRoundRobin();

  RoundOutcome out;
  for (int i = 0; i < driver.size(); ++i) {
    if (driver.run(i).outcome() == StepOutcome::kCommitted) {
      ++out.committed;
    } else {
      ++out.aborted;
    }
  }
  OracleReport report =
      CheckSemanticCorrectness(initial, store, log, w.app.invariant);
  out.violated = !report.ok();
  return out;
}

}  // namespace
}  // namespace semcor

int main() {
  using namespace semcor;
  bench::Banner("E4: write skew under SNAPSHOT vs SERIALIZABLE (Example 3)");

  constexpr int kRounds = 300;
  bench::Table table({"accounts", "level", "violation %", "commit %",
                      "rounds"});
  for (int accounts : {1, 2, 4, 8}) {
    for (IsoLevel level : {IsoLevel::kSnapshot, IsoLevel::kSerializable}) {
      Workload w = MakeBankingWorkload(accounts);
      Rng rng(0xE4 + accounts);
      int violations = 0;
      long committed = 0, total = 0;
      for (int round = 0; round < kRounds; ++round) {
        RoundOutcome out = RunRound(w, level, accounts, &rng);
        violations += out.violated ? 1 : 0;
        committed += out.committed;
        total += out.committed + out.aborted;
      }
      table.AddRow({std::to_string(accounts), IsoLevelName(level),
                    bench::Fmt(100.0 * violations / kRounds),
                    bench::Fmt(100.0 * committed / total),
                    std::to_string(kRounds)});
    }
  }
  table.Print();
  bench::JsonReport json("E4");
  json.Scalar("rounds_per_cell", kRounds);
  json.AddTable("write_skew", table);
  json.Write();
  std::printf(
      "\nExpected shape: SNAPSHOT violation rate grows as contention rises "
      "(fewer accounts);\nSERIALIZABLE shows zero violations at the cost of "
      "blocking/aborts.\n");
  return 0;
}
