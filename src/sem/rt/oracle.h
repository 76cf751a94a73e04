#ifndef SEMCOR_SEM_RT_ORACLE_H_
#define SEMCOR_SEM_RT_ORACLE_H_

#include <string>
#include <vector>

#include "sem/expr/eval.h"
#include "txn/txn.h"

namespace semcor {

/// Outcome of the runtime semantic-correctness check.
struct OracleReport {
  bool invariant_holds = true;
  bool matches_serial_replay = true;
  std::vector<std::string> problems;

  bool ok() const { return invariant_holds && matches_serial_replay; }
  std::string ToString() const;
};

/// Operationalizes definition (2) of the paper: a schedule is semantically
/// correct iff the final state (a) satisfies the consistency constraint I
/// and (b) reflects the cumulative result of the committed transactions in
/// commit order — checked by replaying them serially (in commit-timestamp
/// order) from the initial state and comparing final database states.
///
/// `initial` must be a committed-state capture (Store::SnapshotToMap) taken
/// before the run; `final_store` is inspected at its committed-latest state.
OracleReport CheckSemanticCorrectness(const MapEvalContext& initial,
                                      const Store& final_store,
                                      const CommitLog& log,
                                      const Expr& invariant);

/// Serial replay only: returns the final state of executing the committed
/// programs in commit order from `initial`.
Result<MapEvalContext> SerialReplay(const MapEvalContext& initial,
                                    const CommitLog& log);

/// Reusable oracle for the schedule explorer: fixes the initial state and
/// the invariant once, then checks any number of (final store, commit log)
/// pairs against them. Safe to share across exploration runs on one worker;
/// each worker owns its own instance (no cross-thread state).
class ScheduleOracle {
 public:
  ScheduleOracle(MapEvalContext initial, Expr invariant)
      : initial_(std::move(initial)), invariant_(std::move(invariant)) {}

  /// CheckSemanticCorrectness against the fixed initial state. A run with no
  /// commits is vacuously correct when the store still matches the initial
  /// state, which loading the setup cut guarantees — so the empty log
  /// short-circuits.
  OracleReport Check(const Store& final_store, const CommitLog& log) const;

  const MapEvalContext& initial() const { return initial_; }
  const Expr& invariant() const { return invariant_; }

 private:
  MapEvalContext initial_;
  Expr invariant_;
};

}  // namespace semcor

#endif  // SEMCOR_SEM_RT_ORACLE_H_
