#ifndef SEMCOR_SPEC_RUNNER_H_
#define SEMCOR_SPEC_RUNNER_H_

#include <memory>
#include <string>
#include <vector>

#include "lock/lock_manager.h"
#include "sem/rt/oracle.h"
#include "spec/compile.h"
#include "storage/store.h"
#include "txn/txn.h"

namespace semcor::spec {

/// Aggregate outcome of running every permutation of a spec at one level.
/// All counters are sums over permutations; committed/aborted count
/// transactions (sessions), the rest count events or permutations.
struct LevelOutcome {
  IsoLevel level = IsoLevel::kSerializable;
  long perms = 0;       ///< permutations executed
  long invalid = 0;     ///< permutations skipped as unexecutable (none today)
  long committed = 0;   ///< sessions that committed
  long aborted = 0;     ///< sessions that aborted (any reason, incl. ROLLBACK)
  long deadlock = 0;    ///< stuck-waiting aborts (youngest-victim backstop)
  long fcw = 0;         ///< first-committer-wins aborts
  long ssi = 0;         ///< SSI dangerous-structure aborts
  long ssi_fp = 0;      ///< ...that no serial-order anomaly required
  long ssi_req = 0;     ///< ...that prevented a real anomaly
  long nonser = 0;      ///< permutations whose committed projection matches
                        ///< NO serial order (final state + per-txn reads)
  long inv_viol = 0;    ///< oracle invariant violations (True invariant: 0)
  long replay_div = 0;  ///< permutations diverging from commit-order replay

  /// One golden line: "level SSI perms=90 invalid=0 committed=... ".
  std::string Row() const;
  friend bool operator==(const LevelOutcome& a, const LevelOutcome& b);
  friend bool operator!=(const LevelOutcome& a, const LevelOutcome& b) {
    return !(a == b);
  }
};

/// Conformance report for one spec across every isolation level.
struct SpecReport {
  std::string name;
  std::vector<LevelOutcome> levels;

  /// Canonical golden text: "spec <name>\n" then one Row per line.
  std::string Golden() const;
};

/// Parses a golden file back into a report (for diffing). Unknown lines or
/// levels fail; the golden format is exactly what Golden() emits.
Result<SpecReport> ParseGolden(const std::string& text,
                               const std::string& path);

/// Deterministic single-threaded executor for compiled specs.
///
/// Each permutation runs from a checkpointed initial database with fresh
/// transaction ids, so identical permutations always produce identical
/// outcomes. Step semantics follow the postgres isolation tester: a step
/// runs to completion unless a lock would block, in which case the session
/// is parked on a waiting list and retried (FIFO) after every later step;
/// steps issued to a parked session queue up behind the blocked one. When
/// nothing can make progress, the youngest (highest transaction id) parked
/// session aborts — the deadlock backstop.
///
/// After each permutation the runner judges the outcome two ways:
///  - commit-order replay (the repo's semantic-correctness oracle), and
///  - full serializability: the committed sessions' final database state
///    AND per-session observed values must match some serial order of those
///    sessions — this is what catches the SI read-only anomaly, which
///    commit-order replay alone cannot express.
class SpecRunner {
 public:
  explicit SpecRunner(CompiledSpec spec) : spec_(std::move(spec)) {}

  /// Applies the spec's setup to a fresh store and checkpoints it.
  Status Init();

  /// Runs every permutation at one level.
  Result<LevelOutcome> RunLevel(IsoLevel level);

  /// Runs every level of AllLevels() in order.
  Result<SpecReport> RunAllLevels();

 private:
  struct SessionState;

  /// Runs one permutation; accumulates into `out`.
  Status RunPermutation(const std::vector<std::pair<int, int>>& perm,
                        IsoLevel level, LevelOutcome* out);

  void ResetWorld();

  CompiledSpec spec_;
  Store store_;
  LockManager locks_;
  TxnManager mgr_{&store_, &locks_};
  CommitLog log_;
  CommittedState setup_cut_;  ///< committed cut right after setup
  std::unique_ptr<ScheduleOracle> oracle_;
};

/// Small file helpers shared by the CLI, the conformance test, and the E14
/// bench (goldens live next to the specs).
Result<std::string> ReadTextFile(const std::string& path);
Status WriteTextFile(const std::string& path, const std::string& text);

}  // namespace semcor::spec

#endif  // SEMCOR_SPEC_RUNNER_H_
