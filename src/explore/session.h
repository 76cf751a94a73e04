#ifndef SEMCOR_EXPLORE_SESSION_H_
#define SEMCOR_EXPLORE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fault/fault.h"
#include "fault/policy.h"
#include "lock/lock_manager.h"
#include "sem/rt/oracle.h"
#include "storage/store.h"
#include "txn/driver.h"
#include "workload/workload.h"

namespace semcor {

/// A schedule is a sequence of *choices*: each entry hints which transaction
/// (by mix index) should take the next atomic step. Hints are resolved to
/// exactly one productive step each — see ExploreSession::Run.
using Schedule = std::vector<int>;

std::string ScheduleToString(const Schedule& schedule);

/// One database access performed by a schedule (guards, local assignments
/// and commit steps are elided — this is the paper's r/w trace notation,
/// extended with undo writes: rollback steps are writes too, per Theorem 1).
struct ScheduleEvent {
  int txn = 0;         ///< mix index, 0-based
  bool write = false;  ///< db write (w) vs db read (r)
  bool undo = false;   ///< the write was an undo write of a rollback
};

/// Formats events as the paper writes schedules: "r1 r1 r2 r2 w1 w2";
/// undo writes print as "u" (e.g. "w1 r2 u1 u1").
std::string EventTrace(const std::vector<ScheduleEvent>& events);

/// Everything one schedule execution produced.
struct RunResult {
  bool complete = false;  ///< every transaction finished before the sweep
  int committed = 0;
  int aborted = 0;
  int deadlock_aborts = 0;  ///< try-lock deadlocks resolved by victim abort
  int preemptions = 0;      ///< voluntary switches away from a runnable txn
  /// Which transaction actually took the productive step of each choice
  /// (may differ from the hint when the hinted transaction was finished or
  /// blocked; -1 for no-op choices after completion).
  std::vector<int> executed;
  std::vector<ScheduleEvent> events;
  OracleReport oracle;
  bool anomalous = false;  ///< oracle found a semantic-correctness violation

  /// Dirty-read observability (READ UNCOMMITTED runs; summed over the mix's
  /// transactions): reads of a foreign uncommitted image, and the subset
  /// read from a transaction that was mid-rollback at the time.
  long dirty_reads = 0;
  long undo_dirty_reads = 0;
  /// Faults the injector fired during this run.
  long injected_faults = 0;

  /// SSI serialization-failure accounting for this run (kSsi level only):
  /// total dangerous-structure aborts and their split into aborts a real
  /// anomaly required vs false positives of the conservative rule.
  long ssi_aborts = 0;
  long ssi_false_positive_aborts = 0;
  long ssi_required_aborts = 0;

  /// Stable identity of the anomaly (joined oracle problems, plus a marker
  /// when the run observed a mid-rollback value — those runs witness
  /// Theorem 1's undo-write obligations and are kept as a distinct class)
  /// for witness de-duplication; empty when not anomalous.
  std::string Signature() const;
};

/// Outcome of ExploreSession::RunCrashMatrix: one schedule executed against
/// a WAL, then every crash point (byte prefix of the log image) recovered
/// into a fresh store and compared with the commit-order replay oracle.
struct CrashMatrixResult {
  bool complete = false;   ///< the clean run finished every transaction
  int committed = 0;       ///< commits the clean run logged
  long log_bytes = 0;      ///< WAL image size the clean run produced
  int points_checked = 0;  ///< crash points recovered
  int torn_points = 0;     ///< points that cut a record in half (torn tail)
  int mismatches = 0;      ///< recoveries that diverged from the oracle
  std::vector<std::string> problems;  ///< one line per divergence (capped)

  bool ok() const { return mismatches == 0; }
  std::string Summary() const;
};

/// Failure-model knobs for a session (all default to "off"/historical).
struct ExploreSessionOptions {
  FaultPlan faults;
  bool schedulable_rollback = false;
  DeadlockPolicy deadlock_policy;
  /// Lock-manager shard count for this session's private universe
  /// (0 = LockManager::DefaultShardCount()). Exploration runs in try-lock
  /// mode, whose outcomes are independent of the shard count — the
  /// regression test in explore_test.cc holds this contract to the fire.
  size_t lock_shards = 0;
};

/// One worker's private universe for schedule exploration: its own store,
/// lock manager, transaction manager, commit log and oracle. Nothing here
/// is shared, so N sessions explore in parallel with zero synchronization.
///
/// Choice semantics (what makes the space finite and enumerable): a hint
/// resolves to exactly one productive step.
///  - If the hinted transaction is active and steppable, it steps.
///  - If it is finished or blocked, the lowest-indexed steppable active
///    transaction steps instead (the canonical substitute).
///  - If every active transaction is blocked (try-lock deadlock), the
///    youngest blocked one aborts — same victim rule as
///    StepDriver::RunRoundRobin — and resolution retries.
///  - If all transactions already finished, the choice is a no-op.
/// Because a choice never records a blocked attempt, replaying the same
/// hint vector always reproduces the same execution bit for bit.
class ExploreSession {
 public:
  /// Sets up the workload's initial database, captures the checkpoint the
  /// oracle and every Run restart from, and materializes the mix.
  Status Init(const Workload& workload, const ExploreMix& mix, IsoLevel level,
              const ExploreSessionOptions& options = ExploreSessionOptions());

  /// Replays `hints` from the checkpoint. Unfinished transactions are
  /// force-aborted at the end (a schedule commits only what it explicitly
  /// drives to commit), then the oracle judges the final state.
  RunResult Run(const Schedule& hints);

  /// Random-walk schedule: draws uniformly among active transactions until
  /// all finish (or `max_choices`). The chosen hints land in *hints_out so
  /// anomalous walks can be shrunk and replayed.
  RunResult Fuzz(Rng& rng, int max_choices, Schedule* hints_out);

  /// Crash-recovery exploration: replays `hints` with a memory-backed WAL
  /// attached, capturing the committed state after every logged commit, then
  /// enumerates crash points — every record boundary of the log image plus a
  /// cut through the middle of every record (a torn append) — and recovers
  /// each prefix into a fresh store. A prefix holding exactly k complete
  /// commit records must recover to the captured state after commit k; any
  /// other outcome is a mismatch. This is the durability analogue of the
  /// oracle check: the recovered state must be a commit-order prefix of the
  /// schedule's history, at every possible crash instant.
  CrashMatrixResult RunCrashMatrix(const Schedule& hints);

  int txn_count() const { return static_cast<int>(programs_.size()); }
  IsoLevel level() const { return level_; }
  const ScheduleOracle& oracle() const { return *oracle_; }

 private:
  /// Restores store/locks/log/txn-ids to the checkpoint.
  void ResetWorld();
  /// Resolves one choice; returns the productive executor (or the deadlock
  /// victim if its abort finished the schedule, or -1 for a no-op).
  int ApplyChoice(StepDriver& driver, int hint, RunResult* result,
                  int* last_exec);
  /// Force-aborts stragglers, tallies outcomes, runs the oracle.
  void Finish(StepDriver& driver, RunResult* result);

  /// Configures a StepDriver with this session's failure model.
  void ConfigureDriver(StepDriver* driver);

  Store store_;
  LockManager locks_;
  TxnManager mgr_{&store_, &locks_};
  CommitLog log_;
  CommittedState setup_cut_;  ///< committed cut right after setup
  std::unique_ptr<ScheduleOracle> oracle_;
  std::vector<std::shared_ptr<const TxnProgram>> programs_;
  IsoLevel level_ = IsoLevel::kSerializable;
  ExploreSessionOptions session_options_;
  FaultInjector faults_;
};

}  // namespace semcor

#endif  // SEMCOR_EXPLORE_SESSION_H_
