#ifndef SEMCOR_TXN_INTERPRETER_H_
#define SEMCOR_TXN_INTERPRETER_H_

#include <memory>
#include <vector>

#include "fault/fault.h"
#include "txn/txn.h"

namespace semcor {

/// Outcome of advancing a transaction by one atomic statement.
enum class StepOutcome {
  kRunning,     ///< statement executed; more remain
  kBlocked,     ///< a lock would block (try-lock mode); statement not executed
  kRollingBack, ///< the step applied (or is about to apply) an undo write
  kCommitted,   ///< the commit step ran successfully
  kAborted,     ///< the transaction rolled back (explicit, deadlock, FCW, ...)
};

const char* StepOutcomeName(StepOutcome outcome);

/// Steppable execution of an annotated transaction program through the
/// transaction manager. The unit of a step is one atomic statement of the
/// paper's model (a read, a write, one SQL statement, or a guard
/// evaluation), plus a final commit step.
///
/// Two driving modes:
///  - Step(wait=false): try-locks; on conflict the statement is retried on
///    the next call (deterministic StepDriver).
///  - Step(wait=true) / RunToCompletion(): blocking locks (thread executor).
class ProgramRun {
 public:
  /// With `lazy_begin` the transaction does not Begin (and a SNAPSHOT run
  /// does not take its snapshot) until its first Step — the schedule
  /// explorer needs begin time to be a schedulable event, so that a
  /// transaction scheduled entirely after another's commit observes it.
  /// The default (eager) matches the historical behaviour: Begin at
  /// construction, which is what the hand-written schedule tests assume.
  ProgramRun(TxnManager* mgr, std::shared_ptr<const TxnProgram> program,
             IsoLevel level, CommitLog* log = nullptr,
             bool lazy_begin = false);

  /// Begins the transaction if it has not begun yet (no-op otherwise).
  /// Called automatically by Step; exposed so drivers can begin before
  /// inspecting CurrentStmt.
  void EnsureBegun();
  bool begun() const { return begun_; }

  StepOutcome Step(bool wait);
  /// Runs with blocking locks until commit or abort.
  StepOutcome RunToCompletion();

  /// Externally aborts the transaction (deadlock victim selection by a
  /// driver). Completes any in-progress rollback wholesale — only Step-path
  /// aborts roll back stepwise (a victim holding locks mid-rollback would
  /// deadlock the victim-selection loop itself). No-op if already finished.
  void ForceAbort(Status reason);

  /// Makes abort a multi-step process: instead of discarding its images
  /// atomically, the transaction enters kRollingBack and each undo write is
  /// applied by its own Step call, followed by one finishing step that
  /// releases locks — so schedule exploration can interleave other
  /// transactions with the rollback (Theorem 1's undo-write obligations).
  /// SNAPSHOT runs are unaffected (they buffer writes; nothing to undo).
  void EnableSchedulableRollback(bool on) { schedulable_rollback_ = on; }
  /// Wires deterministic fault injection into this run's steps (lifetime
  /// managed by the caller; may be nullptr to disable).
  void SetFaultInjector(FaultInjector* faults) { faults_ = faults; }

  bool rolling_back() const { return rolling_back_; }
  /// True when the last Step applied an undo write (drivers record these as
  /// write events in the schedule trace).
  bool last_step_applied_undo() const { return last_step_undo_; }

  bool Done() const {
    return outcome_ == StepOutcome::kCommitted ||
           outcome_ == StepOutcome::kAborted;
  }
  StepOutcome outcome() const { return outcome_; }
  const Status& failure() const { return failure_; }
  /// True when the abort came from the program's own `Abort` statement
  /// (e.g. TPC-C's 1% NewOrder rollback) — a business outcome, not a
  /// concurrency casualty. Harnesses must not retry such a run.
  bool UserAborted() const { return user_aborted_; }
  /// Valid only after the transaction has begun (always true in eager mode).
  const Txn& txn() const { return *txn_; }
  Txn* mutable_txn() { return txn_.get(); }
  const TxnProgram& program() const { return *program_; }

  /// The statement the next Step will execute (nullptr when only the commit
  /// step remains).
  const Stmt* CurrentStmt() const;

  /// The assertion active at the current control point (the paper's P_{i,j}
  /// for the next statement, or the postcondition once the body finished).
  Expr ActiveAssertion() const;

 private:
  struct Frame {
    const StmtList* list;
    size_t index = 0;
    const Stmt* loop = nullptr;  ///< set when this frame is a while body
  };

  /// Routes a failure into either stepwise rollback (kRollingBack, when
  /// enabled and there is something to undo) or the atomic abort.
  StepOutcome EnterAbort(Status reason);
  /// Applies one undo write, or finishes the rollback when none remain.
  StepOutcome StepRollback();

  /// Executes one atomic statement; Ok, or kConflict (blocked), or failure.
  Status ExecStmt(const Stmt& stmt, bool wait);
  /// Advances the control stack past the current statement.
  void Advance();
  /// Pops finished frames, re-testing loop guards. Returns non-OK on guard
  /// evaluation errors.
  Status SettleFrames();
  Result<bool> EvalGuard(const Expr& guard);

  TxnManager* mgr_;
  std::shared_ptr<const TxnProgram> program_;
  CommitLog* log_;
  IsoLevel level_;
  bool begun_ = false;
  std::unique_ptr<Txn> txn_;
  std::vector<Frame> stack_;
  StepOutcome outcome_ = StepOutcome::kRunning;
  Status failure_;
  bool body_done_ = false;
  bool schedulable_rollback_ = false;
  bool rolling_back_ = false;
  bool last_step_undo_ = false;
  bool user_aborted_ = false;
  FaultInjector* faults_ = nullptr;
};

}  // namespace semcor

#endif  // SEMCOR_TXN_INTERPRETER_H_
