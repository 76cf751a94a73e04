#include <gtest/gtest.h>

#include <vector>

#include "fault/fault.h"
#include "fault/policy.h"
#include "sem/prog/builder.h"
#include "txn/driver.h"
#include "txn/executor.h"
#include "workload/workload.h"

namespace semcor {
namespace {

// ---- FaultInjector: determinism and scripting ----

TEST(FaultInjectorTest, SeededDecisionsAreDeterministic) {
  FaultPlan plan = FaultPlan::Seeded(7);
  FaultInjector a(plan), b(plan);
  a.BeginRun();
  b.BeginRun();
  for (TxnId txn = 1; txn <= 4; ++txn) {
    for (int visit = 0; visit < 32; ++visit) {
      EXPECT_EQ(a.At(FaultSite::kCommit, txn), b.At(FaultSite::kCommit, txn));
      EXPECT_EQ(a.At(FaultSite::kStatementApply, txn),
                b.At(FaultSite::kStatementApply, txn));
      EXPECT_EQ(a.At(FaultSite::kLockGrant, txn),
                b.At(FaultSite::kLockGrant, txn));
    }
  }
  // A quarter-probability commit site must have fired by now.
  EXPECT_GT(a.stats().injected, 0);
}

TEST(FaultInjectorTest, DecisionsIndependentOfArrivalOrder) {
  // The decision for (txn, site, visit) must not depend on how other
  // transactions' visits interleave with it.
  FaultPlan plan = FaultPlan::Seeded(11);
  FaultInjector a(plan), b(plan);
  a.BeginRun();
  b.BeginRun();
  std::vector<FaultKind> txn1_a, txn1_b;
  for (int visit = 0; visit < 16; ++visit) {
    txn1_a.push_back(a.At(FaultSite::kStatementApply, 1));
    a.At(FaultSite::kStatementApply, 2);  // interleaved in a...
  }
  for (int visit = 0; visit < 16; ++visit) {  // ...but not in b
    txn1_b.push_back(b.At(FaultSite::kStatementApply, 1));
  }
  EXPECT_EQ(txn1_a, txn1_b);
}

TEST(FaultInjectorTest, ScriptedFaultFiresAtExactVisit) {
  FaultPlan plan;
  plan.script.push_back(
      {FaultSite::kStatementApply, 2, 3, FaultKind::kForcedAbort});
  FaultInjector inj(plan);
  inj.BeginRun();
  EXPECT_EQ(inj.At(FaultSite::kStatementApply, 2), FaultKind::kNone);
  EXPECT_EQ(inj.At(FaultSite::kStatementApply, 2), FaultKind::kNone);
  EXPECT_EQ(inj.At(FaultSite::kStatementApply, 1), FaultKind::kNone);  // txn 1
  EXPECT_EQ(inj.At(FaultSite::kStatementApply, 2), FaultKind::kForcedAbort);
  EXPECT_EQ(inj.At(FaultSite::kStatementApply, 2), FaultKind::kNone);
  EXPECT_EQ(inj.stats().forced_aborts, 1);
}

TEST(FaultInjectorTest, BeginRunRewindsVisitsButKeepsCumulativeStats) {
  FaultPlan plan;
  plan.script.push_back({FaultSite::kCommit, 0, 1, FaultKind::kCrashBeforeCommit});
  FaultInjector inj(plan);
  inj.BeginRun();
  EXPECT_EQ(inj.At(FaultSite::kCommit, 1), FaultKind::kCrashBeforeCommit);
  EXPECT_EQ(inj.At(FaultSite::kCommit, 1), FaultKind::kNone);
  EXPECT_EQ(inj.run_injected(), 1);
  inj.BeginRun();  // the same schedule replays the same fault
  EXPECT_EQ(inj.run_injected(), 0);
  EXPECT_EQ(inj.At(FaultSite::kCommit, 1), FaultKind::kCrashBeforeCommit);
  EXPECT_EQ(inj.run_injected(), 1);
  EXPECT_EQ(inj.stats().crashes, 2);  // cumulative across runs
}

TEST(FaultInjectorTest, FaultStatusMapsKindsToAbortCodes) {
  EXPECT_TRUE(FaultStatus(FaultKind::kNone).ok());
  EXPECT_EQ(FaultStatus(FaultKind::kForcedAbort).code(), Code::kAborted);
  EXPECT_EQ(FaultStatus(FaultKind::kTransientLockFailure).code(),
            Code::kWouldBlock);
  EXPECT_EQ(FaultStatus(FaultKind::kCrashBeforeCommit).code(), Code::kAborted);
}

// ---- Schedulable rollback through the interpreter ----

class FaultRunTest : public ::testing::Test {
 protected:
  FaultRunTest() : mgr_(&store_, &locks_) {}

  void SetUp() override {
    ASSERT_TRUE(store_.CreateItem("x", Value::Int(10)).ok());
    ASSERT_TRUE(store_
                    .CreateTable("T", Schema({{"k", Value::Type::kInt},
                                              {"v", Value::Type::kInt}}))
                    .ok());
  }

  std::shared_ptr<TxnProgram> DoubleWrite() {
    ProgramBuilder b("W");
    b.Read("X", "x");
    b.Write("x", Lit(int64_t{1}));
    b.Write("x", Lit(int64_t{2}));
    return std::make_shared<TxnProgram>(b.Build({}));
  }

  Store store_;
  LockManager locks_;
  TxnManager mgr_;
  CommitLog log_;
};

TEST_F(FaultRunTest, CrashBeforeCommitUnwindsOneUndoWritePerStep) {
  FaultPlan plan;
  plan.script.push_back(
      {FaultSite::kCommit, 0, 1, FaultKind::kCrashBeforeCommit});
  FaultInjector inj(plan);
  inj.BeginRun();
  ProgramRun run(&mgr_, DoubleWrite(), IsoLevel::kReadCommitted, &log_);
  run.EnableSchedulableRollback(true);
  run.SetFaultInjector(&inj);
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);  // read
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);  // x := 1
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);  // x := 2
  // The commit step crashes: the run enters rollback but nothing unwinds yet.
  ASSERT_EQ(run.Step(false), StepOutcome::kRollingBack);
  EXPECT_TRUE(run.rolling_back());
  EXPECT_FALSE(run.last_step_applied_undo());
  EXPECT_EQ(store_.ReadItem("x", ReadView::Latest()).value().AsInt(), 2);
  // First undo write restores the intermediate image...
  ASSERT_EQ(run.Step(false), StepOutcome::kRollingBack);
  EXPECT_TRUE(run.last_step_applied_undo());
  EXPECT_EQ(store_.ReadItem("x", ReadView::Latest()).value().AsInt(), 1);
  // ...the second clears the transaction's image entirely...
  ASSERT_EQ(run.Step(false), StepOutcome::kRollingBack);
  EXPECT_EQ(store_.ReadItem("x", ReadView::Latest()).value().AsInt(), 10);
  // ...and the finishing step releases locks and retires the transaction.
  const TxnId id = run.txn().id;
  EXPECT_GT(locks_.HeldCount(id), 0u);
  ASSERT_EQ(run.Step(false), StepOutcome::kAborted);
  EXPECT_EQ(locks_.HeldCount(id), 0u);
  EXPECT_EQ(store_.ReadItem("x", ReadView::Committed()).value().AsInt(), 10);
  EXPECT_EQ(log_.size(), 0u);
}

TEST_F(FaultRunTest, AtomicRollbackStaysSingleStep) {
  // Without schedulable rollback the same fault aborts in one step.
  FaultPlan plan;
  plan.script.push_back(
      {FaultSite::kCommit, 0, 1, FaultKind::kCrashBeforeCommit});
  FaultInjector inj(plan);
  inj.BeginRun();
  ProgramRun run(&mgr_, DoubleWrite(), IsoLevel::kReadCommitted, &log_);
  run.SetFaultInjector(&inj);
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);
  ASSERT_EQ(run.Step(false), StepOutcome::kAborted);
  EXPECT_EQ(run.failure().code(), Code::kAborted);
  EXPECT_EQ(store_.ReadItem("x", ReadView::Latest()).value().AsInt(), 10);
}

TEST_F(FaultRunTest, ForcedAbortAtStatementSiteRollsBackStepwise) {
  FaultPlan plan;
  plan.script.push_back(
      {FaultSite::kStatementApply, 0, 3, FaultKind::kForcedAbort});
  FaultInjector inj(plan);
  inj.BeginRun();
  ProgramRun run(&mgr_, DoubleWrite(), IsoLevel::kReadCommitted, &log_);
  run.EnableSchedulableRollback(true);
  run.SetFaultInjector(&inj);
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);       // read
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);       // x := 1
  ASSERT_EQ(run.Step(false), StepOutcome::kRollingBack);   // fault before x := 2
  EXPECT_EQ(store_.ReadItem("x", ReadView::Latest()).value().AsInt(), 1);
  ASSERT_EQ(run.Step(false), StepOutcome::kRollingBack);   // undo x := 1
  EXPECT_EQ(store_.ReadItem("x", ReadView::Latest()).value().AsInt(), 10);
  ASSERT_EQ(run.Step(false), StepOutcome::kAborted);
}

TEST_F(FaultRunTest, TransientLockFailureRetriesInTryLockMode) {
  FaultPlan plan;
  plan.script.push_back(
      {FaultSite::kStatementApply, 0, 1, FaultKind::kTransientLockFailure});
  FaultInjector inj(plan);
  inj.BeginRun();
  ProgramRun run(&mgr_, DoubleWrite(), IsoLevel::kReadCommitted, &log_);
  run.SetFaultInjector(&inj);
  // The first visit fails transiently; the retry (visit 2) goes through.
  ASSERT_EQ(run.Step(false), StepOutcome::kBlocked);
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);
  ASSERT_EQ(run.Step(false), StepOutcome::kCommitted);
  EXPECT_EQ(store_.ReadItem("x", ReadView::Committed()).value().AsInt(), 2);
}

TEST_F(FaultRunTest, LockGrantFaultVetoesTheGrant) {
  FaultPlan plan;
  plan.script.push_back(
      {FaultSite::kLockGrant, 0, 1, FaultKind::kTransientLockFailure});
  FaultInjector inj(plan);
  inj.BeginRun();
  locks_.SetFaultHook([&inj](TxnId txn) {
    return FaultStatus(inj.At(FaultSite::kLockGrant, txn));
  });
  ProgramRun run(&mgr_, DoubleWrite(), IsoLevel::kReadCommitted, &log_);
  // The read's lock grant fails once (WouldBlock -> kBlocked in try-lock
  // mode), then the retry is granted and the program completes.
  ASSERT_EQ(run.Step(false), StepOutcome::kBlocked);
  EXPECT_EQ(inj.stats().transient_lock_failures, 1);
  EXPECT_EQ(run.RunToCompletion(), StepOutcome::kCommitted);
  locks_.SetFaultHook(nullptr);
}

TEST_F(FaultRunTest, InsertUndoRemovesTheRow) {
  ProgramBuilder b("I");
  b.Insert("T", {{"k", Lit(int64_t{1})}, {"v", Lit(int64_t{5})}});
  FaultPlan plan;
  plan.script.push_back(
      {FaultSite::kCommit, 0, 1, FaultKind::kForcedAbort});
  FaultInjector inj(plan);
  inj.BeginRun();
  ProgramRun run(&mgr_, std::make_shared<TxnProgram>(b.Build({})),
                 IsoLevel::kReadCommitted, &log_);
  run.EnableSchedulableRollback(true);
  run.SetFaultInjector(&inj);
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);      // insert
  ASSERT_EQ(run.Step(false), StepOutcome::kRollingBack);  // fault at commit
  long rows_mid = 0;
  ASSERT_TRUE(store_
                  .Scan("T", ReadView::Latest(),
                        [&](RowId, const Tuple&, std::optional<TxnId>) {
                          ++rows_mid;
                        })
                  .ok());
  EXPECT_EQ(rows_mid, 1);  // the dirty row is visible mid-rollback
  ASSERT_EQ(run.Step(false), StepOutcome::kRollingBack);  // undo the insert
  long rows_after = 0;
  ASSERT_TRUE(store_
                  .Scan("T", ReadView::Latest(),
                        [&](RowId, const Tuple&, std::optional<TxnId>) {
                          ++rows_after;
                        })
                  .ok());
  EXPECT_EQ(rows_after, 0);
  ASSERT_EQ(run.Step(false), StepOutcome::kAborted);
}

TEST_F(FaultRunTest, ReadUncommittedReadOfRollingBackValueIsCounted) {
  // Writer dirties x and crashes at commit; before its undo writes run, a
  // READ-UNCOMMITTED reader observes the doomed value. This is exactly the
  // undo-write interference Theorem 1 obliges the static check to rule out.
  FaultPlan plan;
  plan.script.push_back(
      {FaultSite::kCommit, 0, 1, FaultKind::kCrashBeforeCommit});
  FaultInjector inj(plan);
  inj.BeginRun();
  ProgramRun writer(&mgr_, DoubleWrite(), IsoLevel::kReadCommitted, &log_);
  writer.EnableSchedulableRollback(true);
  writer.SetFaultInjector(&inj);
  ASSERT_EQ(writer.Step(false), StepOutcome::kRunning);
  ASSERT_EQ(writer.Step(false), StepOutcome::kRunning);
  ASSERT_EQ(writer.Step(false), StepOutcome::kRunning);
  ASSERT_EQ(writer.Step(false), StepOutcome::kRollingBack);

  ProgramBuilder rb("R");
  rb.Read("X", "x");
  ProgramRun reader(&mgr_, std::make_shared<TxnProgram>(rb.Build({})),
                    IsoLevel::kReadUncommitted, &log_);
  ASSERT_EQ(reader.Step(false), StepOutcome::kRunning);
  EXPECT_EQ(reader.txn().locals.at("X").AsInt(), 2);  // the doomed value
  EXPECT_EQ(reader.txn().dirty_reads, 1);
  EXPECT_EQ(reader.txn().undo_dirty_reads, 1);

  // Drain the rollback; a fresh read now sees the committed value.
  while (!writer.Done()) writer.Step(false);
  ProgramBuilder rb2("R2");
  rb2.Read("X", "x");
  ProgramRun reader2(&mgr_, std::make_shared<TxnProgram>(rb2.Build({})),
                     IsoLevel::kReadUncommitted, &log_);
  ASSERT_EQ(reader2.Step(false), StepOutcome::kRunning);
  EXPECT_EQ(reader2.txn().locals.at("X").AsInt(), 10);
  EXPECT_EQ(reader2.txn().undo_dirty_reads, 0);
}

TEST_F(FaultRunTest, ForceAbortCompletesAnInProgressRollback) {
  FaultPlan plan;
  plan.script.push_back(
      {FaultSite::kCommit, 0, 1, FaultKind::kCrashBeforeCommit});
  FaultInjector inj(plan);
  inj.BeginRun();
  ProgramRun run(&mgr_, DoubleWrite(), IsoLevel::kReadCommitted, &log_);
  run.EnableSchedulableRollback(true);
  run.SetFaultInjector(&inj);
  while (!run.rolling_back()) run.Step(false);
  run.ForceAbort(Status::Deadlock("victim"));
  EXPECT_TRUE(run.Done());
  // The wholesale abort discarded every remaining image and lock; the
  // original fault reason is preserved over the ForceAbort reason.
  EXPECT_EQ(store_.ReadItem("x", ReadView::Latest()).value().AsInt(), 10);
  EXPECT_EQ(locks_.HeldCount(run.txn().id), 0u);
  EXPECT_EQ(run.failure().code(), Code::kAborted);
}

// ---- Deadlock and retry policies ----

TEST(DeadlockPolicyTest, PickVictimPerPolicy) {
  const std::vector<int> blocked = {0, 2, 3};
  auto ids = [](int i) { return static_cast<TxnId>(10 - i); };  // 10, 8, 7
  DeadlockPolicy youngest;  // default kind
  EXPECT_EQ(PickDeadlockVictim(youngest, blocked, ids), 3);
  DeadlockPolicy wound{DeadlockPolicyKind::kWoundWait};
  // Wound-wait aborts the transaction that began last: index 0 (id 10).
  EXPECT_EQ(PickDeadlockVictim(wound, blocked, ids), 0);
  EXPECT_EQ(PickDeadlockVictim(youngest, {}, ids), -1);
}

TEST(DeadlockPolicyTest, WoundWaitTiesGoToHigherIndex) {
  DeadlockPolicy wound{DeadlockPolicyKind::kWoundWait};
  auto same = [](int) { return static_cast<TxnId>(5); };
  EXPECT_EQ(PickDeadlockVictim(wound, {1, 2}, same), 2);
}

TEST(DeadlockPolicyTest, ParseNamesAndBounds) {
  DeadlockPolicy p;
  ASSERT_TRUE(ParseDeadlockPolicy("youngest", &p));
  EXPECT_EQ(p.kind, DeadlockPolicyKind::kYoungestAbort);
  ASSERT_TRUE(ParseDeadlockPolicy("wound_wait", &p));
  EXPECT_EQ(p.kind, DeadlockPolicyKind::kWoundWait);
  ASSERT_TRUE(ParseDeadlockPolicy("bounded_wait:9", &p));
  EXPECT_EQ(p.kind, DeadlockPolicyKind::kBoundedWait);
  EXPECT_EQ(p.wait_bound, 9);
  EXPECT_FALSE(ParseDeadlockPolicy("nope", &p));
}

TEST(DeadlockPolicyTest, RoundRobinResolvesDeadlockUnderEveryPolicy) {
  // T1 locks x then y; T2 locks y then x — a guaranteed try-lock deadlock
  // under round-robin. Every policy must abort exactly one of them and let
  // the other commit.
  for (DeadlockPolicyKind kind :
       {DeadlockPolicyKind::kYoungestAbort, DeadlockPolicyKind::kWoundWait,
        DeadlockPolicyKind::kBoundedWait}) {
    Store store;
    LockManager locks;
    TxnManager mgr(&store, &locks);
    ASSERT_TRUE(store.CreateItem("x", Value::Int(0)).ok());
    ASSERT_TRUE(store.CreateItem("y", Value::Int(0)).ok());
    ProgramBuilder b1("T1");
    b1.Write("x", Lit(int64_t{1}));
    b1.Write("y", Lit(int64_t{1}));
    ProgramBuilder b2("T2");
    b2.Write("y", Lit(int64_t{2}));
    b2.Write("x", Lit(int64_t{2}));
    StepDriver driver(&mgr, nullptr);
    driver.SetDeadlockPolicy({kind, /*wait_bound=*/2});
    driver.Add(std::make_shared<TxnProgram>(b1.Build({})),
               IsoLevel::kSerializable);
    driver.Add(std::make_shared<TxnProgram>(b2.Build({})),
               IsoLevel::kSerializable);
    driver.RunRoundRobin();
    int committed = 0, aborted = 0;
    for (int i = 0; i < driver.size(); ++i) {
      if (driver.run(i).outcome() == StepOutcome::kCommitted) ++committed;
      if (driver.run(i).outcome() == StepOutcome::kAborted) ++aborted;
    }
    EXPECT_EQ(committed, 1) << DeadlockPolicyName(kind);
    EXPECT_EQ(aborted, 1) << DeadlockPolicyName(kind);
  }
}

TEST(RetryPolicyTest, DeterministicBackoffIsStableAndBounded) {
  RetryPolicy retry;
  retry.backoff_base_us = 100;
  for (int attempt = 0; attempt < 5; ++attempt) {
    const uint64_t us = retry.BackoffUs(attempt, /*salt=*/42);
    EXPECT_EQ(us, retry.BackoffUs(attempt, 42));  // pure function
    EXPECT_LT(us, static_cast<uint64_t>(100 * (attempt + 1)));
  }
  // Different salts decorrelate workers.
  bool differs = false;
  for (int attempt = 0; attempt < 5 && !differs; ++attempt) {
    differs = retry.BackoffUs(attempt, 1) != retry.BackoffUs(attempt, 2);
  }
  EXPECT_TRUE(differs);
  retry.backoff_base_us = 0;
  EXPECT_EQ(retry.BackoffUs(3, 42), 0u);
}

TEST(RetryPolicyTest, ExecutorSurfacesFaultAndRetryStats) {
  Store store;
  LockManager locks;
  TxnManager mgr(&store, &locks);
  Workload w = MakeBankingWorkload(4);
  ASSERT_TRUE(w.setup(&store).ok());
  FaultInjector faults(FaultPlan::Seeded(3, /*p_lock=*/0, /*p_stmt=*/0.2,
                                         /*p_commit=*/0.5));
  faults.BeginRun();
  CommitLog log;
  ConcurrentExecutor executor(&mgr, 2);
  RetryPolicy retry;
  retry.max_attempts = 2;
  retry.backoff_base_us = 0;
  double wall = 0;
  ExecStats stats = executor.Run(
      [&](Rng& rng) {
        return w.DrawFromMix(rng, w.paper_levels, IsoLevel::kSerializable);
      },
      40, retry, &log, &wall, /*seed=*/5, &faults);
  // Heavy fault pressure with a tight retry budget: faults must surface in
  // the stats, and some work items must exhaust their attempts.
  EXPECT_GT(stats.injected_faults, 0);
  EXPECT_GT(stats.aborted, 0);
  EXPECT_GT(stats.retries_exhausted, 0);
  EXPECT_EQ(stats.injected_faults, faults.stats().injected);
}

}  // namespace
}  // namespace semcor
