#include <gtest/gtest.h>

#include "sem/prog/builder.h"
#include "txn/driver.h"
#include "sem/rt/oracle.h"
#include "workload/workload.h"

namespace semcor {
namespace {

class ScheduleTest : public ::testing::Test {
 protected:
  ScheduleTest() : mgr_(&store_, &locks_) {}

  Store store_;
  LockManager locks_;
  TxnManager mgr_;
  CommitLog log_;
};

TEST_F(ScheduleTest, SerialBankingExecution) {
  Workload w = MakeBankingWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Deposit_sav",
                           {{"i", Value::Int(1)}, {"d", Value::Int(5)}})
                 .value(),
             IsoLevel::kSerializable);
  driver.Add(w.Instantiate("Withdraw_sav",
                           {{"i", Value::Int(1)}, {"w", Value::Int(3)}})
                 .value(),
             IsoLevel::kSerializable);
  // Run txn 0 fully, then txn 1.
  while (!driver.run(0).Done()) driver.Step(0);
  while (!driver.run(1).Done()) driver.Step(1);
  EXPECT_EQ(driver.run(0).outcome(), StepOutcome::kCommitted);
  EXPECT_EQ(driver.run(1).outcome(), StepOutcome::kCommitted);
  // 10 + 5 - 3 = 12.
  EXPECT_EQ(store_.ReadItemCommitted("acct_sav[1].bal").value().AsInt(), 12);
  EXPECT_EQ(log_.size(), 2u);
}

TEST_F(ScheduleTest, WriteSkewUnderSnapshot) {
  Workload w = MakeBankingWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  // Both withdraw 15 from account 1 (sav=10, ch=10: either alone is fine,
  // both violate sav+ch >= 0).
  driver.Add(w.Instantiate("Withdraw_sav",
                           {{"i", Value::Int(1)}, {"w", Value::Int(15)}})
                 .value(),
             IsoLevel::kSnapshot);
  driver.Add(w.Instantiate("Withdraw_ch",
                           {{"i", Value::Int(1)}, {"w", Value::Int(15)}})
                 .value(),
             IsoLevel::kSnapshot);
  driver.RunRoundRobin();
  EXPECT_EQ(driver.run(0).outcome(), StepOutcome::kCommitted);
  EXPECT_EQ(driver.run(1).outcome(), StepOutcome::kCommitted);
  const int64_t sav = store_.ReadItemCommitted("acct_sav[1].bal").value().AsInt();
  const int64_t ch = store_.ReadItemCommitted("acct_ch[1].bal").value().AsInt();
  EXPECT_LT(sav + ch, 0) << "write skew should violate the invariant";
}

TEST_F(ScheduleTest, WriteSkewPreventedAtSerializable) {
  Workload w = MakeBankingWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Withdraw_sav",
                           {{"i", Value::Int(1)}, {"w", Value::Int(15)}})
                 .value(),
             IsoLevel::kSerializable);
  driver.Add(w.Instantiate("Withdraw_ch",
                           {{"i", Value::Int(1)}, {"w", Value::Int(15)}})
                 .value(),
             IsoLevel::kSerializable);
  driver.RunRoundRobin();
  const int64_t sav = store_.ReadItemCommitted("acct_sav[1].bal").value().AsInt();
  const int64_t ch = store_.ReadItemCommitted("acct_ch[1].bal").value().AsInt();
  EXPECT_GE(sav + ch, 0);
}

TEST_F(ScheduleTest, SameItemConflictResolvedByFcwUnderSnapshot) {
  Workload w = MakeBankingWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Withdraw_sav",
                           {{"i", Value::Int(1)}, {"w", Value::Int(15)}})
                 .value(),
             IsoLevel::kSnapshot);
  driver.Add(w.Instantiate("Withdraw_sav",
                           {{"i", Value::Int(1)}, {"w", Value::Int(15)}})
                 .value(),
             IsoLevel::kSnapshot);
  driver.RunRoundRobin();
  // First-committer-wins: exactly one commits.
  const int committed = (driver.run(0).outcome() == StepOutcome::kCommitted) +
                        (driver.run(1).outcome() == StepOutcome::kCommitted);
  EXPECT_EQ(committed, 1);
  EXPECT_GE(store_.ReadItemCommitted("acct_sav[1].bal").value().AsInt() +
                store_.ReadItemCommitted("acct_ch[1].bal").value().AsInt(),
            0);
}

TEST_F(ScheduleTest, DirtyReadOfHalfUpdatedRecordAtReadUncommitted) {
  Workload w = MakePayrollWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Hours",
                           {{"i", Value::Int(1)}, {"h", Value::Int(4)}})
                 .value(),
             IsoLevel::kReadCommitted);
  driver.Add(w.Instantiate("Print_Records", {{"i", Value::Int(1)}}).value(),
             IsoLevel::kReadUncommitted);
  // Hours runs its first update, then Print reads between the two updates.
  ASSERT_EQ(driver.Step(0), StepOutcome::kRunning);  // update num_hrs
  ASSERT_EQ(driver.Step(1), StepOutcome::kRunning);  // dirty select
  const std::vector<Tuple>& rec = driver.run(1).txn().buffers.at("rec");
  ASSERT_EQ(rec.size(), 1u);
  // Inconsistent snapshot: num_hrs bumped, sal not yet.
  EXPECT_NE(rec[0].at("sal").AsInt(), 10 * rec[0].at("num_hrs").AsInt());
}

TEST_F(ScheduleTest, ReadCommittedSeesConsistentRecord) {
  Workload w = MakePayrollWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Hours",
                           {{"i", Value::Int(1)}, {"h", Value::Int(4)}})
                 .value(),
             IsoLevel::kReadCommitted);
  driver.Add(w.Instantiate("Print_Records", {{"i", Value::Int(1)}}).value(),
             IsoLevel::kReadCommitted);
  ASSERT_EQ(driver.Step(0), StepOutcome::kRunning);  // update num_hrs (X lock)
  // Print's select blocks on the row X lock.
  EXPECT_EQ(driver.Step(1), StepOutcome::kBlocked);
  driver.RunRoundRobin();
  ASSERT_EQ(driver.run(1).outcome(), StepOutcome::kCommitted);
  const std::vector<Tuple>& rec = driver.run(1).txn().buffers.at("rec");
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec[0].at("sal").AsInt(), 10 * rec[0].at("num_hrs").AsInt());
}

TEST_F(ScheduleTest, LostUpdateAtReadCommitted) {
  Workload w = MakeBankingWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Deposit_sav",
                           {{"i", Value::Int(1)}, {"d", Value::Int(5)}})
                 .value(),
             IsoLevel::kReadCommitted);
  driver.Add(w.Instantiate("Deposit_sav",
                           {{"i", Value::Int(1)}, {"d", Value::Int(7)}})
                 .value(),
             IsoLevel::kReadCommitted);
  // Interleave: both read, then both write.
  driver.RunSchedule({0, 1});  // both read 10
  driver.RunRoundRobin();
  // One deposit is lost: 10+5 or 10+7, not 10+5+7.
  const int64_t bal = store_.ReadItemCommitted("acct_sav[1].bal").value().AsInt();
  EXPECT_TRUE(bal == 15 || bal == 17) << bal;
}

TEST_F(ScheduleTest, LostUpdatePreventedByFcw) {
  Workload w = MakeBankingWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Deposit_sav",
                           {{"i", Value::Int(1)}, {"d", Value::Int(5)}})
                 .value(),
             IsoLevel::kReadCommittedFcw);
  driver.Add(w.Instantiate("Deposit_sav",
                           {{"i", Value::Int(1)}, {"d", Value::Int(7)}})
                 .value(),
             IsoLevel::kReadCommittedFcw);
  driver.RunSchedule({0, 1});  // both read 10
  driver.RunRoundRobin();
  const int committed = (driver.run(0).outcome() == StepOutcome::kCommitted) +
                        (driver.run(1).outcome() == StepOutcome::kCommitted);
  EXPECT_EQ(committed, 1);  // the stale writer aborted
  const int64_t bal = store_.ReadItemCommitted("acct_sav[1].bal").value().AsInt();
  EXPECT_TRUE(bal == 15 || bal == 17) << bal;
}

TEST_F(ScheduleTest, DeadlockResolvedInRoundRobin) {
  ASSERT_TRUE(store_.CreateItem("a", Value::Int(0)).ok());
  ASSERT_TRUE(store_.CreateItem("b", Value::Int(0)).ok());
  auto make = [](const std::string& first, const std::string& second) {
    ProgramBuilder b("Crossing");
    b.Read("X", first);
    b.Write(first, Add(Local("X"), Lit(int64_t{1})));
    b.Read("Y", second);
    b.Write(second, Add(Local("Y"), Lit(int64_t{1})));
    return std::make_shared<TxnProgram>(b.Build({}));
  };
  StepDriver driver(&mgr_, &log_);
  driver.Add(make("a", "b"), IsoLevel::kRepeatableRead);
  driver.Add(make("b", "a"), IsoLevel::kRepeatableRead);
  driver.RunRoundRobin();
  const int committed = (driver.run(0).outcome() == StepOutcome::kCommitted) +
                        (driver.run(1).outcome() == StepOutcome::kCommitted);
  EXPECT_EQ(committed, 1);  // one is the deadlock victim
}

TEST_F(ScheduleTest, NewOrderLostCounterUpdateAtReadCommitted) {
  Workload w = MakeOrdersWorkload(true);  // one-order-per-day rule
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  auto params = [](int info) {
    return ParamList{{"customer", Value::Str("a")},
                     {"address", Value::Str("addr")},
                     {"order_info", Value::Int(info)}};
  };
  driver.Add(w.Instantiate("New_Order", params(101)).value(),
             IsoLevel::kReadCommitted);
  driver.Add(w.Instantiate("New_Order", params(102)).value(),
             IsoLevel::kReadCommitted);
  // Both read MAXDATE = 5 before either writes it.
  driver.RunSchedule({0, 1});
  driver.RunRoundRobin();
  // Both committed; the one-order-per-day rule is now broken:
  // 7 orders but maximum_date == 6.
  EXPECT_EQ(store_.CommittedTuples("ORDERS").size(), 7u);
  EXPECT_EQ(store_.ReadItemCommitted("maximum_date").value().AsInt(), 6);
}

TEST_F(ScheduleTest, NewOrderCounterRaceAbortedAtFcw) {
  Workload w = MakeOrdersWorkload(true);
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  auto params = [](int info) {
    return ParamList{{"customer", Value::Str("a")},
                     {"address", Value::Str("addr")},
                     {"order_info", Value::Int(info)}};
  };
  driver.Add(w.Instantiate("New_Order", params(101)).value(),
             IsoLevel::kReadCommittedFcw);
  driver.Add(w.Instantiate("New_Order", params(102)).value(),
             IsoLevel::kReadCommittedFcw);
  driver.RunSchedule({0, 1});  // both read MAXDATE = 5
  driver.RunRoundRobin();
  const int committed = (driver.run(0).outcome() == StepOutcome::kCommitted) +
                        (driver.run(1).outcome() == StepOutcome::kCommitted);
  EXPECT_EQ(committed, 1);
  EXPECT_EQ(store_.CommittedTuples("ORDERS").size(), 6u);
  EXPECT_EQ(store_.ReadItemCommitted("maximum_date").value().AsInt(), 6);
}

TEST_F(ScheduleTest, AuditPhantomAtRepeatableRead) {
  Workload w = MakeOrdersWorkload(false);
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Audit", {{"customer", Value::Str("a")}}).value(),
             IsoLevel::kRepeatableRead);
  driver.Add(w.Instantiate("New_Order",
                           {{"customer", Value::Str("a")},
                            {"address", Value::Str("addr")},
                            {"order_info", Value::Int(200)}})
                 .value(),
             IsoLevel::kReadCommitted);
  // Audit counts orders of a (3), then New_Order inserts a phantom order
  // and bumps CUST.num_orders to 4, then Audit reads num_orders.
  ASSERT_EQ(driver.Step(0), StepOutcome::kRunning);  // count1 := 3
  while (!driver.run(1).Done()) driver.Step(1);
  ASSERT_EQ(driver.run(1).outcome(), StepOutcome::kCommitted);
  while (!driver.run(0).Done()) driver.Step(0);
  ASSERT_EQ(driver.run(0).outcome(), StepOutcome::kCommitted);
  EXPECT_EQ(driver.run(0).txn().locals.at("count1").AsInt(), 3);
  EXPECT_EQ(driver.run(0).txn().locals.at("count2").AsInt(), 4);
  EXPECT_FALSE(driver.run(0).txn().locals.at("retv").AsBool());
}

TEST_F(ScheduleTest, AuditProtectedAtSerializable) {
  Workload w = MakeOrdersWorkload(false);
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Audit", {{"customer", Value::Str("a")}}).value(),
             IsoLevel::kSerializable);
  driver.Add(w.Instantiate("New_Order",
                           {{"customer", Value::Str("a")},
                            {"address", Value::Str("addr")},
                            {"order_info", Value::Int(200)}})
                 .value(),
             IsoLevel::kReadCommitted);
  ASSERT_EQ(driver.Step(0), StepOutcome::kRunning);  // count1 with pred lock
  driver.RunRoundRobin();
  ASSERT_EQ(driver.run(0).outcome(), StepOutcome::kCommitted);
  EXPECT_TRUE(driver.run(0).txn().locals.at("retv").AsBool());
}


TEST_F(ScheduleTest, BlockedUpdateRetryDoesNotDoubleApply) {
  // Regression: a try-lock UPDATE that blocks (here: on a row X-locked by a
  // concurrent Hours) must not re-apply its set expressions when retried.
  Workload w = MakePayrollWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Hours",
                           {{"i", Value::Int(1)}, {"h", Value::Int(4)}})
                 .value(),
             IsoLevel::kReadCommitted);
  driver.Add(w.Instantiate("Hours",
                           {{"i", Value::Int(1)}, {"h", Value::Int(2)}})
                 .value(),
             IsoLevel::kReadCommitted);
  // T0 takes the row X lock; T1 blocks and retries several times while T0
  // finishes; then T1 runs.
  ASSERT_EQ(driver.Step(0), StepOutcome::kRunning);  // T0 update num_hrs
  EXPECT_EQ(driver.Step(1), StepOutcome::kBlocked);
  EXPECT_EQ(driver.Step(1), StepOutcome::kBlocked);
  driver.RunRoundRobin();
  ASSERT_EQ(driver.run(0).outcome(), StepOutcome::kCommitted);
  ASSERT_EQ(driver.run(1).outcome(), StepOutcome::kCommitted);
  for (const Tuple& t : store_.CommittedTuples("EMP")) {
    if (t.at("id").AsInt() == 1) {
      EXPECT_EQ(t.at("num_hrs").AsInt(), 8 + 4 + 2);
      EXPECT_EQ(t.at("sal").AsInt(), 10 * (8 + 4 + 2));
    }
  }
  OracleReport dummy;  // silence unused-include warnings in some compilers
  (void)dummy;
}

}  // namespace
}  // namespace semcor
