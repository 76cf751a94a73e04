#include <gtest/gtest.h>

#include "sem/rt/monitor.h"
#include "workload/workload.h"

namespace semcor {
namespace {

class MonitorTest : public ::testing::Test {
 protected:
  MonitorTest() : mgr_(&store_, &locks_) {}

  Store store_;
  LockManager locks_;
  TxnManager mgr_;
};

TEST_F(MonitorTest, NoInvalidationInSerialExecution) {
  Workload w = MakeBankingWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_);
  InvalidationMonitor monitor(&store_, &driver);
  driver.Add(w.Instantiate("Deposit_sav",
                           {{"i", Value::Int(1)}, {"d", Value::Int(5)}})
                 .value(),
             IsoLevel::kSerializable);
  driver.Add(w.Instantiate("Withdraw_sav",
                           {{"i", Value::Int(1)}, {"w", Value::Int(3)}})
                 .value(),
             IsoLevel::kSerializable);
  while (!driver.run(0).Done()) driver.Step(0);
  while (!driver.run(1).Done()) driver.Step(1);
  EXPECT_TRUE(monitor.events().empty());
  EXPECT_GT(monitor.evaluations(), 0);
}

TEST_F(MonitorTest, WriteSkewInvalidatesReadStepAssertion) {
  Workload w = MakeBankingWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_);
  InvalidationMonitor monitor(&store_, &driver);
  driver.Add(w.Instantiate("Withdraw_sav",
                           {{"i", Value::Int(1)}, {"w", Value::Int(15)}})
                 .value(),
             IsoLevel::kSnapshot);
  driver.Add(w.Instantiate("Withdraw_ch",
                           {{"i", Value::Int(1)}, {"w", Value::Int(15)}})
                 .value(),
             IsoLevel::kSnapshot);
  driver.RunRoundRobin();
  // Some active assertion of one withdraw was invalidated by the other's
  // (commit-time) write.
  bool cross_invalidation = false;
  for (const InvalidationEvent& e : monitor.events()) {
    if (e.victim != e.writer) cross_invalidation = true;
  }
  EXPECT_TRUE(cross_invalidation);
}

TEST_F(MonitorTest, DirtyHalfUpdateInvalidatesPrintRecordsInvariant) {
  Workload w = MakePayrollWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  StepDriver driver(&mgr_);
  InvalidationMonitor monitor(&store_, &driver);
  driver.Add(w.Instantiate("Print_Records", {{"i", Value::Int(1)}}).value(),
             IsoLevel::kReadUncommitted);
  driver.Add(w.Instantiate("Hours",
                           {{"i", Value::Int(1)}, {"h", Value::Int(4)}})
                 .value(),
             IsoLevel::kReadCommitted);
  // Hours' first update runs while Print_Records is at its I_sal control
  // point: the assertion flips to false (interference became invalidation).
  ASSERT_EQ(driver.Step(1), StepOutcome::kRunning);
  bool victim_zero = false;
  for (const InvalidationEvent& e : monitor.events()) {
    if (e.victim == 0 && e.writer == 1) victim_zero = true;
  }
  EXPECT_TRUE(victim_zero);
}

}  // namespace
}  // namespace semcor
