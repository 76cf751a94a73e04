#include <gtest/gtest.h>

#include "sem/rt/oracle.h"
#include "txn/driver.h"
#include "workload/workload.h"

namespace semcor {
namespace {

class OracleTest : public ::testing::Test {
 protected:
  OracleTest() : mgr_(&store_, &locks_) {}

  Store store_;
  LockManager locks_;
  TxnManager mgr_;
  CommitLog log_;
};

TEST_F(OracleTest, SerialScheduleIsSemanticCorrect) {
  Workload w = MakeBankingWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  MapEvalContext initial = store_.SnapshotToMap();
  StepDriver driver(&mgr_, &log_);
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
  OracleReport report =
      CheckSemanticCorrectness(initial, store_, log_, w.app.invariant);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(OracleTest, WriteSkewFlagged) {
  Workload w = MakeBankingWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  MapEvalContext initial = store_.SnapshotToMap();
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Withdraw_sav",
                           {{"i", Value::Int(1)}, {"w", Value::Int(15)}})
                 .value(),
             IsoLevel::kSnapshot);
  driver.Add(w.Instantiate("Withdraw_ch",
                           {{"i", Value::Int(1)}, {"w", Value::Int(15)}})
                 .value(),
             IsoLevel::kSnapshot);
  driver.RunRoundRobin();
  OracleReport report =
      CheckSemanticCorrectness(initial, store_, log_, w.app.invariant);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.invariant_holds);       // sum went negative
  EXPECT_FALSE(report.matches_serial_replay); // serial order blocks one
}

TEST_F(OracleTest, LostUpdateFlaggedBySerialReplayOnly) {
  // The lost update keeps the invariant (balance still >= 0) but the state
  // does not match the commit-order serial replay.
  Workload w = MakeBankingWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  MapEvalContext initial = store_.SnapshotToMap();
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Deposit_sav",
                           {{"i", Value::Int(1)}, {"d", Value::Int(5)}})
                 .value(),
             IsoLevel::kReadCommitted);
  driver.Add(w.Instantiate("Deposit_sav",
                           {{"i", Value::Int(1)}, {"d", Value::Int(7)}})
                 .value(),
             IsoLevel::kReadCommitted);
  driver.RunSchedule({0, 1});
  driver.RunRoundRobin();
  OracleReport report =
      CheckSemanticCorrectness(initial, store_, log_, w.app.invariant);
  EXPECT_TRUE(report.invariant_holds);
  EXPECT_FALSE(report.matches_serial_replay);
}

TEST_F(OracleTest, AbortedTransactionsExcludedFromReplay) {
  Workload w = MakeBankingWorkload();
  ASSERT_TRUE(w.setup(&store_).ok());
  MapEvalContext initial = store_.SnapshotToMap();
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("Withdraw_sav",
                           {{"i", Value::Int(1)}, {"w", Value::Int(15)}})
                 .value(),
             IsoLevel::kSnapshot);
  driver.Add(w.Instantiate("Withdraw_sav",
                           {{"i", Value::Int(1)}, {"w", Value::Int(15)}})
                 .value(),
             IsoLevel::kSnapshot);
  driver.RunRoundRobin();  // FCW aborts one
  ASSERT_EQ(log_.size(), 1u);
  OracleReport report =
      CheckSemanticCorrectness(initial, store_, log_, w.app.invariant);
  EXPECT_TRUE(report.ok()) << report.ToString();
}

TEST_F(OracleTest, RelationalTablesCompared) {
  Workload w = MakeOrdersWorkload(false);
  ASSERT_TRUE(w.setup(&store_).ok());
  MapEvalContext initial = store_.SnapshotToMap();
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("New_Order",
                           {{"customer", Value::Str("c")},
                            {"address", Value::Str("addr")},
                            {"order_info", Value::Int(300)}})
                 .value(),
             IsoLevel::kReadCommitted);
  driver.Add(w.Instantiate("Delivery", {{"today", Value::Int(2)}}).value(),
             IsoLevel::kRepeatableRead);
  while (!driver.run(0).Done()) driver.Step(0);
  while (!driver.run(1).Done()) driver.Step(1);
  OracleReport report =
      CheckSemanticCorrectness(initial, store_, log_, w.app.invariant);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_EQ(store_.SnapshotToMap().tables().at("ORDERS").size(), 6u);
}

TEST_F(OracleTest, SerialReplayDetectsTableDivergence) {
  // Tamper with the final state to prove the oracle notices.
  Workload w = MakeOrdersWorkload(false);
  ASSERT_TRUE(w.setup(&store_).ok());
  MapEvalContext initial = store_.SnapshotToMap();
  StepDriver driver(&mgr_, &log_);
  driver.Add(w.Instantiate("New_Order",
                           {{"customer", Value::Str("c")},
                            {"address", Value::Str("addr")},
                            {"order_info", Value::Int(300)}})
                 .value(),
             IsoLevel::kReadCommitted);
  while (!driver.run(0).Done()) driver.Step(0);
  // Sneak in an extra committed row outside any logged transaction.
  ASSERT_TRUE(store_
                  .LoadRow("ORDERS", Tuple{{"order_info", Value::Int(999)},
                                           {"cust_name", Value::Str("x")},
                                           {"deliv_date", Value::Int(1)},
                                           {"done", Value::Bool(false)}})
                  .ok());
  OracleReport report =
      CheckSemanticCorrectness(initial, store_, log_, w.app.invariant);
  EXPECT_FALSE(report.matches_serial_replay);
}

}  // namespace
}  // namespace semcor
