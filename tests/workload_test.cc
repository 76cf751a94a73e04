#include <gtest/gtest.h>

#include "sem/rt/oracle.h"
#include "workload/workload.h"

namespace semcor {
namespace {

class AllWorkloadsTest : public ::testing::TestWithParam<const char*> {
 protected:
  Workload Make() const {
    const std::string name = GetParam();
    if (name == "banking") return MakeBankingWorkload();
    if (name == "payroll") return MakePayrollWorkload();
    if (name == "mailing") return MakeMailingWorkload();
    if (name == "orders") return MakeOrdersWorkload(false);
    if (name == "orders_unique") return MakeOrdersWorkload(true);
    return MakeTpccWorkload();
  }
};

TEST_P(AllWorkloadsTest, SetupSatisfiesInvariant) {
  Workload w = Make();
  Store store;
  ASSERT_TRUE(w.setup(&store).ok());
  MapEvalContext state = store.SnapshotToMap();
  Result<bool> holds = EvalBool(w.app.invariant, state);
  ASSERT_TRUE(holds.ok()) << holds.status().ToString();
  EXPECT_TRUE(holds.value());
}

TEST_P(AllWorkloadsTest, InstantiateProducesRunnablePrograms) {
  Workload w = Make();
  Rng rng(7);
  for (const TransactionType& type : w.app.types) {
    auto program = w.instantiate(type.name, rng);
    ASSERT_NE(program, nullptr) << type.name;
    EXPECT_EQ(program->type_name, type.name);
  }
  EXPECT_EQ(w.instantiate("NoSuchType", rng), nullptr);
}

TEST_P(AllWorkloadsTest, MixCoversKnownTypes) {
  Workload w = Make();
  ASSERT_FALSE(w.mix.empty());
  for (const auto& [type, weight] : w.mix) {
    EXPECT_GT(weight, 0.0);
    bool found = false;
    for (const TransactionType& t : w.app.types) found |= t.name == type;
    EXPECT_TRUE(found) << type;
  }
}

TEST_P(AllWorkloadsTest, PaperLevelsCoverAllMixTypes) {
  Workload w = Make();
  for (const auto& [type, weight] : w.mix) {
    EXPECT_TRUE(w.paper_levels.count(type)) << type;
  }
}

TEST_P(AllWorkloadsTest, SerialRandomExecutionStaysSemanticallysCorrect) {
  Workload w = Make();
  Store store;
  ASSERT_TRUE(w.setup(&store).ok());
  LockManager locks;
  TxnManager mgr(&store, &locks);
  CommitLog log;
  MapEvalContext initial = store.SnapshotToMap();
  Rng rng(42);
  const std::map<std::string, IsoLevel> levels = w.paper_levels;
  for (int i = 0; i < 30; ++i) {
    WorkItem item = w.DrawFromMix(rng, levels, IsoLevel::kSerializable);
    ASSERT_NE(item.program, nullptr);
    ProgramRun run(&mgr, item.program, item.level, &log);
    StepOutcome outcome = run.RunToCompletion();
    EXPECT_TRUE(outcome == StepOutcome::kCommitted ||
                outcome == StepOutcome::kAborted)
        << item.program->instance_label;
  }
  OracleReport report =
      CheckSemanticCorrectness(initial, store, log, w.app.invariant);
  EXPECT_TRUE(report.ok()) << GetParam() << ": " << report.ToString();
}

INSTANTIATE_TEST_SUITE_P(Workloads, AllWorkloadsTest,
                         ::testing::Values("banking", "payroll", "mailing",
                                           "orders", "orders_unique", "tpcc"));

// TPC-C consistency conditions (lite analogues of clause 3.3.2) under real
// concurrency: the oracle's invariant — stock non-negative, order ids
// bounded, district revenue matching order lines, customer balances
// conserved, warehouse YTDs accounting for every payment — must hold both
// at all-SERIALIZABLE and at the advisor's mixed levels.
class TpccConsistencyTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TpccConsistencyTest, ConcurrentMixPreservesConsistencyConditions) {
  Workload w = MakeTpccWorkload(/*warehouses=*/2);
  Store store;
  ASSERT_TRUE(w.setup(&store).ok());
  LockManager locks;
  TxnManager mgr(&store, &locks);
  CommitLog log;
  MapEvalContext initial = store.SnapshotToMap();

  std::map<std::string, IsoLevel> levels;
  if (std::string(GetParam()) == "advisor") {
    levels = w.paper_levels;
  } else {
    for (const auto& [type, weight] : w.mix) {
      levels[type] = IsoLevel::kSerializable;
    }
  }
  ConcurrentExecutor executor(&mgr, 3);
  double wall = 0;
  ExecStats stats = executor.Run(
      [&](Rng& rng) {
        return w.DrawFromMix(rng, levels, IsoLevel::kSerializable);
      },
      40, RetryPolicy{.max_attempts = 21, .backoff_base_us = 50}, &log,
      &wall);
  EXPECT_GT(stats.committed, 0);
  EXPECT_EQ(stats.retries_exhausted, 0);

  OracleReport report =
      CheckSemanticCorrectness(initial, store, log, w.app.invariant);
  EXPECT_TRUE(report.ok()) << GetParam() << ": " << report.ToString();
  // The conditions also hold in the live final state, not just the replay.
  MapEvalContext final_state = store.SnapshotToMap();
  Result<bool> holds = EvalBool(w.app.invariant, final_state);
  ASSERT_TRUE(holds.ok()) << holds.status().ToString();
  EXPECT_TRUE(holds.value());
}

INSTANTIATE_TEST_SUITE_P(Levels, TpccConsistencyTest,
                         ::testing::Values("serializable", "advisor"));

TEST(TpccWorkloadTest, ForcedRollbackUndoesTheWholeOrder) {
  Workload w = MakeTpccWorkload();
  Store store;
  ASSERT_TRUE(w.setup(&store).ok());
  LockManager locks;
  TxnManager mgr(&store, &locks);
  auto program = w.InstantiateWith(
      "TNewOrder", {{"d", Value::Int(0)},
                    {"c", Value::Int(0)},
                    {"item", Value::Int(0)},
                    {"supply_w", Value::Int(0)},
                    {"qty", Value::Int(2)},
                    {"rollback", Value::Bool(true)}});
  ASSERT_NE(program, nullptr);
  ProgramRun run(&mgr, program, IsoLevel::kSerializable);
  EXPECT_EQ(run.RunToCompletion(), StepOutcome::kAborted);
  EXPECT_TRUE(run.UserAborted());
  // Everything the order entry touched is rolled back: the allocated id,
  // the order row, the order line, and the district revenue.
  MapEvalContext after = store.SnapshotToMap();
  const Expr untouched =
      And({Eq(DbVar("district[0].next_o_id"), Lit(int64_t{1})),
           Eq(DbVar("district[0].ytd"), Lit(int64_t{0})),
           Eq(Count("OORDER", True()), Lit(int64_t{0})),
           Eq(Count("OLINE", True()), Lit(int64_t{0}))});
  Result<bool> clean = EvalBool(untouched, after);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(clean.value());
}

TEST(TpccWorkloadTest, ReadOnlyTypesDeclareItAndThinkTimesCoverTheMix) {
  Workload w = MakeTpccWorkload();
  Rng rng(11);
  for (const auto& [type, weight] : w.mix) {
    auto program = w.instantiate(type, rng);
    ASSERT_NE(program, nullptr) << type;
    const bool expect_ro = type == "TOrderStatus" || type == "TStockLevel";
    EXPECT_EQ(program->declared_read_only, expect_ro) << type;
    EXPECT_TRUE(w.think_time_us.count(type)) << type;
  }
}

TEST(WorkloadTest, DrawFromMixRespectsLevels) {
  Workload w = MakeBankingWorkload();
  Rng rng(3);
  std::map<std::string, IsoLevel> levels = {
      {"Withdraw_sav", IsoLevel::kSnapshot}};
  for (int i = 0; i < 20; ++i) {
    WorkItem item = w.DrawFromMix(rng, levels, IsoLevel::kReadCommitted);
    if (item.program->type_name == "Withdraw_sav") {
      EXPECT_EQ(item.level, IsoLevel::kSnapshot);
    } else {
      EXPECT_EQ(item.level, IsoLevel::kReadCommitted);
    }
  }
}

}  // namespace
}  // namespace semcor
