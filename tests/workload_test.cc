#include <gtest/gtest.h>

#include "common/str_util.h"
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
    auto program = w.Instantiate(type.name, rng);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    EXPECT_EQ(program.value()->type_name, type.name);
  }
  EXPECT_FALSE(w.Instantiate("NoSuchType", rng).ok());
}

TEST_P(AllWorkloadsTest, MixCoversKnownTypes) {
  Workload w = Make();
  ASSERT_FALSE(w.mix.empty());
  Rng rng(7);
  for (const auto& [type, weight] : w.mix) {
    EXPECT_GT(weight, 0.0);
    EXPECT_TRUE(w.Instantiate(type, rng).ok()) << type;
  }
}

TEST_P(AllWorkloadsTest, ScenariosShareOneSignatureAndEveryRequestBinds) {
  Workload w = Make();
  // A type's analysis scenarios all name the same parameters with the same
  // value types; that is the signature Instantiate checks requests against.
  for (const TransactionType& type : w.app.types) {
    ASSERT_FALSE(type.analysis_scenarios.empty()) << type.name;
    const std::map<std::string, Value>& signature =
        type.analysis_scenarios.front();
    for (const auto& scenario : type.analysis_scenarios) {
      EXPECT_EQ(scenario.size(), signature.size()) << type.name;
      for (const auto& [name, value] : scenario) {
        const auto slot = signature.find(name);
        ASSERT_NE(slot, signature.end()) << type.name << "." << name;
        EXPECT_EQ(slot->second.type(), value.type())
            << type.name << "." << name;
      }
    }
  }
  for (const ExploreMix& mix : w.explore_mixes) {
    for (const ExploreMix::Entry& entry : mix.txns) {
      auto program = w.Instantiate(entry.type, entry.params);
      EXPECT_TRUE(program.ok())
          << mix.name << ": " << program.status().ToString();
    }
  }
  Rng rng(5);
  for (const auto& [type, weight] : w.mix) {
    for (int i = 0; i < 1000; ++i) {
      auto program = w.Instantiate(type, rng);
      ASSERT_TRUE(program.ok()) << program.status().ToString();
    }
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
  auto program = w.Instantiate(
      "TNewOrder", {{"d", Value::Int(0)},
                    {"c", Value::Int(0)},
                    {"item", Value::Int(0)},
                    {"supply_w", Value::Int(0)},
                    {"qty", Value::Int(2)},
                    {"rollback", Value::Bool(true)}});
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ProgramRun run(&mgr, program.value(), IsoLevel::kSerializable);
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

TEST(TpccWorkloadTest, ReadOnlyTypesDeclareIt) {
  Workload w = MakeTpccWorkload();
  Rng rng(11);
  for (const auto& [type, weight] : w.mix) {
    auto program = w.Instantiate(type, rng);
    ASSERT_TRUE(program.ok()) << type;
    const bool expect_ro = type == "TOrderStatus" || type == "TStockLevel";
    EXPECT_EQ(program.value()->declared_read_only, expect_ro) << type;
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


TEST(WorkloadTest, InstantiateBindsOnlyTheSignature) {
  Workload w = MakeTpccWorkload();
  const ParamList good = {{"d", Value::Int(0)},    {"c", Value::Int(0)},
                          {"item", Value::Int(0)}, {"supply_w", Value::Int(0)},
                          {"qty", Value::Int(2)},  {"rollback", Value::Int(1)}};
  // A wire-style 0/1 binds to the boolean `rollback`.
  auto program = w.Instantiate("TNewOrder", good);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program.value()->params.at("rollback"), Value::Bool(true));

  auto rejects = [&](const ParamList& params, const std::string& why) {
    auto bad = w.Instantiate("TNewOrder", params);
    ASSERT_FALSE(bad.ok()) << why;
    EXPECT_EQ(bad.status().code(), Code::kInvalidArgument);
    EXPECT_NE(bad.status().message().find(why), std::string::npos)
        << bad.status().message();
  };
  ParamList missing(good.begin(), good.end() - 1);
  rejects(missing, "missing parameter 'rollback'");
  ParamList extra = good;
  extra.emplace_back("zz", Value::Int(1));
  rejects(extra, "unknown parameter 'zz'");
  ParamList twice = good;
  twice.emplace_back("qty", Value::Int(3));
  rejects(twice, "duplicated parameter 'qty'");
  ParamList two = good;
  two.back().second = Value::Int(2);
  rejects(two, "mistyped parameter 'rollback' (want bool");
  ParamList text = good;
  text.front().second = Value::Str("0");
  rejects(text, "mistyped parameter 'd' (want int");
  // A string parameter takes no integer, so the wire cannot send one.
  auto audit =
      MakeOrdersWorkload().Instantiate("Audit", {{"customer", Value::Int(1)}});
  EXPECT_FALSE(audit.ok());
}

// The first 50 (type, params) draws at seed 42, captured from the code
// before `DrawType` and `draw_params` existed: the random stream, and with
// it every seeded run, is unchanged.
constexpr const char* kBankingDraws = R"(Deposit_sav d=4 i=2
Withdraw_sav i=3 w=1
Withdraw_ch i=1 w=2
Withdraw_ch i=0 w=3
Withdraw_ch i=2 w=5
Deposit_ch d=3 i=3
Withdraw_sav i=0 w=4
Withdraw_sav i=1 w=1
Withdraw_sav i=0 w=3
Withdraw_ch i=3 w=1
Deposit_sav d=4 i=1
Deposit_sav d=5 i=0
Deposit_sav d=2 i=1
Withdraw_sav i=2 w=3
Withdraw_ch i=1 w=2
Withdraw_ch i=1 w=2
Withdraw_ch i=1 w=3
Withdraw_sav i=0 w=5
Withdraw_ch i=1 w=5
Withdraw_ch i=2 w=3
Deposit_ch d=5 i=1
Withdraw_ch i=1 w=2
Withdraw_sav i=2 w=2
Deposit_sav d=4 i=1
Deposit_sav d=5 i=2
Deposit_sav d=4 i=2
Withdraw_ch i=3 w=2
Withdraw_sav i=2 w=3
Withdraw_ch i=0 w=4
Withdraw_ch i=2 w=4
Withdraw_sav i=1 w=4
Withdraw_ch i=1 w=5
Deposit_sav d=3 i=0
Withdraw_sav i=3 w=2
Withdraw_sav i=3 w=3
Withdraw_sav i=2 w=1
Deposit_sav d=2 i=2
Deposit_sav d=5 i=3
Withdraw_ch i=1 w=5
Deposit_sav d=5 i=2
Withdraw_sav i=1 w=2
Withdraw_ch i=0 w=5
Withdraw_ch i=1 w=5
Withdraw_ch i=0 w=5
Deposit_sav d=5 i=3
Withdraw_sav i=2 w=1
Withdraw_sav i=2 w=3
Withdraw_sav i=1 w=4
Withdraw_sav i=2 w=1
Withdraw_ch i=0 w=3
)";
constexpr const char* kTpccDraws = R"(TPayment amount=19 c=9 w=1
TNewOrder c=10 d=2 item=6 qty=7 rollback=false supply_w=0
TPayment amount=1 c=11 w=1
TNewOrder c=11 d=2 item=1 qty=1 rollback=false supply_w=1
TNewOrder c=13 d=2 item=5 qty=9 rollback=false supply_w=1
TDelivery d=2
TNewOrder c=3 d=1 item=8 qty=3 rollback=false supply_w=0
TPayment amount=9 c=3 w=0
TNewOrder c=3 d=1 item=7 qty=6 rollback=false supply_w=0
TPayment amount=10 c=14 w=1
TNewOrder c=4 d=0 item=5 qty=4 rollback=false supply_w=0
TPayment amount=14 c=14 w=1
TPayment amount=6 c=2 w=0
TPayment amount=13 c=9 w=1
TPayment amount=8 c=8 w=1
TPayment amount=15 c=15 w=1
TNewOrder c=14 d=2 item=3 qty=5 rollback=false supply_w=0
TPayment amount=8 c=4 w=0
TPayment amount=8 c=11 w=1
TPayment amount=2 c=15 w=1
TNewOrder c=1 d=0 item=13 qty=3 rollback=false supply_w=0
TNewOrder c=6 d=1 item=14 qty=1 rollback=false supply_w=0
TNewOrder c=3 d=1 item=5 qty=8 rollback=false supply_w=0
TPayment amount=9 c=0 w=0
TNewOrder c=13 d=3 item=8 qty=4 rollback=false supply_w=1
TNewOrder c=0 d=1 item=3 qty=5 rollback=false supply_w=0
TPayment amount=10 c=11 w=1
TNewOrder c=2 d=0 item=7 qty=1 rollback=false supply_w=0
TNewOrder c=9 d=2 item=0 qty=3 rollback=false supply_w=1
TOrderStatus c=11
TNewOrder c=10 d=3 item=1 qty=6 rollback=false supply_w=1
TOrderStatus c=0
TNewOrder c=14 d=2 item=6 qty=4 rollback=false supply_w=1
TNewOrder c=3 d=1 item=3 qty=2 rollback=false supply_w=0
TNewOrder c=3 d=1 item=6 qty=2 rollback=false supply_w=0
TNewOrder c=6 d=0 item=10 qty=10 rollback=false supply_w=0
TPayment amount=19 c=13 w=1
TNewOrder c=5 d=1 item=1 qty=7 rollback=false supply_w=0
TNewOrder c=11 d=2 item=6 qty=10 rollback=false supply_w=1
TNewOrder c=2 d=0 item=0 qty=1 rollback=false supply_w=0
TPayment amount=4 c=12 w=0
TPayment amount=2 c=8 w=1
TPayment amount=15 c=9 w=1
TNewOrder c=15 d=3 item=2 qty=10 rollback=false supply_w=1
TPayment amount=4 c=0 w=0
TPayment amount=10 c=7 w=0
TNewOrder c=11 d=3 item=2 qty=2 rollback=false supply_w=1
TNewOrder c=3 d=0 item=9 qty=7 rollback=false supply_w=0
TOrderStatus c=13
TNewOrder c=7 d=0 item=1 qty=10 rollback=false supply_w=0
)";

std::string FirstDraws(const Workload& w) {
  Rng rng(42);
  std::string out;
  for (int i = 0; i < 50; ++i) {
    const std::string& type = w.DrawType(rng);
    auto program = w.Instantiate(type, rng);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    if (!program.ok()) break;
    out += type;
    for (const auto& [name, value] : program.value()->params) {
      out += StrCat(" ", name, "=", value.ToString());
    }
    out += "\n";
  }
  return out;
}

TEST(WorkloadTest, SeededDrawsMatchTheGolden) {
  EXPECT_EQ(FirstDraws(MakeBankingWorkload()), kBankingDraws);
  EXPECT_EQ(FirstDraws(MakeTpccWorkload()), kTpccDraws);
}

}  // namespace
}  // namespace semcor
