#include <gtest/gtest.h>

#include "sem/prog/builder.h"
#include "txn/interpreter.h"

namespace semcor {
namespace {

class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest() : mgr_(&store_, &locks_) {}

  void SetUp() override {
    ASSERT_TRUE(store_.CreateItem("x", Value::Int(10)).ok());
    ASSERT_TRUE(store_
                    .CreateTable("T", Schema({{"k", Value::Type::kInt},
                                              {"v", Value::Type::kInt}}))
                    .ok());
    ASSERT_TRUE(
        store_.LoadRow("T", {{"k", Value::Int(1)}, {"v", Value::Int(5)}}).ok());
  }

  Store store_;
  LockManager locks_;
  TxnManager mgr_;
  CommitLog log_;
};

TEST_F(InterpreterTest, StepThroughAndCommit) {
  ProgramBuilder b("T");
  b.Pre(Gt(DbVar("x"), Lit(int64_t{0}))).Read("X", "x");
  b.Pre(Gt(Local("X"), Lit(int64_t{0})))
      .Write("x", Add(Local("X"), Lit(int64_t{1})));
  b.Result(Gt(DbVar("x"), Lit(int64_t{1})));
  ProgramRun run(&mgr_, std::make_shared<TxnProgram>(b.Build({})),
                 IsoLevel::kReadCommitted, &log_);
  // Active assertion tracks the control point.
  EXPECT_EQ(ToString(run.ActiveAssertion()), "(x > 0)");
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);  // read
  EXPECT_EQ(ToString(run.ActiveAssertion()), "($X > 0)");
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);  // write
  EXPECT_EQ(run.CurrentStmt(), nullptr);              // only commit remains
  EXPECT_EQ(ToString(run.ActiveAssertion()), "(x > 1)");
  ASSERT_EQ(run.Step(false), StepOutcome::kCommitted);
  EXPECT_TRUE(run.Done());
  EXPECT_EQ(log_.size(), 1u);
  EXPECT_EQ(store_.ReadItem("x", ReadView::Committed()).value().AsInt(), 11);
}

TEST_F(InterpreterTest, ExplicitAbortRollsBack) {
  ProgramBuilder b("T");
  b.Write("x", Lit(int64_t{0}));
  b.Abort();
  ProgramRun run(&mgr_, std::make_shared<TxnProgram>(b.Build({})),
                 IsoLevel::kReadCommitted, &log_);
  EXPECT_EQ(run.RunToCompletion(), StepOutcome::kAborted);
  EXPECT_EQ(run.failure().code(), Code::kAborted);
  EXPECT_EQ(store_.ReadItem("x", ReadView::Committed()).value().AsInt(), 10);
  EXPECT_EQ(log_.size(), 0u);
  EXPECT_EQ(locks_.HeldCount(run.txn().id), 0u);
}

TEST_F(InterpreterTest, MissingItemAbortsCleanly) {
  ProgramBuilder b("T");
  b.Read("X", "does_not_exist");
  ProgramRun run(&mgr_, std::make_shared<TxnProgram>(b.Build({})),
                 IsoLevel::kReadCommitted, &log_);
  EXPECT_EQ(run.RunToCompletion(), StepOutcome::kAborted);
  EXPECT_EQ(run.failure().code(), Code::kNotFound);
}

TEST_F(InterpreterTest, MissingLogicalBindingItemFailsConstruction) {
  ProgramBuilder b("T");
  b.Logical("X0", "ghost_item");
  b.Read("X", "x");
  ProgramRun run(&mgr_, std::make_shared<TxnProgram>(b.Build({})),
                 IsoLevel::kReadCommitted, &log_);
  EXPECT_EQ(run.RunToCompletion(), StepOutcome::kAborted);
}

TEST_F(InterpreterTest, GuardOverDatabaseIsRejected) {
  ProgramBuilder b("T");
  // The model restricts guards to workspace variables.
  b.If(Gt(DbVar("x"), Lit(int64_t{0})),
       [](ProgramBuilder& t) { t.Write("x", Lit(int64_t{1})); });
  ProgramRun run(&mgr_, std::make_shared<TxnProgram>(b.Build({})),
                 IsoLevel::kReadCommitted, &log_);
  EXPECT_EQ(run.RunToCompletion(), StepOutcome::kAborted);
  EXPECT_EQ(run.failure().code(), Code::kInvalidArgument);
}

TEST_F(InterpreterTest, WhileLoopExecutes) {
  ProgramBuilder b("T");
  b.Let("i", Lit(int64_t{0}));
  b.While(Lt(Local("i"), Lit(int64_t{3})), [](ProgramBuilder& body) {
    body.Read("X", "x");
    body.Write("x", Add(Local("X"), Lit(int64_t{1})));
    body.Let("i", Add(Local("i"), Lit(int64_t{1})));
  });
  ProgramRun run(&mgr_, std::make_shared<TxnProgram>(b.Build({})),
                 IsoLevel::kSerializable, &log_);
  EXPECT_EQ(run.RunToCompletion(), StepOutcome::kCommitted);
  EXPECT_EQ(store_.ReadItem("x", ReadView::Committed()).value().AsInt(), 13);
}

TEST_F(InterpreterTest, PredicatesCloseOverLocalsAndParams) {
  ProgramBuilder b("T");
  b.SelectRows("buf", "T", Eq(Attr("k"), Local("key")));
  TxnProgram p = b.Build({{"key", Value::Int(1)}});
  ProgramRun run(&mgr_, std::make_shared<TxnProgram>(p),
                 IsoLevel::kReadCommitted, &log_);
  EXPECT_EQ(run.RunToCompletion(), StepOutcome::kCommitted);
  EXPECT_EQ(run.txn().buffers.at("buf").size(), 1u);
  EXPECT_EQ(run.txn().locals.at("buf_count").AsInt(), 1);
}

TEST_F(InterpreterTest, SelectAggThroughManagerTakesLevelIntoAccount) {
  // An RU aggregate sees another txn's dirty insert; an RC one blocks.
  auto writer = mgr_.Begin(IsoLevel::kReadCommitted);
  ASSERT_TRUE(mgr_.InsertRow(writer.get(), "T",
                             {{"k", Value::Int(2)}, {"v", Value::Int(9)}},
                             false)
                  .ok());
  ProgramBuilder b("Agg");
  b.SelectAgg("n", Count("T", True()));
  ProgramRun dirty(&mgr_, std::make_shared<TxnProgram>(b.Build({})),
                   IsoLevel::kReadUncommitted, &log_);
  EXPECT_EQ(dirty.RunToCompletion(), StepOutcome::kCommitted);
  EXPECT_EQ(dirty.txn().locals.at("n").AsInt(), 2);  // dirty row counted

  ProgramBuilder b2("Agg");
  b2.SelectAgg("n", Count("T", True()));
  ProgramRun blocked(&mgr_, std::make_shared<TxnProgram>(b2.Build({})),
                     IsoLevel::kReadCommitted, &log_);
  EXPECT_EQ(blocked.Step(false), StepOutcome::kBlocked);
  ASSERT_TRUE(mgr_.Commit(writer.get()).ok());
  EXPECT_EQ(blocked.RunToCompletion(), StepOutcome::kCommitted);
  EXPECT_EQ(blocked.txn().locals.at("n").AsInt(), 2);
}

TEST_F(InterpreterTest, ForceAbortIsTerminal) {
  ProgramBuilder b("T");
  b.Read("X", "x");
  b.Write("x", Local("X"));
  ProgramRun run(&mgr_, std::make_shared<TxnProgram>(b.Build({})),
                 IsoLevel::kReadCommitted, &log_);
  ASSERT_EQ(run.Step(false), StepOutcome::kRunning);
  run.ForceAbort(Status::Deadlock("victim"));
  EXPECT_TRUE(run.Done());
  EXPECT_EQ(run.outcome(), StepOutcome::kAborted);
  EXPECT_EQ(run.failure().code(), Code::kDeadlock);
  // Further steps are no-ops.
  EXPECT_EQ(run.Step(false), StepOutcome::kAborted);
}

TEST_F(InterpreterTest, SnapshotRunCapturesLogicalsFromSnapshot) {
  ProgramBuilder b("T");
  b.Logical("X0", "x");
  b.Read("X", "x");
  b.Write("x", Add(Local("X"), Lit(int64_t{5})));
  b.Result(Eq(DbVar("x"), Add(Logical("X0"), Lit(int64_t{5}))));
  ProgramRun run(&mgr_, std::make_shared<TxnProgram>(b.Build({})),
                 IsoLevel::kSnapshot, &log_);
  EXPECT_EQ(run.RunToCompletion(), StepOutcome::kCommitted);
  EXPECT_EQ(run.txn().logicals.at("X0").AsInt(), 10);
  EXPECT_EQ(store_.ReadItem("x", ReadView::Committed()).value().AsInt(), 15);
}

}  // namespace
}  // namespace semcor
