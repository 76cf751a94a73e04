#include <gtest/gtest.h>

#include "fault/fault.h"
#include "sem/check/theorems.h"
#include "sem/expr/simplify.h"
#include "sem/prog/builder.h"
#include "txn/driver.h"

namespace semcor {
namespace {

SchemaShapes Shapes() {
  SchemaShapes shapes;
  shapes["T"] = TableShape{
      {{"k", Value::Type::kInt}, {"v", Value::Type::kInt}}};
  return shapes;
}

TEST(UndoTest, WriteUndoRestoresConstrainedValue) {
  ProgramBuilder b("W");
  // The write's annotation constrains the pre-state value of x.
  b.Pre(And(Ge(DbVar("x"), Lit(int64_t{0})), Ge(Local("d"), Lit(int64_t{0}))))
      .Write("x", Add(DbVar("x"), Local("d")));
  TxnProgram p = b.Build({});
  std::vector<StmtPtr> undos = SynthesizeUndoWrites(p, True(), {});
  ASSERT_EQ(undos.size(), 1u);
  EXPECT_EQ(undos[0]->kind, StmtKind::kWrite);
  EXPECT_EQ(undos[0]->item, "x");
  // The restored value inherits exactly the conjuncts about x alone:
  // here x >= 0 (the local-variable conjunct must be dropped).
  FreeVars fv = CollectFreeVars(undos[0]->pre);
  EXPECT_TRUE(fv.db.empty());
  EXPECT_EQ(fv.locals.size(), 1u);  // the fresh restored-value local
  EXPECT_NE(undos[0]->label.find("undo"), std::string::npos);
}

TEST(UndoTest, WriteUndoWithLogicalConstraint) {
  ProgramBuilder b("W");
  b.Logical("X0", "x");
  b.Pre(Eq(DbVar("x"), Logical("X0"))).Write("x", Lit(int64_t{5}));
  TxnProgram p = b.Build({});
  std::vector<StmtPtr> undos = SynthesizeUndoWrites(p, True(), {});
  ASSERT_EQ(undos.size(), 1u);
  // Rigid logical variables survive into the undo constraint: the restored
  // value *is* X0.
  FreeVars fv = CollectFreeVars(undos[0]->pre);
  EXPECT_EQ(fv.logicals.count("X0"), 1u);
}

TEST(UndoTest, InsertUndoIsPointDelete) {
  ProgramBuilder b("I");
  b.Insert("T", {{"k", Lit(int64_t{1})}, {"v", Local("val")}});
  TxnProgram p = b.Build({});
  std::vector<StmtPtr> undos = SynthesizeUndoWrites(p, True(), Shapes());
  ASSERT_EQ(undos.size(), 1u);
  EXPECT_EQ(undos[0]->kind, StmtKind::kDelete);
  EXPECT_EQ(undos[0]->table, "T");
  // The delete predicate pins every inserted attribute.
  FreeVars fv = CollectFreeVars(undos[0]->pred);
  EXPECT_EQ(fv.locals.count("val"), 1u);
}

TEST(UndoTest, DeleteUndoReinsertsInvariantRespectingTuple) {
  ProgramBuilder b("D");
  b.Delete("T", Eq(Attr("k"), Lit(int64_t{1})));
  TxnProgram p = b.Build({});
  const Expr invariant = Forall("T", True(), Ge(Attr("v"), Lit(int64_t{0})));
  std::vector<StmtPtr> undos = SynthesizeUndoWrites(p, invariant, Shapes());
  ASSERT_EQ(undos.size(), 1u);
  EXPECT_EQ(undos[0]->kind, StmtKind::kInsert);
  // Every schema attribute gets a fresh local value...
  EXPECT_EQ(undos[0]->values.size(), 2u);
  // ...constrained by the table's per-tuple invariant conjuncts.
  EXPECT_FALSE(IsTrueLiteral(Simplify(undos[0]->pre)));
}

TEST(UndoTest, UpdateUndoRewritesTouchedAttrs) {
  ProgramBuilder b("U");
  b.Update("T", Eq(Attr("k"), Lit(int64_t{1})),
           {{"v", Add(Attr("v"), Lit(int64_t{3}))}});
  TxnProgram p = b.Build({});
  std::vector<StmtPtr> undos = SynthesizeUndoWrites(p, True(), Shapes());
  ASSERT_EQ(undos.size(), 1u);
  EXPECT_EQ(undos[0]->kind, StmtKind::kUpdate);
  EXPECT_EQ(undos[0]->sets.size(), 1u);
  EXPECT_EQ(undos[0]->sets.count("v"), 1u);
}

TEST(UndoTest, OneUndoPerWrite) {
  ProgramBuilder b("Multi");
  b.Write("x", Lit(int64_t{1}));
  b.Insert("T", {{"k", Lit(int64_t{1})}, {"v", Lit(int64_t{2})}});
  b.Update("T", True(), {{"v", Lit(int64_t{0})}});
  b.Delete("T", True());
  b.Read("Y", "y");  // not a write: no undo
  TxnProgram p = b.Build({});
  EXPECT_EQ(SynthesizeUndoWrites(p, True(), Shapes()).size(), 4u);
}

// ---- Runtime counterpart: undo writes as schedulable events ----

TEST(UndoTest, ReadUncommittedObservesMidRollbackValue) {
  // Theorem 1 treats the undo writes an abort generates as writes in their
  // own right: at READ UNCOMMITTED, a concurrent reader can observe the
  // database between them. This scripts exactly that schedule — the static
  // tests above synthesize the undo writes; here the runtime plays them out
  // one step at a time and the reader's dirty read is classified as a read
  // of a rolling-back transaction's value.
  Store store;
  LockManager locks;
  TxnManager mgr(&store, &locks);
  ASSERT_TRUE(store.CreateItem("x", Value::Int(0)).ok());

  ProgramBuilder bw("Writer");
  bw.Write("x", Lit(int64_t{100}));
  ProgramBuilder br("Reader");
  br.Read("X", "x");

  FaultPlan plan;
  // Pinned to the writer (eager begin: first Add = txn id 1); the reader's
  // own commit must stay fault-free.
  plan.script.push_back(
      {FaultSite::kCommit, /*txn=*/1, 1, FaultKind::kCrashBeforeCommit});
  FaultInjector inj(plan);
  inj.BeginRun();

  StepDriver driver(&mgr, nullptr);
  driver.SetSchedulableRollback(true);
  driver.SetFaultInjector(&inj);
  const int w = driver.Add(std::make_shared<TxnProgram>(bw.Build({})),
                           IsoLevel::kReadCommitted);
  const int r = driver.Add(std::make_shared<TxnProgram>(br.Build({})),
                           IsoLevel::kReadUncommitted);

  int undo_steps = 0;
  driver.SetObserver([&](const StepEvent& ev) {
    if (ev.undo_write) ++undo_steps;
  });

  // w1(x) · crash at commit · r2(x) while w is mid-rollback · undo steps.
  ASSERT_EQ(driver.Step(w), StepOutcome::kRunning);      // w1(x := 100)
  ASSERT_EQ(driver.Step(w), StepOutcome::kRollingBack);  // crash, not undone
  ASSERT_EQ(driver.Step(r), StepOutcome::kRunning);      // r2 reads dirty 100
  EXPECT_EQ(driver.run(r).txn().locals.at("X").AsInt(), 100);
  EXPECT_EQ(driver.run(r).txn().undo_dirty_reads, 1);
  ASSERT_EQ(driver.Step(w), StepOutcome::kRollingBack);  // u1: restore x = 0
  EXPECT_EQ(undo_steps, 1);
  EXPECT_EQ(store.ReadItem("x", ReadView::Latest()).value().AsInt(), 0);
  ASSERT_EQ(driver.Step(w), StepOutcome::kAborted);      // release locks
  ASSERT_EQ(driver.Step(r), StepOutcome::kCommitted);
  // The reader committed a value no committed state ever contained — the
  // inconsistency Theorem 1's non-interference conditions exist to exclude.
  EXPECT_EQ(store.ReadItem("x", ReadView::Committed()).value().AsInt(), 0);
}

// ---- ReadStepPostcondition (Theorem 5's two-step model) ----

TEST(ReadStepTest, FirstWriteAnnotationIsTheReadStepPost) {
  ProgramBuilder b("T");
  b.Pre(True()).Read("X", "x");
  const Expr read_post = Ge(Local("X"), Lit(int64_t{0}));
  b.Pre(read_post).Write("y", Local("X"));
  TxnProgram p = b.Build({});
  EXPECT_TRUE(ExprEquals(ReadStepPostcondition(p), read_post));
}

TEST(ReadStepTest, WriteInsideBranchFound) {
  ProgramBuilder b("T");
  b.Pre(True()).Read("X", "x");
  const Expr read_post = Gt(Local("X"), Lit(int64_t{5}));
  b.Pre(True()).If(Gt(Local("X"), Lit(int64_t{5})),
                   [&](ProgramBuilder& t) {
                     t.Pre(read_post).Write("y", Local("X"));
                   });
  TxnProgram p = b.Build({});
  EXPECT_TRUE(ExprEquals(ReadStepPostcondition(p), read_post));
}

TEST(ReadStepTest, ReadOnlyTxnUsesPostcondition) {
  ProgramBuilder b("T");
  b.Pre(True()).Read("X", "x");
  b.Result(Ge(Local("X"), Lit(int64_t{0})));
  TxnProgram p = b.Build({});
  EXPECT_TRUE(ExprEquals(ReadStepPostcondition(p), p.Postcondition()));
}

}  // namespace
}  // namespace semcor
