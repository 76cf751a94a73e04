// Quickstart: annotate a small transaction pair, check the proof outline,
// ask the per-level theorems for the lowest correct isolation level, and run
// an adversarial interleaving on the built-in transaction-manager testbed.
//
// The application: a tiny inventory where `reserve` moves stock into a
// pending counter and `restock` adds stock. The consistency constraint is
// stock >= 0.

#include <cstdio>

#include "sem/check/advisor.h"
#include "sem/prog/builder.h"
#include "sem/check/annotation.h"
#include "sem/rt/oracle.h"
#include "txn/driver.h"

using namespace semcor;

namespace {

constexpr const char* kStock = "stock";
constexpr const char* kPending = "pending";

Expr Invariant() {
  return And(Ge(DbVar(kStock), Lit(int64_t{0})),
             Ge(DbVar(kPending), Lit(int64_t{0})));
}

/// reserve(n): if stock >= n, move n units from stock to pending.
TransactionType MakeReserve() {
  TransactionType type;
  type.name = "Reserve";
  type.make = [](const std::map<std::string, Value>& params) {
    const Expr ii = Invariant();
    const Expr b = Ge(Local("n"), Lit(int64_t{0}));
    ProgramBuilder builder("Reserve");
    builder.IPart(ii).BPart(b);
    builder.Logical("S0", kStock);
    builder.Pre(And(ii, b)).Read("S", kStock);
    // Stable fact after the read: stock can only have grown (restocks), and
    // S is the initial value we observed.
    const Expr after_read =
        And({ii, b, Ge(DbVar(kStock), Local("S")), Eq(Local("S"), Logical("S0"))});
    // After the stock write: both counters still non-negative and the stock
    // reflects the reservation (carried through to the postcondition).
    const Expr stock_written =
        And({b, Ge(DbVar(kStock), Lit(int64_t{0})),
             Ge(DbVar(kPending), Lit(int64_t{0})),
             Eq(DbVar(kStock), Sub(Logical("S0"), Local("n")))});
    builder.Pre(after_read).If(
        Ge(Local("S"), Local("n")), [&](ProgramBuilder& then_block) {
          then_block.Pre(And(after_read, Ge(Local("S"), Local("n"))))
              .Write(kStock, Sub(Local("S"), Local("n")));
          then_block.Pre(stock_written).Read("P", kPending);
          then_block
              .Pre(And(stock_written, Ge(Local("P"), Lit(int64_t{0}))))
              .Write(kPending, Add(Local("P"), Local("n")));
        });
    builder.Result(Implies(Ge(Local("S"), Local("n")),
                           Eq(DbVar(kStock), Sub(Logical("S0"), Local("n")))));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"n", Value::Int(3)}}};
  return type;
}

/// restock(n): stock += n. The result asserts the increment really landed
/// (stock == initial + n). Try weakening it to just the invariant: the
/// advisor will then admit READ-UNCOMMITTED — and lost restocks become
/// semantically acceptable. Specification strength buys isolation down;
/// that trade is the paper's whole point.
TransactionType MakeRestock() {
  TransactionType type;
  type.name = "Restock";
  type.make = [](const std::map<std::string, Value>& params) {
    const Expr ii = Invariant();
    const Expr b = Ge(Local("n"), Lit(int64_t{0}));
    ProgramBuilder builder("Restock");
    builder.IPart(ii).BPart(b);
    builder.Logical("R0", kStock);
    builder.Pre(And(ii, b)).Read("S", kStock);
    builder
        .Pre(And({ii, b, Ge(Local("S"), Lit(int64_t{0})),
                  Eq(Local("S"), Logical("R0"))}))
        .Write(kStock, Add(Local("S"), Local("n")));
    builder.Result(Eq(DbVar(kStock), Add(Logical("R0"), Local("n"))));
    return builder.Build(params);
  };
  type.analysis_scenarios = {{{"n", Value::Int(5)}}};
  return type;
}

}  // namespace

int main() {
  // 1. Describe the application for the static analysis.
  Application app;
  app.name = "inventory";
  app.types = {MakeReserve(), MakeRestock()};
  app.invariant = Invariant();

  // 2. Check the proof outlines (the annotations really are a sequential
  //    proof of each transaction).
  for (const TransactionType& type : app.types) {
    TxnProgram p =
        PrepareForAnalysis(type.make(type.analysis_scenarios[0]), "");
    AnnotationReport report = CheckAnnotations(p);
    std::printf("%-8s outline: %s (%d checks)\n", type.name.c_str(),
                report.any_refuted ? "REFUTED"
                : report.all_proved ? "proved"
                                    : "partially proved",
                report.checked);
  }

  // 3. Run the §5 procedure: lowest correct level per type.
  LevelAdvisor advisor(app, AdvisorOptions());
  for (const LevelAdvice& advice : advisor.AdviseAll()) {
    std::printf("%-8s -> %s%s\n", advice.txn_type.c_str(),
                IsoLevelName(advice.recommended),
                advice.snapshot_correct ? "  (SNAPSHOT also correct)" : "");
  }

  // 4. Execute an adversarial interleaving on the testbed at the advised
  //    levels and let the runtime oracle confirm semantic correctness.
  Store store;
  LockManager locks;
  TxnManager mgr(&store, &locks);
  (void)store.CreateItem(kStock, Value::Int(10));
  (void)store.CreateItem(kPending, Value::Int(0));
  MapEvalContext initial = store.SnapshotToMap();
  CommitLog log;
  StepDriver driver(&mgr, &log);
  auto reserve = MakeReserve();
  auto restock = MakeRestock();
  driver.Add(std::make_shared<TxnProgram>(reserve.make({{"n", Value::Int(7)}})),
             advisor.Advise("Reserve").recommended);
  driver.Add(std::make_shared<TxnProgram>(restock.make({{"n", Value::Int(4)}})),
             advisor.Advise("Restock").recommended);
  driver.RunSchedule({0, 1, 0, 1});  // interleave
  driver.RunRoundRobin();

  OracleReport oracle =
      CheckSemanticCorrectness(initial, store, log, app.invariant);
  const ReadView committed = ReadView::Committed();
  std::printf("interleaved run: stock=%lld pending=%lld -> %s\n",
              static_cast<long long>(
                  store.ReadItem(kStock, committed).value().AsInt()),
              static_cast<long long>(
                  store.ReadItem(kPending, committed).value().AsInt()),
              oracle.ToString().c_str());
  return oracle.ok() ? 0 : 1;
}
