// E6 — substrate microbenchmarks (google-benchmark): lock manager, store,
// MVCC snapshots, predicate-lock conflict checks, expression evaluation and
// the validity decision procedure. These calibrate the testbed the
// experiments run on.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "lock/lock_manager.h"
#include "lock/ref_lock_manager.h"
#include "mvcc/version_store.h"
#include "sem/expr/eval.h"
#include "sem/logic/decide.h"
#include "storage/store.h"
#include "workload/workload.h"

namespace semcor {
namespace {

void BM_LockAcquireRelease(benchmark::State& state) {
  LockManager lm;
  TxnId txn = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lm.AcquireItem(txn, "x", LockMode::kExclusive, false));
    lm.ReleaseItem(txn, "x");
    ++txn;
  }
}
BENCHMARK(BM_LockAcquireRelease);

void BM_LockConflictCheck(benchmark::State& state) {
  LockManager lm;
  // Populate with shared holders.
  for (TxnId t = 1; t <= 8; ++t) {
    (void)lm.AcquireItem(t, "hot", LockMode::kShared, false);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lm.AcquireItem(99, "hot", LockMode::kExclusive, false));
  }
}
BENCHMARK(BM_LockConflictCheck);

// Same two hot paths on the retained single-mutex reference manager: the
// pre-sharding implementation, kept verbatim for differential testing.
// Comparing BM_Lock* against BM_RefLock* in one run is the like-for-like
// measurement of the sharding overhead on an uncontended thread.

void BM_RefLockAcquireRelease(benchmark::State& state) {
  RefLockManager lm;
  TxnId txn = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lm.AcquireItem(txn, "x", LockMode::kExclusive, false));
    lm.ReleaseItem(txn, "x");
    ++txn;
  }
}
BENCHMARK(BM_RefLockAcquireRelease);

void BM_RefLockConflictCheck(benchmark::State& state) {
  RefLockManager lm;
  for (TxnId t = 1; t <= 8; ++t) {
    (void)lm.AcquireItem(t, "hot", LockMode::kShared, false);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lm.AcquireItem(99, "hot", LockMode::kExclusive, false));
  }
}
BENCHMARK(BM_RefLockConflictCheck);

// Sharded-lock contention probes. The manager lives in a function-local
// static touched only by thread 0 before/after the iteration loop; the
// google-benchmark barriers at loop entry and exit make that race-free
// (the library's documented multi-threaded setup/teardown pattern). On a
// single-CPU host these measure sharding overhead, not speedup.

void ExportLockCounters(benchmark::State& state, const LockManager& lm) {
  const LockManager::Stats s = lm.stats();
  state.counters["grants"] = static_cast<double>(s.grants);
  state.counters["blocks"] = static_cast<double>(s.blocks);
  state.counters["deadlocks"] = static_cast<double>(s.deadlocks);
  state.counters["contention_waits"] = static_cast<double>(s.contention_waits);
  state.counters["shards"] = static_cast<double>(lm.shard_count());
}

void BM_LockShardedDisjoint(benchmark::State& state) {
  static LockManager* lm = nullptr;
  if (state.thread_index() == 0) {
    delete lm;
    lm = new LockManager();
  }
  const TxnId txn = static_cast<TxnId>(1000 + state.thread_index());
  const std::string key = "private" + std::to_string(state.thread_index());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        lm->AcquireItem(txn, key, LockMode::kExclusive, false));
    lm->ReleaseItem(txn, key);
  }
  if (state.thread_index() == 0) ExportLockCounters(state, *lm);
}
BENCHMARK(BM_LockShardedDisjoint)->Threads(1)->Threads(4);

void BM_LockShardedHotKeys(benchmark::State& state) {
  static LockManager* lm = nullptr;
  if (state.thread_index() == 0) {
    delete lm;
    lm = new LockManager();
  }
  const TxnId txn = static_cast<TxnId>(2000 + state.thread_index());
  long conflicts = 0;
  uint64_t n = 0;
  for (auto _ : state) {
    // Four hot keys shared by every thread: try-locks collide, so the
    // conflict path and the per-shard counters both get exercised.
    const std::string key = "hot" + std::to_string(n++ & 3);
    if (lm->AcquireItem(txn, key, LockMode::kExclusive, false).ok()) {
      lm->ReleaseItem(txn, key);
    } else {
      ++conflicts;
    }
  }
  state.counters["try_conflicts"] = static_cast<double>(conflicts);
  if (state.thread_index() == 0) ExportLockCounters(state, *lm);
}
BENCHMARK(BM_LockShardedHotKeys)->Threads(1)->Threads(4);

void BM_StoreReadCommitted(benchmark::State& state) {
  Store store;
  (void)store.CreateItem("x", Value::Int(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.ReadItem("x", ReadView::Committed()));
  }
}
BENCHMARK(BM_StoreReadCommitted);

void BM_StoreWriteCommitCycle(benchmark::State& state) {
  Store store;
  (void)store.CreateItem("x", Value::Int(1));
  TxnId txn = 1;
  for (auto _ : state) {
    (void)store.WriteItemUncommitted(txn, "x", Value::Int(2));
    benchmark::DoNotOptimize(store.CommitTxn(txn));
    ++txn;
  }
}
BENCHMARK(BM_StoreWriteCommitCycle);

void BM_SnapshotScan(benchmark::State& state) {
  Store store;
  (void)store.CreateTable("T", Schema({{"k", Value::Type::kInt},
                                       {"v", Value::Type::kInt}}));
  for (int i = 0; i < state.range(0); ++i) {
    (void)store.LoadRow("T", {{"k", Value::Int(i)}, {"v", Value::Int(i)}});
  }
  SnapshotView view(&store, store.CurrentTs());
  for (auto _ : state) {
    int64_t sum = 0;
    (void)view.Scan("T", [&](RowId, const Tuple& t) {
      sum += t.at("v").AsInt();
    });
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SnapshotScan)->Arg(16)->Arg(256);

void BM_PredicateDisjointnessCheck(benchmark::State& state) {
  LockManager lm;
  (void)lm.AcquirePredicate(1, "T", Eq(Attr("d"), Lit(int64_t{3})),
                            LockMode::kExclusive, false);
  for (auto _ : state) {
    // Memoized after the first call; measures the cached fast path, which
    // is what the transaction manager sees in steady state.
    benchmark::DoNotOptimize(lm.AcquirePredicate(
        2, "T", Eq(Attr("d"), Lit(int64_t{4})), LockMode::kExclusive, false));
    lm.ReleaseAll(2);
  }
}
BENCHMARK(BM_PredicateDisjointnessCheck);

void BM_EvalAggregate(benchmark::State& state) {
  MapEvalContext ctx;
  for (int i = 0; i < 64; ++i) {
    ctx.AddTuple("T", {{"k", Value::Int(i % 4)}, {"v", Value::Int(i)}});
  }
  const Expr e = SumOf("T", "v", Eq(Attr("k"), Lit(int64_t{1})));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Eval(e, ctx));
  }
}
BENCHMARK(BM_EvalAggregate);

void BM_DecideValidityLinear(benchmark::State& state) {
  // The Figure-1 preservation query.
  const Expr f =
      Implies(And({Ge(Add(DbVar("sav"), DbVar("ch")),
                      Add(Local("Sav"), Local("Ch"))),
                   Ge(Add(Local("Sav"), Local("Ch")), Local("w")),
                   Ge(DbVar("ch"), Local("Ch"))}),
              Ge(Add(Sub(Local("Sav"), Local("w")), DbVar("ch")),
                 Lit(int64_t{0})));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecideValidity(f));
  }
}
BENCHMARK(BM_DecideValidityLinear);

void BM_DecideValidityQuantified(benchmark::State& state) {
  const Expr a = Forall("T", True(), Le(Attr("v"), DbVar("x")));
  const Expr b =
      Forall("T", True(), Le(Attr("v"), Add(DbVar("x"), Lit(int64_t{1}))));
  const Expr f = Implies(a, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DecideValidity(f));
  }
}
BENCHMARK(BM_DecideValidityQuantified);

void BM_TxnBankingDeposit(benchmark::State& state) {
  Workload w = MakeBankingWorkload();
  Store store;
  (void)w.setup(&store);
  LockManager locks;
  TxnManager mgr(&store, &locks);
  Rng rng(1);
  auto program = w.Instantiate("Deposit_sav", rng).value();
  for (auto _ : state) {
    ProgramRun run(&mgr, program, IsoLevel::kReadCommitted, nullptr);
    benchmark::DoNotOptimize(run.RunToCompletion());
  }
}
BENCHMARK(BM_TxnBankingDeposit);

void BM_TxnOrdersNewOrder(benchmark::State& state) {
  Workload w = MakeOrdersWorkload(false);
  Store store;
  (void)w.setup(&store);
  LockManager locks;
  TxnManager mgr(&store, &locks);
  Rng rng(1);
  for (auto _ : state) {
    auto program = w.Instantiate("New_Order", rng).value();
    ProgramRun run(&mgr, program, IsoLevel::kReadCommitted, nullptr);
    benchmark::DoNotOptimize(run.RunToCompletion());
  }
}
BENCHMARK(BM_TxnOrdersNewOrder);

}  // namespace
}  // namespace semcor

// BENCHMARK_MAIN(), except the file reporter defaults to BENCH_E6.json:
// the usual console tables plus machine-readable JSON (google-benchmark's
// own schema, which carries the per-benchmark counters exported above). An
// explicit --benchmark_out on the command line still wins — flags parse in
// order and the caller's come last.
int main(int argc, char** argv) {
  std::string out_flag = "--benchmark_out=BENCH_E6.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  std::vector<char*> args;
  args.push_back(argv[0]);
  args.push_back(out_flag.data());
  args.push_back(fmt_flag.data());
  for (int i = 1; i < argc; ++i) args.push_back(argv[i]);
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  std::printf("\n[bench] wrote BENCH_E6.json\n");
  return 0;
}
