// Concurrency battery for the sharded LockManager.
//
// 1. Differential property test: seeded random request scripts run through
//    the sharded manager (at several shard counts) and the retained
//    single-mutex RefLockManager in deterministic try-lock mode, asserting
//    identical grant/kWouldBlock/kDeadlock outcomes and HeldCount after
//    every operation. Try-lock outcomes are a pure function of per-key
//    state, so sharding must not perturb them — this is the contract the
//    step driver and the schedule explorer replay on.
// 2. Multi-threaded stress: worker threads hammer a small key space with
//    mixed item/row/predicate requests (try-lock and blocking) plus
//    ReleaseAll, then the test asserts the post-storm invariants: no
//    residual holders, deadlocks never exceed blocks, per-shard statistics
//    sum to the totals. ci.sh runs this suite under ASan and TSan.
// 3. Cross-shard deadlock: a wait-for cycle whose two keys live on
//    different shards must still be detected via the global graph.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "lock/lock_manager.h"
#include "ref_lock_manager.h"

namespace semcor {
namespace {

bool IsPow2(size_t n) { return n != 0 && (n & (n - 1)) == 0; }

TEST(LockShardTest, DefaultShardCountIsClampedPowerOfTwo) {
  const size_t n = LockManager::DefaultShardCount();
  EXPECT_TRUE(IsPow2(n)) << n;
  EXPECT_GE(n, LockManager::kMinShards);
  EXPECT_LE(n, LockManager::kMaxShards);
  LockManager lm;
  EXPECT_EQ(lm.shard_count(), n);
  EXPECT_EQ(lm.ShardStats().size(), n);
}

TEST(LockShardTest, ConstructorAndReshardRoundUpToPowerOfTwo) {
  LockManager lm(3);
  EXPECT_EQ(lm.shard_count(), 4u);
  lm.Reshard(1);
  EXPECT_EQ(lm.shard_count(), 1u);
  lm.Reshard(5);
  EXPECT_EQ(lm.shard_count(), 8u);
  ASSERT_TRUE(lm.AcquireItem(1, "x", LockMode::kExclusive, false).ok());
  EXPECT_EQ(lm.HeldCount(1), 1u);
}

TEST(LockShardTest, KeysSpreadAcrossShards) {
  LockManager lm(8);
  std::set<size_t> used;
  for (int i = 0; i < 64; ++i) {
    used.insert(lm.ShardOfItem("item" + std::to_string(i)));
  }
  // With 64 keys over 8 shards a single-bucket hash would be broken.
  EXPECT_GT(used.size(), 1u);
  for (size_t s : used) EXPECT_LT(s, lm.shard_count());
}

TEST(LockShardTest, FaultHookSurvivesResetAndReshard) {
  LockManager lm(4);
  std::atomic<int> consulted{0};
  lm.SetFaultHook([&](TxnId) {
    ++consulted;
    return Status::Ok();
  });
  ASSERT_TRUE(lm.AcquireItem(1, "x", LockMode::kShared, false).ok());
  lm.Reset();
  lm.Reshard(8);
  ASSERT_TRUE(lm.AcquireItem(1, "y", LockMode::kShared, false).ok());
  EXPECT_EQ(consulted.load(), 2);
  // A vetoing hook blocks the grant on whatever shard the key lands on.
  lm.SetFaultHook(
      [](TxnId) { return Status::WouldBlock("injected transient failure"); });
  EXPECT_EQ(lm.AcquireItem(2, "z", LockMode::kExclusive, false).code(),
            Code::kWouldBlock);
  EXPECT_EQ(lm.HeldCount(2), 0u);
  lm.SetFaultHook(nullptr);
  EXPECT_TRUE(lm.AcquireItem(2, "z", LockMode::kExclusive, false).ok());
}

// ---- differential property test vs. the single-mutex reference ----

struct ScriptOp {
  enum Kind {
    kAcquireItem,
    kAcquireRow,
    kAcquirePredicate,
    kPredicateGate,
    kReleaseItem,
    kReleaseRow,
    kReleaseAll,
  };
  Kind kind = kAcquireItem;
  TxnId txn = 1;
  int key = 0;   ///< item index, row id, predicate index, or image value
  int table = 0;
  LockMode mode = LockMode::kShared;
};

constexpr int kTxns = 6;
constexpr int kItems = 8;
constexpr int kRows = 6;
const char* const kTables[] = {"T", "U"};

std::vector<ScriptOp> MakeScript(uint64_t seed, int length) {
  Rng rng(seed);
  std::vector<ScriptOp> script;
  script.reserve(length);
  for (int i = 0; i < length; ++i) {
    ScriptOp op;
    const int kind = static_cast<int>(rng.Uniform(0, 9));
    // Weight acquires over releases so tables stay populated.
    if (kind <= 2) {
      op.kind = ScriptOp::kAcquireItem;
    } else if (kind <= 4) {
      op.kind = ScriptOp::kAcquireRow;
    } else if (kind == 5) {
      op.kind = ScriptOp::kAcquirePredicate;
    } else if (kind == 6) {
      op.kind = ScriptOp::kPredicateGate;
    } else if (kind == 7) {
      op.kind = ScriptOp::kReleaseItem;
    } else if (kind == 8) {
      op.kind = ScriptOp::kReleaseRow;
    } else {
      op.kind = ScriptOp::kReleaseAll;
    }
    op.txn = static_cast<TxnId>(rng.Uniform(1, kTxns));
    op.key = static_cast<int>(rng.Uniform(0, kItems - 1));
    op.table = static_cast<int>(rng.Uniform(0, 1));
    op.mode = rng.Uniform(0, 1) == 0 ? LockMode::kShared : LockMode::kExclusive;
    script.push_back(op);
  }
  return script;
}

/// The four predicates the script draws from: two disjoint equalities, one
/// range overlapping both, and one range disjoint from d==1.
Expr ScriptPredicate(int index) {
  switch (index % 4) {
    case 0:
      return Eq(Attr("d"), Lit(int64_t{1}));
    case 1:
      return Eq(Attr("d"), Lit(int64_t{2}));
    case 2:
      return Gt(Attr("d"), Lit(int64_t{0}));
    default:
      return Gt(Attr("d"), Lit(int64_t{3}));
  }
}

/// Applies one op to a manager; returns the Status code (kOk for releases).
template <typename Manager>
Code ApplyOp(Manager& lm, const ScriptOp& op) {
  const std::string item = "it" + std::to_string(op.key);
  const std::string table = kTables[op.table];
  const RowId row = op.key % kRows;
  switch (op.kind) {
    case ScriptOp::kAcquireItem:
      return lm.AcquireItem(op.txn, item, op.mode, /*wait=*/false).code();
    case ScriptOp::kAcquireRow:
      return lm.AcquireRow(op.txn, table, row, op.mode, /*wait=*/false).code();
    case ScriptOp::kAcquirePredicate:
      return lm
          .AcquirePredicate(op.txn, table, ScriptPredicate(op.key), op.mode,
                            /*wait=*/false)
          .code();
    case ScriptOp::kPredicateGate: {
      Tuple image = {{"d", Value::Int(op.key % 5)}};
      return lm
          .PredicateGate(op.txn, table, {&image}, op.mode, /*wait=*/false)
          .code();
    }
    case ScriptOp::kReleaseItem:
      lm.ReleaseItem(op.txn, item);
      return Code::kOk;
    case ScriptOp::kReleaseRow:
      lm.ReleaseRow(op.txn, table, row);
      return Code::kOk;
    case ScriptOp::kReleaseAll:
      lm.ReleaseAll(op.txn);
      return Code::kOk;
  }
  return Code::kOk;
}

TEST(LockShardTest, DifferentialAgainstSingleMutexReference) {
  for (const uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
    const std::vector<ScriptOp> script = MakeScript(seed, 1500);
    for (const size_t shards : {1u, 2u, 8u}) {
      LockManager sharded(shards);
      RefLockManager reference;
      for (size_t i = 0; i < script.size(); ++i) {
        const ScriptOp& op = script[i];
        const Code got = ApplyOp(sharded, op);
        const Code want = ApplyOp(reference, op);
        ASSERT_EQ(got, want) << "seed " << seed << " shards " << shards
                             << " op " << i;
        for (TxnId t = 1; t <= kTxns; ++t) {
          ASSERT_EQ(sharded.HeldCount(t), reference.HeldCount(t))
              << "seed " << seed << " shards " << shards << " op " << i
              << " txn " << t;
        }
      }
    }
  }
}

TEST(LockShardTest, GrantCountsIndependentOfShardCount) {
  const std::vector<ScriptOp> script = MakeScript(7, 1200);
  long grants1 = -1;
  for (const size_t shards : {1u, 4u, 16u}) {
    LockManager lm(shards);
    for (const ScriptOp& op : script) ApplyOp(lm, op);
    const LockManager::Stats total = lm.stats();
    if (grants1 < 0) grants1 = total.grants;
    EXPECT_EQ(total.grants, grants1) << shards;
    // Try-lock scripts never wait.
    EXPECT_EQ(total.blocks, 0) << shards;
    EXPECT_EQ(total.contention_waits, 0) << shards;
  }
}

TEST(LockShardTest, ShardStatsSumToTotals) {
  LockManager lm(8);
  const std::vector<ScriptOp> script = MakeScript(99, 800);
  for (const ScriptOp& op : script) ApplyOp(lm, op);
  LockManager::Stats summed;
  for (const LockManager::Stats& s : lm.ShardStats()) summed.Add(s);
  const LockManager::Stats total = lm.stats();
  EXPECT_EQ(summed.grants, total.grants);
  EXPECT_EQ(summed.blocks, total.blocks);
  EXPECT_EQ(summed.deadlocks, total.deadlocks);
  EXPECT_EQ(summed.contention_waits, total.contention_waits);
  EXPECT_GT(total.grants, 0);
}

// ---- cross-shard deadlock detection ----

TEST(LockShardTest, CrossShardDeadlockDetected) {
  LockManager lm(8);
  // Find two items on different shards so the wait-for cycle spans them.
  std::string a = "a0", b;
  for (int i = 0; i < 256 && b.empty(); ++i) {
    std::string candidate = "b" + std::to_string(i);
    if (lm.ShardOfItem(candidate) != lm.ShardOfItem(a)) b = candidate;
  }
  ASSERT_FALSE(b.empty());
  ASSERT_TRUE(lm.AcquireItem(1, a, LockMode::kExclusive, false).ok());
  ASSERT_TRUE(lm.AcquireItem(2, b, LockMode::kExclusive, false).ok());
  std::thread t1([&] {
    // T1 waits for b (held by T2) on b's shard; T2 then requests a on a's
    // shard, closing a cycle the global graph must see.
    Status s = lm.AcquireItem(1, b, LockMode::kExclusive, true);
    EXPECT_TRUE(s.ok() || s.code() == Code::kDeadlock);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Status s2 = lm.AcquireItem(2, a, LockMode::kExclusive, true);
  EXPECT_EQ(s2.code(), Code::kDeadlock);
  lm.ReleaseAll(2);  // victim aborts
  t1.join();
  lm.ReleaseAll(1);
  EXPECT_GE(lm.stats().deadlocks, 1);
  EXPECT_GE(lm.stats().blocks, 1);
}

// ---- multi-threaded stress ----

TEST(LockShardStressTest, MixedStormLeavesNoResidue) {
  LockManager lm;  // default shard count
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr int kRounds = 60;
#else
  constexpr int kRounds = 250;
#endif
  constexpr int kThreads = 8;
  constexpr int kKeys = 16;
  std::atomic<long> observed_deadlocks{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng(0x5eed + t);
      const TxnId txn = t + 1;
      for (int round = 0; round < kRounds; ++round) {
        const int ops = 1 + static_cast<int>(rng.Uniform(0, 5));
        for (int i = 0; i < ops; ++i) {
          const int kind = static_cast<int>(rng.Uniform(0, 9));
          const LockMode mode =
              rng.Uniform(0, 2) == 0 ? LockMode::kExclusive : LockMode::kShared;
          const std::string key = "k" + std::to_string(rng.Uniform(0, kKeys - 1));
          Status s = Status::Ok();
          if (kind <= 4) {
            // Mostly try-locks: the deterministic drivers' bread and butter.
            s = lm.AcquireItem(txn, key, mode, /*wait=*/false);
          } else if (kind <= 6) {
            // Blocking acquires exercise queues, cv waits, and the global
            // wait-for graph (cycles resolve as kDeadlock).
            s = lm.AcquireItem(txn, key, mode, /*wait=*/true);
          } else if (kind == 7) {
            s = lm.AcquireRow(txn, "S", rng.Uniform(0, kKeys - 1), mode,
                              /*wait=*/false);
          } else {
            Tuple image = {{"d", Value::Int(rng.Uniform(0, 4))}};
            s = lm.PredicateGate(txn, "S", {&image}, mode, /*wait=*/false);
          }
          if (s.code() == Code::kDeadlock) {
            ++observed_deadlocks;
            break;  // abort: drop everything below
          }
        }
        lm.ReleaseAll(txn);
      }
      lm.ReleaseAll(txn);
    });
  }
  for (std::thread& w : workers) w.join();

  // Post-storm invariants.
  for (int t = 1; t <= kThreads; ++t) {
    EXPECT_EQ(lm.HeldCount(t), 0u) << "residual locks for txn " << t;
  }
  const LockManager::Stats total = lm.stats();
  EXPECT_GT(total.grants, 0);
  EXPECT_GE(total.blocks, total.deadlocks);
  EXPECT_GE(total.deadlocks, observed_deadlocks.load());
  LockManager::Stats summed;
  for (const LockManager::Stats& s : lm.ShardStats()) summed.Add(s);
  EXPECT_EQ(summed.grants, total.grants);
  EXPECT_EQ(summed.blocks, total.blocks);
  EXPECT_EQ(summed.deadlocks, total.deadlocks);
  EXPECT_EQ(summed.contention_waits, total.contention_waits);
  // The storm is over: a fresh transaction can take any lock immediately.
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(lm.AcquireItem(99, "k" + std::to_string(k),
                               LockMode::kExclusive, false)
                    .ok());
  }
  lm.ReleaseAll(99);
}

TEST(LockShardStressTest, ConcurrentDisjointKeysNeverConflict) {
  // Each thread owns a private key partition: with no key overlap there
  // must be zero blocks, zero deadlocks, and every acquire must succeed.
  LockManager lm(8);
  constexpr int kThreads = 4;
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  constexpr int kIters = 400;
#else
  constexpr int kIters = 2000;
#endif
  std::atomic<long> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      const TxnId txn = t + 1;
      for (int i = 0; i < kIters; ++i) {
        const std::string key = "p" + std::to_string(t) + "_" +
                                std::to_string(i % 8);
        if (!lm.AcquireItem(txn, key, LockMode::kExclusive, true).ok()) {
          ++failures;
        }
        lm.ReleaseItem(txn, key);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  const LockManager::Stats total = lm.stats();
  EXPECT_EQ(total.blocks, 0);
  EXPECT_EQ(total.deadlocks, 0);
  EXPECT_EQ(total.grants, static_cast<long>(kThreads) * kIters);
}

}  // namespace
}  // namespace semcor
