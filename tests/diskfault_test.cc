// Tests for src/wal/faulty_device.* and the WAL's reaction to device
// failures: deterministic fault schedules, append errors freezing the log
// (an acked commit must never depend on bytes past a write error), and the
// two fsync-failure policies — panic (fsyncgate semantics: never
// retry-and-pretend) versus degrade-to-unsafe (keep serving, stop claiming
// durability). Every crash scenario is checked against recovery of the
// inner device's actual bytes, so the oracle is the real redo path.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "lock/lock_manager.h"
#include "storage/store.h"
#include "txn/txn.h"
#include "wal/device.h"
#include "wal/faulty_device.h"
#include "wal/wal.h"

namespace semcor {
namespace {

using wal::DiskFaultKind;
using wal::DiskFaultPlan;
using wal::DiskFaultStats;
using wal::DiskOp;
using wal::FaultyDevice;
using wal::FsyncFailurePolicy;
using wal::MemDevice;
using wal::RecoveryResult;
using wal::ScriptedDiskFault;
using wal::WalOptions;
using wal::WriteAheadLog;

// ---------------------------------------------------------------------------
// Plan parsing.
// ---------------------------------------------------------------------------

TEST(DiskFaultPlanTest, ParseSpecs) {
  DiskFaultPlan plan;
  EXPECT_TRUE(ParseDiskFaultPlan("none", &plan));
  EXPECT_TRUE(plan.empty());
  EXPECT_TRUE(ParseDiskFaultPlan("", &plan));
  EXPECT_TRUE(plan.empty());

  ASSERT_TRUE(ParseDiskFaultPlan("seed:7", &plan));
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_FALSE(plan.empty());
  EXPECT_GT(plan.p_sync_fail, 0);  // default plan leans on the policy site

  ASSERT_TRUE(ParseDiskFaultPlan("seed:9:0.5:0.25:0.125", &plan));
  EXPECT_EQ(plan.seed, 9u);
  EXPECT_DOUBLE_EQ(plan.p_append_eio, 0.5);
  EXPECT_DOUBLE_EQ(plan.p_short_write, 0.25);
  EXPECT_DOUBLE_EQ(plan.p_sync_fail, 0.125);

  EXPECT_FALSE(ParseDiskFaultPlan("bogus", &plan));
  EXPECT_FALSE(ParseDiskFaultPlan("seed:", &plan));
  EXPECT_FALSE(ParseDiskFaultPlan("seed:x", &plan));
  EXPECT_FALSE(ParseDiskFaultPlan("seed:1:nope", &plan));
}

// ---------------------------------------------------------------------------
// Deterministic injection.
// ---------------------------------------------------------------------------

/// Runs `appends` appends and `syncs` syncs, returning which ordinals failed
/// — the fault schedule fingerprint for a plan.
std::vector<int> FaultFingerprint(const DiskFaultPlan& plan, int appends,
                                  int syncs) {
  FaultyDevice dev(std::make_unique<MemDevice>(), plan);
  std::vector<int> failed;
  for (int i = 0; i < appends; ++i) {
    if (!dev.Append("0123456789abcdef").ok()) failed.push_back(i);
  }
  for (int i = 0; i < syncs; ++i) {
    if (!dev.Sync().ok()) failed.push_back(appends + i);
  }
  return failed;
}

TEST(FaultyDeviceTest, SameSeedSameSchedule) {
  const DiskFaultPlan plan = DiskFaultPlan::Seeded(42, 0.2, 0.1, 0.3);
  const std::vector<int> a = FaultFingerprint(plan, 200, 100);
  const std::vector<int> b = FaultFingerprint(plan, 200, 100);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());  // those probabilities must fire over 300 draws

  DiskFaultPlan other = plan;
  other.seed = 43;
  EXPECT_NE(FaultFingerprint(other, 200, 100), a);
}

TEST(FaultyDeviceTest, ScriptedShortWriteLeavesGenuinelyTornBytes) {
  DiskFaultPlan plan;
  plan.script = {{DiskOp::kAppend, 3, DiskFaultKind::kShortWrite}};
  FaultyDevice dev(std::make_unique<MemDevice>(), plan);

  EXPECT_TRUE(dev.Append("aaaaaaaa").ok());
  EXPECT_TRUE(dev.Append("bbbbbbbb").ok());
  const Status torn = dev.Append("cccccccc");
  EXPECT_FALSE(torn.ok());
  // The short write really lands a prefix on the inner device — recovery
  // sees a torn tail, not a simulation flag.
  EXPECT_EQ(dev.inner()->Size(), 8u + 8u + 4u);

  const DiskFaultStats stats = dev.stats();
  EXPECT_EQ(stats.injected, 1);
  EXPECT_EQ(stats.short_writes, 1);
}

// ---------------------------------------------------------------------------
// WAL behaviour under device failures.
// ---------------------------------------------------------------------------

struct World {
  Store store;
  LockManager locks;
  TxnManager mgr{&store, &locks};

  World() {
    EXPECT_TRUE(store.CreateItem("x", Value::Int(0)).ok());
    EXPECT_TRUE(store.CreateItem("y", Value::Int(0)).ok());
  }
};

/// One single-item write transaction driven to commit; returns the durable
/// ack flag.
bool CommitWrite(TxnManager* mgr, const std::string& item, int64_t v) {
  std::unique_ptr<Txn> txn = mgr->Begin(IsoLevel::kSerializable);
  EXPECT_TRUE(mgr->WriteItem(txn.get(), item, Value::Int(v), true).ok());
  EXPECT_TRUE(mgr->Commit(txn.get()).ok());
  return txn->durable;
}

int64_t ItemValue(const Store& store, const std::string& name) {
  Result<Value> v = store.ReadItem(name, ReadView::Committed());
  EXPECT_TRUE(v.ok());
  return v.value().AsInt();
}

/// Builds a WAL over a FaultyDevice wrapping a MemDevice; *mem gets the
/// inner device so tests can run recovery over the bytes that really landed.
std::unique_ptr<WriteAheadLog> MakeFaultyWal(World* world,
                                             const DiskFaultPlan& plan,
                                             FsyncFailurePolicy policy,
                                             MemDevice** mem) {
  auto inner = std::make_unique<MemDevice>();
  *mem = inner.get();
  auto faulty = std::make_unique<FaultyDevice>(std::move(inner), plan);
  WalOptions opts;
  opts.fsync_failure = policy;
  auto w = std::make_unique<WriteAheadLog>(std::move(faulty), &world->store,
                                           opts);
  world->mgr.SetWal(w.get());
  return w;
}

TEST(WalDiskFaultTest, AppendErrorFreezesLogRegardlessOfPolicy) {
  // Policy is degrade — but append failures must STILL freeze: a torn frame
  // mid-log would silently truncate recovery at the hole, so no later
  // record may be acked.
  World world;
  MemDevice* mem = nullptr;
  DiskFaultPlan plan;
  // Each commit appends begin+write+commit; visit 5 is txn 2's write record.
  plan.script = {{DiskOp::kAppend, 5, DiskFaultKind::kEio}};
  auto w = MakeFaultyWal(&world, plan, FsyncFailurePolicy::kDegradeToUnsafe,
                         &mem);

  EXPECT_TRUE(CommitWrite(&world.mgr, "x", 1));    // before the fault: acked
  EXPECT_FALSE(CommitWrite(&world.mgr, "x", 2));   // hits the fault: refused
  EXPECT_FALSE(CommitWrite(&world.mgr, "y", 3));   // frozen: still refused
  EXPECT_TRUE(w->crashed());
  EXPECT_TRUE(w->panicked());
  EXPECT_FALSE(w->device_error().ok());
  EXPECT_GE(w->stats().device_errors, 1u);

  // Oracle: recovery of the real bytes yields exactly the acked prefix.
  World fresh;
  const RecoveryResult rec = wal::RecoverFromBytes(mem->data(), &fresh.store);
  EXPECT_TRUE(rec.status.ok());
  EXPECT_EQ(rec.recovered_commits, 1u);
  EXPECT_EQ(ItemValue(fresh.store, "x"), 1);
  EXPECT_EQ(ItemValue(fresh.store, "y"), 0);

  world.mgr.SetWal(nullptr);
}

TEST(WalDiskFaultTest, FsyncFailurePanicRefusesAcks) {
  World world;
  MemDevice* mem = nullptr;
  DiskFaultPlan plan;
  plan.script = {{DiskOp::kSync, 2, DiskFaultKind::kSyncFail}};
  auto w = MakeFaultyWal(&world, plan, FsyncFailurePolicy::kPanic, &mem);

  EXPECT_TRUE(CommitWrite(&world.mgr, "x", 1));
  // The second commit's fsync fails: never retry-and-pretend — the log
  // freezes and the commit is not acknowledged as durable.
  EXPECT_FALSE(CommitWrite(&world.mgr, "x", 2));
  EXPECT_FALSE(CommitWrite(&world.mgr, "y", 3));
  EXPECT_TRUE(w->panicked());
  EXPECT_FALSE(w->degraded());
  EXPECT_FALSE(w->device_error().ok());

  // The unacked commits' records may or may not be on disk (MemDevice keeps
  // them); the guarantee under test is one-sided — everything ACKED is
  // recoverable. Commit 1 must be.
  World fresh;
  const RecoveryResult rec = wal::RecoverFromBytes(mem->data(), &fresh.store);
  EXPECT_TRUE(rec.status.ok());
  EXPECT_GE(rec.recovered_commits, 1u);
  EXPECT_GE(ItemValue(fresh.store, "x"), 1);

  world.mgr.SetWal(nullptr);
}

TEST(WalDiskFaultTest, FsyncFailureDegradeKeepsServingWithoutClaims) {
  World world;
  MemDevice* mem = nullptr;
  DiskFaultPlan plan;
  plan.script = {{DiskOp::kSync, 1, DiskFaultKind::kSyncFail}};
  auto w = MakeFaultyWal(&world, plan, FsyncFailurePolicy::kDegradeToUnsafe,
                         &mem);

  // Every commit still completes and is "acked" — but the log is degraded,
  // fsyncs stop, and the stats say exactly how many acks were unsafe.
  EXPECT_TRUE(CommitWrite(&world.mgr, "x", 1));
  EXPECT_TRUE(CommitWrite(&world.mgr, "x", 2));
  EXPECT_TRUE(CommitWrite(&world.mgr, "y", 3));
  EXPECT_TRUE(w->degraded());
  EXPECT_FALSE(w->panicked());
  EXPECT_FALSE(w->crashed());
  const wal::WalStats stats = w->stats();
  EXPECT_GE(stats.unsafe_acks, 3u);
  EXPECT_GE(stats.fsyncs_skipped, 2u);

  // Appends continued, so the bytes are all present (this device "failed"
  // only the fsync): replay still works — the degradation is about what
  // was PROMISED, not what happened to land.
  World fresh;
  const RecoveryResult rec = wal::RecoverFromBytes(mem->data(), &fresh.store);
  EXPECT_TRUE(rec.status.ok());
  EXPECT_EQ(rec.recovered_commits, 3u);
  EXPECT_EQ(ItemValue(fresh.store, "x"), 2);
  EXPECT_EQ(ItemValue(fresh.store, "y"), 3);

  world.mgr.SetWal(nullptr);
}

TEST(WalDiskFaultTest, SeededSoakAckedPrefixAlwaysRecovers) {
  // The acceptance property, in miniature: across seeds, run commits until
  // the log freezes (or 60 commits pass), then recover the real bytes and
  // check every acked commit is present. Short writes leave genuinely torn
  // tails; recovery must shrug them off.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    World world;
    MemDevice* mem = nullptr;
    const DiskFaultPlan plan = DiskFaultPlan::Seeded(seed, 0.05, 0.05, 0.05);
    auto w = MakeFaultyWal(&world, plan, FsyncFailurePolicy::kPanic, &mem);

    int64_t last_acked = 0;
    for (int64_t v = 1; v <= 60; ++v) {
      if (CommitWrite(&world.mgr, "x", v)) {
        EXPECT_EQ(last_acked, v - 1) << "ack after a refused ack, seed "
                                     << seed;
        last_acked = v;
      } else {
        break;  // first refusal freezes the log under panic
      }
    }

    World fresh;
    const RecoveryResult rec =
        wal::RecoverFromBytes(mem->data(), &fresh.store);
    EXPECT_TRUE(rec.status.ok()) << rec.status.ToString();
    EXPECT_GE(ItemValue(fresh.store, "x"), last_acked) << "seed " << seed;

    world.mgr.SetWal(nullptr);
  }
}

TEST(WalDiskFaultTest, ReplayFailureSurfacesAsRecoveryError) {
  // Satellite: a log whose committed transaction cannot be replayed must
  // fail recovery loudly (serverd exits non-zero), not serve a store that
  // silently dropped an acked commit. Craft a commit whose effects target a
  // table that does not exist in the recovering store.
  std::string log;
  wal::Record begin;
  begin.lsn = 1;
  begin.type = wal::RecordType::kBegin;
  begin.body = wal::BeginBody{1, 0};
  log += wal::EncodeRecord(begin);
  wal::Record commit;
  commit.lsn = 2;
  commit.type = wal::RecordType::kCommit;
  wal::CommitBody body;
  body.txn = 1;
  body.commit_ts = 1;
  body.effects.rows.push_back({"no_such_table", 1, Tuple{}});
  commit.body = std::move(body);
  log += wal::EncodeRecord(commit);

  Store store;
  const RecoveryResult rec = wal::RecoverFromBytes(log, &store);
  EXPECT_FALSE(rec.status.ok());
  EXPECT_NE(rec.status.ToString().find("replay"), std::string::npos);
}

}  // namespace
}  // namespace semcor
