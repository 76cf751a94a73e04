#include <gtest/gtest.h>

#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "explore/session.h"
#include "lock/lock_manager.h"
#include "storage/store.h"
#include "txn/txn.h"
#include "wal/device.h"
#include "wal/record.h"
#include "wal/wal.h"
#include "workload/workload.h"

namespace semcor {
namespace {

using wal::Lsn;
using wal::LsnLe;
using wal::LsnLt;
using wal::MemDevice;
using wal::RecoveryResult;
using wal::WalOptions;
using wal::WriteAheadLog;

// ---- LSN wrap-tolerant comparison ----

TEST(LsnTest, WrapTolerantComparison) {
  EXPECT_TRUE(LsnLe(1, 1));
  EXPECT_TRUE(LsnLe(1, 2));
  EXPECT_FALSE(LsnLe(2, 1));
  EXPECT_TRUE(LsnLt(1, 2));
  EXPECT_FALSE(LsnLt(1, 1));

  // Across the 2^64 wrap: near-max LSNs are older than small post-wrap ones.
  const Lsn high = ~Lsn{0} - 1;
  EXPECT_TRUE(LsnLt(high, high + 1));
  EXPECT_TRUE(LsnLt(high, high + 3));  // wraps past 0
  EXPECT_FALSE(LsnLe(high + 3, high));
  EXPECT_TRUE(LsnLe(~Lsn{0}, Lsn{5}));
  EXPECT_FALSE(LsnLe(Lsn{5}, ~Lsn{0}));
}

// ---- record codec ----

TEST(WalRecordTest, CodecRoundTrip) {
  std::string log;
  {
    wal::Record rec;
    rec.lsn = 7;
    rec.type = wal::RecordType::kBegin;
    rec.body = wal::BeginBody{3, 2};
    log += wal::EncodeRecord(rec);
  }
  {
    wal::Record rec;
    rec.lsn = 8;
    rec.type = wal::RecordType::kWrite;
    wal::WriteBody body;
    body.txn = 3;
    body.target = "x";
    body.item_prior = Value::Int(41);
    rec.body = std::move(body);
    log += wal::EncodeRecord(rec);
  }
  {
    wal::Record rec;
    rec.lsn = 9;
    rec.type = wal::RecordType::kCommit;
    wal::CommitBody body;
    body.txn = 3;
    body.commit_ts = 12;
    body.effects.items.push_back({"x", Value::Int(42)});
    body.effects.rows.push_back(
        {"t", 5, Tuple{{"a", Value::Str("hi")}, {"b", Value::Bool(true)}}});
    body.effects.rows.push_back({"t", 6, std::nullopt});  // tombstone
    rec.body = std::move(body);
    log += wal::EncodeRecord(rec);
  }

  const wal::ScanResult scan = wal::ScanRecords(log);
  EXPECT_FALSE(scan.tail_torn);
  EXPECT_EQ(scan.clean_bytes, log.size());
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].lsn, 7u);
  EXPECT_EQ(scan.records[0].type, wal::RecordType::kBegin);
  const auto& w = std::get<wal::WriteBody>(scan.records[1].body);
  EXPECT_EQ(w.target, "x");
  ASSERT_TRUE(w.item_prior.has_value());
  EXPECT_EQ(*w.item_prior, Value::Int(41));
  const auto& c = std::get<wal::CommitBody>(scan.records[2].body);
  EXPECT_EQ(c.commit_ts, 12u);
  ASSERT_EQ(c.effects.items.size(), 1u);
  EXPECT_EQ(c.effects.items[0].value, Value::Int(42));
  ASSERT_EQ(c.effects.rows.size(), 2u);
  ASSERT_TRUE(c.effects.rows[0].image.has_value());
  EXPECT_EQ(c.effects.rows[0].image->at("a"), Value::Str("hi"));
  EXPECT_FALSE(c.effects.rows[1].image.has_value());
}

TEST(WalRecordTest, TornAndCorruptTailsAreRejected) {
  std::string log;
  for (int i = 0; i < 3; ++i) {
    wal::Record rec;
    rec.lsn = static_cast<Lsn>(i + 1);
    rec.type = wal::RecordType::kBegin;
    rec.body = wal::BeginBody{static_cast<TxnId>(i + 1), 0};
    log += wal::EncodeRecord(rec);
  }
  const size_t frame = log.size() / 3;

  // Truncation mid-frame: the clean prefix survives, the tail is torn.
  {
    const std::string torn = log.substr(0, 2 * frame + frame / 2);
    const wal::ScanResult scan = wal::ScanRecords(torn);
    EXPECT_TRUE(scan.tail_torn);
    EXPECT_EQ(scan.records.size(), 2u);
    EXPECT_EQ(scan.clean_bytes, 2 * frame);
  }
  // A flipped payload byte fails the CRC and stops the scan there.
  {
    std::string corrupt = log;
    corrupt[2 * frame + 10] ^= 0x40;
    const wal::ScanResult scan = wal::ScanRecords(corrupt);
    EXPECT_TRUE(scan.tail_torn);
    EXPECT_EQ(scan.records.size(), 2u);
  }
  // A corrupt length header cannot run the scan off the end.
  {
    std::string corrupt = log;
    corrupt[0] = '\xff';
    corrupt[1] = '\xff';
    const wal::ScanResult scan = wal::ScanRecords(corrupt);
    EXPECT_TRUE(scan.tail_torn);
    EXPECT_TRUE(scan.records.empty());
  }
}

// ---- WAL + recovery over a real transaction manager ----

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
/// ack flag (true without a WAL or when the fsync covered the record).
bool CommitWrite(TxnManager* mgr, IsoLevel level, const std::string& item,
                 int64_t v) {
  std::unique_ptr<Txn> txn = mgr->Begin(level);
  EXPECT_TRUE(mgr->WriteItem(txn.get(), item, Value::Int(v), true).ok());
  EXPECT_TRUE(mgr->Commit(txn.get()).ok());
  return txn->durable;
}

int64_t ItemValue(const Store& store, const std::string& name) {
  Result<Value> v = store.ReadItemCommitted(name);
  EXPECT_TRUE(v.ok());
  return v.value().AsInt();
}

TEST(WalTest, RecoveryReplaysCommittedPrefixAndDiscardsLosers) {
  World world;
  auto device = std::make_unique<MemDevice>();
  MemDevice* mem = device.get();
  WriteAheadLog wal(std::move(device), &world.store, WalOptions());
  world.mgr.SetWal(&wal);

  EXPECT_TRUE(CommitWrite(&world.mgr, IsoLevel::kSerializable, "x", 10));
  EXPECT_TRUE(CommitWrite(&world.mgr, IsoLevel::kSnapshot, "y", 20));
  // A loser: begun and written but never finished when the crash hits.
  std::unique_ptr<Txn> loser = world.mgr.Begin(IsoLevel::kSerializable);
  ASSERT_TRUE(world.mgr.WriteItem(loser.get(), "x", Value::Int(99), true).ok());

  World fresh;
  const RecoveryResult rec = wal::RecoverFromBytes(mem->data(), &fresh.store);
  EXPECT_FALSE(rec.tail_torn);
  EXPECT_EQ(rec.replayed_txns, 2u);
  EXPECT_EQ(rec.recovered_commits, 2u);
  EXPECT_EQ(rec.losers_aborted, 1u);
  EXPECT_EQ(rec.undone_writes, 1u);
  EXPECT_EQ(rec.max_txn_id, loser->id);
  EXPECT_EQ(ItemValue(fresh.store, "x"), 10);  // the loser's 99 never lands
  EXPECT_EQ(ItemValue(fresh.store, "y"), 20);

  world.mgr.Abort(loser.get());
  world.mgr.SetWal(nullptr);
}

TEST(WalTest, LsnAllocationSurvivesWrap) {
  World world;
  auto device = std::make_unique<MemDevice>();
  MemDevice* mem = device.get();
  WalOptions opts;
  opts.first_lsn = ~Lsn{0} - 2;  // a handful of appends crosses the wrap
  WriteAheadLog wal(std::move(device), &world.store, opts);
  world.mgr.SetWal(&wal);

  for (int i = 1; i <= 4; ++i) {
    EXPECT_TRUE(CommitWrite(&world.mgr, IsoLevel::kSerializable, "x", i));
  }
  world.mgr.SetWal(nullptr);
  wal.Stop();

  // 4 commits = 8 records (begin+write... begin is 1, write is 1, commit 1:
  // 12 records total), comfortably past the wrap. The durable LSN must have
  // wrapped numerically below first_lsn yet still compare as newest, and the
  // 0 sentinel must never have been assigned.
  const Lsn durable = wal.durable_lsn();
  EXPECT_LT(durable, opts.first_lsn);  // numeric wrap happened
  EXPECT_TRUE(LsnLt(opts.first_lsn, durable));

  World fresh;
  const RecoveryResult rec = wal::RecoverFromBytes(mem->data(), &fresh.store);
  EXPECT_EQ(rec.replayed_txns, 4u);
  EXPECT_EQ(ItemValue(fresh.store, "x"), 4);
  EXPECT_NE(rec.next_lsn, 0u);
  EXPECT_TRUE(LsnLt(opts.first_lsn, rec.next_lsn));
}

TEST(WalTest, CheckpointTruncatesWithSpaceAndCounterAccounting) {
  World world;
  auto device = std::make_unique<MemDevice>();
  MemDevice* mem = device.get();
  WalOptions opts;
  opts.checkpoint_every_bytes = 0;  // manual
  WriteAheadLog wal(std::move(device), &world.store, opts);
  world.mgr.SetWal(&wal);

  for (int i = 1; i <= 20; ++i) {
    EXPECT_TRUE(CommitWrite(&world.mgr, IsoLevel::kSerializable, "x", i));
  }
  const wal::WalStats before = wal.stats();
  EXPECT_EQ(before.commits_logged, 20u);
  EXPECT_GT(before.log_bytes, 0u);
  EXPECT_EQ(before.truncations, 0u);

  ASSERT_TRUE(wal.Checkpoint().ok());
  const wal::WalStats after = wal.stats();
  EXPECT_EQ(after.truncations, 1u);
  EXPECT_LT(after.log_bytes, before.log_bytes);
  EXPECT_GE(after.bytes_reclaimed, before.log_bytes);
  EXPECT_EQ(wal.committed_total(), 20u);

  // Counter parity across truncation: the checkpoint record carries the
  // cumulative commit count, so recovery reports 20 despite replaying none.
  World fresh;
  const RecoveryResult rec = wal::RecoverFromBytes(mem->data(), &fresh.store);
  EXPECT_TRUE(rec.found_checkpoint);
  EXPECT_EQ(rec.replayed_txns, 0u);
  EXPECT_EQ(rec.recovered_commits, 20u);
  EXPECT_EQ(ItemValue(fresh.store, "x"), 20);

  // Commits after the checkpoint replay on top of its state.
  EXPECT_TRUE(CommitWrite(&world.mgr, IsoLevel::kSerializable, "y", 7));
  World fresh2;
  const RecoveryResult rec2 = wal::RecoverFromBytes(mem->data(), &fresh2.store);
  EXPECT_EQ(rec2.replayed_txns, 1u);
  EXPECT_EQ(rec2.recovered_commits, 21u);
  EXPECT_EQ(ItemValue(fresh2.store, "x"), 20);
  EXPECT_EQ(ItemValue(fresh2.store, "y"), 7);
  world.mgr.SetWal(nullptr);
}

TEST(WalTest, CheckpointTriggersOnBytesAppendedSinceTheLastOne) {
  // A store whose checkpoint image alone is past the threshold: right after
  // a checkpoint the log is already that big, and only what commits append
  // on top of it may trigger the next one.
  World world;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        world.store.CreateItem("pad" + std::to_string(i), Value::Int(i)).ok());
  }
  WalOptions opts;
  opts.checkpoint_every_bytes = 512;
  WriteAheadLog wal(std::make_unique<MemDevice>(), &world.store, opts);
  world.mgr.SetWal(&wal);
  ASSERT_TRUE(wal.Checkpoint().ok());
  const uint64_t image = wal.stats().log_bytes;
  ASSERT_GT(image, opts.checkpoint_every_bytes);

  // Commit until the next automatic checkpoint, twice: each cycle takes
  // several commits, and the checkpoint fires on the commit whose bytes
  // take the log past the image plus the threshold.
  uint64_t checkpoints = wal.stats().checkpoints;
  for (int cycle = 0; cycle < 2; ++cycle) {
    const uint64_t base = wal.stats().log_bytes;
    int commits = 0;
    uint64_t appended = 0;
    while (wal.stats().checkpoints == checkpoints) {
      ASSERT_LT(appended, opts.checkpoint_every_bytes)
          << "cycle " << cycle << ", commit " << commits;
      ASSERT_LT(commits, 100);
      EXPECT_TRUE(CommitWrite(&world.mgr, IsoLevel::kSerializable, "x",
                              ++commits));
      appended = wal.stats().log_bytes - base;
    }
    EXPECT_GT(commits, 1) << "cycle " << cycle;
    EXPECT_EQ(wal.stats().checkpoints, checkpoints + 1);
    checkpoints = wal.stats().checkpoints;
  }
  world.mgr.SetWal(nullptr);
}

/// Crash-point matrix over the WAL fault sites: at every site, the acked
/// prefix must survive (durable commits are never lost) and recovery must
/// land on a commit-order prefix of the history.
TEST(WalTest, CrashAtEverySiteRecoversCommitOrderPrefix) {
  const FaultSite sites[] = {FaultSite::kWalAppend, FaultSite::kWalPreSync,
                             FaultSite::kWalPostSync};
  for (FaultSite site : sites) {
    SCOPED_TRACE(FaultSiteName(site));
    World world;
    auto device = std::make_unique<MemDevice>();
    MemDevice* mem = device.get();
    WriteAheadLog wal(std::move(device), &world.store, WalOptions());
    world.mgr.SetWal(&wal);

    EXPECT_TRUE(CommitWrite(&world.mgr, IsoLevel::kSerializable, "x", 1));

    // Arm: crash at the first visit of `site` during the second commit.
    bool armed = true;
    wal.SetFaultHook([&armed, site](FaultSite s, TxnId) {
      if (s != site || !armed) return false;
      armed = false;
      return true;
    });
    std::unique_ptr<Txn> txn = world.mgr.Begin(IsoLevel::kSerializable);
    ASSERT_TRUE(world.mgr.WriteItem(txn.get(), "x", Value::Int(2), true).ok());
    ASSERT_TRUE(world.mgr.Commit(txn.get()).ok());
    EXPECT_TRUE(wal.crashed());
    // Only a crash strictly after the fsync may acknowledge the commit.
    EXPECT_EQ(txn->durable, site == FaultSite::kWalPostSync);

    // Lower bound: the synced prefix is what any crash leaves at least.
    // Every acked commit must be in it.
    {
      World fresh;
      const std::string synced = mem->data().substr(0, mem->synced_size());
      const RecoveryResult rec = wal::RecoverFromBytes(synced, &fresh.store);
      if (txn->durable) {
        EXPECT_EQ(rec.replayed_txns, 2u);
        EXPECT_EQ(ItemValue(fresh.store, "x"), 2);
      } else {
        EXPECT_EQ(rec.replayed_txns, 1u);
        EXPECT_EQ(ItemValue(fresh.store, "x"), 1);
      }
    }
    // Upper bound: everything appended. A torn append (crash at kWalAppend
    // writes half the commit frame) must be rejected by the CRC; the other
    // sites leave a complete record that redo may apply.
    {
      World fresh;
      const RecoveryResult rec =
          wal::RecoverFromBytes(mem->data(), &fresh.store);
      if (site == FaultSite::kWalAppend) {
        EXPECT_TRUE(rec.tail_torn);
        EXPECT_EQ(rec.replayed_txns, 1u);
        EXPECT_EQ(ItemValue(fresh.store, "x"), 1);
      } else {
        EXPECT_EQ(rec.replayed_txns, 2u);
        EXPECT_EQ(ItemValue(fresh.store, "x"), 2);
      }
    }
    world.mgr.SetWal(nullptr);
  }
}

TEST(WalTest, CrashMidCheckpointKeepsOldLog) {
  World world;
  auto device = std::make_unique<MemDevice>();
  MemDevice* mem = device.get();
  WriteAheadLog wal(std::move(device), &world.store, WalOptions());
  world.mgr.SetWal(&wal);

  EXPECT_TRUE(CommitWrite(&world.mgr, IsoLevel::kSerializable, "x", 5));
  const std::string before = mem->data();

  wal.SetFaultHook([](FaultSite s, TxnId) {
    return s == FaultSite::kWalCheckpoint;
  });
  EXPECT_FALSE(wal.Checkpoint().ok());
  EXPECT_TRUE(wal.crashed());
  // The atomic replace never happened: the device still holds the old log,
  // and recovery replays it unchanged.
  EXPECT_EQ(mem->data(), before);
  World fresh;
  const RecoveryResult rec = wal::RecoverFromBytes(mem->data(), &fresh.store);
  EXPECT_EQ(rec.replayed_txns, 1u);
  EXPECT_EQ(ItemValue(fresh.store, "x"), 5);
  world.mgr.SetWal(nullptr);
}

/// A MemDevice whose Sync blocks until the test opens the gate, so one
/// fsync can be held in progress while other committers queue behind it.
class GatedDevice : public MemDevice {
 public:
  Status Sync() override {
    {
      std::unique_lock<std::mutex> lock(gate_mu_);
      ++syncs_entered_;
      gate_cv_.notify_all();
      gate_cv_.wait(lock, [this] { return open_; });
    }
    return MemDevice::Sync();
  }
  void WaitForSyncs(int n) {
    std::unique_lock<std::mutex> lock(gate_mu_);
    gate_cv_.wait(lock, [&] { return syncs_entered_ >= n; });
  }
  void Open() {
    std::lock_guard<std::mutex> lock(gate_mu_);
    open_ = true;
    gate_cv_.notify_all();
  }

 private:
  std::mutex gate_mu_;
  std::condition_variable gate_cv_;
  int syncs_entered_ = 0;
  bool open_ = false;
};

TEST(WalTest, CommittersQueuedBehindAnFsyncShareTheNextOne) {
  World world;
  auto device = std::make_unique<GatedDevice>();
  GatedDevice* gated = device.get();
  WriteAheadLog wal(std::move(device), &world.store, WalOptions());
  world.mgr.SetWal(&wal);

  constexpr int kCommitters = 4;
  std::vector<std::string> items;
  for (int t = 0; t < kCommitters; ++t) {
    items.push_back("z" + std::to_string(t));
    ASSERT_TRUE(world.store.CreateItem(items.back(), Value::Int(0)).ok());
  }
  std::vector<int> acked(kCommitters, 0);
  auto commit = [&](int t) {
    acked[t] = CommitWrite(&world.mgr, IsoLevel::kSerializable, items[t], 1);
  };
  // The first committer's fsync starts and is held; every later committer
  // appends its commit record and queues behind it.
  std::vector<std::thread> pool;
  pool.emplace_back(commit, 0);
  gated->WaitForSyncs(1);
  for (int t = 1; t < kCommitters; ++t) pool.emplace_back(commit, t);
  while (wal.stats().commits_logged < kCommitters) std::this_thread::yield();
  gated->Open();
  for (std::thread& t : pool) t.join();

  // The held fsync covers only the first commit; whichever queued committer
  // syncs next covers the other three, and the rest find themselves
  // covered.
  for (int t = 0; t < kCommitters; ++t) EXPECT_EQ(acked[t], 1) << t;
  const wal::WalStats stats = wal.stats();
  EXPECT_EQ(stats.fsyncs, 2u);
  EXPECT_EQ(stats.group_commit_batches, 2u);
  EXPECT_EQ(stats.batch_commits, static_cast<uint64_t>(kCommitters));
  world.mgr.SetWal(nullptr);
}

TEST(WalTest, LoneCommitterSyncsOncePerCommit) {
  World world;
  WriteAheadLog wal(std::make_unique<MemDevice>(), &world.store, WalOptions());
  world.mgr.SetWal(&wal);
  constexpr uint64_t kCommits = 5;
  for (uint64_t i = 1; i <= kCommits; ++i) {
    EXPECT_TRUE(CommitWrite(&world.mgr, IsoLevel::kSerializable, "x",
                            static_cast<int64_t>(i)));
    const wal::WalStats stats = wal.stats();
    EXPECT_EQ(stats.fsyncs, i);
    EXPECT_EQ(stats.group_commit_batches, i);
  }
  EXPECT_EQ(wal.stats().MeanBatchSize(), 1.0);
  world.mgr.SetWal(nullptr);
}

TEST(WalTest, OpenDirRecoversAcrossProcessRestart) {
  const std::string dir = ::testing::TempDir() + "wal_test_dir";
  // TempDir survives across test-binary runs: start from an empty log.
  std::remove((dir + "/wal.log").c_str());
  WalOptions opts;
  {
    World world;
    RecoveryResult rec;
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::OpenDir(dir, &world.store, opts, &rec);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(rec.recovered_commits, 0u);
    world.mgr.SetWal(wal.value().get());
    EXPECT_TRUE(CommitWrite(&world.mgr, IsoLevel::kSerializable, "x", 11));
    EXPECT_TRUE(CommitWrite(&world.mgr, IsoLevel::kSnapshot, "y", 22));
    world.mgr.SetWal(nullptr);
    wal.value()->Stop();
  }
  {
    // "Restart": a fresh store whose contents come only from the log. The
    // first incarnation's startup checkpoint captured the created items, so
    // no setup is needed here.
    Store store;
    LockManager locks;
    TxnManager mgr(&store, &locks);
    RecoveryResult rec;
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::OpenDir(dir, &store, opts, &rec);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(rec.recovered_commits, 2u);
    EXPECT_EQ(rec.replayed_txns, 2u);
    EXPECT_EQ(ItemValue(store, "x"), 11);
    EXPECT_EQ(ItemValue(store, "y"), 22);
    // Ids resume above everything the log saw; the wal is usable as-is.
    mgr.ResetIds(rec.max_txn_id + 1);
    mgr.SetWal(wal.value().get());
    EXPECT_TRUE(CommitWrite(&mgr, IsoLevel::kSerializable, "x", 33));
    mgr.SetWal(nullptr);
    wal.value()->Stop();
  }
  {
    Store store;
    RecoveryResult rec;
    Result<std::unique_ptr<WriteAheadLog>> wal =
        WriteAheadLog::OpenDir(dir, &store, opts, &rec);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(rec.recovered_commits, 3u);
    EXPECT_EQ(ItemValue(store, "x"), 33);
    wal.value()->Stop();
  }
}

// ---- the explorer's byte-prefix crash matrix ----

TEST(WalTest, ExplorerCrashMatrixHoldsOnBankingMix) {
  const Workload workload = MakeBankingWorkload();
  ASSERT_FALSE(workload.explore_mixes.empty());
  const IsoLevel levels[] = {IsoLevel::kSerializable, IsoLevel::kSnapshot,
                             IsoLevel::kReadCommitted};
  for (IsoLevel level : levels) {
    SCOPED_TRACE(IsoLevelName(level));
    ExploreSession session;
    ASSERT_TRUE(
        session.Init(workload, workload.explore_mixes.front(), level).ok());
    Rng rng(1234);
    long total_points = 0, total_torn = 0;
    for (int n = 0; n < 5; ++n) {
      Schedule hints;
      session.Fuzz(rng, 256, &hints);
      const CrashMatrixResult cm = session.RunCrashMatrix(hints);
      EXPECT_TRUE(cm.ok()) << cm.Summary();
      EXPECT_TRUE(cm.complete);
      total_points += cm.points_checked;
      total_torn += cm.torn_points;
    }
    EXPECT_GT(total_points, 0);
    EXPECT_GT(total_torn, 0);  // mid-record cuts exercised the CRC path
  }
}

}  // namespace
}  // namespace semcor
