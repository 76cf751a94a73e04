#include <random>

#include <gtest/gtest.h>

#include "storage/store.h"

namespace semcor {
namespace {

Schema KvSchema() {
  return Schema({{"k", Value::Type::kInt}, {"v", Value::Type::kInt}});
}

TEST(StoreTest, ItemLifecycle) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(5)).ok());
  EXPECT_EQ(store.CreateItem("x", Value::Int(1)).code(), Code::kAlreadyExists);
  EXPECT_EQ(store.ReadItemLatest("x").value().AsInt(), 5);
  EXPECT_EQ(store.ReadItemLatest("y").status().code(), Code::kNotFound);
}

TEST(StoreTest, UncommittedVisibleOnlyToLatestReads) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(5)).ok());
  ASSERT_TRUE(store.WriteItemUncommitted(1, "x", Value::Int(9)).ok());
  EXPECT_EQ(store.ReadItemLatest("x").value().AsInt(), 9);     // dirty
  EXPECT_EQ(store.ReadItemCommitted("x").value().AsInt(), 5);  // committed
}

TEST(StoreTest, SecondWriterConflicts) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(5)).ok());
  ASSERT_TRUE(store.WriteItemUncommitted(1, "x", Value::Int(9)).ok());
  EXPECT_EQ(store.WriteItemUncommitted(2, "x", Value::Int(7)).code(),
            Code::kConflict);
  // Same transaction may overwrite its own image.
  EXPECT_TRUE(store.WriteItemUncommitted(1, "x", Value::Int(10)).ok());
}

TEST(StoreTest, CommitPromotesAndBumpsTimestamp) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(5)).ok());
  ASSERT_TRUE(store.WriteItemUncommitted(1, "x", Value::Int(9)).ok());
  const Timestamp ts = store.CommitTxn(1);
  EXPECT_GT(ts, 0u);
  EXPECT_EQ(store.ReadItemCommitted("x").value().AsInt(), 9);
  EXPECT_EQ(store.ItemLastCommitTs("x").value(), ts);
}

TEST(StoreTest, AbortDiscardsImages) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(5)).ok());
  ASSERT_TRUE(store.WriteItemUncommitted(1, "x", Value::Int(9)).ok());
  store.AbortTxn(1);
  EXPECT_EQ(store.ReadItemLatest("x").value().AsInt(), 5);
}

TEST(StoreTest, SnapshotReadsSeeOldVersions) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(5)).ok());
  const Timestamp before = store.CurrentTs();
  ASSERT_TRUE(store.WriteItemUncommitted(1, "x", Value::Int(9)).ok());
  store.CommitTxn(1);
  EXPECT_EQ(store.ReadItemAtSnapshot("x", before).value().AsInt(), 5);
  EXPECT_EQ(store.ReadItemAtSnapshot("x", store.CurrentTs()).value().AsInt(),
            9);
}

TEST(StoreTest, RowLifecycle) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", KvSchema()).ok());
  Result<RowId> row = store.LoadRow(
      "T", {{"k", Value::Int(1)}, {"v", Value::Int(10)}});
  ASSERT_TRUE(row.ok());
  Result<std::optional<Tuple>> image = store.ReadRowLatest("T", row.value());
  ASSERT_TRUE(image.ok());
  ASSERT_TRUE(image.value().has_value());
  EXPECT_EQ(image.value()->at("v").AsInt(), 10);
}

TEST(StoreTest, SchemaValidationOnInsert) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", KvSchema()).ok());
  // Wrong type.
  EXPECT_FALSE(
      store.LoadRow("T", {{"k", Value::Str("a")}, {"v", Value::Int(0)}}).ok());
  // Missing attribute.
  EXPECT_FALSE(store.LoadRow("T", {{"k", Value::Int(1)}}).ok());
}

TEST(StoreTest, UncommittedInsertInvisibleToCommittedScan) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", KvSchema()).ok());
  ASSERT_TRUE(store
                  .InsertRowUncommitted(
                      7, "T", {{"k", Value::Int(1)}, {"v", Value::Int(1)}})
                  .ok());
  int latest = 0, committed = 0;
  ASSERT_TRUE(store.Scan("T", Store::kLatest,
                         [&](RowId, const Tuple&) { ++latest; })
                  .ok());
  ASSERT_TRUE(store.Scan("T", Store::kCommitted,
                         [&](RowId, const Tuple&) { ++committed; })
                  .ok());
  EXPECT_EQ(latest, 1);
  EXPECT_EQ(committed, 0);
}

TEST(StoreTest, AbortedInsertGarbageCollected) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", KvSchema()).ok());
  ASSERT_TRUE(store
                  .InsertRowUncommitted(
                      7, "T", {{"k", Value::Int(1)}, {"v", Value::Int(1)}})
                  .ok());
  store.AbortTxn(7);
  int latest = 0;
  ASSERT_TRUE(store.Scan("T", Store::kLatest,
                         [&](RowId, const Tuple&) { ++latest; })
                  .ok());
  EXPECT_EQ(latest, 0);
}

TEST(StoreTest, DeleteTombstone) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", KvSchema()).ok());
  Result<RowId> row =
      store.LoadRow("T", {{"k", Value::Int(1)}, {"v", Value::Int(1)}});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(store.WriteRowUncommitted(3, "T", row.value(), std::nullopt).ok());
  store.CommitTxn(3);
  int committed = 0;
  ASSERT_TRUE(store.Scan("T", Store::kCommitted,
                         [&](RowId, const Tuple&) { ++committed; })
                  .ok());
  EXPECT_EQ(committed, 0);
  // The old version is still visible at an old snapshot.
  int old_count = 0;
  ASSERT_TRUE(store.Scan("T", 0, [&](RowId, const Tuple&) { ++old_count; }).ok());
  EXPECT_EQ(old_count, 1);
}

TEST(StoreTest, SnapshotCommitFirstCommitterWins) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(0)).ok());
  const Timestamp start = store.CurrentTs();
  // Another txn commits a write to x after `start`.
  ASSERT_TRUE(store.WriteItemUncommitted(1, "x", Value::Int(1)).ok());
  store.CommitTxn(1);
  SnapshotWriteSet ws;
  ws.items["x"] = Value::Int(2);
  Result<Timestamp> ts = store.SnapshotCommit(2, ws, start);
  EXPECT_EQ(ts.status().code(), Code::kConflict);
  // With a fresh snapshot it succeeds.
  Result<Timestamp> ts2 = store.SnapshotCommit(2, ws, store.CurrentTs());
  EXPECT_TRUE(ts2.ok());
  EXPECT_EQ(store.ReadItemCommitted("x").value().AsInt(), 2);
}

TEST(StoreTest, SnapshotCommitInsertsRows) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", KvSchema()).ok());
  SnapshotWriteSet ws;
  ws.row_ops.push_back(
      {"T", 0, Tuple{{"k", Value::Int(1)}, {"v", Value::Int(5)}}});
  ASSERT_TRUE(store.SnapshotCommit(9, ws, store.CurrentTs()).ok());
  EXPECT_EQ(store.CommittedTuples("T").size(), 1u);
}

TEST(StoreTest, SnapshotToMapRoundTrip) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(3)).ok());
  ASSERT_TRUE(store.CreateTable("T", KvSchema()).ok());
  ASSERT_TRUE(
      store.LoadRow("T", {{"k", Value::Int(1)}, {"v", Value::Int(2)}}).ok());
  MapEvalContext ctx = store.SnapshotToMap();
  EXPECT_EQ(ctx.GetVar({VarKind::kDb, "x"}).value().AsInt(), 3);
  EXPECT_EQ(ctx.tables().at("T").size(), 1u);
}


// Reference for snapshot visibility: the forward scan that stops at the
// first version newer than the snapshot.
template <typename Version>
const Version* ForwardVisible(const std::vector<Version>& versions,
                              Timestamp ts) {
  const Version* visible = nullptr;
  for (const Version& v : versions) {
    if (v.commit_ts > ts) break;
    visible = &v;
  }
  return visible;
}

TEST(StoreTest, NewestFirstLookupMatchesForwardScan) {
  std::mt19937_64 rng(17);
  auto pick = [&](uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(rng);
  };
  for (int chain = 0; chain < 2000; ++chain) {
    // Ascending commit_ts with repeats; the first version may start above
    // every snapshot asked for below (an item created after it).
    RowEntry entry;
    Timestamp ts = pick(0, 3);
    const size_t n = pick(0, 12);
    for (size_t i = 0; i < n; ++i) {
      ts += pick(0, 2);  // 0: a duplicate commit_ts
      RowVersion v;
      v.commit_ts = ts;
      if (pick(0, 3) != 0) {  // else a tombstone
        v.tuple = Tuple{{"v", Value::Int(static_cast<int64_t>(i))}};
      }
      entry.versions.push_back(std::move(v));
    }
    for (Timestamp snap = 0; snap <= ts + 2; ++snap) {
      const RowVersion* want = ForwardVisible(entry.versions, snap);
      ASSERT_EQ(NewestVisible(entry.versions, snap), want)
          << "chain " << chain << " snapshot " << snap;
      ASSERT_EQ(entry.AtSnapshot(snap),
                want == nullptr ? nullptr : &want->tuple)
          << "chain " << chain << " snapshot " << snap;
    }
  }
}

TEST(StoreTest, SnapshotOlderThanEveryVersionSeesNothing) {
  RowEntry entry;
  entry.versions.push_back({5, Tuple{{"v", Value::Int(1)}}});
  entry.versions.push_back({5, Tuple{{"v", Value::Int(2)}}});
  EXPECT_EQ(entry.AtSnapshot(4), nullptr);
  // Of two versions with one commit_ts, the later one is visible.
  EXPECT_EQ(entry.AtSnapshot(5), &entry.versions[1].tuple);
}

TEST(StoreTest, ItemSnapshotReadsPickTheNewestVisibleVersion) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(5)).ok());
  std::vector<Timestamp> snaps = {store.CurrentTs()};
  for (int64_t v = 6; v <= 9; ++v) {
    const TxnId txn = static_cast<TxnId>(v);
    ASSERT_TRUE(store.WriteItemUncommitted(txn, "x", Value::Int(v)).ok());
    store.CommitTxn(txn);
    snaps.push_back(store.CurrentTs());
  }
  for (size_t i = 0; i < snaps.size(); ++i) {
    EXPECT_EQ(store.ReadItemAtSnapshot("x", snaps[i]).value().AsInt(),
              static_cast<int64_t>(5 + i));
  }
}

TEST(StoreGcTest, PruneKeepsHorizonVisibleVersion) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(0)).ok());
  Timestamp mid = 0;
  for (int i = 1; i <= 5; ++i) {
    ASSERT_TRUE(store.WriteItemUncommitted(i, "x", Value::Int(i)).ok());
    Timestamp ts = store.CommitTxn(i);
    if (i == 3) mid = ts;
  }
  const size_t dropped = store.PruneVersionsBefore(mid);
  EXPECT_GT(dropped, 0u);
  // The version visible at `mid` and everything newer survive.
  EXPECT_EQ(store.ReadItemAtSnapshot("x", mid).value().AsInt(), 3);
  EXPECT_EQ(store.ReadItemCommitted("x").value().AsInt(), 5);
  // Snapshots older than the horizon are no longer servable.
  EXPECT_FALSE(store.ReadItemAtSnapshot("x", 0).ok());
}

TEST(StoreGcTest, PruneRemovesDeadTombstones) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", KvSchema()).ok());
  Result<RowId> row =
      store.LoadRow("T", {{"k", Value::Int(1)}, {"v", Value::Int(1)}});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(store.WriteRowUncommitted(1, "T", row.value(), std::nullopt).ok());
  store.CommitTxn(1);
  ASSERT_TRUE(store.CommittedTuples("T").empty());
  EXPECT_GT(store.PruneVersionsBefore(store.CurrentTs()), 0u);
  // The row is physically gone; scans and point reads agree.
  EXPECT_EQ(store.ReadRowLatest("T", row.value()).status().code(),
            Code::kNotFound);
}

TEST(StoreGcTest, PruneLeavesUncommittedWorkAlone) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(1)).ok());
  ASSERT_TRUE(store.WriteItemUncommitted(7, "x", Value::Int(2)).ok());
  store.PruneVersionsBefore(store.CurrentTs());
  EXPECT_EQ(store.ReadItemLatest("x").value().AsInt(), 2);  // dirty image kept
  store.AbortTxn(7);
  EXPECT_EQ(store.ReadItemLatest("x").value().AsInt(), 1);
}

}  // namespace
}  // namespace semcor
