#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <tuple>

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "storage/store.h"

namespace semcor {
namespace {

Schema KvSchema() {
  return Schema({{"k", Value::Type::kInt}, {"v", Value::Type::kInt}});
}

int64_t ItemInt(const Store& store, const std::string& name, ReadView view) {
  return store.ReadItem(name, view).value().AsInt();
}

Tuple Kv(int64_t k, int64_t v) {
  return {{"k", Value::Int(k)}, {"v", Value::Int(v)}};
}

using ScannedRow = std::tuple<RowId, Tuple, std::optional<TxnId>>;

std::vector<ScannedRow> ScanRows(const Store& store, const std::string& table,
                                 ReadView view) {
  std::vector<ScannedRow> rows;
  EXPECT_TRUE(store
                  .Scan(table, view,
                        [&](RowId row, const Tuple& t,
                            std::optional<TxnId> writer) {
                          rows.emplace_back(row, t, writer);
                        })
                  .ok());
  return rows;
}

int CountRows(const Store& store, const std::string& table, ReadView view) {
  int rows = 0;
  EXPECT_TRUE(store
                  .Scan(table, view,
                        [&](RowId, const Tuple&, std::optional<TxnId>) {
                          ++rows;
                        })
                  .ok());
  return rows;
}

TEST(StoreTest, ItemLifecycle) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(5)).ok());
  EXPECT_EQ(store.CreateItem("x", Value::Int(1)).code(), Code::kAlreadyExists);
  EXPECT_EQ(store.ReadItem("x", ReadView::Latest()).value().AsInt(), 5);
  EXPECT_EQ(store.ReadItem("y", ReadView::Latest()).status().code(),
            Code::kNotFound);
}

TEST(StoreTest, UncommittedVisibleOnlyToLatestReads) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(5)).ok());
  ASSERT_TRUE(store.WriteItemUncommitted(1, "x", Value::Int(9)).ok());
  EXPECT_EQ(ItemInt(store, "x", ReadView::Latest()), 9);     // dirty
  EXPECT_EQ(ItemInt(store, "x", ReadView::Committed()), 5);  // committed
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
  EXPECT_EQ(store.ReadItem("x", ReadView::Committed()).value().AsInt(), 9);
  EXPECT_EQ(store.ItemLastCommitTs("x").value(), ts);
}

TEST(StoreTest, AbortDiscardsImages) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(5)).ok());
  ASSERT_TRUE(store.WriteItemUncommitted(1, "x", Value::Int(9)).ok());
  store.AbortTxn(1);
  EXPECT_EQ(store.ReadItem("x", ReadView::Latest()).value().AsInt(), 5);
}

TEST(StoreTest, SnapshotReadsSeeOldVersions) {
  Store store;
  ASSERT_TRUE(store.CreateItem("x", Value::Int(5)).ok());
  const Timestamp before = store.CurrentTs();
  ASSERT_TRUE(store.WriteItemUncommitted(1, "x", Value::Int(9)).ok());
  store.CommitTxn(1);
  EXPECT_EQ(ItemInt(store, "x", ReadView::Snapshot(before)), 5);
  EXPECT_EQ(ItemInt(store, "x", ReadView::Snapshot(store.CurrentTs())), 9);
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
  EXPECT_EQ(CountRows(store, "T", ReadView::Latest()), 1);
  EXPECT_EQ(CountRows(store, "T", ReadView::Committed()), 0);
}

TEST(StoreTest, AbortedInsertGarbageCollected) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", KvSchema()).ok());
  ASSERT_TRUE(store
                  .InsertRowUncommitted(
                      7, "T", {{"k", Value::Int(1)}, {"v", Value::Int(1)}})
                  .ok());
  store.AbortTxn(7);
  EXPECT_EQ(CountRows(store, "T", ReadView::Latest()), 0);
}

TEST(StoreTest, DeleteTombstone) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", KvSchema()).ok());
  Result<RowId> row =
      store.LoadRow("T", {{"k", Value::Int(1)}, {"v", Value::Int(1)}});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(store.WriteRowUncommitted(3, "T", row.value(), std::nullopt).ok());
  store.CommitTxn(3);
  EXPECT_EQ(CountRows(store, "T", ReadView::Committed()), 0);
  // The old version is still visible at an old snapshot.
  EXPECT_EQ(CountRows(store, "T", ReadView::Snapshot(0)), 1);
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
  EXPECT_EQ(store.ReadItem("x", ReadView::Committed()).value().AsInt(), 2);
}

TEST(StoreTest, SnapshotCommitInsertsRows) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", KvSchema()).ok());
  SnapshotWriteSet ws;
  ws.row_ops.push_back(
      {"T", 0, Tuple{{"k", Value::Int(1)}, {"v", Value::Int(5)}}});
  ASSERT_TRUE(store.SnapshotCommit(9, ws, store.CurrentTs()).ok());
  EXPECT_EQ(store.SnapshotToMap().tables().at("T").size(), 1u);
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
    std::optional<TxnId> writer;
    Timestamp ts = pick(0, 3);
    const size_t n = pick(0, 12);
    for (size_t i = 0; i < n; ++i) {
      ts += pick(0, 2);  // 0: a duplicate commit_ts
      RowVersion v;
      v.commit_ts = ts;
      if (pick(0, 3) != 0) {  // else a tombstone
        v.image = Tuple{{"v", Value::Int(static_cast<int64_t>(i))}};
      }
      entry.versions.push_back(std::move(v));
    }
    for (Timestamp snap = 0; snap <= ts + 2; ++snap) {
      const RowVersion* want = ForwardVisible(entry.versions, snap);
      ASSERT_EQ(NewestVisible(entry.versions, snap), want)
          << "chain " << chain << " snapshot " << snap;
      ASSERT_EQ(entry.Visible(ReadView::Snapshot(snap), &writer),
                want == nullptr ? nullptr : &want->image)
          << "chain " << chain << " snapshot " << snap;
    }
  }
}

TEST(StoreTest, SnapshotOlderThanEveryVersionSeesNothing) {
  RowEntry entry;
  entry.versions.push_back({5, Tuple{{"v", Value::Int(1)}}});
  entry.versions.push_back({5, Tuple{{"v", Value::Int(2)}}});
  std::optional<TxnId> writer;
  EXPECT_EQ(entry.Visible(ReadView::Snapshot(4), &writer), nullptr);
  // Of two versions with one commit_ts, the later one is visible.
  EXPECT_EQ(entry.Visible(ReadView::Snapshot(5), &writer),
            &entry.versions[1].image);
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
    EXPECT_EQ(ItemInt(store, "x", ReadView::Snapshot(snaps[i])),
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
  EXPECT_EQ(ItemInt(store, "x", ReadView::Snapshot(mid)), 3);
  EXPECT_EQ(ItemInt(store, "x", ReadView::Committed()), 5);
  // Snapshots older than the horizon are no longer servable.
  EXPECT_FALSE(store.ReadItem("x", ReadView::Snapshot(0)).ok());
}

TEST(StoreGcTest, PruneRemovesDeadTombstones) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", KvSchema()).ok());
  Result<RowId> row =
      store.LoadRow("T", {{"k", Value::Int(1)}, {"v", Value::Int(1)}});
  ASSERT_TRUE(row.ok());
  ASSERT_TRUE(store.WriteRowUncommitted(1, "T", row.value(), std::nullopt).ok());
  store.CommitTxn(1);
  ASSERT_TRUE(store.SnapshotToMap().tables().at("T").empty());
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
  EXPECT_EQ(ItemInt(store, "x", ReadView::Latest()), 2);  // dirty image kept
  store.AbortTxn(7);
  EXPECT_EQ(store.ReadItem("x", ReadView::Latest()).value().AsInt(), 1);
}

TEST(StoreTest, LoadOfACutMatchesTheSource) {
  Store src;
  ASSERT_TRUE(src.CreateItem("x", Value::Int(1)).ok());
  ASSERT_TRUE(src.CreateItem("y", Value::Int(2)).ok());
  ASSERT_TRUE(src.CreateTable("T", KvSchema()).ok());
  std::vector<RowId> rows;
  for (int64_t k = 1; k <= 3; ++k) {
    rows.push_back(src.LoadRow("T", Kv(k, 10 * k)).value());
  }
  // Several commits, one of them a delete.
  ASSERT_TRUE(src.WriteItemUncommitted(1, "x", Value::Int(5)).ok());
  ASSERT_TRUE(src.WriteRowUncommitted(1, "T", rows[0], Kv(1, 11)).ok());
  src.CommitTxn(1);
  ASSERT_TRUE(src.WriteRowUncommitted(2, "T", rows[1], std::nullopt).ok());
  const Timestamp deleted_at = src.CommitTxn(2);
  ASSERT_TRUE(src.InsertRowUncommitted(3, "T", Kv(4, 40)).ok());
  src.CommitTxn(3);
  // In flight: an insert and an update.
  const RowId pending_insert =
      src.InsertRowUncommitted(4, "T", Kv(5, 50)).value();
  ASSERT_TRUE(src.WriteItemUncommitted(5, "y", Value::Int(99)).ok());
  ASSERT_TRUE(src.WriteRowUncommitted(5, "T", rows[2], Kv(3, 99)).ok());

  Store dst;
  dst.Load(src.CommittedCut());

  // Every committed read matches the source, commit timestamps included.
  const ReadView committed = ReadView::Committed();
  for (const char* item : {"x", "y"}) {
    EXPECT_EQ(dst.ReadItem(item, committed).value(),
              src.ReadItem(item, committed).value())
        << item;
    EXPECT_EQ(dst.ItemLastCommitTs(item).value(),
              src.ItemLastCommitTs(item).value())
        << item;
  }
  const std::vector<ScannedRow> want = ScanRows(src, "T", committed);
  ASSERT_EQ(want.size(), 3u);
  EXPECT_EQ(ScanRows(dst, "T", committed), want);
  for (const ScannedRow& row : want) {
    EXPECT_EQ(dst.RowLastCommitTs("T", std::get<0>(row)).value(),
              src.RowLastCommitTs("T", std::get<0>(row)).value());
  }
  // The in-flight work is absent: even the dirty view shows the cut.
  EXPECT_EQ(ScanRows(dst, "T", ReadView::Latest()), want);
  EXPECT_EQ(ItemInt(dst, "y", ReadView::Latest()), 2);
  EXPECT_FALSE(dst.ItemPendingWriter("y").has_value());
  EXPECT_EQ(dst.ReadRowLatest("T", pending_insert).status().code(),
            Code::kNotFound);
  // The tombstone row is kept with its delete's timestamp.
  Result<std::optional<Tuple>> tombstone = dst.ReadRowLatest("T", rows[1]);
  ASSERT_TRUE(tombstone.ok());
  EXPECT_FALSE(tombstone.value().has_value());
  EXPECT_EQ(dst.RowLastCommitTs("T", rows[1]).value(), deleted_at);
  // The clock and the row-id watermark survive: the next insert gets the id
  // the source would hand out, past its in-flight insert.
  EXPECT_EQ(dst.CurrentTs(), src.CurrentTs());
  const RowId next = dst.InsertRowUncommitted(6, "T", Kv(6, 60)).value();
  EXPECT_EQ(next, pending_insert + 1);
  EXPECT_EQ(src.InsertRowUncommitted(6, "T", Kv(6, 60)).value(), next);
}

// ---- The one visibility rule against a shadow model ----

// A shadow of one item or row: committed versions plus an optional pending
// image. A row image of nullopt is a delete.
template <typename Image>
struct Shadow {
  std::vector<std::pair<Timestamp, Image>> versions;
  std::optional<TxnId> owner;
  Image pending;
};

// What `view` shows of `e`, computed from the definition of each view rather
// than from VersionChain::Visible: the image (nullopt = nothing visible) and
// the writer reported with it.
template <typename Image>
std::pair<std::optional<Image>, std::optional<TxnId>> ShownBy(
    const Shadow<Image>& e, const ReadView& view) {
  std::optional<Image> committed;
  if (!e.versions.empty()) committed = e.versions.back().second;
  switch (view.kind) {
    case ReadView::Kind::kCommitted:
      return {committed, std::nullopt};
    case ReadView::Kind::kSnapshot: {
      std::optional<Image> seen;
      for (const auto& [ts, image] : e.versions) {
        if (ts <= view.ts) seen = image;
      }
      return {seen, std::nullopt};
    }
    case ReadView::Kind::kOwn:
      if (e.owner == view.txn) return {e.pending, view.txn};
      return {committed, std::nullopt};
    case ReadView::Kind::kLatest:
      if (e.owner) return {e.pending, e.owner};
      return {committed, std::nullopt};
    case ReadView::Kind::kLocking:
      if (!e.owner) return {committed, std::nullopt};
      if (IsDelete(e.pending)) return {committed, e.owner};
      return {e.pending, e.owner};
  }
  return {};
}

struct UndoRecord {
  std::string item;  ///< empty for a row write
  RowId row = 0;
  std::optional<Value> item_prior;
  std::optional<std::optional<Tuple>> row_prior;
};

class VisibilityModel {
 public:
  static constexpr TxnId kTxns = 4;

  explicit VisibilityModel(uint64_t seed) : rng_(seed) {
    for (int i = 0; i < 3; ++i) {
      const std::string name = StrCat("x", i);
      EXPECT_TRUE(store_.CreateItem(name, Value::Int(i)).ok());
      items_[name].versions.push_back({0, Value::Int(i)});
    }
    EXPECT_TRUE(store_.CreateTable("T", KvSchema()).ok());
    for (int64_t k = 0; k < 3; ++k) {
      const RowId row = store_.LoadRow("T", Kv(k, k)).value();
      rows_[row].versions.push_back({0, Kv(k, k)});
    }
  }

  // One random operation of a random transaction, mirrored in the model.
  void Step() {
    const TxnId txn = Pick(1, kTxns);
    switch (Pick(0, 8)) {
      case 0:
      case 1:
        WriteItem(txn);
        break;
      case 2:
      case 3:
        WriteRow(txn);
        break;
      case 4:
        Insert(txn);
        break;
      case 5:
        Undo(txn);
        break;
      case 6:
      case 7:
        Commit(txn);
        break;
      default:
        Abort(txn);
        break;
    }
  }

  // Every item read and every scan under every view must match the model.
  void Check(const std::string& where) {
    std::vector<ReadView> views = {ReadView::Latest(), ReadView::Committed(),
                                   ReadView::Locking()};
    for (TxnId txn = 1; txn <= kTxns + 1; ++txn) {
      views.push_back(ReadView::Own(txn));
    }
    for (Timestamp ts = 0; ts <= clock_ + 1; ++ts) {
      views.push_back(ReadView::Snapshot(ts));
    }
    for (const ReadView& view : views) {
      const std::string label =
          StrCat(where, " view ", static_cast<int>(view.kind), " ts ", view.ts,
                 " txn ", view.txn);
      for (const auto& [name, shadow] : items_) {
        const std::optional<Value> want = ShownBy(shadow, view).first;
        Result<Value> got = store_.ReadItem(name, view);
        ASSERT_EQ(got.ok(), want.has_value()) << label << " item " << name;
        if (want) {
          ASSERT_EQ(got.value(), *want) << label << " item " << name;
        }
      }
      std::vector<ScannedRow> want;
      for (const auto& [row, shadow] : rows_) {
        const auto [image, writer] = ShownBy(shadow, view);
        if (image && image->has_value()) {
          want.emplace_back(row, **image, writer);
        }
      }
      ASSERT_EQ(ScanRows(store_, "T", view), want) << label;
    }
  }

 private:
  uint64_t Pick(uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(rng_);
  }

  void WriteItem(TxnId txn) {
    const std::string name = StrCat("x", Pick(0, 2));
    Shadow<Value>& shadow = items_[name];
    const Value v = Value::Int(static_cast<int64_t>(Pick(100, 999)));
    std::optional<Value> prior;
    Status s = store_.WriteItemUncommitted(txn, name, v, &prior);
    if (shadow.owner && *shadow.owner != txn) {
      EXPECT_EQ(s.code(), Code::kConflict);
      return;
    }
    ASSERT_TRUE(s.ok());
    std::optional<Value> want_prior;
    if (shadow.owner) want_prior = shadow.pending;
    EXPECT_EQ(prior, want_prior);
    shadow.owner = txn;
    shadow.pending = v;
    undo_[txn].push_back({name, 0, want_prior, std::nullopt});
  }

  void WriteRow(TxnId txn) {
    auto it = rows_.begin();
    std::advance(it, Pick(0, rows_.size() - 1));
    const RowId row = it->first;
    Shadow<std::optional<Tuple>>& shadow = it->second;
    std::optional<Tuple> image;  // a delete, one time in three
    if (Pick(0, 2) != 0) {
      image = Kv(static_cast<int64_t>(row), static_cast<int64_t>(Pick(0, 99)));
    }
    std::optional<std::optional<Tuple>> prior;
    Status s = store_.WriteRowUncommitted(txn, "T", row, image, &prior);
    if (shadow.owner && *shadow.owner != txn) {
      EXPECT_EQ(s.code(), Code::kConflict);
      return;
    }
    ASSERT_TRUE(s.ok());
    std::optional<std::optional<Tuple>> want_prior;
    if (shadow.owner) want_prior = shadow.pending;
    EXPECT_EQ(prior, want_prior);
    shadow.owner = txn;
    shadow.pending = image;
    undo_[txn].push_back({"", row, std::nullopt, want_prior});
  }

  void Insert(TxnId txn) {
    const Tuple t = Kv(static_cast<int64_t>(Pick(10, 20)), 0);
    const RowId row = store_.InsertRowUncommitted(txn, "T", t).value();
    ASSERT_EQ(rows_.count(row), 0u);
    rows_[row].owner = txn;
    rows_[row].pending = t;
    undo_[txn].push_back({"", row, std::nullopt, std::nullopt});
  }

  void Undo(TxnId txn) {
    std::vector<UndoRecord>& log = undo_[txn];
    if (log.empty()) return;
    const UndoRecord rec = log.back();
    log.pop_back();
    if (!rec.item.empty()) {
      ASSERT_TRUE(store_.UndoItemWrite(txn, rec.item, rec.item_prior).ok());
      Shadow<Value>& shadow = items_[rec.item];
      if (rec.item_prior) {
        shadow.pending = *rec.item_prior;
      } else {
        shadow.owner.reset();
      }
      return;
    }
    ASSERT_TRUE(store_.UndoRowWrite(txn, "T", rec.row, rec.row_prior).ok());
    Shadow<std::optional<Tuple>>& shadow = rows_[rec.row];
    if (rec.row_prior) {
      shadow.pending = *rec.row_prior;
    } else {
      shadow.owner.reset();
      if (shadow.versions.empty()) rows_.erase(rec.row);
    }
  }

  void Commit(TxnId txn) {
    ++clock_;
    ASSERT_EQ(store_.CommitTxn(txn), clock_);
    for (auto& [name, shadow] : items_) {
      if (shadow.owner == txn) {
        shadow.versions.push_back({clock_, shadow.pending});
        shadow.owner.reset();
      }
    }
    for (auto& [row, shadow] : rows_) {
      if (shadow.owner == txn) {
        shadow.versions.push_back({clock_, shadow.pending});
        shadow.owner.reset();
      }
    }
    undo_[txn].clear();
  }

  void Abort(TxnId txn) {
    store_.AbortTxn(txn);
    for (auto& [name, shadow] : items_) {
      if (shadow.owner == txn) shadow.owner.reset();
    }
    for (auto it = rows_.begin(); it != rows_.end();) {
      if (it->second.owner == txn) it->second.owner.reset();
      if (!it->second.owner && it->second.versions.empty()) {
        it = rows_.erase(it);
      } else {
        ++it;
      }
    }
    undo_[txn].clear();
  }

  std::mt19937_64 rng_;
  Store store_;
  std::map<std::string, Shadow<Value>> items_;
  std::map<RowId, Shadow<std::optional<Tuple>>> rows_;
  std::map<TxnId, std::vector<UndoRecord>> undo_;
  Timestamp clock_ = 0;
};

TEST(StoreTest, EveryViewMatchesItsDefinitionOnRandomHistories) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    VisibilityModel model(seed);
    for (int step = 0; step < 250; ++step) {
      model.Step();
      ASSERT_NO_FATAL_FAILURE(
          model.Check(StrCat("seed ", seed, " step ", step)));
    }
  }
}

// ---- Bounded scans: the scan with no hint is the reference ----

Schema AbcSchema() {
  return Schema({{"a", Value::Type::kInt},
                 {"b", Value::Type::kInt},
                 {"c", Value::Type::kInt}});
}

Tuple Abc(int64_t a, int64_t b, int64_t c) {
  return {{"a", Value::Int(a)}, {"b", Value::Int(b)}, {"c", Value::Int(c)}};
}

std::vector<ScannedRow> ScanRows(const Store& store, const std::string& table,
                                 ReadView view, const Expr& where) {
  std::vector<ScannedRow> rows;
  EXPECT_TRUE(store
                  .Scan(
                      table, view,
                      [&](RowId row, const Tuple& t,
                          std::optional<TxnId> writer) {
                        rows.emplace_back(row, t, writer);
                      },
                      where)
                  .ok());
  return rows;
}

// A hint and the equality conjuncts that bound it (empty: a full scan).
struct Hint {
  Expr where;
  std::vector<std::pair<std::string, Value>> eqs;
};

// What a bounded scan under `hint` must report: the full scan's rows whose
// image satisfies every bounding conjunct, plus the rows in `pending` (those
// with a pending image, delete included).
std::vector<ScannedRow> RestrictedFullScan(const Store& store,
                                           const ReadView& view,
                                           const Hint& hint,
                                           const std::set<RowId>& pending) {
  std::vector<ScannedRow> rows;
  for (const ScannedRow& r : ScanRows(store, "T", view)) {
    bool match = true;
    for (const auto& [attr, value] : hint.eqs) {
      match = match && std::get<1>(r).at(attr) == value;
    }
    if (match || pending.count(std::get<0>(r))) rows.push_back(r);
  }
  return rows;
}

// Random histories over a 3-attribute table: every kind of image install,
// removal and rewrite the store has, with bounded scans interleaved so that
// attribute indexes get built (and dropped) at arbitrary points.
class BoundedScanHistory {
 public:
  static constexpr TxnId kTxns = 3;
  static constexpr TxnId kSnapshotTxn = 9;

  explicit BoundedScanHistory(uint64_t seed) : rng_(seed) {
    EXPECT_TRUE(store_.CreateTable("T", AbcSchema()).ok());
    for (int i = 0; i < 4; ++i) {
      ids_.push_back(store_.LoadRow("T", RandomTuple()).value());
    }
  }

  void Step() {
    const TxnId txn = Pick(1, kTxns);
    switch (Pick(0, 10)) {
      case 0: {
        Result<RowId> row = store_.InsertRowUncommitted(txn, "T", RandomTuple());
        ASSERT_TRUE(row.ok());
        ids_.push_back(row.value());
        undo_[txn].push_back({row.value(), std::nullopt});
        pending_[row.value()] = txn;
        break;
      }
      case 1:
      case 2:
      case 3:
        Write(txn, Pick(0, 3) == 0 ? std::nullopt
                                   : std::optional<Tuple>(RandomTuple()));
        break;
      case 4: {
        std::vector<std::pair<RowId, std::optional<std::optional<Tuple>>>>&
            log = undo_[txn];
        if (log.empty()) break;
        const auto [row, prior] = log.back();
        log.pop_back();
        ASSERT_TRUE(store_.UndoRowWrite(txn, "T", row, prior).ok());
        if (!prior) pending_.erase(row);
        break;
      }
      case 5:
        store_.CommitTxn(txn);
        EndTxn(txn);
        break;
      case 6:
        store_.AbortTxn(txn);
        EndTxn(txn);
        break;
      case 7: {
        SnapshotWriteSet ws;
        ws.row_ops.push_back({"T", RandomId(), RandomTuple()});
        ws.row_ops.push_back({"T", 0, RandomTuple()});
        if (Pick(0, 1) == 0) ws.row_ops.push_back({"T", RandomId(), {}});
        TxnEffects applied;
        if (store_.SnapshotCommit(kSnapshotTxn, ws, store_.CurrentTs(),
                                  &applied)
                .ok()) {
          for (const auto& w : applied.rows) ids_.push_back(w.row);
        }
        break;
      }
      case 8: {
        // Restart from the committed cut, then redo one more commit the way
        // recovery does: a rewrite of an old row and a row new to the cut.
        const CommittedState cut = store_.CommittedCut();
        store_.Load(cut);
        undo_.clear();
        pending_.clear();
        TxnEffects effects;
        effects.rows.push_back({"T", RandomId(), RandomTuple()});
        const RowId fresh = cut.tables[0].next_row_id;
        effects.rows.push_back({"T", fresh, RandomTuple()});
        ids_.push_back(fresh);
        ASSERT_TRUE(
            store_.RecoveryApply(effects, store_.CurrentTs() + 1).ok());
        break;
      }
      case 9:
        store_.PruneVersionsBefore(Pick(0, store_.CurrentTs()));
        break;
      default:
        break;  // a step that only scans
    }
  }

  // Compares the bounded scan with the restricted full scan under every
  // view kind, for random hints with 0-3 equality conjuncts and for hints
  // the store cannot bound.
  void Check(const std::string& where) {
    std::set<RowId> pending;
    for (const auto& [row, owner] : pending_) pending.insert(row);
    const Timestamp now = store_.CurrentTs();
    std::vector<ReadView> views = {ReadView::Latest(), ReadView::Committed(),
                                   ReadView::Locking(), ReadView::Snapshot(0),
                                   ReadView::Snapshot(now / 2),
                                   ReadView::Snapshot(now + 1)};
    for (TxnId txn = 1; txn <= kTxns; ++txn) {
      views.push_back(ReadView::Own(txn));
    }
    std::vector<Hint> hints = {
        {Lt(Attr("a"), Lit(int64_t{2})), {}},  // no equality at all
        {Eq(Attr("z"), Lit(int64_t{1})), {}},  // not a column
        {And(Eq(Lit(int64_t{9}), Attr("b")),   // no row holds 9
             Eq(Attr("a"), Lit(int64_t{1}))),
         {{"b", Value::Int(9)}, {"a", Value::Int(1)}}}};
    for (int i = 0; i < 3; ++i) hints.push_back(RandomHint());
    for (const ReadView& view : views) {
      for (const Hint& hint : hints) {
        ASSERT_EQ(ScanRows(store_, "T", view, hint.where),
                  RestrictedFullScan(store_, view, hint, pending))
            << where << " view " << static_cast<int>(view.kind) << " ts "
            << view.ts << " txn " << view.txn << " hint "
            << ToString(hint.where);
      }
    }
  }

  // Most of the time a step is followed by a check, so indexes are built
  // (and rebuilt after Load and pruning) between arbitrary mutations.
  bool CheckNow() { return Pick(0, 3) != 0; }

 private:
  uint64_t Pick(uint64_t lo, uint64_t hi) {
    return std::uniform_int_distribution<uint64_t>(lo, hi)(rng_);
  }
  int64_t Small() { return static_cast<int64_t>(Pick(0, 3)); }
  Tuple RandomTuple() { return Abc(Small(), Small(), Small()); }
  RowId RandomId() { return ids_[Pick(0, ids_.size() - 1)]; }

  void Write(TxnId txn, std::optional<Tuple> image) {
    const RowId row = RandomId();
    std::optional<std::optional<Tuple>> prior;
    Status s = store_.WriteRowUncommitted(txn, "T", row, image, &prior);
    if (!s.ok()) return;
    undo_[txn].push_back({row, prior});
    pending_[row] = txn;
  }

  void EndTxn(TxnId txn) {
    undo_[txn].clear();
    for (auto it = pending_.begin(); it != pending_.end();) {
      it = it->second == txn ? pending_.erase(it) : std::next(it);
    }
  }

  Hint RandomHint() {
    Hint hint;
    std::vector<Expr> conjuncts;
    std::vector<std::string> attrs = {"a", "b", "c"};
    std::shuffle(attrs.begin(), attrs.end(), rng_);
    const size_t n = Pick(0, 3);
    for (size_t i = 0; i < n; ++i) {
      const int64_t v = Small();
      conjuncts.push_back(Eq(Attr(attrs[i]), Lit(v)));
      hint.eqs.emplace_back(attrs[i], Value::Int(v));
    }
    // A trailing conjunct the store ignores and the caller would apply.
    if (Pick(0, 1) == 0) conjuncts.push_back(Ge(Attr("c"), Lit(Small())));
    hint.where = conjuncts.size() == 1 ? conjuncts[0] : And(conjuncts);
    return hint;
  }

  std::mt19937_64 rng_;
  Store store_;
  std::vector<RowId> ids_;  ///< every id handed out; some are erased since
  std::map<TxnId,
           std::vector<std::pair<RowId, std::optional<std::optional<Tuple>>>>>
      undo_;
  std::map<RowId, TxnId> pending_;  ///< rows with a pending image -> owner
};

TEST(StoreTest, BoundedScanMatchesFullScan) {
  for (uint64_t seed = 1; seed <= 2000; ++seed) {
    BoundedScanHistory history(seed);
    for (int step = 0; step < 12; ++step) {
      ASSERT_NO_FATAL_FAILURE(history.Step());
      if (history.CheckNow()) {
        ASSERT_NO_FATAL_FAILURE(
            history.Check(StrCat("seed ", seed, " step ", step)));
      }
    }
  }
}

// An undo can reinstall an image that was overwritten before the index was
// built; the index must learn it then, or the row drops out of its bucket
// once the writer commits.
TEST(StoreTest, UndoToAnImageOlderThanTheIndexKeepsTheRowFindable) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", AbcSchema()).ok());
  const RowId row = store.LoadRow("T", Abc(0, 0, 0)).value();
  std::optional<std::optional<Tuple>> first_prior;
  std::optional<std::optional<Tuple>> second_prior;
  ASSERT_TRUE(
      store.WriteRowUncommitted(1, "T", row, Abc(1, 0, 0), &first_prior).ok());
  ASSERT_TRUE(
      store.WriteRowUncommitted(1, "T", row, Abc(2, 0, 0), &second_prior).ok());
  const Expr a1 = Eq(Attr("a"), Lit(int64_t{1}));
  EXPECT_EQ(ScanRows(store, "T", ReadView::Committed(), a1).size(), 1u)
      << "a pending row is visited whatever it shows";
  ASSERT_TRUE(store.UndoRowWrite(1, "T", row, second_prior).ok());
  store.CommitTxn(1);
  EXPECT_EQ(ScanRows(store, "T", ReadView::Committed(), a1),
            (std::vector<ScannedRow>{{row, Abc(1, 0, 0), std::nullopt}}));
}

// Bounded scans build and read the index inside a const Scan while writers
// install images: the store's mutex must cover both.
TEST(StoreTest, BoundedScansRaceWithWriters) {
  Store store;
  ASSERT_TRUE(store.CreateTable("T", AbcSchema()).ok());
  for (int64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(store.LoadRow("T", Abc(i % 4, i % 3, i % 2)).ok());
  }
  std::vector<std::thread> threads;
  for (TxnId writer = 1; writer <= 2; ++writer) {
    threads.emplace_back([&store, writer] {
      for (int64_t i = 0; i < 400; ++i) {
        const RowId row = static_cast<RowId>(1 + (i * 7 + writer) % 16);
        (void)store.WriteRowUncommitted(writer, "T", row,
                                        Abc(i % 4, (i + 1) % 3, i % 2));
        Result<RowId> fresh =
            store.InsertRowUncommitted(writer, "T", Abc(i % 4, 0, 1));
        ASSERT_TRUE(fresh.ok());
        if (i % 3 == 0) {
          store.AbortTxn(writer);
        } else {
          store.CommitTxn(writer);
        }
        if (i % 50 == 0) store.PruneVersionsBefore(store.CurrentTs());
      }
    });
  }
  for (const std::string attr : {"a", "b"}) {
    threads.emplace_back([&store, attr] {
      for (int64_t i = 0; i < 400; ++i) {
        const Expr where = Eq(Attr(attr), Lit(i % 3));
        const ReadView view =
            i % 2 == 0 ? ReadView::Locking() : ReadView::Committed();
        ASSERT_TRUE(store
                        .Scan(
                            "T", view,
                            [](RowId, const Tuple&, std::optional<TxnId>) {},
                            where)
                        .ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const Hint hint{Eq(Attr("a"), Lit(int64_t{1})), {{"a", Value::Int(1)}}};
  for (const ReadView& view : {ReadView::Latest(), ReadView::Committed()}) {
    EXPECT_EQ(ScanRows(store, "T", view, hint.where),
              RestrictedFullScan(store, view, hint, {}));
  }
}

}  // namespace
}  // namespace semcor
