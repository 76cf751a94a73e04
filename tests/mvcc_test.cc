#include <gtest/gtest.h>

#include "mvcc/version_store.h"

namespace semcor {
namespace {

class SnapshotViewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(store_.CreateItem("x", Value::Int(10)).ok());
    ASSERT_TRUE(store_
                    .CreateTable("T", Schema({{"k", Value::Type::kInt},
                                              {"v", Value::Type::kInt}}))
                    .ok());
    Result<RowId> row =
        store_.LoadRow("T", {{"k", Value::Int(1)}, {"v", Value::Int(100)}});
    ASSERT_TRUE(row.ok());
    row_ = row.value();
  }

  Store store_;
  RowId row_ = 0;
};

TEST_F(SnapshotViewTest, ReadsFromSnapshotNotLatest) {
  SnapshotView view(&store_, store_.CurrentTs());
  // A later committed write is invisible.
  ASSERT_TRUE(store_.WriteItemUncommitted(1, "x", Value::Int(99)).ok());
  store_.CommitTxn(1);
  EXPECT_EQ(view.ReadItem("x").value().AsInt(), 10);
}

TEST_F(SnapshotViewTest, OwnWritesVisible) {
  SnapshotView view(&store_, store_.CurrentTs());
  view.WriteItem("x", Value::Int(55));
  EXPECT_EQ(view.ReadItem("x").value().AsInt(), 55);
}

TEST_F(SnapshotViewTest, ScanOverlaysOwnOps) {
  SnapshotView view(&store_, store_.CurrentTs());
  view.InsertRow("T", {{"k", Value::Int(2)}, {"v", Value::Int(200)}});
  ASSERT_TRUE(
      view.UpdateRow("T", row_, {{"k", Value::Int(1)}, {"v", Value::Int(111)}})
          .ok());
  std::map<int64_t, int64_t> seen;
  ASSERT_TRUE(view.Scan("T", [&](RowId, const Tuple& t) {
                    seen[t.at("k").AsInt()] = t.at("v").AsInt();
                  })
                  .ok());
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1], 111);
  EXPECT_EQ(seen[2], 200);
}

TEST_F(SnapshotViewTest, OwnDeleteHidesRow) {
  SnapshotView view(&store_, store_.CurrentTs());
  ASSERT_TRUE(view.DeleteRow("T", row_).ok());
  int count = 0;
  ASSERT_TRUE(view.Scan("T", [&](RowId, const Tuple&) { ++count; }).ok());
  EXPECT_EQ(count, 0);
}

TEST_F(SnapshotViewTest, UpdateOwnInsert) {
  SnapshotView view(&store_, store_.CurrentTs());
  view.InsertRow("T", {{"k", Value::Int(2)}, {"v", Value::Int(200)}});
  // Find the synthetic id through a scan.
  RowId synthetic = 0;
  ASSERT_TRUE(view.Scan("T", [&](RowId id, const Tuple& t) {
                    if (t.at("k").AsInt() == 2) synthetic = id;
                  })
                  .ok());
  ASSERT_GE(synthetic, SnapshotView::kOwnRowBase);
  ASSERT_TRUE(view.UpdateRow("T", synthetic,
                             {{"k", Value::Int(2)}, {"v", Value::Int(201)}})
                  .ok());
  int64_t v = 0;
  ASSERT_TRUE(view.Scan("T", [&](RowId, const Tuple& t) {
                    if (t.at("k").AsInt() == 2) v = t.at("v").AsInt();
                  })
                  .ok());
  EXPECT_EQ(v, 201);
}

TEST_F(SnapshotViewTest, CommitInstallsAtomically) {
  SnapshotView view(&store_, store_.CurrentTs());
  view.WriteItem("x", Value::Int(42));
  view.InsertRow("T", {{"k", Value::Int(3)}, {"v", Value::Int(300)}});
  ASSERT_TRUE(view.DeleteRow("T", row_).ok());
  Result<Timestamp> ts = view.Commit(7);
  ASSERT_TRUE(ts.ok());
  EXPECT_EQ(store_.ReadItem("x", ReadView::Committed()).value().AsInt(), 42);
  std::vector<Tuple> tuples = store_.SnapshotToMap().tables().at("T");
  ASSERT_EQ(tuples.size(), 1u);
  EXPECT_EQ(tuples[0].at("k").AsInt(), 3);
}

TEST_F(SnapshotViewTest, FirstCommitterWinsOnItem) {
  SnapshotView v1(&store_, store_.CurrentTs());
  SnapshotView v2(&store_, store_.CurrentTs());
  v1.WriteItem("x", Value::Int(1));
  v2.WriteItem("x", Value::Int(2));
  ASSERT_TRUE(v1.Commit(1).ok());
  Result<Timestamp> second = v2.Commit(2);
  EXPECT_EQ(second.status().code(), Code::kConflict);
}

TEST_F(SnapshotViewTest, FirstCommitterWinsOnRow) {
  SnapshotView v1(&store_, store_.CurrentTs());
  SnapshotView v2(&store_, store_.CurrentTs());
  ASSERT_TRUE(
      v1.UpdateRow("T", row_, {{"k", Value::Int(1)}, {"v", Value::Int(1)}})
          .ok());
  ASSERT_TRUE(
      v2.UpdateRow("T", row_, {{"k", Value::Int(1)}, {"v", Value::Int(2)}})
          .ok());
  ASSERT_TRUE(v1.Commit(1).ok());
  EXPECT_EQ(v2.Commit(2).status().code(), Code::kConflict);
}

TEST_F(SnapshotViewTest, DisjointWriteSetsBothCommit) {
  ASSERT_TRUE(store_.CreateItem("y", Value::Int(0)).ok());
  SnapshotView v1(&store_, store_.CurrentTs());
  SnapshotView v2(&store_, store_.CurrentTs());
  v1.WriteItem("x", Value::Int(1));
  v2.WriteItem("y", Value::Int(2));
  EXPECT_TRUE(v1.Commit(1).ok());
  EXPECT_TRUE(v2.Commit(2).ok());
}

TEST_F(SnapshotViewTest, WriteSkewAdmitted) {
  // The hallmark SNAPSHOT anomaly: both txns read both items, each writes a
  // different one; both commit (disjoint write sets).
  ASSERT_TRUE(store_.CreateItem("sav", Value::Int(5)).ok());
  ASSERT_TRUE(store_.CreateItem("ch", Value::Int(5)).ok());
  SnapshotView v1(&store_, store_.CurrentTs());
  SnapshotView v2(&store_, store_.CurrentTs());
  const int64_t sum1 =
      v1.ReadItem("sav").value().AsInt() + v1.ReadItem("ch").value().AsInt();
  const int64_t sum2 =
      v2.ReadItem("sav").value().AsInt() + v2.ReadItem("ch").value().AsInt();
  ASSERT_EQ(sum1, 10);
  ASSERT_EQ(sum2, 10);
  v1.WriteItem("sav", Value::Int(5 - 8));  // withdraw 8 from savings
  v2.WriteItem("ch", Value::Int(5 - 8));   // withdraw 8 from checking
  EXPECT_TRUE(v1.Commit(1).ok());
  EXPECT_TRUE(v2.Commit(2).ok());
  // The combined-balance constraint is now violated.
  EXPECT_LT(store_.ReadItem("sav", ReadView::Committed()).value().AsInt() +
                store_.ReadItem("ch", ReadView::Committed()).value().AsInt(),
            0);
}

TEST_F(SnapshotViewTest, InsertsNeverConflict) {
  SnapshotView v1(&store_, store_.CurrentTs());
  SnapshotView v2(&store_, store_.CurrentTs());
  v1.InsertRow("T", {{"k", Value::Int(7)}, {"v", Value::Int(1)}});
  v2.InsertRow("T", {{"k", Value::Int(7)}, {"v", Value::Int(2)}});
  EXPECT_TRUE(v1.Commit(1).ok());
  EXPECT_TRUE(v2.Commit(2).ok());  // phantom-style duplicate admitted
  EXPECT_EQ(store_.SnapshotToMap().tables().at("T").size(), 3u);
}

}  // namespace
}  // namespace semcor
