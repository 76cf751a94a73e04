#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "sem/expr/eval.h"
#include "sem/prog/builder.h"
#include "txn/interpreter.h"
#include "txn/txn.h"

namespace semcor {
namespace {

class TxnManagerTest : public ::testing::Test {
 protected:
  TxnManagerTest() : mgr_(&store_, &locks_) {}

  void SetUp() override {
    ASSERT_TRUE(store_.CreateItem("x", Value::Int(10)).ok());
    ASSERT_TRUE(store_.CreateItem("y", Value::Int(20)).ok());
    ASSERT_TRUE(store_
                    .CreateTable("T", Schema({{"k", Value::Type::kInt},
                                              {"v", Value::Type::kInt}}))
                    .ok());
    ASSERT_TRUE(
        store_.LoadRow("T", {{"k", Value::Int(1)}, {"v", Value::Int(5)}}).ok());
    ASSERT_TRUE(
        store_.LoadRow("T", {{"k", Value::Int(2)}, {"v", Value::Int(6)}}).ok());
  }

  Store store_;
  LockManager locks_;
  TxnManager mgr_;
};

TEST_F(TxnManagerTest, ReadCommittedBlocksOnDirtyData) {
  auto writer = mgr_.Begin(IsoLevel::kReadCommitted);
  ASSERT_TRUE(mgr_.WriteItem(writer.get(), "x", Value::Int(99), false).ok());
  auto reader = mgr_.Begin(IsoLevel::kReadCommitted);
  Value v;
  EXPECT_EQ(mgr_.ReadItem(reader.get(), "x", &v, false).code(),
            Code::kWouldBlock);
  ASSERT_TRUE(mgr_.Commit(writer.get()).ok());
  ASSERT_TRUE(mgr_.ReadItem(reader.get(), "x", &v, false).ok());
  EXPECT_EQ(v.AsInt(), 99);
}

TEST_F(TxnManagerTest, ReadUncommittedSeesDirtyData) {
  auto writer = mgr_.Begin(IsoLevel::kReadCommitted);
  ASSERT_TRUE(mgr_.WriteItem(writer.get(), "x", Value::Int(99), false).ok());
  auto reader = mgr_.Begin(IsoLevel::kReadUncommitted);
  Value v;
  ASSERT_TRUE(mgr_.ReadItem(reader.get(), "x", &v, false).ok());
  EXPECT_EQ(v.AsInt(), 99);  // dirty read
  mgr_.Abort(writer.get());
  ASSERT_TRUE(mgr_.ReadItem(reader.get(), "x", &v, false).ok());
  EXPECT_EQ(v.AsInt(), 10);  // the dirty value vanished
}

TEST_F(TxnManagerTest, ShortReadLocksAllowNonRepeatableReads) {
  auto reader = mgr_.Begin(IsoLevel::kReadCommitted);
  Value v;
  ASSERT_TRUE(mgr_.ReadItem(reader.get(), "x", &v, false).ok());
  EXPECT_EQ(v.AsInt(), 10);
  auto writer = mgr_.Begin(IsoLevel::kReadCommitted);
  ASSERT_TRUE(mgr_.WriteItem(writer.get(), "x", Value::Int(11), false).ok());
  ASSERT_TRUE(mgr_.Commit(writer.get()).ok());
  ASSERT_TRUE(mgr_.ReadItem(reader.get(), "x", &v, false).ok());
  EXPECT_EQ(v.AsInt(), 11);  // non-repeatable read at RC
}

TEST_F(TxnManagerTest, LongReadLocksBlockWriters) {
  auto reader = mgr_.Begin(IsoLevel::kRepeatableRead);
  Value v;
  ASSERT_TRUE(mgr_.ReadItem(reader.get(), "x", &v, false).ok());
  auto writer = mgr_.Begin(IsoLevel::kReadCommitted);
  EXPECT_EQ(mgr_.WriteItem(writer.get(), "x", Value::Int(11), false).code(),
            Code::kWouldBlock);
  ASSERT_TRUE(mgr_.Commit(reader.get()).ok());
  EXPECT_TRUE(mgr_.WriteItem(writer.get(), "x", Value::Int(11), false).ok());
}

TEST_F(TxnManagerTest, WriterKeepsXLockAcrossOwnRead) {
  auto writer = mgr_.Begin(IsoLevel::kReadCommitted);
  ASSERT_TRUE(mgr_.WriteItem(writer.get(), "x", Value::Int(50), false).ok());
  Value v;
  // Own short read must not drop the long X lock.
  ASSERT_TRUE(mgr_.ReadItem(writer.get(), "x", &v, false).ok());
  EXPECT_EQ(v.AsInt(), 50);
  auto other = mgr_.Begin(IsoLevel::kReadCommitted);
  EXPECT_EQ(mgr_.WriteItem(other.get(), "x", Value::Int(1), false).code(),
            Code::kWouldBlock);
}

TEST_F(TxnManagerTest, FirstCommitterWinsOnItemWrite) {
  auto t1 = mgr_.Begin(IsoLevel::kReadCommittedFcw);
  Value v;
  ASSERT_TRUE(mgr_.ReadItem(t1.get(), "x", &v, false).ok());
  // Another txn commits a write between t1's read and write.
  auto t2 = mgr_.Begin(IsoLevel::kReadCommitted);
  ASSERT_TRUE(mgr_.WriteItem(t2.get(), "x", Value::Int(77), false).ok());
  ASSERT_TRUE(mgr_.Commit(t2.get()).ok());
  EXPECT_EQ(mgr_.WriteItem(t1.get(), "x", Value::Int(88), false).code(),
            Code::kConflict);
}

TEST_F(TxnManagerTest, FcwPassesWhenUnchanged) {
  auto t1 = mgr_.Begin(IsoLevel::kReadCommittedFcw);
  Value v;
  ASSERT_TRUE(mgr_.ReadItem(t1.get(), "x", &v, false).ok());
  EXPECT_TRUE(mgr_.WriteItem(t1.get(), "x", Value::Int(88), false).ok());
  EXPECT_TRUE(mgr_.Commit(t1.get()).ok());
  EXPECT_EQ(store_.ReadItem("x", ReadView::Committed()).value().AsInt(), 88);
}

TEST_F(TxnManagerTest, SelectRowsWithPredicate) {
  auto t = mgr_.Begin(IsoLevel::kReadCommitted);
  std::vector<Tuple> rows;
  ASSERT_TRUE(mgr_.SelectRows(t.get(), "T", Gt(Attr("v"), Lit(int64_t{5})),
                              &rows, false)
                  .ok());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("k").AsInt(), 2);
}

TEST_F(TxnManagerTest, UpdateRowsAppliesSets) {
  auto t = mgr_.Begin(IsoLevel::kReadCommitted);
  int updated = 0;
  ASSERT_TRUE(mgr_.UpdateRows(t.get(), "T", Eq(Attr("k"), Lit(int64_t{1})),
                              {{"v", Add(Attr("v"), Lit(int64_t{10}))}}, false,
                              &updated)
                  .ok());
  EXPECT_EQ(updated, 1);
  ASSERT_TRUE(mgr_.Commit(t.get()).ok());
  std::vector<Tuple> tuples = store_.SnapshotToMap().tables().at("T");
  for (const Tuple& tuple : tuples) {
    if (tuple.at("k").AsInt() == 1) {
      EXPECT_EQ(tuple.at("v").AsInt(), 15);
    }
  }
}

TEST_F(TxnManagerTest, DeleteRows) {
  auto t = mgr_.Begin(IsoLevel::kReadCommitted);
  int deleted = 0;
  ASSERT_TRUE(
      mgr_.DeleteRows(t.get(), "T", True(), false, &deleted).ok());
  EXPECT_EQ(deleted, 2);
  ASSERT_TRUE(mgr_.Commit(t.get()).ok());
  EXPECT_TRUE(store_.SnapshotToMap().tables().at("T").empty());
}

TEST_F(TxnManagerTest, InsertVisibleAfterCommitOnly) {
  auto t = mgr_.Begin(IsoLevel::kReadCommitted);
  ASSERT_TRUE(mgr_.InsertRow(t.get(), "T",
                             {{"k", Value::Int(3)}, {"v", Value::Int(7)}},
                             false)
                  .ok());
  EXPECT_EQ(store_.SnapshotToMap().tables().at("T").size(), 2u);
  ASSERT_TRUE(mgr_.Commit(t.get()).ok());
  EXPECT_EQ(store_.SnapshotToMap().tables().at("T").size(), 3u);
}

TEST_F(TxnManagerTest, SerializablePredicateLockBlocksPhantomInsert) {
  auto reader = mgr_.Begin(IsoLevel::kSerializable);
  std::vector<Tuple> rows;
  ASSERT_TRUE(mgr_.SelectRows(reader.get(), "T",
                              Eq(Attr("k"), Lit(int64_t{3})), &rows, false)
                  .ok());
  EXPECT_TRUE(rows.empty());
  auto writer = mgr_.Begin(IsoLevel::kReadCommitted);
  // Inserting a matching (phantom) tuple is blocked by the S predicate lock.
  EXPECT_EQ(mgr_.InsertRow(writer.get(), "T",
                           {{"k", Value::Int(3)}, {"v", Value::Int(1)}}, false)
                .code(),
            Code::kWouldBlock);
  // A non-matching insert passes.
  EXPECT_TRUE(mgr_.InsertRow(writer.get(), "T",
                             {{"k", Value::Int(9)}, {"v", Value::Int(1)}},
                             false)
                  .ok());
}

TEST_F(TxnManagerTest, RepeatableReadAdmitsPhantoms) {
  auto reader = mgr_.Begin(IsoLevel::kRepeatableRead);
  std::vector<Tuple> rows;
  ASSERT_TRUE(mgr_.SelectRows(reader.get(), "T",
                              Eq(Attr("k"), Lit(int64_t{3})), &rows, false)
                  .ok());
  EXPECT_TRUE(rows.empty());
  auto writer = mgr_.Begin(IsoLevel::kReadCommitted);
  ASSERT_TRUE(mgr_.InsertRow(writer.get(), "T",
                             {{"k", Value::Int(3)}, {"v", Value::Int(1)}},
                             false)
                  .ok());
  ASSERT_TRUE(mgr_.Commit(writer.get()).ok());
  ASSERT_TRUE(mgr_.SelectRows(reader.get(), "T",
                              Eq(Attr("k"), Lit(int64_t{3})), &rows, false)
                  .ok());
  EXPECT_EQ(rows.size(), 1u);  // the phantom appeared
}

TEST_F(TxnManagerTest, SnapshotLevelReadsSnapshotAndDefersWrites) {
  auto snap = mgr_.Begin(IsoLevel::kSnapshot);
  Value v;
  ASSERT_TRUE(mgr_.ReadItem(snap.get(), "x", &v, false).ok());
  EXPECT_EQ(v.AsInt(), 10);
  ASSERT_TRUE(mgr_.WriteItem(snap.get(), "x", Value::Int(44), false).ok());
  // Deferred: not even dirty-visible.
  EXPECT_EQ(store_.ReadItem("x", ReadView::Latest()).value().AsInt(), 10);
  // Own read sees the buffered write.
  ASSERT_TRUE(mgr_.ReadItem(snap.get(), "x", &v, false).ok());
  EXPECT_EQ(v.AsInt(), 44);
  ASSERT_TRUE(mgr_.Commit(snap.get()).ok());
  EXPECT_EQ(store_.ReadItem("x", ReadView::Committed()).value().AsInt(), 44);
}

TEST_F(TxnManagerTest, SnapshotCommitConflictAborts) {
  auto snap = mgr_.Begin(IsoLevel::kSnapshot);
  ASSERT_TRUE(mgr_.WriteItem(snap.get(), "x", Value::Int(44), false).ok());
  auto other = mgr_.Begin(IsoLevel::kReadCommitted);
  ASSERT_TRUE(mgr_.WriteItem(other.get(), "x", Value::Int(55), false).ok());
  ASSERT_TRUE(mgr_.Commit(other.get()).ok());
  Status s = mgr_.Commit(snap.get());
  EXPECT_EQ(s.code(), Code::kConflict);
  EXPECT_EQ(snap->state, Txn::State::kAborted);
  EXPECT_EQ(store_.ReadItem("x", ReadView::Committed()).value().AsInt(), 55);
}

TEST_F(TxnManagerTest, AbortReleasesEverything) {
  auto t = mgr_.Begin(IsoLevel::kRepeatableRead);
  Value v;
  ASSERT_TRUE(mgr_.ReadItem(t.get(), "x", &v, false).ok());
  ASSERT_TRUE(mgr_.WriteItem(t.get(), "y", Value::Int(0), false).ok());
  mgr_.Abort(t.get());
  EXPECT_EQ(locks_.HeldCount(t->id), 0u);
  EXPECT_EQ(store_.ReadItem("y", ReadView::Committed()).value().AsInt(), 20);
}

// The reference for a statement's row set: a scan with no hint, filtered
// by the predicate.
std::vector<Tuple> FullScanRows(const Store& store, const ReadView& view,
                                const Expr& pred) {
  std::vector<Tuple> rows;
  MapEvalContext empty;
  EXPECT_TRUE(store
                  .Scan("T", view,
                        [&](RowId, const Tuple& t, std::optional<TxnId>) {
                          if (EvalTuplePred(pred, t, empty).value()) {
                            rows.push_back(t);
                          }
                        })
                  .ok());
  return rows;
}

Tuple Kv(int64_t k, int64_t v) {
  return {{"k", Value::Int(k)}, {"v", Value::Int(v)}};
}

// SelectRows, UpdateRows and DeleteRows bound their store scans by their
// predicate; at every level they must still return the full scan's rows,
// take the same locks, wait for the same pending writers (including one
// whose image matches neither before nor after) and count the same dirty
// reads.
TEST(BoundedStatementTest, EveryLevelActsOnTheFullScanRows) {
  struct Want {
    IsoLevel level;
    Code pending_select;  ///< SELECT past a non-matching pending image
    size_t held_blocked;  ///< row locks held when that SELECT returns
    size_t held_read;     ///< after the SELECT succeeds
    size_t held_written;  ///< after the UPDATE and the DELETE
    Code dirty_select;    ///< SELECT of a row mid-rollback
    size_t dirty_rows;    ///< rows it returns
    long dirty_reads;     ///< dirty_reads and undo_dirty_reads it counts
  };
  const Code kOk = Code::kOk;
  const Code kBlock = Code::kWouldBlock;
  const Want wants[] = {
      {IsoLevel::kReadUncommitted, kOk, 0, 0, 3, kOk, 1, 1},
      {IsoLevel::kReadCommitted, kBlock, 0, 0, 3, kBlock, 0, 0},
      {IsoLevel::kReadCommittedFcw, kBlock, 0, 0, 3, kBlock, 0, 0},
      {IsoLevel::kRepeatableRead, kBlock, 3, 3, 3, kBlock, 0, 0},
      {IsoLevel::kSerializable, kBlock, 3, 3, 3, kBlock, 0, 0},
      {IsoLevel::kSnapshot, kOk, 0, 0, 0, kOk, 0, 0},
      {IsoLevel::kSsi, kOk, 0, 0, 0, kOk, 0, 0},
  };
  const Expr k1 = Eq(Attr("k"), Lit(int64_t{1}));
  const Expr pred = And(k1, Ge(Attr("v"), Lit(int64_t{0})));
  for (const Want& want : wants) {
    SCOPED_TRACE(IsoLevelName(want.level));
    Store store;
    LockManager locks;
    TxnManager mgr(&store, &locks);
    ASSERT_TRUE(store
                    .CreateTable("T", Schema({{"k", Value::Type::kInt},
                                              {"v", Value::Type::kInt}}))
                    .ok());
    for (const Tuple& t : {Kv(1, 5), Kv(2, 6), Kv(1, 7), Kv(3, 8)}) {
      ASSERT_TRUE(store.LoadRow("T", t).ok());
    }
    std::vector<Tuple> rows;
    // A first bounded read builds the k index; row 2 then moves into k = 1
    // by a committed update the index must record.
    auto first = mgr.Begin(IsoLevel::kReadCommitted);
    ASSERT_TRUE(mgr.SelectRows(first.get(), "T", pred, &rows, false).ok());
    EXPECT_EQ(rows.size(), 2u);
    ASSERT_TRUE(mgr.Commit(first.get()).ok());
    auto mover = mgr.Begin(IsoLevel::kReadCommitted);
    ASSERT_TRUE(mgr.UpdateRows(mover.get(), "T", Eq(Attr("k"), Lit(int64_t{2})),
                               {{"k", Lit(int64_t{1})}}, false, nullptr)
                    .ok());
    ASSERT_TRUE(mgr.Commit(mover.get()).ok());

    // Row 4's pending image matches neither before nor after.
    auto foreign = mgr.Begin(IsoLevel::kReadCommitted);
    ASSERT_TRUE(mgr.UpdateRows(foreign.get(), "T",
                               Eq(Attr("k"), Lit(int64_t{3})),
                               {{"v", Lit(int64_t{9})}}, false, nullptr)
                    .ok());
    auto t = mgr.Begin(want.level);
    Status s = mgr.SelectRows(t.get(), "T", pred, &rows, false);
    EXPECT_EQ(s.code(), want.pending_select);
    EXPECT_EQ(locks.HeldCount(t->id), want.held_blocked);
    if (s.ok()) {
      EXPECT_EQ(rows, FullScanRows(store, ReadView::Latest(), pred));
    }
    mgr.Abort(foreign.get());

    ASSERT_TRUE(mgr.SelectRows(t.get(), "T", pred, &rows, false).ok());
    const std::vector<Tuple> matching =
        FullScanRows(store, ReadView::Committed(), pred);
    EXPECT_EQ(matching.size(), 3u);
    EXPECT_EQ(rows, matching);
    EXPECT_EQ(locks.HeldCount(t->id), want.held_read);
    // The update moves the rows to k = 4, where only this transaction's
    // own (pending or buffered) images put them.
    int updated = 0;
    ASSERT_TRUE(mgr.UpdateRows(t.get(), "T", pred,
                               {{"k", Lit(int64_t{4})},
                                {"v", Add(Attr("v"), Lit(int64_t{100}))}},
                               false, &updated)
                    .ok());
    EXPECT_EQ(updated, 3);
    int deleted = 0;
    ASSERT_TRUE(mgr.DeleteRows(t.get(), "T",
                               And(Eq(Attr("k"), Lit(int64_t{4})),
                                   Gt(Attr("v"), Lit(int64_t{100}))),
                               false, &deleted)
                    .ok());
    EXPECT_EQ(deleted, 3);
    EXPECT_EQ(locks.HeldCount(t->id), want.held_written);
    EXPECT_EQ(t->dirty_reads, 0);
    ASSERT_TRUE(mgr.Commit(t.get()).ok());
    EXPECT_EQ(FullScanRows(store, ReadView::Committed(), True()),
              std::vector<Tuple>{Kv(3, 8)});

    // Row 4 moves into k = 1 under a writer that is rolling back.
    auto undoing = mgr.Begin(IsoLevel::kReadCommitted);
    ASSERT_TRUE(mgr.UpdateRows(undoing.get(), "T",
                               Eq(Attr("k"), Lit(int64_t{3})),
                               {{"k", Lit(int64_t{1})}}, false, nullptr)
                    .ok());
    mgr.BeginRollback(undoing.get());
    auto reader = mgr.Begin(want.level);
    s = mgr.SelectRows(reader.get(), "T", k1, &rows, false);
    EXPECT_EQ(s.code(), want.dirty_select);
    if (s.ok()) {
      EXPECT_EQ(rows.size(), want.dirty_rows);
    }
    EXPECT_EQ(reader->dirty_reads, want.dirty_reads);
    EXPECT_EQ(reader->undo_dirty_reads, want.dirty_reads);
    mgr.FinishRollback(undoing.get());
    mgr.Abort(reader.get());
  }
}

// What one aggregate did to its transaction: its status and value, the
// locks it left held and the dirty reads it counted.
struct AggOutcome {
  Code code = Code::kOk;
  std::string value;  ///< the aggregate's value when `code` is kOk
  size_t held = 0;
  long dirty_reads = 0;
  long undo_dirty_reads = 0;

  std::string ToString() const {
    return StrCat(CodeName(code), " ", value, " held=", held,
                  " dirty=", dirty_reads, " undo_dirty=", undo_dirty_reads);
  }
};

void ExpectSameOutcome(const AggOutcome& bounded, const AggOutcome& full) {
  EXPECT_EQ(bounded.ToString(), full.ToString());
}

// The bounded path: `agg` as a program statement through the interpreter,
// whose scans the transaction manager bounds by the aggregate's range.
AggOutcome BoundedAggregate(TxnManager* mgr, IsoLevel level, const Expr& agg,
                            int64_t c) {
  ProgramBuilder b("Agg");
  b.SelectAgg("n", agg);
  ProgramRun run(mgr, std::make_shared<TxnProgram>(b.Build({{"c",
                                                             Value::Int(c)}})),
                 level);
  const StepOutcome step = run.Step(false);
  AggOutcome out;
  out.code = step == StepOutcome::kRunning   ? Code::kOk
             : step == StepOutcome::kBlocked ? Code::kWouldBlock
                                             : run.failure().code();
  if (out.code == Code::kOk) out.value = run.txn().locals.at("n").ToString();
  out.held = mgr->locks()->HeldCount(run.txn().id);
  out.dirty_reads = run.txn().dirty_reads;
  out.undo_dirty_reads = run.txn().undo_dirty_reads;
  run.ForceAbort(Status::Aborted("done"));
  return out;
}

// The reference: the same aggregate over ScanVisible with no bound, the
// full scan, with locals and items resolved as the interpreter does.
class FullScanCtx : public EvalContext {
 public:
  FullScanCtx(TxnManager* mgr, Txn* txn) : mgr_(mgr), txn_(txn) {}

  Result<Value> GetVar(const VarRef& var) const override {
    if (var.kind == VarKind::kDb) {
      Value v;
      Status s = mgr_->ReadItem(txn_, var.name, &v, false);
      if (!s.ok()) return s;
      return v;
    }
    const auto& env =
        var.kind == VarKind::kLocal ? txn_->locals : txn_->logicals;
    auto it = env.find(var.name);
    if (it == env.end()) return Status::NotFound(var.name);
    return it->second;
  }

  Status ScanTable(const std::string& table, const Expr&,
                   const std::function<void(const Tuple&)>& fn) const override {
    return mgr_->ScanVisible(txn_, table, nullptr, fn, false);
  }

 private:
  TxnManager* mgr_;
  Txn* txn_;
};

AggOutcome FullScanAggregate(TxnManager* mgr, IsoLevel level, const Expr& agg,
                             int64_t c) {
  auto txn = mgr->Begin(level);
  txn->locals["c"] = Value::Int(c);
  FullScanCtx ctx(mgr, txn.get());
  Result<Value> v = Eval(agg, ctx);
  AggOutcome out;
  out.code = v.status().code();
  if (v.ok()) out.value = v.value().ToString();
  // A failed statement aborts its transaction, as the interpreter does.
  if (!v.ok() && out.code != Code::kWouldBlock) mgr->Abort(txn.get());
  out.held = mgr->locks()->HeldCount(txn->id);
  out.dirty_reads = txn->dirty_reads;
  out.undo_dirty_reads = txn->undo_dirty_reads;
  mgr->Abort(txn.get());
  return out;
}

// The six aggregate ops over T, each with a range that leads with the
// local-bound equality `.k = c`, plus one whose range fails (division by
// zero) on a row with v = 8 past that equality. At levels with read locks
// one more reads the item x past the equality; elsewhere the store calls
// the aggregate back under its own mutex, which an item read would take
// again.
std::vector<Expr> AggregatesOverT(IsoLevel level = IsoLevel::kReadCommitted) {
  const Expr k_is_c = Eq(Attr("k"), Local("c"));
  const Expr range = And(k_is_c, Ge(Attr("v"), Lit(int64_t{0})));
  std::vector<Expr> aggs = {
      Count("T", range),
      SumOf("T", "v", range),
      MaxOf("T", "v", range, -1),
      MinOf("T", "v", range, 99),
      Exists("T", And(k_is_c, Gt(Attr("v"), Lit(int64_t{6})))),
      // A body with a leading equality that rows in the range fail.
      Forall("T", k_is_c, Eq(Attr("v"), Lit(int64_t{5}))),
      Count("T", And(k_is_c, Ge(Div(Lit(int64_t{8}),
                                    Sub(Attr("v"), Lit(int64_t{8}))),
                                Lit(int64_t{0})))),
  };
  if (PolicyFor(level).read_locks) {
    // Only rows in range read x, and closing the bound must not read it:
    // at REPEATABLE READ its S lock would stay held.
    aggs.push_back(Exists("T", And(k_is_c, Gt(Attr("v"), DbVar("x")))));
  }
  return aggs;
}

// Compares every aggregate of AggregatesOverT at `level` for each `c`.
void ExpectBoundedMatchesFullScan(TxnManager* mgr, IsoLevel level,
                                  const std::vector<int64_t>& cs) {
  for (const Expr& agg : AggregatesOverT(level)) {
    for (int64_t c : cs) {
      SCOPED_TRACE(StrCat(ToString(agg), " c=", c));
      ExpectSameOutcome(BoundedAggregate(mgr, level, agg, c),
                        FullScanAggregate(mgr, level, agg, c));
    }
  }
}

// Aggregates bound their scans by their range except at REPEATABLE READ and
// SERIALIZABLE. At every level each must give the full scan's value and
// status, leave the same locks held and count the same dirty reads: past a
// foreign pending image that matches neither before nor after, on clean
// data, and over a row that a rolling-back writer moved into range.
TEST(BoundedAggregateTest, EveryLevelMatchesTheFullScan) {
  struct Want {
    IsoLevel level;
    Code pending;      ///< the count past the foreign pending image
    long dirty;        ///< dirty reads it counts
    size_t held;       ///< row locks the count leaves held on clean data
    Code rolling;      ///< the count over the row mid-rollback
    std::string value; ///< its value
  };
  const Code kOk = Code::kOk;
  const Code kBlock = Code::kWouldBlock;
  const Want wants[] = {
      {IsoLevel::kReadUncommitted, kOk, 1, 0, kOk, "4"},
      {IsoLevel::kReadCommitted, kBlock, 0, 0, kBlock, ""},
      {IsoLevel::kReadCommittedFcw, kBlock, 0, 0, kBlock, ""},
      {IsoLevel::kRepeatableRead, kBlock, 0, 4, kBlock, ""},
      {IsoLevel::kSerializable, kBlock, 0, 4, kBlock, ""},
      {IsoLevel::kSnapshot, kOk, 0, 0, kOk, "3"},
      {IsoLevel::kSsi, kOk, 0, 0, kOk, "3"},
  };
  const Expr count = AggregatesOverT()[0];
  const std::vector<int64_t> cs = {1, 3, 9};
  for (const Want& want : wants) {
    SCOPED_TRACE(IsoLevelName(want.level));
    Store store;
    LockManager locks;
    TxnManager mgr(&store, &locks);
    ASSERT_TRUE(store.CreateItem("x", Value::Int(6)).ok());
    ASSERT_TRUE(store
                    .CreateTable("T", Schema({{"k", Value::Type::kInt},
                                              {"v", Value::Type::kInt}}))
                    .ok());
    for (const Tuple& t : {Kv(1, 5), Kv(2, 6), Kv(1, 7), Kv(3, 8)}) {
      ASSERT_TRUE(store.LoadRow("T", t).ok());
    }
    // A first bounded aggregate builds the k index; row 2 then moves into
    // k = 1 by a committed update the index must record.
    EXPECT_EQ(BoundedAggregate(&mgr, IsoLevel::kReadCommitted, count, 1).value,
              "2");
    auto mover = mgr.Begin(IsoLevel::kReadCommitted);
    ASSERT_TRUE(mgr.UpdateRows(mover.get(), "T", Eq(Attr("k"), Lit(int64_t{2})),
                               {{"k", Lit(int64_t{1})}}, false, nullptr)
                    .ok());
    ASSERT_TRUE(mgr.Commit(mover.get()).ok());

    // Row 4's pending image matches k = 1 neither before nor after.
    auto foreign = mgr.Begin(IsoLevel::kReadCommitted);
    ASSERT_TRUE(mgr.UpdateRows(foreign.get(), "T",
                               Eq(Attr("k"), Lit(int64_t{3})),
                               {{"v", Lit(int64_t{9})}}, false, nullptr)
                    .ok());
    const AggOutcome pending = FullScanAggregate(&mgr, want.level, count, 1);
    EXPECT_EQ(pending.code, want.pending);
    EXPECT_EQ(pending.dirty_reads, want.dirty);
    ExpectBoundedMatchesFullScan(&mgr, want.level, cs);
    mgr.Abort(foreign.get());

    const AggOutcome clean = FullScanAggregate(&mgr, want.level, count, 1);
    EXPECT_EQ(clean.value, "3");
    EXPECT_EQ(clean.held, want.held);
    ExpectBoundedMatchesFullScan(&mgr, want.level, cs);

    // Row 4 moves into k = 1 under a writer that is rolling back.
    auto undoing = mgr.Begin(IsoLevel::kReadCommitted);
    ASSERT_TRUE(mgr.UpdateRows(undoing.get(), "T",
                               Eq(Attr("k"), Lit(int64_t{3})),
                               {{"k", Lit(int64_t{1})}}, false, nullptr)
                    .ok());
    mgr.BeginRollback(undoing.get());
    const AggOutcome rolling = FullScanAggregate(&mgr, want.level, count, 1);
    EXPECT_EQ(rolling.code, want.rolling);
    EXPECT_EQ(rolling.value, want.value);
    EXPECT_EQ(rolling.undo_dirty_reads, want.dirty);
    ExpectBoundedMatchesFullScan(&mgr, want.level, cs);
    mgr.FinishRollback(undoing.get());
  }
}

// Random histories: committed moves between k buckets, foreign writers left
// pending (updates, inserts, deletes), some of them part way through a
// stepwise rollback, and the index built at a random point. Every aggregate
// at every level must match the full scan.
TEST(BoundedAggregateTest, RandomHistoriesMatchTheFullScan) {
  constexpr int kSeeds = 150;
  for (int seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(StrCat("seed ", seed));
    Rng rng(seed);
    Store store;
    LockManager locks;
    TxnManager mgr(&store, &locks);
    ASSERT_TRUE(store.CreateItem("x", Value::Int(rng.Uniform(0, 9))).ok());
    ASSERT_TRUE(store
                    .CreateTable("T", Schema({{"k", Value::Type::kInt},
                                              {"v", Value::Type::kInt}}))
                    .ok());
    const int rows = static_cast<int>(rng.Uniform(2, 10));
    for (int r = 0; r < rows; ++r) {
      ASSERT_TRUE(
          store.LoadRow("T", Kv(rng.Uniform(0, 3), rng.Uniform(0, 9))).ok());
    }
    auto random_k = [&] { return Lit(rng.Uniform(0, 3)); };
    auto pick_row = [&] {
      return And(Eq(Attr("k"), random_k()),
                 Eq(Attr("v"), Lit(rng.Uniform(0, 9))));
    };
    std::vector<std::unique_ptr<Txn>> open;
    const int events = static_cast<int>(rng.Uniform(2, 8));
    for (int e = 0; e < events; ++e) {
      const int64_t kind = rng.Uniform(0, 5);
      if (kind == 0) {  // build the index with a bounded read
        BoundedAggregate(&mgr, IsoLevel::kReadUncommitted, AggregatesOverT()[0],
                         rng.Uniform(0, 3));
        continue;
      }
      auto w = mgr.Begin(IsoLevel::kReadCommitted);
      Status s;
      if (kind == 1 || kind == 2) {  // a move (committed or left pending)
        s = mgr.UpdateRows(w.get(), "T", Eq(Attr("k"), random_k()),
                           {{"k", random_k()}}, false, nullptr);
      } else if (kind == 3) {
        s = mgr.InsertRow(w.get(), "T",
                          Kv(rng.Uniform(0, 3), rng.Uniform(0, 9)), false);
      } else {
        s = mgr.DeleteRows(w.get(), "T", pick_row(), false, nullptr);
      }
      if (!s.ok()) {
        mgr.Abort(w.get());
      } else if (kind == 1) {
        ASSERT_TRUE(mgr.Commit(w.get()).ok());
      } else {
        open.push_back(std::move(w));
      }
    }
    // Some pending writers start a stepwise rollback.
    for (auto& w : open) {
      if (!rng.Bernoulli(0.4)) continue;
      mgr.BeginRollback(w.get());
      for (int64_t undo = rng.Uniform(0, 2); undo > 0; --undo) {
        if (!w->undo.empty()) {
          ASSERT_TRUE(mgr.UndoOneWrite(w.get()).ok());
        }
      }
    }
    for (int l = 0; l < kIsoLevelCount; ++l) {
      IsoLevel level;
      ASSERT_TRUE(IsoLevelFromIndex(l, &level));
      SCOPED_TRACE(IsoLevelName(level));
      ExpectBoundedMatchesFullScan(&mgr, level, {rng.Uniform(0, 4)});
    }
    for (auto& w : open) mgr.Abort(w.get());
  }
}

// Bounded counts at SNAPSHOT and READ UNCOMMITTED race inserts from other
// threads (NewOrder's insert into ORDERS). A snapshot count equals the full
// scan of the same snapshot and never shrinks; a dirty count lies between
// the rows committed before it and the rows inserted after it.
TEST(BoundedAggregateTest, CountsRaceConcurrentInserts) {
  Store store;
  LockManager locks;
  TxnManager mgr(&store, &locks);
  ASSERT_TRUE(store
                  .CreateTable("ORDERS", Schema({{"c_id", Value::Type::kInt},
                                                 {"o_id", Value::Type::kInt}}))
                  .ok());
  auto order = [](int64_t c, int64_t o) {
    return Tuple{{"c_id", Value::Int(c)}, {"o_id", Value::Int(o)}};
  };
  for (int64_t o = 0; o < 30; ++o) {
    ASSERT_TRUE(store.LoadRow("ORDERS", order(o % 3, o)).ok());
  }
  const Expr count = Count("ORDERS", Eq(Attr("c_id"), Local("c")));
  const auto program = [&] {
    ProgramBuilder b("OrderStatus");
    b.SelectAgg("n", count);
    return std::make_shared<TxnProgram>(b.Build({{"c", Value::Int(1)}}));
  }();
  constexpr int kInserters = 2;
  constexpr int kOrders = 400;
  std::atomic<int64_t> committed{10};  // c_id = 1 rows committed
  std::atomic<int64_t> inserted{10};   // c_id = 1 rows ever installed
  std::atomic<long> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kInserters; ++t) {
    threads.emplace_back([&, t] {
      for (int64_t i = 0; i < kOrders; ++i) {
        const int64_t c = i % 3;
        auto txn = mgr.Begin(t == 0 ? IsoLevel::kReadCommitted
                                    : IsoLevel::kSnapshot);
        if (c == 1) inserted++;
        if (!mgr.InsertRow(txn.get(), "ORDERS", order(c, 1000 * t + i), true)
                 .ok()) {
          errors++;
        }
        if (i % 10 == 9) {  // NewOrder's rollback
          mgr.Abort(txn.get());
        } else if (mgr.Commit(txn.get()).ok()) {
          if (c == 1) committed++;
        } else {
          errors++;
        }
      }
    });
  }
  threads.emplace_back([&] {
    int64_t last = 0;
    for (int i = 0; i < kOrders; ++i) {
      ProgramRun run(&mgr, program, IsoLevel::kSnapshot);
      if (run.Step(true) != StepOutcome::kRunning) {
        errors++;
        continue;
      }
      const int64_t n = run.txn().locals.at("n").AsInt();
      int64_t full = 0;
      Status s = mgr.ScanVisible(
          run.mutable_txn(), "ORDERS", nullptr,
          [&](const Tuple& t) { full += t.at("c_id").AsInt() == 1; }, true);
      if (!s.ok() || n != full || n < last) errors++;
      last = n;
      run.ForceAbort(Status::Aborted("read only"));
    }
  });
  threads.emplace_back([&] {
    for (int i = 0; i < kOrders; ++i) {
      const int64_t low = committed.load();
      ProgramRun run(&mgr, program, IsoLevel::kReadUncommitted);
      if (run.Step(true) != StepOutcome::kRunning) {
        errors++;
        continue;
      }
      const int64_t n = run.txn().locals.at("n").AsInt();
      if (n < low || n > inserted.load()) errors++;
      run.ForceAbort(Status::Aborted("read only"));
    }
  });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(errors.load(), 0);
  for (IsoLevel level : {IsoLevel::kSnapshot, IsoLevel::kReadUncommitted}) {
    ProgramRun run(&mgr, program, level);
    ASSERT_EQ(run.Step(true), StepOutcome::kRunning);
    EXPECT_EQ(run.txn().locals.at("n").AsInt(), committed.load());
    run.ForceAbort(Status::Aborted("read only"));
  }
}

TEST(SsiConcurrencyTest, WriteSkewNeverCommitsWhileBeginsRaceCommits) {
  // SSI must keep x + y >= 1 when each transaction alone does: zero one
  // side only when both are 1, otherwise refill both. A committed
  // transaction that read x + y < 1 proves a non-serializable history.
  // Short transactions run back to back from several threads, so begins
  // race commits while the tracker is often otherwise empty. That is where
  // the tracker used to drop a commit's record that a snapshot taken just
  // before it had missed, and let write skew commit unseen.
  Store store;
  LockManager locks;
  TxnManager mgr(&store, &locks);
  ASSERT_TRUE(store.CreateItem("x", Value::Int(1)).ok());
  ASSERT_TRUE(store.CreateItem("y", Value::Int(1)).ok());
  constexpr int kThreads = 2;
  constexpr int kTxnsPerThread = 5000;
  std::atomic<long> committed{0};
  std::atomic<long> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string mine = t % 2 == 0 ? "x" : "y";
      for (int i = 0; i < kTxnsPerThread; ++i) {
        auto txn = mgr.Begin(IsoLevel::kSsi);
        Value x, y;
        Status s = mgr.ReadItem(txn.get(), "x", &x, false);
        if (s.ok()) s = mgr.ReadItem(txn.get(), "y", &y, false);
        const bool saw_violation = s.ok() && x.AsInt() + y.AsInt() < 1;
        if (s.ok() && x.AsInt() + y.AsInt() >= 2) {
          s = mgr.WriteItem(txn.get(), mine, Value::Int(0), false);
        } else if (s.ok()) {
          s = mgr.WriteItem(txn.get(), "x", Value::Int(1), false);
          if (s.ok()) s = mgr.WriteItem(txn.get(), "y", Value::Int(1), false);
        }
        if (s.ok()) s = mgr.Commit(txn.get());
        if (!s.ok()) {
          mgr.Abort(txn.get());
          continue;
        }
        committed++;
        if (saw_violation) violations++;
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(committed.load(), 0);
  EXPECT_GE(store.ReadItem("x", ReadView::Committed()).value().AsInt() +
                store.ReadItem("y", ReadView::Committed()).value().AsInt(),
            1);
}

}  // namespace
}  // namespace semcor
