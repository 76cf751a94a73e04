#ifndef SEMCOR_MVCC_VERSION_STORE_H_
#define SEMCOR_MVCC_VERSION_STORE_H_

#include <map>
#include <string>

#include "storage/store.h"

namespace semcor {

/// A SNAPSHOT transaction's private view: reads come from the database
/// snapshot taken at start (plus the transaction's own buffered writes);
/// writes are buffered and installed atomically at commit with
/// first-committer-wins validation (Store::SnapshotCommit).
///
/// This realizes the paper's two-step model (§3.6): the read step sees a
/// committed snapshot, the write step is deferred to commit.
class SnapshotView {
 public:
  SnapshotView(Store* store, Timestamp start_ts)
      : store_(store), start_ts_(start_ts) {}

  Timestamp start_ts() const { return start_ts_; }
  const SnapshotWriteSet& write_set() const { return write_set_; }

  /// Reads an item: the txn's own buffered write wins, else the snapshot.
  Result<Value> ReadItem(const std::string& name) const;

  /// Buffers an item write.
  void WriteItem(const std::string& name, Value v);

  /// Scans the table as seen by this transaction: the snapshot overlaid
  /// with the transaction's own buffered row operations and inserts.
  /// `where` bounds the scan as in Store::Scan; rows the transaction has
  /// rewritten are visited whatever the hint says.
  Status Scan(const std::string& table,
              const std::function<void(RowId, const Tuple&)>& fn,
              const Expr& where = nullptr) const;

  /// Buffers row mutations. `row` must be visible in this view; rows the
  /// transaction inserted itself have synthetic ids (kOwnRowBase + index).
  static constexpr RowId kOwnRowBase = RowId{1} << 62;
  void InsertRow(const std::string& table, Tuple tuple);
  Status UpdateRow(const std::string& table, RowId row, Tuple tuple);
  Status DeleteRow(const std::string& table, RowId row);

  /// Validates and installs the write set; returns the commit timestamp.
  /// `applied` (optional) receives the promoted after-images with insert row
  /// ids resolved — see Store::SnapshotCommit.
  Result<Timestamp> Commit(TxnId txn, TxnEffects* applied = nullptr);

 private:
  /// Effective image of a base row after the txn's own buffered ops
  /// (nullptr if untouched, pointer to the op's image otherwise).
  const SnapshotWriteSet::RowOp* OwnOpFor(const std::string& table,
                                          RowId row) const;

  Store* store_;
  Timestamp start_ts_;
  SnapshotWriteSet write_set_;
};

}  // namespace semcor

#endif  // SEMCOR_MVCC_VERSION_STORE_H_
