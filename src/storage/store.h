#ifndef SEMCOR_STORAGE_STORE_H_
#define SEMCOR_STORAGE_STORE_H_

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "sem/expr/eval.h"
#include "storage/table.h"

namespace semcor {

/// A buffered write set for SNAPSHOT transactions (writes are deferred to
/// commit; first-committer-wins validation happens atomically then).
struct SnapshotWriteSet {
  std::map<std::string, Value> items;
  /// Row operations resolved against the snapshot: row id 0 = fresh insert.
  struct RowOp {
    std::string table;
    RowId row = 0;                 ///< 0 for inserts
    std::optional<Tuple> image;    ///< nullopt = delete
  };
  std::vector<RowOp> row_ops;

  bool empty() const { return items.empty() && row_ops.empty(); }
};

/// The after-images one transaction's commit promoted: what WAL redo must
/// reapply. Row ids are the real ids in the store — SNAPSHOT inserts get
/// their id resolved at commit and reported here, so later log records that
/// reference the row compose correctly during recovery.
struct TxnEffects {
  struct ItemWrite {
    std::string name;
    Value value;
  };
  struct RowWrite {
    std::string table;
    RowId row = 0;
    std::optional<Tuple> image;  ///< nullopt = delete (tombstone)
  };
  std::vector<ItemWrite> items;
  std::vector<RowWrite> rows;

  bool empty() const { return items.empty() && rows.empty(); }
};

/// The store's committed cut (Store::CommittedCut): one value per item, one
/// optional image per row (tombstones included, so row-id continuity
/// survives recovery), plus each table's schema and row-id watermark and the
/// commit clock. Version history is deliberately collapsed, which is exactly
/// what a fuzzy WAL checkpoint may keep: snapshots older than the checkpoint
/// cannot be in use after a crash. The explorer and the spec runner keep the
/// cut taken right after setup and Load it between runs.
struct CommittedState {
  struct ItemState {
    std::string name;
    Timestamp commit_ts = 0;
    Value value;
  };
  struct RowState {
    RowId row = 0;
    Timestamp commit_ts = 0;
    std::optional<Tuple> image;  ///< nullopt = tombstone
  };
  struct TableState {
    std::string name;
    Schema schema;
    RowId next_row_id = 1;
    std::vector<RowState> rows;
  };
  std::vector<ItemState> items;
  std::vector<TableState> tables;
  Timestamp clock = 0;
};

/// In-memory versioned store for named items and relational tables. All
/// methods are thread-safe (one coarse mutex — the testbed measures
/// *relative* isolation-level behaviour, not raw storage throughput).
///
/// Every read names a ReadView, and one rule (VersionChain::Visible) decides
/// which image an item or row shows under it. Uncommitted images show only
/// under the latest, own and locking views; lock disciplines above READ
/// UNCOMMITTED prevent foreign dirty reads by construction.
class Store {
 public:
  Store() = default;
  Store(const Store&) = delete;
  Store& operator=(const Store&) = delete;

  // ---- setup ----
  Status CreateItem(const std::string& name, Value initial);
  Status CreateTable(const std::string& name, Schema schema);
  /// Inserts a committed row during setup (commit_ts 0).
  Result<RowId> LoadRow(const std::string& table, Tuple tuple);

  // ---- item access ----
  /// The item's image under `view`; NotFound if the item does not exist or
  /// nothing is visible (a snapshot older than every version).
  Result<Value> ReadItem(const std::string& name, const ReadView& view) const;
  /// Installs/overwrites the txn's uncommitted image. Fails with kConflict
  /// if another transaction has an uncommitted image (the lock manager
  /// should make that impossible for locking levels). If `prior` is non-null
  /// it receives the txn's previous own uncommitted image (nullopt when this
  /// is its first write to the item) — the undo log records it.
  Status WriteItemUncommitted(TxnId txn, const std::string& name, Value v,
                              std::optional<Value>* prior = nullptr);
  Result<Timestamp> ItemLastCommitTs(const std::string& name) const;
  /// Transaction holding an uncommitted image of the item, if any.
  std::optional<TxnId> ItemPendingWriter(const std::string& name) const;

  // ---- stepwise undo (schedulable rollback) ----
  /// Reverts one item write of `txn`: restores `prior` as the uncommitted
  /// image, or clears the image entirely when `prior` is nullopt (the
  /// committed state shows through again). No-op if the txn does not own
  /// the image (e.g. it was already aborted wholesale).
  Status UndoItemWrite(TxnId txn, const std::string& name,
                       const std::optional<Value>& prior);
  /// Row analogue; a cleared image on a row this txn inserted (no committed
  /// versions) garbage-collects the row, exactly like AbortTxn.
  Status UndoRowWrite(TxnId txn, const std::string& table, RowId row,
                      const std::optional<std::optional<Tuple>>& prior);

  // ---- row access ----
  Result<RowId> InsertRowUncommitted(TxnId txn, const std::string& table,
                                     Tuple tuple);
  /// As WriteItemUncommitted: `prior` (if non-null) receives the txn's
  /// previous own uncommitted image of the row, or nullopt on first write.
  Status WriteRowUncommitted(TxnId txn, const std::string& table, RowId row,
                             std::optional<Tuple> image,
                             std::optional<std::optional<Tuple>>* prior =
                                 nullptr);
  Result<std::optional<Tuple>> ReadRowLatest(const std::string& table,
                                             RowId row) const;
  Result<Timestamp> RowLastCommitTs(const std::string& table, RowId row) const;

  /// Calls `fn` on every row that shows a tuple under `view`, with the
  /// writer the view reports (see ReadView), in row-id order.
  Status Scan(const std::string& table, const ReadView& view,
              const std::function<void(RowId, const Tuple&,
                                       std::optional<TxnId>)>& fn) const;

  const Schema* GetSchema(const std::string& table) const;

  // ---- transaction lifecycle ----
  /// Promotes all of the txn's uncommitted images; returns the commit ts.
  Timestamp CommitTxn(TxnId txn);
  /// Discards all of the txn's uncommitted images.
  void AbortTxn(TxnId txn);

  /// Atomically validates (first-committer-wins: nothing in the write set
  /// was committed after start_ts) and applies a SNAPSHOT write set,
  /// returning the commit ts, or kConflict. `applied` (optional) receives
  /// the promoted after-images with insert row ids resolved — the WAL's
  /// redo payload.
  Result<Timestamp> SnapshotCommit(TxnId txn, const SnapshotWriteSet& ws,
                                   Timestamp start_ts,
                                   TxnEffects* applied = nullptr);

  // ---- WAL bridge (checkpointing + recovery) ----
  /// The txn's current uncommitted images as commit after-images. Must be
  /// called while the images are still installed (immediately before
  /// CommitTxn); the caller's locks guarantee they cannot change in between.
  TxnEffects CollectTxnEffects(TxnId txn) const;
  /// The committed cut: the committed view of every item and row. Fuzzy when
  /// transactions are in flight — their uncommitted images (and rows they
  /// inserted) are simply not part of it.
  CommittedState CommittedCut() const;
  /// Replaces the entire store contents with a cut (schema, rows, items,
  /// clock, row-id watermarks), dropping every version, uncommitted image and
  /// touch record accumulated since. Any transaction in flight against this
  /// store must be abandoned by the caller.
  void Load(const CommittedState& cut);
  /// Applies one committed transaction's effects during WAL recovery:
  /// installs each after-image as a committed version at `commit_ts`,
  /// creating rows as needed, and advances the clock and the row-id
  /// watermarks past everything it sees.
  Status RecoveryApply(const TxnEffects& effects, Timestamp commit_ts);

  /// Current timestamp (last assigned commit ts); snapshot start time.
  Timestamp CurrentTs() const { return clock_.load(); }

  /// Garbage-collects version history: for every item and row, drops all
  /// committed versions except the newest one visible at `horizon` and
  /// everything newer (snapshots started at or after `horizon` still read
  /// correctly; older snapshots must no longer be in use). Tombstoned rows
  /// whose only surviving version is a delete older than the horizon are
  /// removed entirely. Returns the number of versions discarded.
  size_t PruneVersionsBefore(Timestamp horizon);

  // ---- analysis / oracle bridge ----
  /// The committed view as a map context (items + tables).
  MapEvalContext SnapshotToMap() const;

 private:
  struct TxnTouches {
    std::set<std::string> items;
    std::set<std::pair<std::string, RowId>> rows;
  };

  mutable std::mutex mu_;
  std::map<std::string, ItemEntry> items_;
  std::map<std::string, TableData> tables_;
  std::map<TxnId, TxnTouches> touches_;
  std::atomic<Timestamp> clock_{0};
};

}  // namespace semcor

#endif  // SEMCOR_STORAGE_STORE_H_
