#ifndef SEMCOR_TXN_TXN_H_
#define SEMCOR_TXN_TXN_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "fault/undo_log.h"
#include "lock/lock_manager.h"
#include "mvcc/version_store.h"
#include "sem/prog/program.h"
#include "storage/store.h"
#include "txn/isolation.h"
#include "txn/ssi.h"

namespace semcor {

namespace wal {
class WriteAheadLog;
}  // namespace wal

/// Runtime state of one transaction execution.
struct Txn {
  TxnId id = 0;
  IsoLevel level = IsoLevel::kSerializable;
  LevelPolicy policy;
  Timestamp start_ts = 0;
  std::unique_ptr<SnapshotView> snapshot;  ///< SNAPSHOT level only

  std::map<std::string, Value> locals;
  std::map<std::string, Value> logicals;
  std::map<std::string, std::vector<Tuple>> buffers;

  /// RC-FCW: last commit ts of each item at the time this txn read it.
  std::map<std::string, Timestamp> fcw_read_ts;

  /// Items/rows this txn wrote (their long X locks must never be released
  /// by the short-read-lock path).
  std::set<std::string> written_items;
  std::set<std::pair<std::string, RowId>> written_rows;

  /// LIFO log of this txn's uncommitted writes, for stepwise rollback.
  /// SNAPSHOT transactions buffer writes instead and keep it empty.
  UndoLog undo;

  /// READ UNCOMMITTED observability counters: reads that saw a foreign
  /// uncommitted image, and the subset where the writer was mid-rollback
  /// (i.e. the value read was a not-yet-undone or partially-undone image —
  /// exactly the interleavings Theorem 1's undo-write obligations cover).
  long dirty_reads = 0;
  long undo_dirty_reads = 0;

  /// Declared READ ONLY at Begin (spec sessions, read-only workload types).
  /// Feeds the SSI tracker's read-only optimization; advisory elsewhere.
  bool read_only = false;

  enum class State { kActive, kRollingBack, kCommitted, kAborted };
  State state = State::kActive;
  Timestamp commit_ts = 0;

  /// Whether the commit is known durable (WAL fsync covered its record).
  /// Always true without a WAL; false when a simulated crash beat the sync —
  /// such a commit must never be acknowledged to a client.
  bool durable = true;
};

/// Record of a committed transaction, for the semantic-correctness oracle.
struct CommitRecord {
  std::shared_ptr<const TxnProgram> program;
  Timestamp commit_ts = 0;
};

/// Thread-safe append-only log of committed transactions.
class CommitLog {
 public:
  void Append(std::shared_ptr<const TxnProgram> program, Timestamp ts);
  /// Records sorted by commit timestamp (the serialization order semantic
  /// correctness is defined against).
  std::vector<CommitRecord> SortedByCommit() const;
  size_t size() const;
  /// Empties the log (the schedule explorer reuses one log across runs).
  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<CommitRecord> records_;
};

/// Transaction manager: implements the per-level locking / multiversion
/// disciplines of [2] on top of Store + LockManager. All operations take a
/// `wait` flag: blocking (threads) or try-lock (deterministic step driver,
/// which retries the statement later).
class TxnManager {
 public:
  TxnManager(Store* store, LockManager* locks)
      : store_(store), locks_(locks) {}

  /// `read_only` declares the transaction READ ONLY (SSI applies the
  /// read-only optimization; the other levels treat it as advisory).
  std::unique_ptr<Txn> Begin(IsoLevel level, bool read_only = false);

  // ---- conventional (named item) operations ----
  Status ReadItem(Txn* txn, const std::string& name, Value* out, bool wait);
  Status WriteItem(Txn* txn, const std::string& name, const Value& v,
                   bool wait);

  // ---- relational operations (predicates must be closed) ----
  /// SELECT rows matching `pred`; applies the level's read-lock discipline
  /// row by row, plus an S predicate lock at SERIALIZABLE.
  Status SelectRows(Txn* txn, const std::string& table, const Expr& pred,
                    std::vector<Tuple>* out, bool wait);
  /// Full-scan visibility for aggregate evaluation (same discipline as
  /// SelectRows with predicate `true`). It stays a full scan: at REPEATABLE
  /// READ and SERIALIZABLE the S lock on every row it reads is part of the
  /// level's semantics for the aggregate.
  Status ScanVisible(Txn* txn, const std::string& table,
                     const std::function<void(const Tuple&)>& fn, bool wait);
  /// UPDATE ... SET sets WHERE pred. Set expressions may reference Attr()
  /// of the old tuple; locals must already be substituted.
  Status UpdateRows(Txn* txn, const std::string& table, const Expr& pred,
                    const std::map<std::string, Expr>& sets, bool wait,
                    int* rows_updated);
  Status InsertRow(Txn* txn, const std::string& table, Tuple tuple, bool wait);
  Status DeleteRows(Txn* txn, const std::string& table, const Expr& pred,
                    bool wait, int* rows_deleted);

  Status Commit(Txn* txn);
  void Abort(Txn* txn);

  // ---- stepwise rollback (schedulable undo) ----
  /// Moves an active transaction into kRollingBack: its undo log will be
  /// drained one write at a time (each a schedulable step) while it keeps
  /// its locks — READ UNCOMMITTED readers can observe the intermediate
  /// images, which is what Theorem 1's undo-write obligations are about.
  void BeginRollback(Txn* txn);
  /// Applies the newest undo record of a kRollingBack transaction.
  Status UndoOneWrite(Txn* txn);
  /// Completes a rollback: discards any remaining images wholesale,
  /// releases all locks, and marks the transaction kAborted.
  void FinishRollback(Txn* txn);
  /// True while `id` is between BeginRollback and FinishRollback/Abort.
  bool IsRollingBack(TxnId id) const;

  Store* store() { return store_; }
  LockManager* locks() { return locks_; }

  /// Attaches a write-ahead log (nullptr = memory-only, the default). When
  /// set, every begin/write/undo/abort is chronicled and Commit routes
  /// through WriteAheadLog::LogCommit so log order equals commit order;
  /// Commit then blocks until the commit record is durable (an fsync that
  /// covers it, possibly its own) and records the ack in Txn::durable.
  void SetWal(wal::WriteAheadLog* w) { wal_ = w; }
  wal::WriteAheadLog* wal() { return wal_; }

  /// Rewinds the transaction-id counter. Only valid while no transaction is
  /// active; the schedule explorer calls it between runs so that identical
  /// schedules replay with identical ids (and hence identical outcomes).
  /// The SSI conflict graph belongs to those ids, so it resets too.
  void ResetIds(TxnId next = 1) {
    next_id_.store(next);
    ssi_.Clear();
  }

  /// Rw-antidependency tracker backing IsoLevel::kSsi (counters are read by
  /// the executor, the explorer, and the server's STATS frame).
  SsiTracker& ssi() { return ssi_; }
  const SsiTracker& ssi() const { return ssi_; }

 private:
  /// Streams rows matching `pred` under the level's read-lock discipline
  /// (locks are taken only on matching rows, per the paper's "long locks on
  /// tuples returned by the SELECT"). `pred` also bounds the store scan
  /// (Store::Scan's hint); the rows examined and locked are the same.
  Status LockingSelect(Txn* txn, const std::string& table, const Expr& pred,
                       bool wait,
                       const std::function<void(RowId, const Tuple&)>& fn);

  /// Write-side phase 1: X-locks every row matching `pred` and returns the
  /// validated images WITHOUT mutating anything, so that a try-lock retry
  /// of the whole statement is safe (mutations happen only once every lock
  /// is held).
  Status LockMatchingRows(Txn* txn, const std::string& table, const Expr& pred,
                          bool wait,
                          std::vector<std::pair<RowId, Tuple>>* matches);

  Store* store_;
  LockManager* locks_;
  wal::WriteAheadLog* wal_ = nullptr;
  std::atomic<TxnId> next_id_{1};
  SsiTracker ssi_;

  /// Ids currently rolling back stepwise, visible to concurrent readers
  /// that want to classify a dirty read as an undo read.
  mutable std::mutex rb_mu_;
  std::set<TxnId> rolling_back_;
};

}  // namespace semcor

#endif  // SEMCOR_TXN_TXN_H_
