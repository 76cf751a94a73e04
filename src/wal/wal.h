#ifndef SEMCOR_WAL_WAL_H_
#define SEMCOR_WAL_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "common/status.h"
#include "fault/fault.h"
#include "storage/store.h"
#include "txn/isolation.h"
#include "wal/device.h"
#include "wal/faulty_device.h"
#include "wal/record.h"

namespace semcor::wal {

/// When commit records reach stable storage.
enum class FsyncPolicy {
  kNone = 0,         ///< never sync (bench baseline; no durability claim)
  kGroupCommit = 1,  ///< a committer's fsync covers everything appended so far
};

const char* FsyncPolicyName(FsyncPolicy policy);
bool ParseFsyncPolicy(const std::string& name, FsyncPolicy* out);

/// What to do when the device reports an fsync failure. The one thing this
/// log never does is retry the fsync and pretend it worked: after a failed
/// fsync the kernel may have dropped the dirty pages, so a later successful
/// fsync vouches for nothing about the earlier bytes (the Postgres
/// "fsyncgate" lesson).
enum class FsyncFailurePolicy {
  /// Freeze the log: no further appends, WaitDurable answers false for
  /// everything not already durable, and the server refuses commit acks and
  /// shuts down. Recovery from the on-disk prefix is the only way forward.
  kPanic = 0,
  /// Keep serving without durability: acknowledgements keep flowing but the
  /// log marks itself degraded (stats expose it) and stops issuing fsyncs.
  /// Explicitly "unsafe, and says so" — never "unsafe, silently".
  kDegradeToUnsafe = 1,
};

const char* FsyncFailurePolicyName(FsyncFailurePolicy policy);
bool ParseFsyncFailurePolicy(const std::string& name, FsyncFailurePolicy* out);

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kGroupCommit;
  /// Auto-checkpoint once the log grows past this many bytes (0 = manual
  /// checkpoints only).
  uint64_t checkpoint_every_bytes = 4u << 20;
  /// First LSN to assign (tests set this near the wrap point).
  Lsn first_lsn = 1;
  /// Reaction to a failed fsync (append failures always freeze the log: a
  /// hole mid-log would silently truncate recovery at the hole).
  FsyncFailurePolicy fsync_failure = FsyncFailurePolicy::kPanic;
  /// Deterministic disk-fault plan; non-empty makes OpenDir wrap the file
  /// device in a FaultyDevice (recovery reads are never faulted).
  DiskFaultPlan disk_faults;
};

/// Cumulative durability counters (monotonic across checkpoints).
struct WalStats {
  uint64_t appends = 0;         ///< records appended
  uint64_t commits_logged = 0;  ///< commit records among them
  uint64_t fsyncs = 0;
  uint64_t group_commit_batches = 0;  ///< syncs that covered >= 1 commit
  uint64_t batch_commits = 0;         ///< commits covered by those batches
  uint64_t checkpoints = 0;
  uint64_t truncations = 0;
  uint64_t bytes_appended = 0;   ///< lifetime bytes written
  uint64_t log_bytes = 0;        ///< current log size (post-truncation)
  uint64_t bytes_reclaimed = 0;  ///< bytes dropped by truncation
  uint64_t device_errors = 0;    ///< append/sync/reset calls the device failed
  uint64_t fsyncs_skipped = 0;   ///< syncs not issued because degraded
  uint64_t unsafe_acks = 0;      ///< commits acked without durability (degraded)

  double MeanBatchSize() const {
    return group_commit_batches == 0
               ? 0.0
               : static_cast<double>(batch_commits) /
                     static_cast<double>(group_commit_batches);
  }
};

/// What recovery did. `recovered_commits` is cumulative across the log's
/// whole history: the checkpoint record carries the count of commits already
/// folded into its state, so truncation never loses the tally.
struct RecoveryResult {
  uint64_t scanned_records = 0;
  uint64_t replayed_txns = 0;      ///< commit records redone
  uint64_t recovered_commits = 0;  ///< checkpoint base + replayed
  uint64_t losers_aborted = 0;     ///< in-flight txns discarded
  uint64_t undone_writes = 0;      ///< loser writes not already compensated
  bool tail_torn = false;
  bool found_checkpoint = false;
  TxnId max_txn_id = 0;    ///< resume id allocation above this
  Timestamp clock = 0;     ///< store clock after replay
  Lsn next_lsn = 1;        ///< resume LSN allocation here
  uint64_t clean_bytes = 0;
  /// Non-OK when replay itself failed (a checkpoint or committed record the
  /// store refused to apply). The store is then in an undefined partial
  /// state and must not be served from.
  Status status = Status::Ok();
};

/// Analysis + redo against `store`: restores the last complete checkpoint
/// (when present), replays post-checkpoint commit records in commit_ts
/// order, and discards losers with accounting. Uncommitted images are never
/// checkpointed, so loser undo is pure bookkeeping — the kWrite/kClr
/// chronicle says what a rollback would have had to undo.
RecoveryResult RecoverFromBytes(std::string_view log, Store* store);

/// Redo-only write-ahead log over an append-only device.
///
/// Ordering contract: LogCommit runs the store commit *under the append
/// mutex*, so commit records appear in the log in commit-timestamp order —
/// the durable prefix of the log is always a prefix of the commit order,
/// which is what lets recovery reproduce exactly the committed prefix the
/// per-level semantic conditions were checked against.
///
/// Durability contract: a commit may be acknowledged only after
/// WaitDurable(lsn) returns true. A committer whose record is not yet
/// durable syncs the log itself, and each fsync covers every record
/// appended before it starts. Committers that queue behind a running fsync
/// then either find themselves covered by it or cover the whole backlog
/// with one more — group commit without a timer.
class WriteAheadLog {
 public:
  WriteAheadLog(std::unique_ptr<LogDevice> device, Store* store,
                WalOptions options);
  ~WriteAheadLog();

  /// Opens `dir`/wal.log, recovers its contents into `store`, and writes a
  /// fresh checkpoint (truncating history).
  static Result<std::unique_ptr<WriteAheadLog>> OpenDir(
      const std::string& dir, Store* store, WalOptions options,
      RecoveryResult* recovery);

  /// Final sync (Flush, ignoring its status). Idempotent.
  void Stop();

  // ---- record appends (no-ops once crashed) ----
  void LogBegin(TxnId txn, IsoLevel level);
  void LogItemWrite(TxnId txn, const std::string& name,
                    const std::optional<Value>& prior);
  void LogRowWrite(TxnId txn, const std::string& table, RowId row,
                   const std::optional<std::optional<Tuple>>& prior);
  void LogClrItem(TxnId txn, const std::string& name);
  void LogClrRow(TxnId txn, const std::string& table, RowId row);
  void LogAbort(TxnId txn);

  struct CommitHandle {
    bool applied = false;     ///< apply() produced a commit ts
    Lsn lsn = 0;              ///< 0 when no record was appended
    Timestamp commit_ts = 0;
  };

  /// Runs `apply` under the append mutex and, if it yields a commit
  /// timestamp, appends the commit record carrying the effects it filled.
  /// `apply_status` receives apply's status (FCW conflicts surface here).
  CommitHandle LogCommit(
      TxnId txn,
      const std::function<Result<Timestamp>(TxnEffects*)>& apply,
      Status* apply_status);

  /// Returns once the record at `lsn` is durable, syncing the log itself
  /// when no completed fsync covers it yet. Returns false — do not
  /// acknowledge — when the log crashed first or `lsn` is 0.
  bool WaitDurable(Lsn lsn);

  /// Fuzzy checkpoint + truncation: captures the committed state and the
  /// active-transaction set under the append mutex, then atomically replaces
  /// the log with just the checkpoint record. Everything becomes durable.
  Status Checkpoint();

  /// Forces a sync now (Stop and the CI drain path use it).
  Status Flush();

  /// Crash-point hook: called with (site, txn) at kWalAppend / kWalPreSync /
  /// kWalPostSync / kWalCheckpoint; returning true freezes the log as a
  /// simulated crash (an append in progress is torn half-written).
  using FaultHook = std::function<bool(FaultSite, TxnId)>;
  void SetFaultHook(FaultHook hook);

  /// Simulated-crash state: all appends are dropped, WaitDurable returns
  /// what was already durable. The harness reads the device image and runs
  /// recovery against a fresh store.
  void Freeze();
  bool crashed() const;

  /// True once an fsync failure was absorbed under kDegradeToUnsafe: the log
  /// keeps accepting appends and acking commits but claims no durability and
  /// issues no further fsyncs.
  bool degraded() const;
  /// True once a device error froze the log under kPanic (or any append
  /// error under either policy). Distinct from a simulated crash only by
  /// device_error() being non-OK.
  bool panicked() const;
  /// First device error the log absorbed (Ok when none).
  Status device_error() const;

  WalStats stats() const;
  /// Injection counters when OpenDir wrapped the device (zeroes otherwise).
  DiskFaultStats disk_fault_stats() const;
  /// Commits folded into the log's history (checkpoint base + logged).
  uint64_t committed_total() const;
  Lsn durable_lsn() const;

  LogDevice* device() { return device_.get(); }

 private:
  /// Next LSN, skipping the 0 sentinel across a wrap; caller holds mu_.
  Lsn TakeLsn();
  /// Appends an encoded record; caller holds mu_. Returns the LSN, or 0
  /// when the log is (or just became) crashed.
  Lsn AppendLocked(Record* rec, TxnId txn);
  Status CheckpointLocked();
  /// Makes the record at `lsn` durable: returns at once when a completed
  /// sync covers it, and otherwise fsyncs everything appended so far. The
  /// check and the target are read under mu_ only once sync_mu_ is held,
  /// so a caller queued behind a running fsync either finds itself covered
  /// by it or covers, with one fsync, everything appended meanwhile. Caller
  /// must NOT hold mu_ — the device fsync runs outside it so appends and
  /// commits keep flowing while the disk works.
  void SyncCovering(Lsn lsn);
  bool HookSaysCrash(FaultSite site, TxnId txn);

  std::unique_ptr<LogDevice> device_;
  Store* store_;
  WalOptions options_;

  /// Serializes syncers (committers, Flush/Stop). Ordered strictly before
  /// mu_: never acquired while holding mu_.
  std::mutex sync_mu_;
  mutable std::mutex mu_;
  Lsn next_lsn_ = 1;
  Lsn last_lsn_ = 0;     ///< newest appended record
  Lsn durable_lsn_ = 0;  ///< newest record covered by a sync
  bool crashed_ = false;
  bool degraded_ = false;       ///< fsync failed under kDegradeToUnsafe
  Status device_error_ = Status::Ok();  ///< first device failure absorbed
  FaultyDevice* faulty_ = nullptr;      ///< set when OpenDir wrapped the device
  std::set<TxnId> active_;
  uint64_t committed_base_ = 0;  ///< from the recovered checkpoint
  uint64_t acked_commits_ = 0;   ///< commits covered by completed syncs
  WalStats stats_;
  FaultHook hook_;
};

}  // namespace semcor::wal

#endif  // SEMCOR_WAL_WAL_H_
