#ifndef SEMCOR_LOCK_LOCK_MANAGER_H_
#define SEMCOR_LOCK_LOCK_MANAGER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "lock/predicate_lock.h"

namespace semcor {

/// Sharded lock manager for item locks, row locks, and predicate locks.
///
/// Item/row keys are striped across N shards (a power of two, default
/// derived from hardware_concurrency) by string hash; each shard owns its
/// own mutex, condition variable, lock table, FIFO waiter queues, ticket
/// counter and statistics, so requests for keys on different shards never
/// contend. Predicate locks are per-table and a table's whole
/// PredicateLockSet lives on the shard its name hashes to, preserving the
/// single-manager conflict semantics. The wait-for graph is the one global
/// structure (deadlock cycles span shards); it is guarded by its own mutex
/// and touched only by requests that actually block, so the try-lock and
/// uncontended-grant hot paths never take a second lock.
///
/// External contract (identical to the single-mutex reference manager in
/// tests/ref_lock_manager.h, asserted by tests/lock_shard_test.cc):
///  - per-key writer/reader FIFO fairness via per-shard tickets;
///  - non-blocking requests (the deterministic step driver) return
///    kWouldBlock instead of waiting and never touch the wait-for graph,
///    so try-lock outcomes are a pure function of per-key state and are
///    bit-for-bit independent of the shard count;
///  - blocking requests wait on their shard's condition variable; the
///    requester that closes a wait-for cycle receives kDeadlock and is
///    expected to abort itself;
///  - the FaultHook is consulted at every grant point;
///  - Reset() restores a factory-fresh manager for the schedule explorer.
///
/// Lock *duration* is the caller's concern: short locks are released with
/// Release*, long locks with ReleaseAll at commit/abort, per the level
/// policies of txn/isolation.h.
class LockManager {
 public:
  /// `shards` is rounded up to a power of two; 0 picks DefaultShardCount().
  explicit LockManager(size_t shards = 0);
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// hardware_concurrency rounded up to a power of two, clamped to
  /// [kMinShards, kMaxShards] so the shard logic is exercised even on
  /// small hosts.
  static size_t DefaultShardCount();
  static constexpr size_t kMinShards = 4;
  static constexpr size_t kMaxShards = 64;

  Status AcquireItem(TxnId txn, const std::string& item, LockMode mode,
                     bool wait);
  Status AcquireRow(TxnId txn, const std::string& table, RowId row,
                    LockMode mode, bool wait);
  /// Acquires a predicate lock (always long duration, per [2]).
  Status AcquirePredicate(TxnId txn, const std::string& table, Expr pred,
                          LockMode mode, bool wait);
  /// Gate (no lock recorded): waits until no other transaction holds a
  /// predicate lock of an incompatible mode covering any of `images`.
  Status PredicateGate(TxnId txn, const std::string& table,
                       const std::vector<const Tuple*>& images, LockMode mode,
                       bool wait);

  void ReleaseItem(TxnId txn, const std::string& item);
  void ReleaseRow(TxnId txn, const std::string& table, RowId row);
  /// Releases every lock (incl. predicate locks) held by `txn` and wakes
  /// waiters. Call at commit/abort.
  void ReleaseAll(TxnId txn);

  /// Drops every lock, queue, and statistic — a factory-fresh manager. Only
  /// valid while no thread is blocked inside an acquire (the schedule
  /// explorer calls it between try-lock-only runs). The fault hook and the
  /// shard count survive.
  void Reset();

  /// Rebuilds the manager with a new shard count (0 = default). Only valid
  /// while the manager is idle: no locks held, no thread blocked. Statistics
  /// are reset; the fault hook survives. The schedule explorer uses this to
  /// prove shard-count independence of deterministic replay.
  void Reshard(size_t shards);

  size_t shard_count() const { return shards_.size(); }

  /// Shard routing, exposed so tests can construct cross-shard scenarios
  /// and benches can attribute contention.
  size_t ShardOfItem(const std::string& item) const;
  size_t ShardOfRow(const std::string& table, RowId row) const;
  size_t ShardOfTable(const std::string& table) const;

  /// Number of item/row locks held (tests & benches).
  size_t HeldCount(TxnId txn) const;

  /// Lock statistics. stats() sums over shards; ShardStats() exposes the
  /// per-shard break-down (grant/contention imbalance).
  struct Stats {
    long grants = 0;            ///< successful acquires (incl. re-grants)
    long blocks = 0;            ///< wait-loop rounds that found conflicts
    long deadlocks = 0;         ///< kDeadlock results (cycles + timeouts)
    long contention_waits = 0;  ///< condition-variable waits
    void Add(const Stats& other) {
      grants += other.grants;
      blocks += other.blocks;
      deadlocks += other.deadlocks;
      contention_waits += other.contention_waits;
    }
  };
  Stats stats() const;
  std::vector<Stats> ShardStats() const;

  /// Fault-injection hook, consulted at every grant point (just before a
  /// request that has no conflicts is granted). A non-OK return vetoes the
  /// grant and is reported to the requester — kWouldBlock models a
  /// transient grant failure, kAborted/kDeadlock force the requester down
  /// its abort path. Survives Reset() (the plan outlives runs); pass an
  /// empty function to uninstall. May be invoked concurrently from
  /// different shards; FaultInjector is thread-safe by design.
  using FaultHook = std::function<Status(TxnId)>;
  void SetFaultHook(FaultHook hook);

 private:
  struct LockEntry {
    std::map<TxnId, LockMode> holders;
  };

  /// A blocked request queued on a key. Grants are strictly FIFO: a request
  /// proceeds only when it is compatible with the holders and no earlier
  /// waiter remains — fair to both readers and writers (neither starves).
  /// Tickets are per-shard; they are only ever compared within one key's
  /// queue, so shard-local counters preserve the global FIFO contract.
  struct Waiter {
    uint64_t ticket = 0;
    TxnId txn = 0;
    LockMode mode = LockMode::kShared;
  };

  /// One stripe of the lock table. `blocked` counts threads inside a cv
  /// wait so release paths can skip the notify when nobody listens.
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable cv;
    std::map<std::string, LockEntry> locks;
    std::map<std::string, std::vector<Waiter>> queues;
    std::map<std::string, PredicateLockSet> predicate_locks;  ///< by table
    uint64_t next_ticket = 1;
    int blocked = 0;
    Stats stats;
  };

  static std::string ItemKey(const std::string& item) { return "i:" + item; }
  static std::string RowKey(const std::string& table, RowId row);

  size_t ShardIndex(const std::string& key) const;
  Shard& ShardFor(const std::string& key) { return *shards_[ShardIndex(key)]; }
  Shard& ShardForTable(const std::string& table) {
    return *shards_[ShardOfTable(table)];
  }

  /// Core wait loop shared by all acquire paths; runs with `sh.mu` held via
  /// `lk`. `conflicts` computes the current blockers; `grant` records the
  /// lock (may be empty for gates). Blocking iterations publish the
  /// requester's blockers to the global wait-for graph and check for cycles
  /// there; try-lock calls never touch the graph.
  Status AcquireLoop(Shard& sh, TxnId txn, bool wait,
                     const std::function<std::vector<TxnId>()>& conflicts,
                     const std::function<void()>& grant,
                     std::unique_lock<std::mutex>& lk);

  static std::vector<TxnId> KeyConflicts(const Shard& sh,
                                         const std::string& key, TxnId txn,
                                         LockMode mode);
  /// Requires graph_mu_.
  bool WaitCycleFromLocked(TxnId txn) const;
  /// Shared acquire path for item/row keys with writer-priority fairness.
  Status AcquireKey(TxnId txn, const std::string& key, LockMode mode,
                    bool wait);
  /// Grant-point fault check; cheap no-op unless a hook is installed.
  Status ConsultFaultHook(TxnId txn);

  std::vector<std::unique_ptr<Shard>> shards_;
  size_t shard_mask_ = 0;  ///< shards_.size() - 1 (size is a power of two)

  /// Global wait-for graph (deadlock cycles span shards). Lock order:
  /// shard mutex, then graph_mu_ — never the reverse.
  mutable std::mutex graph_mu_;
  std::map<TxnId, std::set<TxnId>> waiting_on_;

  /// The hook is read on every grant; the atomic flag keeps the common
  /// uninstalled case to one relaxed load on the hot path.
  std::atomic<bool> has_fault_hook_{false};
  mutable std::mutex hook_mu_;
  FaultHook fault_hook_;
};

}  // namespace semcor

#endif  // SEMCOR_LOCK_LOCK_MANAGER_H_
