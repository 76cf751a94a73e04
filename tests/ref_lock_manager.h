#ifndef SEMCOR_TESTS_REF_LOCK_MANAGER_H_
#define SEMCOR_TESTS_REF_LOCK_MANAGER_H_

#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "common/status.h"
#include "lock/predicate_lock.h"

namespace semcor {

/// The original single-mutex lock manager, retained verbatim as the
/// behavioral reference for the sharded LockManager: one global mutex, one
/// condition variable, one lock table. The differential property test
/// (tests/lock_shard_test.cc) drives identical request scripts through both
/// managers and asserts identical outcomes; keep the grant/conflict logic
/// here in lockstep with LockManager whenever semantics change.
///
/// Not for production paths — every request serializes on `mu_`.
class RefLockManager {
 public:
  RefLockManager() = default;
  RefLockManager(const RefLockManager&) = delete;
  RefLockManager& operator=(const RefLockManager&) = delete;

  Status AcquireItem(TxnId txn, const std::string& item, LockMode mode,
                     bool wait);
  Status AcquireRow(TxnId txn, const std::string& table, RowId row,
                    LockMode mode, bool wait);
  Status AcquirePredicate(TxnId txn, const std::string& table, Expr pred,
                          LockMode mode, bool wait);
  Status PredicateGate(TxnId txn, const std::string& table,
                       const std::vector<const Tuple*>& images, LockMode mode,
                       bool wait);

  void ReleaseItem(TxnId txn, const std::string& item);
  void ReleaseRow(TxnId txn, const std::string& table, RowId row);
  void ReleaseAll(TxnId txn);

  void Reset();

  size_t HeldCount(TxnId txn) const;

  struct Stats {
    long blocks = 0;
    long deadlocks = 0;
  };
  Stats stats() const;

  using FaultHook = std::function<Status(TxnId)>;
  void SetFaultHook(FaultHook hook);

 private:
  struct LockEntry {
    std::map<TxnId, LockMode> holders;
  };

  static std::string ItemKey(const std::string& item) { return "i:" + item; }
  static std::string RowKey(const std::string& table, RowId row);

  Status AcquireLoop(TxnId txn, bool wait,
                     const std::function<std::vector<TxnId>()>& conflicts,
                     const std::function<void()>& grant,
                     std::unique_lock<std::mutex>& lk);

  std::vector<TxnId> KeyConflicts(const std::string& key, TxnId txn,
                                  LockMode mode) const;
  bool WaitCycleFrom(TxnId txn) const;
  Status AcquireKey(TxnId txn, const std::string& key, LockMode mode,
                    bool wait);

  struct Waiter {
    uint64_t ticket = 0;
    TxnId txn = 0;
    LockMode mode = LockMode::kShared;
  };

  mutable std::mutex mu_;
  std::condition_variable cv_;
  FaultHook fault_hook_;
  std::map<std::string, LockEntry> locks_;
  std::map<std::string, std::vector<Waiter>> queues_;
  std::map<std::string, PredicateLockSet> predicate_locks_;  ///< by table
  std::map<TxnId, std::set<TxnId>> waiting_on_;
  uint64_t next_ticket_ = 1;
  Stats stats_;
};

}  // namespace semcor

#endif  // SEMCOR_TESTS_REF_LOCK_MANAGER_H_
