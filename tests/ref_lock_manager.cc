#include "ref_lock_manager.h"

#include <chrono>
#include <functional>

#include "common/str_util.h"

namespace semcor {

std::string RefLockManager::RowKey(const std::string& table, RowId row) {
  return StrCat("r:", table, ":", row);
}

std::vector<TxnId> RefLockManager::KeyConflicts(const std::string& key,
                                                TxnId txn,
                                                LockMode mode) const {
  std::vector<TxnId> out;
  auto it = locks_.find(key);
  if (it == locks_.end()) return out;
  for (const auto& [holder, held] : it->second.holders) {
    if (holder == txn) continue;
    if (!Compatible(held, mode) || !Compatible(mode, held)) {
      // S-S is the only compatible combination.
      if (!(held == LockMode::kShared && mode == LockMode::kShared)) {
        out.push_back(holder);
      }
    }
  }
  return out;
}

bool RefLockManager::WaitCycleFrom(TxnId txn) const {
  // DFS over wait-for edges; a path from one of txn's blockers back to txn
  // closes a cycle.
  std::set<TxnId> visited;
  std::function<bool(TxnId)> dfs = [&](TxnId t) {
    if (t == txn) return true;
    if (!visited.insert(t).second) return false;
    auto it = waiting_on_.find(t);
    if (it == waiting_on_.end()) return false;
    for (TxnId b : it->second) {
      if (dfs(b)) return true;
    }
    return false;
  };
  auto it = waiting_on_.find(txn);
  if (it == waiting_on_.end()) return false;
  for (TxnId b : it->second) {
    if (dfs(b)) return true;
  }
  return false;
}

Status RefLockManager::AcquireLoop(
    TxnId txn, bool wait, const std::function<std::vector<TxnId>()>& conflicts,
    const std::function<void()>& grant, std::unique_lock<std::mutex>& lk) {
  int waits = 0;
  while (true) {
    std::vector<TxnId> blockers = conflicts();
    if (blockers.empty()) {
      if (fault_hook_) {
        Status fault = fault_hook_(txn);
        if (!fault.ok()) {
          waiting_on_.erase(txn);
          return fault;
        }
      }
      grant();
      waiting_on_.erase(txn);
      return Status::Ok();
    }
    if (!wait) {
      waiting_on_.erase(txn);
      return Status::WouldBlock("lock held by another transaction");
    }
    ++stats_.blocks;
    waiting_on_[txn] = std::set<TxnId>(blockers.begin(), blockers.end());
    if (WaitCycleFrom(txn)) {
      waiting_on_.erase(txn);
      ++stats_.deadlocks;
      cv_.notify_all();
      return Status::Deadlock("wait-for cycle; requester aborts");
    }
    // Bounded waits guard against missed wakeups; after too many rounds the
    // requester gives up as if deadlocked (starvation backstop).
    cv_.wait_for(lk, std::chrono::milliseconds(20));
    if (++waits > 1500) {
      waiting_on_.erase(txn);
      ++stats_.deadlocks;
      return Status::Deadlock("lock wait timeout");
    }
  }
}

Status RefLockManager::AcquireKey(TxnId txn, const std::string& key,
                                  LockMode mode, bool wait) {
  std::unique_lock<std::mutex> lk(mu_);
  auto grant = [&] {
    LockMode& slot = locks_[key].holders[txn];
    // An upgrade (S held, X requested) sticks at X.
    slot = (slot == LockMode::kExclusive) ? slot : mode;
  };
  // Fast path / non-blocking path: grant only when compatible with the
  // holders and nobody is queued ahead.
  const bool queue_empty = [&] {
    auto it = queues_.find(key);
    return it == queues_.end() || it->second.empty();
  }();
  if (queue_empty && KeyConflicts(key, txn, mode).empty()) {
    if (fault_hook_) {
      Status fault = fault_hook_(txn);
      if (!fault.ok()) return fault;
    }
    grant();
    return Status::Ok();
  }
  if (!wait) return Status::WouldBlock("lock held by another transaction");

  // Enqueue and wait FIFO: a request proceeds when it is compatible with
  // the holders and no earlier waiter remains (fair to readers and writers).
  const uint64_t ticket = next_ticket_++;
  queues_[key].push_back({ticket, txn, mode});
  Status s = AcquireLoop(
      txn, /*wait=*/true,
      [&] {
        std::vector<TxnId> blockers = KeyConflicts(key, txn, mode);
        for (const Waiter& w : queues_[key]) {
          if (w.ticket >= ticket) break;
          if (w.txn != txn) blockers.push_back(w.txn);
        }
        return blockers;
      },
      grant, lk);
  std::vector<Waiter>& queue = queues_[key];
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (it->ticket == ticket) {
      queue.erase(it);
      break;
    }
  }
  if (queue.empty()) queues_.erase(key);
  cv_.notify_all();
  return s;
}

Status RefLockManager::AcquireItem(TxnId txn, const std::string& item,
                                   LockMode mode, bool wait) {
  return AcquireKey(txn, ItemKey(item), mode, wait);
}

Status RefLockManager::AcquireRow(TxnId txn, const std::string& table,
                                  RowId row, LockMode mode, bool wait) {
  return AcquireKey(txn, RowKey(table, row), mode, wait);
}

Status RefLockManager::AcquirePredicate(TxnId txn, const std::string& table,
                                        Expr pred, LockMode mode, bool wait) {
  std::unique_lock<std::mutex> lk(mu_);
  PredicateLockSet& set = predicate_locks_[table];
  return AcquireLoop(
      txn, wait,
      [&] { return set.ConflictsWithPredicate(txn, pred, mode); },
      [&] { set.Add(txn, pred, mode); }, lk);
}

Status RefLockManager::PredicateGate(TxnId txn, const std::string& table,
                                     const std::vector<const Tuple*>& images,
                                     LockMode mode, bool wait) {
  std::unique_lock<std::mutex> lk(mu_);
  auto it = predicate_locks_.find(table);
  if (it == predicate_locks_.end()) return Status::Ok();
  PredicateLockSet& set = it->second;
  return AcquireLoop(
      txn, wait, [&] { return set.ConflictsWithImages(txn, images, mode); },
      [] {}, lk);
}

void RefLockManager::ReleaseItem(TxnId txn, const std::string& item) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = locks_.find(ItemKey(item));
  if (it != locks_.end()) {
    it->second.holders.erase(txn);
    if (it->second.holders.empty()) locks_.erase(it);
  }
  if (!waiting_on_.empty()) cv_.notify_all();
}

void RefLockManager::ReleaseRow(TxnId txn, const std::string& table,
                                RowId row) {
  std::lock_guard<std::mutex> lk(mu_);
  auto it = locks_.find(RowKey(table, row));
  if (it != locks_.end()) {
    it->second.holders.erase(txn);
    if (it->second.holders.empty()) locks_.erase(it);
  }
  if (!waiting_on_.empty()) cv_.notify_all();
}

void RefLockManager::ReleaseAll(TxnId txn) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = locks_.begin(); it != locks_.end();) {
    it->second.holders.erase(txn);
    if (it->second.holders.empty()) {
      it = locks_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto& [table, set] : predicate_locks_) set.ReleaseAll(txn);
  waiting_on_.erase(txn);
  cv_.notify_all();
}

void RefLockManager::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  locks_.clear();
  queues_.clear();
  predicate_locks_.clear();
  waiting_on_.clear();
  next_ticket_ = 1;
  stats_ = Stats();
  cv_.notify_all();
}

size_t RefLockManager::HeldCount(TxnId txn) const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t count = 0;
  for (const auto& [key, entry] : locks_) {
    count += entry.holders.count(txn);
  }
  return count;
}

RefLockManager::Stats RefLockManager::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

void RefLockManager::SetFaultHook(FaultHook hook) {
  std::lock_guard<std::mutex> lk(mu_);
  fault_hook_ = std::move(hook);
}

}  // namespace semcor
