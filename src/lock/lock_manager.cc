#include "lock/lock_manager.h"

#include <chrono>
#include <functional>
#include <thread>

#include "common/str_util.h"

namespace semcor {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

size_t LockManager::DefaultShardCount() {
  size_t hw = std::thread::hardware_concurrency();
  if (hw < kMinShards) hw = kMinShards;
  size_t shards = RoundUpPow2(hw);
  if (shards > kMaxShards) shards = kMaxShards;
  return shards;
}

LockManager::LockManager(size_t shards) { Reshard(shards); }

void LockManager::Reshard(size_t shards) {
  if (shards == 0) shards = DefaultShardCount();
  shards = RoundUpPow2(shards);
  if (shards > kMaxShards) shards = kMaxShards;
  {
    std::lock_guard<std::mutex> g(graph_mu_);
    waiting_on_.clear();
  }
  std::vector<std::unique_ptr<Shard>> fresh;
  fresh.reserve(shards);
  for (size_t i = 0; i < shards; ++i) fresh.push_back(std::make_unique<Shard>());
  shards_ = std::move(fresh);
  shard_mask_ = shards - 1;
}

std::string LockManager::RowKey(const std::string& table, RowId row) {
  return StrCat("r:", table, ":", row);
}

size_t LockManager::ShardIndex(const std::string& key) const {
  // Inline FNV-1a: lock keys are a handful of bytes, and this runs on the
  // uncontended acquire AND release paths — the out-of-line byte hash
  // behind std::hash<std::string> costs a measurable slice of the ~130 ns
  // acquire/release cycle (E6's BM_LockAcquireRelease).
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  // Fold the high bits in: FNV's low bits alone mix poorly and the mask
  // only keeps a few of them.
  return static_cast<size_t>(h ^ (h >> 32)) & shard_mask_;
}

size_t LockManager::ShardOfItem(const std::string& item) const {
  return ShardIndex(ItemKey(item));
}

size_t LockManager::ShardOfRow(const std::string& table, RowId row) const {
  return ShardIndex(RowKey(table, row));
}

size_t LockManager::ShardOfTable(const std::string& table) const {
  return ShardIndex("p:" + table);
}

std::vector<TxnId> LockManager::KeyConflicts(const Shard& sh,
                                             const std::string& key, TxnId txn,
                                             LockMode mode) {
  std::vector<TxnId> out;
  auto it = sh.locks.find(key);
  if (it == sh.locks.end()) return out;
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

bool LockManager::WaitCycleFromLocked(TxnId txn) const {
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

Status LockManager::ConsultFaultHook(TxnId txn) {
  if (!has_fault_hook_.load(std::memory_order_acquire)) return Status::Ok();
  std::lock_guard<std::mutex> hk(hook_mu_);
  if (!fault_hook_) return Status::Ok();
  return fault_hook_(txn);
}

Status LockManager::AcquireLoop(
    Shard& sh, TxnId txn, bool wait,
    const std::function<std::vector<TxnId>()>& conflicts,
    const std::function<void()>& grant, std::unique_lock<std::mutex>& lk) {
  int waits = 0;
  bool registered = false;
  // Blocking iterations publish edges to the global graph; drop them on
  // every exit path so the graph only ever holds currently-blocked txns.
  auto deregister = [&] {
    if (!registered) return;
    std::lock_guard<std::mutex> g(graph_mu_);
    waiting_on_.erase(txn);
    registered = false;
  };
  while (true) {
    std::vector<TxnId> blockers = conflicts();
    if (blockers.empty()) {
      Status fault = ConsultFaultHook(txn);
      if (!fault.ok()) {
        deregister();
        return fault;
      }
      grant();
      ++sh.stats.grants;
      deregister();
      return Status::Ok();
    }
    if (!wait) {
      deregister();
      return Status::WouldBlock("lock held by another transaction");
    }
    ++sh.stats.blocks;
    {
      std::lock_guard<std::mutex> g(graph_mu_);
      waiting_on_[txn] = std::set<TxnId>(blockers.begin(), blockers.end());
      registered = true;
      if (WaitCycleFromLocked(txn)) {
        waiting_on_.erase(txn);
        registered = false;
        ++sh.stats.deadlocks;
        // Waiters in the cycle parked on *other* shards are woken by the
        // victim's ReleaseAll (which notifies every shard it held locks
        // on); same-shard waiters are woken here.
        sh.cv.notify_all();
        return Status::Deadlock("wait-for cycle; requester aborts");
      }
    }
    // Bounded waits guard against missed wakeups; after too many rounds the
    // requester gives up as if deadlocked (starvation backstop).
    ++sh.stats.contention_waits;
    ++sh.blocked;
    sh.cv.wait_for(lk, std::chrono::milliseconds(20));
    --sh.blocked;
    if (++waits > 1500) {
      deregister();
      ++sh.stats.deadlocks;
      return Status::Deadlock("lock wait timeout");
    }
  }
}

Status LockManager::AcquireKey(TxnId txn, const std::string& key,
                               LockMode mode, bool wait) {
  Shard& sh = ShardFor(key);
  std::unique_lock<std::mutex> lk(sh.mu);
  auto grant = [&] {
    LockMode& slot = sh.locks[key].holders[txn];
    // An upgrade (S held, X requested) sticks at X.
    slot = (slot == LockMode::kExclusive) ? slot : mode;
  };
  // Fast path / non-blocking path: grant only when compatible with the
  // holders and nobody is queued ahead.
  const bool queue_empty = [&] {
    auto it = sh.queues.find(key);
    return it == sh.queues.end() || it->second.empty();
  }();
  if (queue_empty && KeyConflicts(sh, key, txn, mode).empty()) {
    Status fault = ConsultFaultHook(txn);
    if (!fault.ok()) return fault;
    grant();
    ++sh.stats.grants;
    return Status::Ok();
  }
  if (!wait) return Status::WouldBlock("lock held by another transaction");

  // Enqueue and wait FIFO: a request proceeds when it is compatible with
  // the holders and no earlier waiter remains (fair to readers and writers).
  const uint64_t ticket = sh.next_ticket++;
  sh.queues[key].push_back({ticket, txn, mode});
  Status s = AcquireLoop(
      sh, txn, /*wait=*/true,
      [&] {
        std::vector<TxnId> blockers = KeyConflicts(sh, key, txn, mode);
        for (const Waiter& w : sh.queues[key]) {
          if (w.ticket >= ticket) break;
          if (w.txn != txn) blockers.push_back(w.txn);
        }
        return blockers;
      },
      grant, lk);
  std::vector<Waiter>& queue = sh.queues[key];
  for (auto it = queue.begin(); it != queue.end(); ++it) {
    if (it->ticket == ticket) {
      queue.erase(it);
      break;
    }
  }
  if (queue.empty()) sh.queues.erase(key);
  sh.cv.notify_all();
  return s;
}

Status LockManager::AcquireItem(TxnId txn, const std::string& item,
                                LockMode mode, bool wait) {
  return AcquireKey(txn, ItemKey(item), mode, wait);
}

Status LockManager::AcquireRow(TxnId txn, const std::string& table, RowId row,
                               LockMode mode, bool wait) {
  return AcquireKey(txn, RowKey(table, row), mode, wait);
}

Status LockManager::AcquirePredicate(TxnId txn, const std::string& table,
                                     Expr pred, LockMode mode, bool wait) {
  Shard& sh = ShardForTable(table);
  std::unique_lock<std::mutex> lk(sh.mu);
  PredicateLockSet& set = sh.predicate_locks[table];
  return AcquireLoop(
      sh, txn, wait,
      [&] { return set.ConflictsWithPredicate(txn, pred, mode); },
      [&] { set.Add(txn, pred, mode); }, lk);
}

Status LockManager::PredicateGate(TxnId txn, const std::string& table,
                                  const std::vector<const Tuple*>& images,
                                  LockMode mode, bool wait) {
  Shard& sh = ShardForTable(table);
  std::unique_lock<std::mutex> lk(sh.mu);
  auto it = sh.predicate_locks.find(table);
  if (it == sh.predicate_locks.end()) return Status::Ok();
  PredicateLockSet& set = it->second;
  return AcquireLoop(
      sh, txn, wait,
      [&] { return set.ConflictsWithImages(txn, images, mode); }, [] {}, lk);
}

void LockManager::ReleaseItem(TxnId txn, const std::string& item) {
  const std::string key = ItemKey(item);
  Shard& sh = ShardFor(key);
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.locks.find(key);
  if (it != sh.locks.end()) {
    it->second.holders.erase(txn);
    if (it->second.holders.empty()) sh.locks.erase(it);
  }
  if (sh.blocked > 0) sh.cv.notify_all();
}

void LockManager::ReleaseRow(TxnId txn, const std::string& table, RowId row) {
  const std::string key = RowKey(table, row);
  Shard& sh = ShardFor(key);
  std::lock_guard<std::mutex> lk(sh.mu);
  auto it = sh.locks.find(key);
  if (it != sh.locks.end()) {
    it->second.holders.erase(txn);
    if (it->second.holders.empty()) sh.locks.erase(it);
  }
  if (sh.blocked > 0) sh.cv.notify_all();
}

void LockManager::ReleaseAll(TxnId txn) {
  for (auto& shard : shards_) {
    Shard& sh = *shard;
    std::lock_guard<std::mutex> lk(sh.mu);
    for (auto it = sh.locks.begin(); it != sh.locks.end();) {
      it->second.holders.erase(txn);
      if (it->second.holders.empty()) {
        it = sh.locks.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& [table, set] : sh.predicate_locks) set.ReleaseAll(txn);
    // Waiters blocked on this txn may be parked on any shard it held locks
    // on; every shard with listeners is notified as it is swept.
    if (sh.blocked > 0) sh.cv.notify_all();
  }
  std::lock_guard<std::mutex> g(graph_mu_);
  waiting_on_.erase(txn);
}

void LockManager::Reset() {
  for (auto& shard : shards_) {
    Shard& sh = *shard;
    std::lock_guard<std::mutex> lk(sh.mu);
    sh.locks.clear();
    sh.queues.clear();
    sh.predicate_locks.clear();
    sh.next_ticket = 1;
    sh.stats = Stats();
    sh.cv.notify_all();
  }
  std::lock_guard<std::mutex> g(graph_mu_);
  waiting_on_.clear();
}

size_t LockManager::HeldCount(TxnId txn) const {
  size_t count = 0;
  for (const auto& shard : shards_) {
    const Shard& sh = *shard;
    std::lock_guard<std::mutex> lk(sh.mu);
    for (const auto& [key, entry] : sh.locks) {
      count += entry.holders.count(txn);
    }
  }
  return count;
}

LockManager::Stats LockManager::stats() const {
  Stats total;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    total.Add(shard->stats);
  }
  return total;
}

std::vector<LockManager::Stats> LockManager::ShardStats() const {
  std::vector<Stats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lk(shard->mu);
    out.push_back(shard->stats);
  }
  return out;
}

void LockManager::SetFaultHook(FaultHook hook) {
  std::lock_guard<std::mutex> lk(hook_mu_);
  fault_hook_ = std::move(hook);
  has_fault_hook_.store(static_cast<bool>(fault_hook_),
                        std::memory_order_release);
}

}  // namespace semcor
