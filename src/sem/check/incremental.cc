#include "sem/check/incremental.h"

#include <algorithm>
#include <utility>

#include "common/steal_pool.h"

namespace semcor {

IncrementalOptions IncrementalAdvisor::WithMemo(IncrementalOptions options) {
  if (options.advisor.check.decide.memo == nullptr && options.share_memo) {
    options.advisor.check.decide.memo = std::make_shared<DecisionMemo>();
  }
  return options;
}

IncrementalAdvisor::IncrementalAdvisor(const Application& app,
                                       IncrementalOptions options)
    : options_(WithMemo(std::move(options))),
      memo_(options_.advisor.check.decide.memo),
      engine_(app, options_.advisor.check) {
  std::lock_guard<std::mutex> lock(mu_);
  SyncOrderLocked();
}

void IncrementalAdvisor::RegisterType(const TransactionType& type) {
  const uint64_t before = engine_.TypeFingerprint(type.name);
  engine_.RegisterType(type);
  if (before != 0 && engine_.TypeFingerprint(type.name) == before) {
    return;  // identical re-registration: every cached pair stays valid
  }
  std::lock_guard<std::mutex> lock(mu_);
  InvalidateTypeLocked(type.name);
  SyncOrderLocked();
}

bool IncrementalAdvisor::RemoveType(const std::string& name) {
  if (!engine_.RemoveType(name)) return false;
  std::lock_guard<std::mutex> lock(mu_);
  InvalidateTypeLocked(name);
  SyncOrderLocked();
  return true;
}

size_t IncrementalAdvisor::SlotLocked(const std::string& name) {
  auto [it, inserted] = slot_of_.emplace(name, slot_of_.size());
  if (inserted) cache_.resize(slot_of_.size());
  return it->second;
}

void IncrementalAdvisor::SyncOrderLocked() {
  const std::vector<std::string>& names = engine_.TypeNames();
  order_slots_.resize(names.size());
  order_fps_.resize(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    order_slots_[i] = SlotLocked(names[i]);
    order_fps_[i] = engine_.TypeFingerprint(names[i]);
  }
}

void IncrementalAdvisor::InvalidateTypeLocked(const std::string& name) {
  auto it = slot_of_.find(name);
  if (it == slot_of_.end()) return;
  const size_t slot = it->second;
  auto drop = [this](CacheEntry* entry) {
    if (entry->report == nullptr) return;
    *entry = CacheEntry();
    ++stats_.invalidated;
  };
  for (std::vector<CacheEntry>& row : cache_[slot]) {
    for (CacheEntry& entry : row) drop(&entry);  // as target
  }
  for (TargetRows& target : cache_) {
    for (std::vector<CacheEntry>& row : target) {
      if (slot < row.size()) drop(&row[slot]);  // as the other side
    }
  }
}

void IncrementalAdvisor::InvalidateAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (TargetRows& target : cache_) {
    for (std::vector<CacheEntry>& row : target) {
      for (const CacheEntry& entry : row) {
        if (entry.report != nullptr) ++stats_.invalidated;
      }
      row.clear();
    }
  }
}

IncrementalStats IncrementalAdvisor::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

LevelCheckReport IncrementalAdvisor::CheckLevel(const std::string& type_name,
                                                IsoLevel level,
                                                bool parallel_pairs) {
  // Registration is excluded while checks run, so the engine's type order
  // and the mirrored slots and fingerprints are stable for this call.
  const std::vector<std::string>& types = engine_.TypeNames();
  const uint64_t target_fp = engine_.TypeFingerprint(type_name);
  const int level_index = static_cast<int>(level);

  std::vector<std::shared_ptr<const LevelCheckReport>> parts(types.size());
  std::vector<size_t> missing;
  size_t target = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    target = SlotLocked(type_name);
    std::vector<CacheEntry>& row = cache_[target][level_index];
    if (row.size() < slot_of_.size()) row.resize(slot_of_.size());
    for (size_t i = 0; i < types.size(); ++i) {
      const CacheEntry& entry = row[order_slots_[i]];
      if (entry.report != nullptr && entry.target_fp == target_fp &&
          entry.other_fp == order_fps_[i]) {
        parts[i] = entry.report;
      } else {
        missing.push_back(i);
      }
    }
    stats_.pair_hits += static_cast<int64_t>(types.size() - missing.size());
  }

  auto compute = [&](size_t i) {
    auto report = std::make_shared<const LevelCheckReport>(
        engine_.CheckPairAtLevel(type_name, level, types[i]));
    parts[i] = report;
    std::lock_guard<std::mutex> lock(mu_);
    CacheEntry& entry = cache_[target][level_index][order_slots_[i]];
    entry.target_fp = target_fp;
    entry.other_fp = order_fps_[i];
    entry.report = std::move(report);
    ++stats_.pair_checks;
  };

  if (parallel_pairs && options_.threads > 1 && missing.size() > 1) {
    const int workers =
        std::min<int>(options_.threads, static_cast<int>(missing.size()));
    StealPool<size_t> pool(workers);
    for (size_t j = 0; j < missing.size(); ++j) {
      pool.Seed(static_cast<int>(j) % workers, missing[j]);
    }
    pool.Run([&](StealPool<size_t>::Ctx&, size_t& i) { compute(i); });
  } else {
    for (size_t i : missing) compute(i);
  }

  // Deterministic merge: registration order, independent of which worker
  // finished first and of cache hit/miss mix.
  return TheoremEngine::Merge(parts, type_name, level);
}

LevelAdvice IncrementalAdvisor::AdviseImpl(const std::string& type_name,
                                           bool parallel_pairs) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.advise_calls;
  }
  LevelAdvice advice;
  advice.txn_type = type_name;

  std::vector<IsoLevel> ladder = {IsoLevel::kReadUncommitted,
                                  IsoLevel::kReadCommitted};
  if (options_.advisor.consider_fcw) {
    ladder.push_back(IsoLevel::kReadCommittedFcw);
  }
  ladder.push_back(IsoLevel::kRepeatableRead);
  ladder.push_back(IsoLevel::kSerializable);

  for (IsoLevel level : ladder) {
    LevelCheckReport report = CheckLevel(type_name, level, parallel_pairs);
    const bool correct = report.correct;
    advice.reports.push_back(std::move(report));
    if (correct) {
      advice.recommended = level;
      break;  // §5: return the first level that is semantically correct
    }
  }
  if (options_.advisor.evaluate_snapshot) {
    advice.snapshot_report =
        CheckLevel(type_name, IsoLevel::kSnapshot, parallel_pairs);
    advice.snapshot_correct = advice.snapshot_report.correct;
  }
  return advice;
}

LevelAdvice IncrementalAdvisor::Advise(const std::string& type_name) {
  return AdviseImpl(type_name, /*parallel_pairs=*/true);
}

std::vector<LevelAdvice> IncrementalAdvisor::AdviseAll() {
  const std::vector<std::string> names = engine_.TypeNames();
  std::vector<LevelAdvice> out(names.size());
  if (options_.threads > 1 && names.size() > 1) {
    // One task per target type; each task checks its pairs serially (the
    // pair keys of distinct targets are disjoint, so no work is duplicated).
    const int workers =
        std::min<int>(options_.threads, static_cast<int>(names.size()));
    StealPool<size_t> pool(workers);
    for (size_t i = 0; i < names.size(); ++i) {
      pool.Seed(static_cast<int>(i) % workers, i);
    }
    pool.Run([&](StealPool<size_t>::Ctx&, size_t& i) {
      out[i] = AdviseImpl(names[i], /*parallel_pairs=*/false);
    });
  } else {
    for (size_t i = 0; i < names.size(); ++i) {
      out[i] = AdviseImpl(names[i], /*parallel_pairs=*/true);
    }
  }
  return out;
}

}  // namespace semcor
