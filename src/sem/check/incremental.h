#ifndef SEMCOR_SEM_CHECK_INCREMENTAL_H_
#define SEMCOR_SEM_CHECK_INCREMENTAL_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sem/check/advisor.h"
#include "sem/check/theorems.h"
#include "sem/logic/memo.h"

namespace semcor {

/// Counters for the incremental checker (all monotonically increasing).
struct IncrementalStats {
  int64_t pair_checks = 0;   ///< pair reports computed fresh
  int64_t pair_hits = 0;     ///< pair reports served from the cache
  int64_t invalidated = 0;   ///< cache entries dropped by type edits
  int64_t advise_calls = 0;  ///< Advise() invocations
};

struct IncrementalOptions {
  AdvisorOptions advisor;
  /// Width of the parallel pair-checking driver (1 = serial). Parallelism
  /// changes only wall-clock time, never results: pair reports are merged
  /// in registration order regardless of completion order.
  int threads = 1;
  /// Install a shared DecisionMemo into the check options when the caller
  /// did not supply one, so Fourier-Motzkin decisions dedupe across pairs,
  /// levels, and re-advises.
  bool share_memo = true;
};

/// Incremental §5 advisor.
///
/// The paper's level conditions are conjunctions of obligations between a
/// *target* type T_i and one interfering type T_j at a time (Theorems 1-6
/// quantify over individual T_j; Theorem 5's conditions are explicitly
/// pairwise). This advisor therefore caches the obligation check at the
/// granularity of (target type, level, other type). Editing one of K types
/// invalidates only the O(K) cached pairs that mention it — every untouched
/// pair is reused verbatim, so a re-check after a single-type edit costs
/// O(K) pair checks instead of the cold sweep's O(K^2).
///
/// Cache entries additionally record both types' content fingerprints
/// (TheoremEngine::TypeFingerprint) and are revalidated on lookup, so a
/// RegisterType that re-registers an identical type invalidates nothing.
/// Every registration goes through this class, which mirrors the engine's
/// type order and fingerprints next to the cache: a cache hit is a few
/// vector indexings, with no type name copied, compared or looked up.
class IncrementalAdvisor {
 public:
  IncrementalAdvisor(const Application& app, IncrementalOptions options);

  /// Adds or replaces a type, invalidating exactly the cached pairs that
  /// mention it (no-op invalidation if the new definition's fingerprint
  /// matches the old one).
  void RegisterType(const TransactionType& type);

  /// Removes a type and the cached pairs that mention it.
  bool RemoveType(const std::string& name);

  /// §5 ladder walk for one type, reusing cached pair reports. Identical
  /// recommendation to LevelAdvisor::Advise on the same application.
  LevelAdvice Advise(const std::string& type_name);

  /// Advice for every registered type, in registration order. With
  /// `threads > 1` the types are checked concurrently on a work-stealing
  /// pool; results are deterministic.
  std::vector<LevelAdvice> AdviseAll();

  /// Drops the whole pair cache (memo and fingerprints are kept).
  void InvalidateAll();

  const std::vector<std::string>& TypeNames() const {
    return engine_.TypeNames();
  }
  IncrementalStats stats() const;
  std::shared_ptr<DecisionMemo> memo() const { return memo_; }

 private:
  struct CacheEntry {
    uint64_t target_fp = 0;
    uint64_t other_fp = 0;
    std::shared_ptr<const LevelCheckReport> report;  ///< null: no entry
  };
  /// One target type's cached pair reports: [level][other type's slot].
  using TargetRows = std::array<std::vector<CacheEntry>, kIsoLevelCount>;

  /// Installs a freshly allocated shared DecisionMemo when the caller did
  /// not provide one (and share_memo is set). Must not touch members: it
  /// runs in the init list before they are constructed.
  static IncrementalOptions WithMemo(IncrementalOptions options);

  /// Slot of `name`, assigning the next free one on first sight. A slot is
  /// never reused for another name, so a removed type that comes back finds
  /// its (already invalidated) row and column again.
  size_t SlotLocked(const std::string& name);

  /// Re-reads the engine's type order and fingerprints after a registration
  /// or removal, so a pair lookup is two vector indexings.
  void SyncOrderLocked();

  /// Drops every cache entry that mentions `name`; counts invalidations.
  void InvalidateTypeLocked(const std::string& name);

  /// Merged level report for `type_name`, computing missing pairs (in
  /// parallel when `parallel_pairs`) and caching them.
  LevelCheckReport CheckLevel(const std::string& type_name, IsoLevel level,
                              bool parallel_pairs);

  LevelAdvice AdviseImpl(const std::string& type_name, bool parallel_pairs);

  IncrementalOptions options_;
  std::shared_ptr<DecisionMemo> memo_;
  TheoremEngine engine_;

  /// Guards everything below. The cache is indexed by slots, not names:
  /// cache_[target slot][level][other slot].
  mutable std::mutex mu_;
  std::map<std::string, size_t> slot_of_;
  std::vector<size_t> order_slots_;  ///< slot of TypeNames()[i]
  std::vector<uint64_t> order_fps_;  ///< TypeFingerprint(TypeNames()[i])
  std::vector<TargetRows> cache_;
  IncrementalStats stats_;
};

}  // namespace semcor

#endif  // SEMCOR_SEM_CHECK_INCREMENTAL_H_
