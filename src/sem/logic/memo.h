#ifndef SEMCOR_SEM_LOGIC_MEMO_H_
#define SEMCOR_SEM_LOGIC_MEMO_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sem/expr/eval.h"
#include "sem/expr/hash.h"
#include "sem/logic/decide.h"
#include "sem/logic/falsifier.h"

namespace semcor {

/// Counters for observing memo effectiveness (bench E13 reports them).
struct MemoStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t entries = 0;
  int64_t interned_nodes = 0;
};

/// Thread-safe memo table for the decision procedures in sem/logic. Queries
/// are keyed on the *hash-consed* formula (canonical node pointer + its
/// structural hash) plus a signature of the DecideOptions that affect the
/// result, so two checker threads asking the same Fourier–Motzkin question
/// pay for it once. Decision results are pure functions of (formula,
/// options) — DecideValidity/ProvablyUnsat/ProvablySat are deterministic —
/// so caching is sound and exact, never "sound but weaker".
///
/// Shared through DecideOptions::memo; a null memo reproduces the uncached
/// behaviour bit-for-bit.
class DecisionMemo {
 public:
  enum class Query : uint8_t {
    kValidity = 0,
    kUnsat = 1,
    kSat = 2,
    kModel = 3,
  };

  struct CachedDecision {
    /// kValidity: the full result (verdict, counterexample, detail).
    DecideResult result;
    /// kUnsat / kSat: the boolean answer.
    bool boolean = false;
    /// kSat: the witness, when one was found.
    std::optional<std::map<VarRef, int64_t>> witness;
    /// kModel: FindModel's model, when one was found.
    std::optional<MapEvalContext> model;
  };

  DecisionMemo() = default;
  DecisionMemo(const DecisionMemo&) = delete;
  DecisionMemo& operator=(const DecisionMemo&) = delete;

  /// Canonicalizes `e` (hash-consing) and returns its structural hash.
  Expr Canonicalize(const Expr& e, uint64_t* hash_out) {
    return interner_.Intern(e, hash_out);
  }

  bool Lookup(Query query, const Expr& canonical, uint64_t hash,
              uint64_t options_sig, CachedDecision* out);
  void Insert(Query query, const Expr& canonical, uint64_t hash,
              uint64_t options_sig, CachedDecision value);

  MemoStats Stats() const;

 private:
  struct Entry {
    Expr formula;  ///< canonical node — pointer equality decides
    uint64_t options_sig;
    Query query;
    CachedDecision value;
  };
  static constexpr size_t kShards = 16;
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<Entry>> buckets;
  };

  ExprInterner interner_;
  Shard shards_[kShards];
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> entries_{0};
};

/// Signature of the option fields that change decision outcomes.
uint64_t DecideOptionsSig(const DecideOptions& options);

/// FindModel through `memo` (a plain search when null). The search is
/// deterministic in its constraint, shapes and options (the seed included),
/// so the memo keys on the canonical constraint plus a signature of the
/// rest and a repeated search returns the model a fresh one would.
std::optional<MapEvalContext> FindModel(const Expr& constraint,
                                        const SchemaShapes& shapes,
                                        const FalsifierOptions& options,
                                        DecisionMemo* memo);

}  // namespace semcor

#endif  // SEMCOR_SEM_LOGIC_MEMO_H_
