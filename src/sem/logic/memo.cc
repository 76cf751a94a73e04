#include "sem/logic/memo.h"

namespace semcor {

bool DecisionMemo::Lookup(Query query, const Expr& canonical, uint64_t hash,
                          uint64_t options_sig, CachedDecision* out) {
  const uint64_t key = HashCombine(hash, static_cast<uint64_t>(query));
  Shard& shard = shards_[key % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.buckets.find(key);
  if (it != shard.buckets.end()) {
    for (const Entry& entry : it->second) {
      if (entry.query == query && entry.options_sig == options_sig &&
          entry.formula.get() == canonical.get()) {
        *out = entry.value;
        hits_.fetch_add(1, std::memory_order_relaxed);
        return true;
      }
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void DecisionMemo::Insert(Query query, const Expr& canonical, uint64_t hash,
                          uint64_t options_sig, CachedDecision value) {
  const uint64_t key = HashCombine(hash, static_cast<uint64_t>(query));
  Shard& shard = shards_[key % kShards];
  std::lock_guard<std::mutex> lock(shard.mu);
  std::vector<Entry>& bucket = shard.buckets[key];
  for (const Entry& entry : bucket) {
    if (entry.query == query && entry.options_sig == options_sig &&
        entry.formula.get() == canonical.get()) {
      return;  // a racing thread computed the same answer first
    }
  }
  bucket.push_back(Entry{canonical, options_sig, query, std::move(value)});
  entries_.fetch_add(1, std::memory_order_relaxed);
}

MemoStats DecisionMemo::Stats() const {
  MemoStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.entries = entries_.load(std::memory_order_relaxed);
  s.interned_nodes = static_cast<int64_t>(interner_.size());
  return s;
}

uint64_t DecideOptionsSig(const DecideOptions& options) {
  uint64_t h = HashCombine(0x0517, static_cast<uint64_t>(options.max_cubes));
  h = HashCombine(h, static_cast<uint64_t>(options.witness_bound));
  h = HashCombine(h, static_cast<uint64_t>(options.witness_max_nodes));
  h = HashCombine(h, options.disable_subsumption ? 1 : 0);
  return h;
}

namespace {

/// Everything besides the constraint that FindModel's result depends on.
uint64_t FindModelSig(const SchemaShapes& shapes,
                      const FalsifierOptions& options) {
  uint64_t h = HashCombine(0x30de1, static_cast<uint64_t>(options.attempts));
  h = HashCombine(h, static_cast<uint64_t>(options.value_min));
  h = HashCombine(h, static_cast<uint64_t>(options.value_max));
  h = HashCombine(h, static_cast<uint64_t>(options.max_rows));
  h = HashCombine(h, options.seed);
  for (const std::string& s : options.string_pool) h = HashString(s, h);
  h = HashCombine(h, options.string_pool.size());
  for (const auto& [var, type] : options.var_types) {
    h = HashCombine(h, static_cast<uint64_t>(var.kind));
    h = HashString(var.name, h);
    h = HashCombine(h, static_cast<uint64_t>(type));
  }
  h = HashCombine(h, options.var_types.size());
  for (const auto& [table, shape] : shapes) {
    h = HashString(table, h);
    for (const auto& [attr, type] : shape.attrs) {
      h = HashString(attr, h);
      h = HashCombine(h, static_cast<uint64_t>(type));
    }
    h = HashCombine(h, shape.attrs.size());
  }
  return HashCombine(h, shapes.size());
}

}  // namespace

std::optional<MapEvalContext> FindModel(const Expr& constraint,
                                        const SchemaShapes& shapes,
                                        const FalsifierOptions& options,
                                        DecisionMemo* memo) {
  if (memo == nullptr) return FindModel(constraint, shapes, options);
  uint64_t hash = 0;
  const Expr canonical = memo->Canonicalize(constraint, &hash);
  const uint64_t sig = FindModelSig(shapes, options);
  DecisionMemo::CachedDecision cached;
  if (memo->Lookup(DecisionMemo::Query::kModel, canonical, hash, sig,
                   &cached)) {
    return cached.model;
  }
  cached.model = FindModel(canonical, shapes, options);
  memo->Insert(DecisionMemo::Query::kModel, canonical, hash, sig, cached);
  return cached.model;
}

}  // namespace semcor
