#include "txn/ssi.h"

#include <mutex>

#include "common/str_util.h"
#include "sem/expr/eval.h"

namespace semcor {

namespace {

/// Commit-order rank of a transaction for the failure rule: committed
/// transactions order by commit timestamp; a transaction committing right
/// now sits after every existing commit; still-active transactions are
/// assumed to commit later still (the conservative assumption that creates
/// SSI's false positives).
struct CommitRank {
  int rank;       // 0 committed, 1 committing-now, 2 active
  Timestamp ts;   // meaningful for rank 0
  bool operator<(const CommitRank& o) const {
    if (rank != o.rank) return rank < o.rank;
    return ts < o.ts;
  }
};

}  // namespace

Timestamp SsiTracker::Register(
    TxnId id, const std::function<Timestamp()>& snapshot_clock,
    bool read_only) {
  std::lock_guard<std::mutex> lock(mu_);
  const Timestamp snapshot_ts = snapshot_clock();
  // Opportunistic GC. Every committed record predates this snapshot (see
  // the header), so with no other SSI transaction in flight nothing already
  // committed can join a new dangerous structure whose failure was not
  // already decided, and the graph restarts empty; otherwise committed
  // transactions that predate every active snapshot and touch no edge are
  // individually unreachable.
  bool any_active = false;
  Timestamp min_snapshot = snapshot_ts;
  for (const auto& [tid, rec] : txns_) {
    if (tid == id) continue;
    if (!rec.committed()) {
      any_active = true;
      if (rec.snapshot_ts < min_snapshot) min_snapshot = rec.snapshot_ts;
    }
  }
  if (!any_active) {
    txns_.clear();
  } else {
    for (auto it = txns_.begin(); it != txns_.end();) {
      const TxnRec& rec = it->second;
      if (rec.committed() && rec.in_edges.empty() && rec.out_edges.empty() &&
          rec.commit_ts <= min_snapshot) {
        it = txns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  TxnRec& rec = txns_[id];
  rec = TxnRec();
  rec.snapshot_ts = snapshot_ts;
  rec.read_only = read_only;
  return snapshot_ts;
}

Status SsiTracker::GateLocked(TxnId id) {
  auto it = txns_.find(id);
  if (it == txns_.end() || !it->second.doomed) return Status::Ok();
  return Status::Conflict(
      StrCat("ssi serialization failure: ", it->second.doom_reason));
}

Status SsiTracker::Gate(TxnId id) {
  std::lock_guard<std::mutex> lock(mu_);
  return GateLocked(id);
}

bool SsiTracker::ConcurrentLocked(const TxnRec& a, const TxnRec& b) const {
  // Overlap fails only when one committed before the other's snapshot was
  // taken (commit timestamps <= a snapshot ts are visible to it).
  if (a.committed() && a.commit_ts <= b.snapshot_ts) return false;
  if (b.committed() && b.commit_ts <= a.snapshot_ts) return false;
  return true;
}

bool SsiTracker::MatchesPredLocked(const Expr& pred,
                                   const std::optional<Tuple>& t) const {
  if (!t.has_value()) return false;
  MapEvalContext empty;
  Result<bool> match = EvalTuplePred(pred, *t, empty);
  // An unevaluable predicate is conservatively treated as overlapping —
  // a spurious edge can only cost a false positive, never soundness.
  if (!match.ok()) return true;
  return match.value();
}

void SsiTracker::DoomLocked(TxnId victim, bool required,
                            const std::string& why) {
  auto it = txns_.find(victim);
  if (it == txns_.end() || it->second.doomed || it->second.committed()) return;
  it->second.doomed = true;
  it->second.doom_reason = why;
  ++counters_.aborts;
  if (required) {
    ++counters_.required_aborts;
  } else {
    ++counters_.false_positive_aborts;
  }
}

Status SsiTracker::CheckStructuresLocked(TxnId acting, bool acting_committing) {
  auto rank_of = [&](TxnId id, const TxnRec& rec) -> CommitRank {
    if (rec.committed()) return {0, rec.commit_ts};
    if (acting_committing && id == acting) return {1, 0};
    return {2, 0};
  };
  for (auto& [pivot_id, pivot] : txns_) {
    if (pivot.in_edges.empty() || pivot.out_edges.empty()) continue;
    for (TxnId in_id : pivot.in_edges) {
      auto in_it = txns_.find(in_id);
      if (in_it == txns_.end()) continue;
      for (TxnId out_id : pivot.out_edges) {
        auto out_it = txns_.find(out_id);
        if (out_it == txns_.end()) continue;
        const TxnRec& tin = in_it->second;
        const TxnRec& tout = out_it->second;
        // Dangerous structure Tin ->rw Pivot ->rw Tout fails only when Tout
        // commits first among the three (otherwise some serial order still
        // explains the execution, and aborting would be pure waste). When
        // Tin and Tout are the same transaction the structure IS a length-2
        // rw-cycle (classic write skew): it fails as soon as either member
        // reaches its commit, and the Tin-side ordering test — a rank
        // compared against itself — must not suppress it.
        const bool two_cycle = in_id == out_id;
        CommitRank out_rank = rank_of(out_id, tout);
        if (pivot.doomed) continue;
        if (!(out_rank < rank_of(pivot_id, pivot))) continue;
        if (!two_cycle && !(out_rank < rank_of(in_id, tin))) continue;
        if (out_rank.rank == 2) continue;  // nobody committed yet: no order
        // A genuine anomaly needs Tout's commit to predate Tin's snapshot
        // (Tin observed the world after Tout, closing the cycle that leaves
        // no serial order); a two-cycle is a cycle outright. Everything else
        // is the conservative rule firing.
        const bool required =
            two_cycle ||
            (tout.committed() && tout.commit_ts <= tin.snapshot_ts);
        // READ ONLY optimization (Cahill; postgres SxactIsReadOnly): a
        // declared-read-only Tin observes a fixed snapshot, so the structure
        // can only close a cycle when Tout committed before that snapshot —
        // exactly the `required` predicate. Every other firing would be a
        // false positive by construction, so it is suppressed outright.
        if (tin.read_only && !required) continue;
        const std::string why = StrCat(
            "dangerous structure T", in_id, " ->rw T", pivot_id, " ->rw T",
            out_id, " with T", out_id, " committed first");
        if (!pivot.committed()) {
          DoomLocked(pivot_id, required, why);
          if (pivot_id == acting) return GateLocked(acting);
        } else if (!acting_committing || acting == pivot_id) {
          // Pivot already committed: the acting transaction is the only
          // breakable member left.
          DoomLocked(acting, required, why);
          return GateLocked(acting);
        } else {
          // acting is Tin at its own commit with pivot and Tout committed:
          // refuse the commit (counted like any other doom).
          DoomLocked(acting, required, why);
          return GateLocked(acting);
        }
      }
    }
  }
  return GateLocked(acting);
}

void SsiTracker::AddEdgeLocked(TxnId reader, TxnId writer) {
  if (reader == writer) return;
  auto r = txns_.find(reader);
  auto w = txns_.find(writer);
  if (r == txns_.end() || w == txns_.end()) return;
  if (w->second.in_edges.insert(reader).second) {
    r->second.out_edges.insert(writer);
    ++counters_.edges;
  }
}

Status SsiTracker::OnItemRead(TxnId id, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto self = txns_.find(id);
  if (self == txns_.end()) return Status::Ok();
  self->second.item_reads.insert(name);
  for (const auto& [oid, other] : txns_) {
    if (oid == id || !other.item_writes.count(name)) continue;
    // The rw-edge exists only when the read missed the write: the writer is
    // still uncommitted, or committed after our snapshot.
    if (other.committed() && other.commit_ts <= self->second.snapshot_ts) {
      continue;
    }
    if (!ConcurrentLocked(self->second, other)) continue;
    AddEdgeLocked(id, oid);
  }
  return CheckStructuresLocked(id, /*acting_committing=*/false);
}

Status SsiTracker::OnPredRead(TxnId id, const std::string& table,
                              const Expr& pred) {
  std::lock_guard<std::mutex> lock(mu_);
  auto self = txns_.find(id);
  if (self == txns_.end()) return Status::Ok();
  self->second.pred_reads.emplace_back(table, pred);
  for (const auto& [oid, other] : txns_) {
    if (oid == id) continue;
    if (other.committed() && other.commit_ts <= self->second.snapshot_ts) {
      continue;
    }
    if (!ConcurrentLocked(self->second, other)) continue;
    for (const RowWrite& w : other.row_writes) {
      if (w.table != table) continue;
      if (MatchesPredLocked(pred, w.old_image) ||
          MatchesPredLocked(pred, w.new_image)) {
        AddEdgeLocked(id, oid);
        break;
      }
    }
  }
  return CheckStructuresLocked(id, /*acting_committing=*/false);
}

Status SsiTracker::OnItemWrite(TxnId id, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto self = txns_.find(id);
  if (self == txns_.end()) return Status::Ok();
  // A write belies a READ ONLY declaration; drop the optimization rather
  // than let a mislabeled transaction weaken the rule.
  self->second.read_only = false;
  self->second.item_writes.insert(name);
  for (const auto& [oid, other] : txns_) {
    if (oid == id || !other.item_reads.count(name)) continue;
    if (!ConcurrentLocked(self->second, other)) continue;
    AddEdgeLocked(oid, id);
  }
  return CheckStructuresLocked(id, /*acting_committing=*/false);
}

Status SsiTracker::OnRowWrite(TxnId id, const std::string& table,
                              const std::optional<Tuple>& old_image,
                              const std::optional<Tuple>& new_image) {
  std::lock_guard<std::mutex> lock(mu_);
  auto self = txns_.find(id);
  if (self == txns_.end()) return Status::Ok();
  self->second.read_only = false;
  self->second.row_writes.push_back({table, old_image, new_image});
  for (const auto& [oid, other] : txns_) {
    if (oid == id) continue;
    if (!ConcurrentLocked(self->second, other)) continue;
    for (const auto& [rtable, pred] : other.pred_reads) {
      if (rtable != table) continue;
      if (MatchesPredLocked(pred, old_image) ||
          MatchesPredLocked(pred, new_image)) {
        AddEdgeLocked(oid, id);
        break;
      }
    }
  }
  return CheckStructuresLocked(id, /*acting_committing=*/false);
}

Result<Timestamp> SsiTracker::Commit(
    TxnId id, const std::function<Result<Timestamp>()>& apply) {
  std::lock_guard<std::mutex> lock(mu_);
  Status gate = GateLocked(id);
  if (!gate.ok()) return gate;
  Status check = CheckStructuresLocked(id, /*acting_committing=*/true);
  if (!check.ok()) return check;
  Result<Timestamp> ts = apply();
  if (!ts.ok()) return ts;
  auto it = txns_.find(id);
  if (it == txns_.end()) return ts;
  it->second.commit_ts = ts.value();
  // Structures in which this commit is the first (this txn as Tout with an
  // active pivot) become failures exactly now; the pivot pays.
  (void)CheckStructuresLocked(id, /*acting_committing=*/false);
  return ts;
}

void SsiTracker::OnAbort(TxnId id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = txns_.find(id);
  if (it == txns_.end()) return;
  for (TxnId r : it->second.in_edges) {
    auto o = txns_.find(r);
    if (o != txns_.end()) o->second.out_edges.erase(id);
  }
  for (TxnId w : it->second.out_edges) {
    auto o = txns_.find(w);
    if (o != txns_.end()) o->second.in_edges.erase(id);
  }
  txns_.erase(it);
}

SsiCounters SsiTracker::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

void SsiTracker::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  txns_.clear();
  counters_ = SsiCounters();
}

}  // namespace semcor
