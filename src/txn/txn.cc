#include "txn/txn.h"

#include <algorithm>

#include "common/str_util.h"
#include "sem/expr/eval.h"
#include "wal/wal.h"

namespace semcor {

void CommitLog::Append(std::shared_ptr<const TxnProgram> program,
                       Timestamp ts) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back({std::move(program), ts});
}

std::vector<CommitRecord> CommitLog::SortedByCommit() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<CommitRecord> out = records_;
  std::sort(out.begin(), out.end(),
            [](const CommitRecord& a, const CommitRecord& b) {
              return a.commit_ts < b.commit_ts;
            });
  return out;
}

size_t CommitLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

void CommitLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
}

std::unique_ptr<Txn> TxnManager::Begin(IsoLevel level, bool read_only) {
  auto txn = std::make_unique<Txn>();
  txn->id = next_id_++;
  txn->level = level;
  txn->policy = PolicyFor(level);
  txn->read_only = read_only;
  txn->start_ts =
      txn->policy.ssi
          ? ssi_.Register(txn->id, [this] { return store_->CurrentTs(); },
                          read_only)
          : store_->CurrentTs();
  if (txn->policy.snapshot_reads) {
    txn->snapshot = std::make_unique<SnapshotView>(store_, txn->start_ts);
  }
  if (wal_ != nullptr) wal_->LogBegin(txn->id, level);
  return txn;
}

Status TxnManager::ReadItem(Txn* txn, const std::string& name, Value* out,
                            bool wait) {
  if (txn->snapshot) {
    if (txn->policy.ssi) {
      Status gate = ssi_.Gate(txn->id);
      if (!gate.ok()) return gate;
    }
    Result<Value> v = txn->snapshot->ReadItem(name);
    if (!v.ok()) return v.status();
    if (txn->policy.ssi) {
      Status s = ssi_.OnItemRead(txn->id, name);
      if (!s.ok()) return s;
    }
    *out = v.take();
    return Status::Ok();
  }
  if (txn->policy.read_locks) {
    Status s = locks_->AcquireItem(txn->id, name, LockMode::kShared, wait);
    if (!s.ok()) return s;
  }
  Result<Value> v = store_->ReadItem(name, ReadView::Latest());
  if (!txn->policy.read_locks && v.ok()) {
    // READ UNCOMMITTED: classify the dirty read. A pending foreign image is
    // a dirty read; if its writer is mid-rollback the value is a
    // not-yet-undone (or partially undone) image — the Theorem 1 case.
    std::optional<TxnId> writer = store_->ItemPendingWriter(name);
    if (writer && *writer != txn->id) {
      ++txn->dirty_reads;
      if (IsRollingBack(*writer)) ++txn->undo_dirty_reads;
    }
  }
  if (v.ok() && txn->policy.fcw_validation && !txn->fcw_read_ts.count(name)) {
    // Capture the version timestamp while the S lock is still held: no
    // writer can commit a newer version in between, so the recorded version
    // is exactly the one whose value we read (otherwise a commit in the
    // window between read and capture would escape first-committer-wins).
    Result<Timestamp> ts = store_->ItemLastCommitTs(name);
    if (ts.ok()) txn->fcw_read_ts[name] = ts.value();
  }
  if (txn->policy.read_locks && !txn->policy.long_read_locks &&
      !txn->written_items.count(name)) {
    // Short read lock: release as soon as the read completes. An item this
    // txn wrote keeps its long X lock (the lock table holds one mode per
    // txn, so releasing here would drop the write lock).
    locks_->ReleaseItem(txn->id, name);
  }
  if (!v.ok()) return v.status();
  *out = v.take();
  return Status::Ok();
}

Status TxnManager::WriteItem(Txn* txn, const std::string& name, const Value& v,
                             bool wait) {
  if (txn->snapshot) {
    if (txn->policy.ssi) {
      Status gate = ssi_.Gate(txn->id);
      if (!gate.ok()) return gate;
    }
    txn->snapshot->WriteItem(name, v);
    if (txn->policy.ssi) {
      Status s = ssi_.OnItemWrite(txn->id, name);
      if (!s.ok()) return s;
    }
    return Status::Ok();
  }
  Status s = locks_->AcquireItem(txn->id, name, LockMode::kExclusive, wait);
  if (!s.ok()) return s;
  if (txn->policy.fcw_validation) {
    auto it = txn->fcw_read_ts.find(name);
    if (it != txn->fcw_read_ts.end()) {
      Result<Timestamp> ts = store_->ItemLastCommitTs(name);
      if (!ts.ok()) return ts.status();
      if (ts.value() != it->second) {
        return Status::Conflict(
            StrCat("first-committer-wins: ", name,
                   " changed since it was read (", it->second, " -> ",
                   ts.value(), ")"));
      }
    }
  }
  std::optional<Value> prior;
  Status w = store_->WriteItemUncommitted(txn->id, name, v, &prior);
  if (w.ok()) {
    txn->written_items.insert(name);
    if (wal_ != nullptr) wal_->LogItemWrite(txn->id, name, prior);
    txn->undo.PushItem(name, std::move(prior));
  }
  return w;
}

Status TxnManager::LockingSelect(
    Txn* txn, const std::string& table, const Expr& pred, bool wait,
    const std::function<void(RowId, const Tuple&)>& fn) {
  MapEvalContext empty;
  // READ UNCOMMITTED scans take no locks and see dirty data. The scan also
  // reports each image's pending writer so the dirty reads (and mid-rollback
  // reads) can be counted.
  if (!txn->policy.read_locks) {
    Status inner = Status::Ok();
    Status s = store_->Scan(
        table, ReadView::Latest(),
        [&](RowId row, const Tuple& t, std::optional<TxnId> writer) {
          if (!inner.ok()) return;
          Result<bool> match = EvalTuplePred(pred, t, empty);
          if (!match.ok()) {
            inner = match.status();
            return;
          }
          if (!match.value()) return;
          if (writer && *writer != txn->id) {
            ++txn->dirty_reads;
            if (IsRollingBack(*writer)) ++txn->undo_dirty_reads;
          }
          fn(row, t);
        },
        pred);
    if (!s.ok()) return s;
    return inner;
  }
  // One unlocked pass collects matching rows and notes pending writers.
  struct Candidate {
    RowId row;
    Tuple image;
    bool pending;
  };
  std::vector<Candidate> candidates;
  {
    Status inner = Status::Ok();
    Status s = store_->Scan(
        table, ReadView::Locking(),
        [&](RowId row, const Tuple& t, std::optional<TxnId> owner) {
          if (!inner.ok()) return;
          const bool pending = owner && *owner != txn->id;
          Result<bool> match = EvalTuplePred(pred, t, empty);
          if (!match.ok()) {
            inner = match.status();
            return;
          }
          // Rows with a pending foreign writer are candidates even if the
          // dirty image does not match: the committed outcome might.
          if (match.value() || pending) {
            candidates.push_back({row, t, pending});
          }
        },
        pred);
    if (!s.ok()) return s;
    if (!inner.ok()) return inner;
  }
  for (const Candidate& c : candidates) {
    // Clean rows under short-duration read locks need no lock at all: the
    // acquire/release pair would observe exactly the image we already have.
    if (!c.pending && !txn->policy.long_read_locks) {
      fn(c.row, c.image);
      continue;
    }
    Status lock =
        locks_->AcquireRow(txn->id, table, c.row, LockMode::kShared, wait);
    if (!lock.ok()) return lock;
    const bool pinned = txn->written_rows.count({table, c.row}) > 0;
    Result<std::optional<Tuple>> image = store_->ReadRowLatest(table, c.row);
    bool matched = false;
    if (image.ok() && image.value().has_value()) {
      Result<bool> match = EvalTuplePred(pred, *image.value(), empty);
      if (!match.ok()) {
        if (!pinned) locks_->ReleaseRow(txn->id, table, c.row);
        return match.status();
      }
      matched = match.value();
      if (matched) fn(c.row, *image.value());
    }
    // Long read locks stay on matched rows; everything else is released.
    if (!pinned && !(matched && txn->policy.long_read_locks)) {
      locks_->ReleaseRow(txn->id, table, c.row);
    }
  }
  return Status::Ok();
}

Status TxnManager::LockMatchingRows(
    Txn* txn, const std::string& table, const Expr& pred, bool wait,
    std::vector<std::pair<RowId, Tuple>>* matches) {
  matches->clear();
  MapEvalContext empty;
  std::vector<RowId> candidates;
  {
    Status inner = Status::Ok();
    Status s = store_->Scan(
        table, ReadView::Latest(),
        [&](RowId row, const Tuple& t, std::optional<TxnId>) {
          if (!inner.ok()) return;
          Result<bool> match = EvalTuplePred(pred, t, empty);
          if (!match.ok()) {
            inner = match.status();
            return;
          }
          if (match.value()) candidates.push_back(row);
        },
        pred);
    if (!s.ok()) return s;
    if (!inner.ok()) return inner;
  }
  for (RowId row : candidates) {
    Status lock =
        locks_->AcquireRow(txn->id, table, row, LockMode::kExclusive, wait);
    if (!lock.ok()) return lock;  // nothing mutated yet: retry is safe
    Result<std::optional<Tuple>> image = store_->ReadRowLatest(table, row);
    bool matched = false;
    if (image.ok() && image.value().has_value()) {
      Result<bool> match = EvalTuplePred(pred, *image.value(), empty);
      if (!match.ok()) return match.status();
      matched = match.value();
      if (matched) matches->emplace_back(row, *image.value());
    }
    if (!matched && !txn->written_rows.count({table, row})) {
      locks_->ReleaseRow(txn->id, table, row);
    }
  }
  return Status::Ok();
}

Status TxnManager::SelectRows(Txn* txn, const std::string& table,
                              const Expr& pred, std::vector<Tuple>* out,
                              bool wait) {
  out->clear();
  if (txn->snapshot) {
    if (txn->policy.ssi) {
      Status gate = ssi_.Gate(txn->id);
      if (!gate.ok()) return gate;
    }
    MapEvalContext empty;
    Status inner = Status::Ok();
    Status s = txn->snapshot->Scan(
        table,
        [&](RowId, const Tuple& t) {
          if (!inner.ok()) return;
          Result<bool> match = EvalTuplePred(pred, t, empty);
          if (!match.ok()) {
            inner = match.status();
            return;
          }
          if (match.value()) out->push_back(t);
        },
        pred);
    if (!s.ok()) return s;
    if (!inner.ok()) return inner;
    if (txn->policy.ssi) return ssi_.OnPredRead(txn->id, table, pred);
    return Status::Ok();
  }
  if (txn->policy.select_predicate_locks) {
    Status s =
        locks_->AcquirePredicate(txn->id, table, pred, LockMode::kShared, wait);
    if (!s.ok()) return s;
  }
  out->clear();  // a try-lock retry restarts the statement from scratch
  return LockingSelect(txn, table, pred, wait,
                       [&](RowId, const Tuple& t) { out->push_back(t); });
}

Status TxnManager::ScanVisible(Txn* txn, const std::string& table,
                               const std::function<void(const Tuple&)>& fn,
                               bool wait) {
  if (txn->snapshot) {
    if (txn->policy.ssi) {
      Status gate = ssi_.Gate(txn->id);
      if (!gate.ok()) return gate;
    }
    Status s = txn->snapshot->Scan(table,
                                   [&](RowId, const Tuple& t) { fn(t); });
    if (!s.ok()) return s;
    if (txn->policy.ssi) return ssi_.OnPredRead(txn->id, table, True());
    return Status::Ok();
  }
  if (txn->policy.select_predicate_locks) {
    Status s = locks_->AcquirePredicate(txn->id, table, True(),
                                        LockMode::kShared, wait);
    if (!s.ok()) return s;
  }
  return LockingSelect(txn, table, True(), wait,
                       [&](RowId, const Tuple& t) { fn(t); });
}

Status TxnManager::UpdateRows(Txn* txn, const std::string& table,
                              const Expr& pred,
                              const std::map<std::string, Expr>& sets,
                              bool wait, int* rows_updated) {
  if (rows_updated != nullptr) *rows_updated = 0;
  MapEvalContext empty;
  auto make_new_tuple = [&](const Tuple& old) -> Result<Tuple> {
    Tuple updated = old;
    for (const auto& [attr, e] : sets) {
      Result<Value> v = EvalInTupleScope(e, old, empty);
      if (!v.ok()) return v.status();
      updated[attr] = v.take();
    }
    return updated;
  };

  if (txn->snapshot) {
    if (txn->policy.ssi) {
      Status gate = ssi_.Gate(txn->id);
      if (!gate.ok()) return gate;
    }
    std::vector<std::pair<RowId, Tuple>> matches;
    Status inner = Status::Ok();
    Status s = txn->snapshot->Scan(
        table,
        [&](RowId row, const Tuple& t) {
          if (!inner.ok()) return;
          Result<bool> match = EvalTuplePred(pred, t, empty);
          if (!match.ok()) {
            inner = match.status();
            return;
          }
          if (match.value()) matches.emplace_back(row, t);
        },
        pred);
    if (!s.ok()) return s;
    if (!inner.ok()) return inner;
    if (txn->policy.ssi) {
      // The scan feeding an UPDATE is a predicate read (postgres takes SIREAD
      // locks on it too): a concurrent write into its range is an incoming
      // rw-antidependency.
      Status r = ssi_.OnPredRead(txn->id, table, pred);
      if (!r.ok()) return r;
    }
    for (auto& [row, old] : matches) {
      Result<Tuple> updated = make_new_tuple(old);
      if (!updated.ok()) return updated.status();
      const Tuple new_tuple = updated.take();
      Status u = txn->snapshot->UpdateRow(table, row, new_tuple);
      if (!u.ok()) return u;
      if (txn->policy.ssi) {
        Status w = ssi_.OnRowWrite(txn->id, table, old, new_tuple);
        if (!w.ok()) return w;
      }
      if (rows_updated != nullptr) ++*rows_updated;
    }
    return Status::Ok();
  }

  // Long X predicate lock at every level, per [2].
  Status s =
      locks_->AcquirePredicate(txn->id, table, pred, LockMode::kExclusive, wait);
  if (!s.ok()) return s;
  // Phase 1: acquire every lock and pass every gate without mutating, so a
  // try-lock retry of the statement cannot double-apply set expressions.
  std::vector<std::pair<RowId, Tuple>> matches;
  s = LockMatchingRows(txn, table, pred, wait, &matches);
  if (!s.ok()) return s;
  std::vector<std::pair<RowId, Tuple>> new_images;
  for (const auto& [row, old] : matches) {
    Result<Tuple> updated = make_new_tuple(old);
    if (!updated.ok()) return updated.status();
    const Tuple new_tuple = updated.take();
    Status gate = locks_->PredicateGate(txn->id, table, {&old, &new_tuple},
                                        LockMode::kExclusive, wait);
    if (!gate.ok()) return gate;
    new_images.emplace_back(row, new_tuple);
  }
  // Phase 2: apply (store writes never block).
  for (auto& [row, image] : new_images) {
    std::optional<std::optional<Tuple>> prior;
    Status w = store_->WriteRowUncommitted(txn->id, table, row,
                                           std::move(image), &prior);
    if (!w.ok()) return w;
    txn->written_rows.insert({table, row});
    if (wal_ != nullptr) wal_->LogRowWrite(txn->id, table, row, prior);
    txn->undo.PushRow(table, row, std::move(prior));
    if (rows_updated != nullptr) ++*rows_updated;
  }
  return Status::Ok();
}

Status TxnManager::InsertRow(Txn* txn, const std::string& table, Tuple tuple,
                             bool wait) {
  if (txn->snapshot) {
    if (txn->policy.ssi) {
      Status gate = ssi_.Gate(txn->id);
      if (!gate.ok()) return gate;
    }
    Tuple image = tuple;
    txn->snapshot->InsertRow(table, std::move(tuple));
    if (txn->policy.ssi) {
      return ssi_.OnRowWrite(txn->id, table, std::nullopt, image);
    }
    return Status::Ok();
  }
  Status gate = locks_->PredicateGate(txn->id, table, {&tuple},
                                      LockMode::kExclusive, wait);
  if (!gate.ok()) return gate;
  Result<RowId> row = store_->InsertRowUncommitted(txn->id, table,
                                                   std::move(tuple));
  if (!row.ok()) return row.status();
  txn->written_rows.insert({table, row.value()});
  if (wal_ != nullptr) {
    wal_->LogRowWrite(txn->id, table, row.value(), std::nullopt);
  }
  // Undo of an insert clears the image (no prior), removing the row.
  txn->undo.PushRow(table, row.value(), std::nullopt);
  // The new row is X-locked so that scans above RU wait for our outcome.
  return locks_->AcquireRow(txn->id, table, row.value(), LockMode::kExclusive,
                            wait);
}

Status TxnManager::DeleteRows(Txn* txn, const std::string& table,
                              const Expr& pred, bool wait, int* rows_deleted) {
  if (rows_deleted != nullptr) *rows_deleted = 0;
  MapEvalContext empty;
  if (txn->snapshot) {
    if (txn->policy.ssi) {
      Status gate = ssi_.Gate(txn->id);
      if (!gate.ok()) return gate;
    }
    std::vector<std::pair<RowId, Tuple>> matches;
    Status inner = Status::Ok();
    Status s = txn->snapshot->Scan(
        table,
        [&](RowId row, const Tuple& t) {
          if (!inner.ok()) return;
          Result<bool> match = EvalTuplePred(pred, t, empty);
          if (!match.ok()) {
            inner = match.status();
            return;
          }
          if (match.value()) matches.emplace_back(row, t);
        },
        pred);
    if (!s.ok()) return s;
    if (!inner.ok()) return inner;
    if (txn->policy.ssi) {
      Status r = ssi_.OnPredRead(txn->id, table, pred);
      if (!r.ok()) return r;
    }
    for (auto& [row, old] : matches) {
      Status d = txn->snapshot->DeleteRow(table, row);
      if (!d.ok()) return d;
      if (txn->policy.ssi) {
        Status w = ssi_.OnRowWrite(txn->id, table, old, std::nullopt);
        if (!w.ok()) return w;
      }
      if (rows_deleted != nullptr) ++*rows_deleted;
    }
    return Status::Ok();
  }
  Status s =
      locks_->AcquirePredicate(txn->id, table, pred, LockMode::kExclusive, wait);
  if (!s.ok()) return s;
  std::vector<std::pair<RowId, Tuple>> matches;
  s = LockMatchingRows(txn, table, pred, wait, &matches);
  if (!s.ok()) return s;
  for (const auto& [row, old] : matches) {
    Status gate = locks_->PredicateGate(txn->id, table, {&old},
                                        LockMode::kExclusive, wait);
    if (!gate.ok()) return gate;
  }
  for (const auto& [row, old] : matches) {
    std::optional<std::optional<Tuple>> prior;
    Status w = store_->WriteRowUncommitted(txn->id, table, row, std::nullopt,
                                           &prior);
    if (!w.ok()) return w;
    txn->written_rows.insert({table, row});
    if (wal_ != nullptr) wal_->LogRowWrite(txn->id, table, row, prior);
    txn->undo.PushRow(table, row, std::move(prior));
    if (rows_deleted != nullptr) ++*rows_deleted;
  }
  return Status::Ok();
}

Status TxnManager::Commit(Txn* txn) {
  if (txn->state != Txn::State::kActive) {
    return Status::Internal("commit of non-active transaction");
  }
  if (txn->snapshot) {
    wal::WriteAheadLog::CommitHandle h;
    auto apply = [&]() -> Result<Timestamp> {
      if (wal_ == nullptr) return txn->snapshot->Commit(txn->id);
      Status apply_status;
      h = wal_->LogCommit(
          txn->id,
          [&](TxnEffects* eff) { return txn->snapshot->Commit(txn->id, eff); },
          &apply_status);
      if (!h.applied) return apply_status;
      return h.commit_ts;
    };
    // At SSI the dangerous-structure rule runs at the commit point, in one
    // tracker critical section with the store commit: a doomed pivot (or a
    // transaction whose commit would complete a structure whose
    // out-conflict committed first) aborts instead of committing.
    Result<Timestamp> ts =
        txn->policy.ssi ? ssi_.Commit(txn->id, apply) : apply();
    if (!ts.ok()) {
      Abort(txn);
      return ts.status();
    }
    txn->commit_ts = ts.value();
    txn->state = Txn::State::kCommitted;
    if (wal_ != nullptr) txn->durable = wal_->WaitDurable(h.lsn);
    return Status::Ok();
  }
  if (wal_ != nullptr) {
    Status apply_status;
    wal::WriteAheadLog::CommitHandle h = wal_->LogCommit(
        txn->id,
        [&](TxnEffects* eff) -> Result<Timestamp> {
          // Effects must be captured while the uncommitted images are still
          // installed; the txn's X locks keep them stable in between.
          *eff = store_->CollectTxnEffects(txn->id);
          return store_->CommitTxn(txn->id);
        },
        &apply_status);
    txn->commit_ts = h.commit_ts;
    // Release locks after the commit record is ordered but before the fsync
    // wait: a dependent commit appends later, so the durable prefix still
    // respects commit order, and nobody holds locks across an fsync.
    locks_->ReleaseAll(txn->id);
    txn->state = Txn::State::kCommitted;
    txn->durable = wal_->WaitDurable(h.lsn);
    return Status::Ok();
  }
  txn->commit_ts = store_->CommitTxn(txn->id);
  locks_->ReleaseAll(txn->id);
  txn->state = Txn::State::kCommitted;
  return Status::Ok();
}

void TxnManager::Abort(Txn* txn) {
  if (txn->state == Txn::State::kCommitted ||
      txn->state == Txn::State::kAborted) {
    return;
  }
  // Aborting a kRollingBack transaction completes its rollback wholesale.
  if (txn->policy.ssi) ssi_.OnAbort(txn->id);
  store_->AbortTxn(txn->id);
  locks_->ReleaseAll(txn->id);
  txn->undo.Clear();
  {
    std::lock_guard<std::mutex> lock(rb_mu_);
    rolling_back_.erase(txn->id);
  }
  txn->state = Txn::State::kAborted;
  if (wal_ != nullptr) wal_->LogAbort(txn->id);
}

void TxnManager::BeginRollback(Txn* txn) {
  if (txn->state != Txn::State::kActive) return;
  txn->state = Txn::State::kRollingBack;
  std::lock_guard<std::mutex> lock(rb_mu_);
  rolling_back_.insert(txn->id);
}

Status TxnManager::UndoOneWrite(Txn* txn) {
  if (txn->state != Txn::State::kRollingBack) {
    return Status::Internal("undo step outside rollback");
  }
  if (txn->undo.empty()) return Status::Ok();
  UndoRecord rec = txn->undo.PopBack();
  if (rec.kind == UndoRecord::Kind::kItem) {
    Status s = store_->UndoItemWrite(txn->id, rec.item, rec.prior_item);
    if (s.ok() && wal_ != nullptr) wal_->LogClrItem(txn->id, rec.item);
    return s;
  }
  Status s = store_->UndoRowWrite(txn->id, rec.table, rec.row, rec.prior_row);
  if (s.ok() && wal_ != nullptr) wal_->LogClrRow(txn->id, rec.table, rec.row);
  return s;
}

void TxnManager::FinishRollback(Txn* txn) {
  if (txn->state != Txn::State::kRollingBack) return;
  // The undo log is normally drained by now; AbortTxn clears whatever is
  // left (defensive) plus the touch records.
  store_->AbortTxn(txn->id);
  locks_->ReleaseAll(txn->id);
  txn->undo.Clear();
  {
    std::lock_guard<std::mutex> lock(rb_mu_);
    rolling_back_.erase(txn->id);
  }
  txn->state = Txn::State::kAborted;
  if (wal_ != nullptr) wal_->LogAbort(txn->id);
}

bool TxnManager::IsRollingBack(TxnId id) const {
  std::lock_guard<std::mutex> lock(rb_mu_);
  return rolling_back_.count(id) > 0;
}

}  // namespace semcor
