#include "storage/store.h"

#include <algorithm>

#include "common/str_util.h"

namespace semcor {

Status Store::CreateItem(const std::string& name, Value initial) {
  std::lock_guard<std::mutex> lock(mu_);
  if (items_.count(name)) {
    return Status::AlreadyExists(StrCat("item ", name));
  }
  ItemEntry entry;
  entry.versions.push_back({0, std::move(initial)});
  items_.emplace(name, std::move(entry));
  return Status::Ok();
}

Status Store::CreateTable(const std::string& name, Schema schema) {
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(name)) {
    return Status::AlreadyExists(StrCat("table ", name));
  }
  tables_.emplace(name, TableData(std::move(schema)));
  return Status::Ok();
}

Result<RowId> Store::LoadRow(const std::string& table, Tuple tuple) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound(StrCat("table ", table));
  Status valid = it->second.schema().Validate(tuple);
  if (!valid.ok()) return valid;
  const RowId row = it->second.NextRowId();
  it->second.IndexImage(row, tuple);
  RowEntry entry;
  entry.versions.push_back({0, std::move(tuple)});
  it->second.mutable_rows().emplace(row, std::move(entry));
  return row;
}

Result<Value> Store::ReadItem(const std::string& name,
                              const ReadView& view) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = items_.find(name);
  if (it == items_.end()) return Status::NotFound(StrCat("item ", name));
  std::optional<TxnId> writer;
  const Value* image = it->second.Visible(view, &writer);
  if (image == nullptr) {
    return Status::NotFound(
        StrCat("item ", name, " invisible at ts ", view.ts));
  }
  return *image;
}

Status Store::WriteItemUncommitted(TxnId txn, const std::string& name, Value v,
                                   std::optional<Value>* prior) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = items_.find(name);
  if (it == items_.end()) return Status::NotFound(StrCat("item ", name));
  ItemEntry& entry = it->second;
  if (entry.uncommitted_owner && *entry.uncommitted_owner != txn) {
    return Status::Conflict(
        StrCat("item ", name, " has uncommitted image of txn ",
               *entry.uncommitted_owner));
  }
  if (prior != nullptr) {
    prior->reset();
    if (entry.uncommitted_owner == txn) *prior = entry.uncommitted;
  }
  entry.uncommitted_owner = txn;
  entry.uncommitted = std::move(v);
  touches_[txn].items.insert(name);
  return Status::Ok();
}

std::optional<TxnId> Store::ItemPendingWriter(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = items_.find(name);
  if (it == items_.end()) return std::nullopt;
  return it->second.uncommitted_owner;
}

Status Store::UndoItemWrite(TxnId txn, const std::string& name,
                            const std::optional<Value>& prior) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = items_.find(name);
  if (it == items_.end()) return Status::NotFound(StrCat("item ", name));
  ItemEntry& entry = it->second;
  if (entry.uncommitted_owner != txn) return Status::Ok();  // already gone
  if (prior) {
    entry.uncommitted = *prior;  // restore the earlier own image
    return Status::Ok();
  }
  entry.uncommitted_owner.reset();
  entry.uncommitted = Value();
  auto touched = touches_.find(txn);
  if (touched != touches_.end()) {
    touched->second.items.erase(name);
    if (touched->second.items.empty() && touched->second.rows.empty()) {
      touches_.erase(touched);
    }
  }
  return Status::Ok();
}

Status Store::UndoRowWrite(TxnId txn, const std::string& table, RowId row,
                           const std::optional<std::optional<Tuple>>& prior) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound(StrCat("table ", table));
  auto rit = it->second.mutable_rows().find(row);
  if (rit == it->second.mutable_rows().end()) {
    return Status::NotFound(StrCat("row ", row, " of ", table));
  }
  RowEntry& entry = rit->second;
  if (entry.uncommitted_owner != txn) return Status::Ok();  // already gone
  if (prior) {
    // The prior image may predate the index, which saw only the image it
    // replaces.
    it->second.IndexImage(row, *prior);
    entry.uncommitted = *prior;
    return Status::Ok();
  }
  entry.uncommitted_owner.reset();
  entry.uncommitted.reset();
  if (entry.versions.empty()) {
    it->second.mutable_rows().erase(rit);  // undo of an insert: GC the row
  }
  auto touched = touches_.find(txn);
  if (touched != touches_.end()) {
    touched->second.rows.erase({table, row});
    if (touched->second.items.empty() && touched->second.rows.empty()) {
      touches_.erase(touched);
    }
  }
  return Status::Ok();
}

Result<Timestamp> Store::ItemLastCommitTs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = items_.find(name);
  if (it == items_.end()) return Status::NotFound(StrCat("item ", name));
  return it->second.LastCommitTs();
}

Result<RowId> Store::InsertRowUncommitted(TxnId txn, const std::string& table,
                                          Tuple tuple) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound(StrCat("table ", table));
  Status valid = it->second.schema().Validate(tuple);
  if (!valid.ok()) return valid;
  const RowId row = it->second.NextRowId();
  it->second.IndexImage(row, tuple);
  RowEntry entry;
  entry.uncommitted_owner = txn;
  entry.uncommitted = std::move(tuple);
  it->second.mutable_rows().emplace(row, std::move(entry));
  touches_[txn].rows.insert({table, row});
  return row;
}

Status Store::WriteRowUncommitted(TxnId txn, const std::string& table,
                                  RowId row, std::optional<Tuple> image,
                                  std::optional<std::optional<Tuple>>* prior) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound(StrCat("table ", table));
  auto rit = it->second.mutable_rows().find(row);
  if (rit == it->second.mutable_rows().end()) {
    return Status::NotFound(StrCat("row ", row, " of ", table));
  }
  if (image) {
    Status valid = it->second.schema().Validate(*image);
    if (!valid.ok()) return valid;
  }
  RowEntry& entry = rit->second;
  if (entry.uncommitted_owner && *entry.uncommitted_owner != txn) {
    return Status::Conflict(StrCat("row ", row, " of ", table,
                                   " has uncommitted image of txn ",
                                   *entry.uncommitted_owner));
  }
  if (prior != nullptr) {
    prior->reset();
    if (entry.uncommitted_owner == txn) *prior = entry.uncommitted;
  }
  it->second.IndexImage(row, image);
  entry.uncommitted_owner = txn;
  entry.uncommitted = std::move(image);
  touches_[txn].rows.insert({table, row});
  return Status::Ok();
}

Result<std::optional<Tuple>> Store::ReadRowLatest(const std::string& table,
                                                  RowId row) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound(StrCat("table ", table));
  auto rit = it->second.rows().find(row);
  if (rit == it->second.rows().end()) {
    return Status::NotFound(StrCat("row ", row, " of ", table));
  }
  std::optional<TxnId> writer;
  const std::optional<Tuple>* image =
      rit->second.Visible(ReadView::Latest(), &writer);
  if (image == nullptr) return std::optional<Tuple>{};
  return *image;
}

Result<Timestamp> Store::RowLastCommitTs(const std::string& table,
                                         RowId row) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound(StrCat("table ", table));
  auto rit = it->second.rows().find(row);
  if (rit == it->second.rows().end()) {
    return Status::NotFound(StrCat("row ", row, " of ", table));
  }
  return rit->second.LastCommitTs();
}

namespace {

/// The leading `attr = constant` conjuncts of `where` whose attribute is a
/// column of `schema`. Only a leading run counts: a row that fails one of
/// them fails `where` before any conjunct that could raise an error is
/// evaluated, so skipping it changes neither the rows nor the status a
/// caller's evaluation of `where` produces.
std::vector<std::pair<const std::string*, const Value*>> LeadingEqualities(
    const Expr& where, const Schema& schema) {
  std::vector<std::pair<const std::string*, const Value*>> eqs;
  if (!where) return eqs;
  const std::vector<Expr> single = {where};
  const std::vector<Expr>& conjuncts =
      where->op == Op::kAnd ? where->kids : single;
  for (const Expr& c : conjuncts) {
    if (c->op != Op::kEq) break;
    const ExprNode* attr = c->kids[0].get();
    const ExprNode* constant = c->kids[1].get();
    if (attr->op == Op::kConst) std::swap(attr, constant);
    if (attr->op != Op::kAttr || constant->op != Op::kConst ||
        !schema.HasColumn(attr->attr)) {
      break;
    }
    eqs.emplace_back(&attr->attr, &constant->const_val);
  }
  return eqs;
}

}  // namespace

Status Store::Scan(
    const std::string& table, const ReadView& view,
    const std::function<void(RowId, const Tuple&, std::optional<TxnId>)>& fn,
    const Expr& where) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound(StrCat("table ", table));
  const TableData& data = it->second;
  const ReadView v = view;  // a local the callback cannot alias
  std::optional<TxnId> writer;
  const auto eqs = LeadingEqualities(where, data.schema());
  if (eqs.empty()) {
    for (const auto& [row, entry] : data.rows()) {
      const std::optional<Tuple>* image = entry.Visible(v, &writer);
      if (image != nullptr && image->has_value()) fn(row, **image, writer);
    }
    return Status::Ok();
  }
  // The smallest bucket bounds the rows that can satisfy every conjunct.
  const std::set<RowId>* bucket = nullptr;
  for (const auto& [attr, value] : eqs) {
    const std::set<RowId>& b = data.Bucket(*attr, *value);
    if (bucket == nullptr || b.size() < bucket->size()) bucket = &b;
  }
  // Rows with a pending image are visited whatever they show: a locking
  // reader must wait for their writer even when neither image matches,
  // since the writer may still write one that does.
  std::vector<RowId> pending;
  const std::pair<std::string, RowId> first_key(table, 0);
  for (const auto& [txn, touched] : touches_) {
    for (auto t = touched.rows.lower_bound(first_key);
         t != touched.rows.end() && t->first == table; ++t) {
      pending.push_back(t->second);
    }
  }
  std::sort(pending.begin(), pending.end());
  pending.erase(std::unique(pending.begin(), pending.end()), pending.end());
  const auto visit = [&](RowId row) {
    auto rit = data.rows().find(row);
    if (rit == data.rows().end()) return;  // erased since it was indexed
    const RowEntry& entry = rit->second;
    const std::optional<Tuple>* image = entry.Visible(v, &writer);
    if (image == nullptr || !image->has_value()) return;
    if (!entry.uncommitted_owner) {
      for (const auto& [attr, value] : eqs) {
        auto a = (*image)->find(*attr);
        if (a == (*image)->end() || a->second != *value) return;
      }
    }
    fn(row, **image, writer);
  };
  // Merge the two ascending id lists.
  auto b = bucket->begin();
  auto p = pending.begin();
  while (b != bucket->end() || p != pending.end()) {
    if (p == pending.end() || (b != bucket->end() && *b < *p)) {
      visit(*b++);
    } else {
      if (b != bucket->end() && *b == *p) ++b;
      visit(*p++);
    }
  }
  return Status::Ok();
}

const Schema* Store::GetSchema(const std::string& table) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second.schema();
}

Timestamp Store::CommitTxn(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  const Timestamp ts = ++clock_;
  auto touched = touches_.find(txn);
  if (touched == touches_.end()) return ts;
  for (const std::string& name : touched->second.items) {
    ItemEntry& entry = items_.at(name);
    if (entry.uncommitted_owner == txn) {
      entry.versions.push_back({ts, std::move(entry.uncommitted)});
      entry.uncommitted_owner.reset();
    }
  }
  for (const auto& [table, row] : touched->second.rows) {
    RowEntry& entry = tables_.at(table).mutable_rows().at(row);
    if (entry.uncommitted_owner == txn) {
      entry.versions.push_back({ts, std::move(entry.uncommitted)});
      entry.uncommitted_owner.reset();
      entry.uncommitted.reset();
    }
  }
  touches_.erase(touched);
  return ts;
}

void Store::AbortTxn(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  auto touched = touches_.find(txn);
  if (touched == touches_.end()) return;
  for (const std::string& name : touched->second.items) {
    ItemEntry& entry = items_.at(name);
    if (entry.uncommitted_owner == txn) {
      entry.uncommitted_owner.reset();
      entry.uncommitted = Value();
    }
  }
  for (const auto& [table, row] : touched->second.rows) {
    RowEntry& entry = tables_.at(table).mutable_rows().at(row);
    if (entry.uncommitted_owner == txn) {
      entry.uncommitted_owner.reset();
      entry.uncommitted.reset();
      // Rows created by this transaction have no committed versions and
      // simply become invisible; they are garbage-collected here.
      if (entry.versions.empty()) {
        tables_.at(table).mutable_rows().erase(row);
      }
    }
  }
  touches_.erase(touched);
}

Result<Timestamp> Store::SnapshotCommit(TxnId txn, const SnapshotWriteSet& ws,
                                        Timestamp start_ts,
                                        TxnEffects* applied) {
  std::lock_guard<std::mutex> lock(mu_);
  if (applied != nullptr) *applied = TxnEffects();
  // First-committer-wins validation: nothing we wrote may have a committed
  // version newer than our snapshot, nor a pending uncommitted image.
  for (const auto& [name, value] : ws.items) {
    auto it = items_.find(name);
    if (it == items_.end()) return Status::NotFound(StrCat("item ", name));
    if (it->second.LastCommitTs() > start_ts) {
      return Status::Conflict(StrCat("first-committer-wins on item ", name));
    }
    if (it->second.uncommitted_owner &&
        *it->second.uncommitted_owner != txn) {
      return Status::Conflict(StrCat("pending writer on item ", name));
    }
  }
  for (const auto& op : ws.row_ops) {
    if (op.row == 0) continue;  // fresh insert: no conflict possible
    auto it = tables_.find(op.table);
    if (it == tables_.end()) return Status::NotFound(StrCat("table ", op.table));
    auto rit = it->second.rows().find(op.row);
    if (rit == it->second.rows().end()) {
      return Status::NotFound(StrCat("row ", op.row, " of ", op.table));
    }
    if (rit->second.LastCommitTs() > start_ts) {
      return Status::Conflict(
          StrCat("first-committer-wins on row ", op.row, " of ", op.table));
    }
    if (rit->second.uncommitted_owner &&
        *rit->second.uncommitted_owner != txn) {
      return Status::Conflict(
          StrCat("pending writer on row ", op.row, " of ", op.table));
    }
  }
  // Apply atomically with a single commit timestamp.
  const Timestamp ts = ++clock_;
  for (const auto& [name, value] : ws.items) {
    items_.at(name).versions.push_back({ts, value});
    if (applied != nullptr) applied->items.push_back({name, value});
  }
  for (const auto& op : ws.row_ops) {
    TableData& table = tables_.at(op.table);
    if (op.row == 0) {
      if (op.image) {
        Status valid = table.schema().Validate(*op.image);
        if (!valid.ok()) return valid;
        RowEntry entry;
        entry.versions.push_back({ts, *op.image});
        const RowId fresh = table.NextRowId();
        table.IndexImage(fresh, op.image);
        table.mutable_rows().emplace(fresh, std::move(entry));
        if (applied != nullptr) {
          applied->rows.push_back({op.table, fresh, *op.image});
        }
      }
      continue;
    }
    table.IndexImage(op.row, op.image);
    table.mutable_rows().at(op.row).versions.push_back({ts, op.image});
    if (applied != nullptr) applied->rows.push_back({op.table, op.row, op.image});
  }
  return ts;
}

TxnEffects Store::CollectTxnEffects(TxnId txn) const {
  std::lock_guard<std::mutex> lock(mu_);
  TxnEffects effects;
  auto touched = touches_.find(txn);
  if (touched == touches_.end()) return effects;
  for (const std::string& name : touched->second.items) {
    const ItemEntry& entry = items_.at(name);
    if (entry.uncommitted_owner == txn) {
      effects.items.push_back({name, entry.uncommitted});
    }
  }
  for (const auto& [table, row] : touched->second.rows) {
    const RowEntry& entry = tables_.at(table).rows().at(row);
    if (entry.uncommitted_owner == txn) {
      effects.rows.push_back({table, row, entry.uncommitted});
    }
  }
  return effects;
}

CommittedState Store::CommittedCut() const {
  std::lock_guard<std::mutex> lock(mu_);
  const ReadView committed = ReadView::Committed();
  std::optional<TxnId> writer;
  CommittedState cut;
  cut.clock = clock_.load();
  for (const auto& [name, entry] : items_) {
    cut.items.push_back(
        {name, entry.LastCommitTs(), *entry.Visible(committed, &writer)});
  }
  for (const auto& [name, table] : tables_) {
    CommittedState::TableState ts;
    ts.name = name;
    ts.schema = table.schema();
    ts.next_row_id = table.PeekNextRowId();
    for (const auto& [row, entry] : table.rows()) {
      // A row with no committed version yet (an in-flight insert) is not part
      // of the cut; the inserter's commit record will carry it. Tombstones
      // are.
      const std::optional<Tuple>* image = entry.Visible(committed, &writer);
      if (image != nullptr) {
        ts.rows.push_back({row, entry.LastCommitTs(), *image});
      }
    }
    cut.tables.push_back(std::move(ts));
  }
  return cut;
}

void Store::Load(const CommittedState& cut) {
  std::lock_guard<std::mutex> lock(mu_);
  items_.clear();
  tables_.clear();
  touches_.clear();
  clock_.store(cut.clock);
  // A cut lists names and row ids in ascending order, so each insert lands
  // at the end of its map.
  for (const CommittedState::ItemState& item : cut.items) {
    ItemEntry entry;
    entry.versions.push_back({item.commit_ts, item.value});
    items_.emplace_hint(items_.end(), item.name, std::move(entry));
  }
  for (const CommittedState::TableState& ts : cut.tables) {
    TableData table(ts.schema);
    auto& rows = table.mutable_rows();
    for (const CommittedState::RowState& row : ts.rows) {
      RowEntry entry;
      entry.versions.push_back({row.commit_ts, row.image});
      rows.emplace_hint(rows.end(), row.row, std::move(entry));
    }
    table.BumpNextRowId(ts.next_row_id);
    tables_.emplace_hint(tables_.end(), ts.name, std::move(table));
  }
}

Status Store::RecoveryApply(const TxnEffects& effects, Timestamp commit_ts) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const TxnEffects::ItemWrite& w : effects.items) {
    auto it = items_.find(w.name);
    if (it == items_.end()) {
      return Status::NotFound(StrCat("recovery: item ", w.name));
    }
    it->second.versions.push_back({commit_ts, w.value});
  }
  for (const TxnEffects::RowWrite& w : effects.rows) {
    auto it = tables_.find(w.table);
    if (it == tables_.end()) {
      return Status::NotFound(StrCat("recovery: table ", w.table));
    }
    RowEntry& entry = it->second.mutable_rows()[w.row];
    entry.versions.push_back({commit_ts, w.image});
    it->second.IndexImage(w.row, w.image);
    it->second.BumpNextRowId(w.row + 1);
  }
  Timestamp cur = clock_.load();
  while (cur < commit_ts && !clock_.compare_exchange_weak(cur, commit_ts)) {
  }
  return Status::Ok();
}

size_t Store::PruneVersionsBefore(Timestamp horizon) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  auto prune = [&](auto& versions) {
    // Keep the newest version with commit_ts <= horizon plus all newer ones.
    size_t keep_from = 0;
    for (size_t i = 0; i < versions.size(); ++i) {
      if (versions[i].commit_ts <= horizon) keep_from = i;
    }
    dropped += keep_from;
    versions.erase(versions.begin(), versions.begin() + keep_from);
  };
  for (auto& [name, entry] : items_) prune(entry.versions);
  for (auto& [name, table] : tables_) {
    table.DropIndex();  // rebuilt from the surviving images on demand
    auto& rows = table.mutable_rows();
    for (auto it = rows.begin(); it != rows.end();) {
      prune(it->second.versions);
      // A lone pre-horizon tombstone (and no pending writer) is dead weight.
      if (it->second.versions.size() == 1 &&
          IsDelete(it->second.versions[0].image) &&
          it->second.versions[0].commit_ts <= horizon &&
          !it->second.uncommitted_owner) {
        ++dropped;
        it = rows.erase(it);
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

MapEvalContext Store::SnapshotToMap() const {
  std::lock_guard<std::mutex> lock(mu_);
  const ReadView committed = ReadView::Committed();
  std::optional<TxnId> writer;
  MapEvalContext ctx;
  for (const auto& [name, entry] : items_) {
    ctx.SetDb(name, *entry.Visible(committed, &writer));
  }
  for (const auto& [name, table] : tables_) {
    std::vector<Tuple>* tuples = ctx.MutableTable(name);
    for (const auto& [row, entry] : table.rows()) {
      const std::optional<Tuple>* image = entry.Visible(committed, &writer);
      if (image != nullptr && image->has_value()) tuples->push_back(**image);
    }
  }
  return ctx;
}

}  // namespace semcor
