#include "mvcc/version_store.h"

#include <algorithm>
#include <vector>

#include "common/str_util.h"

namespace semcor {

Result<Value> SnapshotView::ReadItem(const std::string& name) const {
  auto it = write_set_.items.find(name);
  if (it != write_set_.items.end()) return it->second;
  return store_->ReadItem(name, ReadView::Snapshot(start_ts_));
}

void SnapshotView::WriteItem(const std::string& name, Value v) {
  write_set_.items[name] = std::move(v);
}

const SnapshotWriteSet::RowOp* SnapshotView::OwnOpFor(const std::string& table,
                                                      RowId row) const {
  const SnapshotWriteSet::RowOp* latest = nullptr;
  for (const auto& op : write_set_.row_ops) {
    if (op.table == table && op.row == row) latest = &op;
  }
  return latest;
}

Status SnapshotView::Scan(
    const std::string& table,
    const std::function<void(RowId, const Tuple&)>& fn,
    const Expr& where) const {
  // The store's index knows only installed images, so a bounded scan may
  // skip a row whose buffered image matches. Those rows are merged back in
  // row-id order; each was visible in the snapshot when it was rewritten,
  // and the snapshot does not change.
  std::vector<RowId> rewritten;
  if (where) {
    for (const auto& op : write_set_.row_ops) {
      if (op.table == table && op.row != 0) rewritten.push_back(op.row);
    }
    std::sort(rewritten.begin(), rewritten.end());
    rewritten.erase(std::unique(rewritten.begin(), rewritten.end()),
                    rewritten.end());
  }
  auto next = rewritten.begin();
  auto emit_own = [&](RowId row) {
    const SnapshotWriteSet::RowOp* own = OwnOpFor(table, row);
    if (own->image) fn(row, *own->image);  // a buffered delete hides it
  };
  Status s = store_->Scan(
      table, ReadView::Snapshot(start_ts_),
      [&](RowId row, const Tuple& t, std::optional<TxnId>) {
        for (; next != rewritten.end() && *next <= row; ++next) {
          if (*next < row) emit_own(*next);
        }
        const SnapshotWriteSet::RowOp* own = OwnOpFor(table, row);
        if (own == nullptr) {
          fn(row, t);
        } else if (own->image) {
          fn(row, *own->image);
        }
        // own buffered delete: row invisible
      },
      where);
  if (!s.ok()) return s;
  for (; next != rewritten.end(); ++next) emit_own(*next);
  // Own inserts, with synthetic row ids.
  RowId synthetic = kOwnRowBase;
  for (const auto& op : write_set_.row_ops) {
    if (op.table != table) {
      // keep synthetic ids aligned with insert order across tables
      if (op.row == 0) ++synthetic;
      continue;
    }
    if (op.row == 0) {
      const RowId id = synthetic++;
      // Later updates/deletes of an own insert rewrite the op image in
      // place (see UpdateRow/DeleteRow), so op.image is current.
      if (op.image) fn(id, *op.image);
    }
  }
  return Status::Ok();
}

void SnapshotView::InsertRow(const std::string& table, Tuple tuple) {
  write_set_.row_ops.push_back({table, 0, std::move(tuple)});
}

Status SnapshotView::UpdateRow(const std::string& table, RowId row,
                               Tuple tuple) {
  if (row >= kOwnRowBase) {
    // Rewrite the corresponding own insert in place.
    RowId synthetic = kOwnRowBase;
    for (auto& op : write_set_.row_ops) {
      if (op.row != 0) continue;
      if (synthetic == row) {
        if (op.table != table) {
          return Status::InvalidArgument("own-row table mismatch");
        }
        op.image = std::move(tuple);
        return Status::Ok();
      }
      ++synthetic;
    }
    return Status::NotFound(StrCat("own row ", row));
  }
  write_set_.row_ops.push_back({table, row, std::move(tuple)});
  return Status::Ok();
}

Status SnapshotView::DeleteRow(const std::string& table, RowId row) {
  if (row >= kOwnRowBase) {
    RowId synthetic = kOwnRowBase;
    for (auto& op : write_set_.row_ops) {
      if (op.row != 0) continue;
      if (synthetic == row) {
        if (op.table != table) {
          return Status::InvalidArgument("own-row table mismatch");
        }
        op.image.reset();
        return Status::Ok();
      }
      ++synthetic;
    }
    return Status::NotFound(StrCat("own row ", row));
  }
  write_set_.row_ops.push_back({table, row, std::nullopt});
  return Status::Ok();
}

Result<Timestamp> SnapshotView::Commit(TxnId txn, TxnEffects* applied) {
  // Collapse multiple buffered ops per base row to the final image before
  // handing the set to the store.
  SnapshotWriteSet collapsed;
  collapsed.items = write_set_.items;
  std::map<std::pair<std::string, RowId>, std::optional<Tuple>> final_image;
  std::vector<std::pair<std::string, RowId>> order;
  for (const auto& op : write_set_.row_ops) {
    if (op.row == 0) continue;
    auto key = std::make_pair(op.table, op.row);
    if (!final_image.count(key)) order.push_back(key);
    final_image[key] = op.image;
  }
  for (const auto& key : order) {
    collapsed.row_ops.push_back({key.first, key.second, final_image[key]});
  }
  for (const auto& op : write_set_.row_ops) {
    if (op.row == 0 && op.image) {
      collapsed.row_ops.push_back(op);
    }
    // An own insert later deleted (image == nullopt) has no effect.
  }
  return store_->SnapshotCommit(txn, collapsed, start_ts_, applied);
}

}  // namespace semcor
