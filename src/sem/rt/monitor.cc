#include "sem/rt/monitor.h"

#include "common/str_util.h"
#include "sem/expr/eval.h"

namespace semcor {

namespace {

/// Actual-state context: the database as this transaction can observe it
/// under its isolation level (dirty-latest only at READ UNCOMMITTED;
/// committed-latest plus its own images otherwise) + its workspace.
class ActualStateCtx : public EvalContext {
 public:
  ActualStateCtx(const Store* store, const Txn* txn)
      : store_(store), txn_(txn) {}

  Result<Value> GetVar(const VarRef& var) const override {
    switch (var.kind) {
      case VarKind::kDb:
        // A SNAPSHOT transaction's own writes are buffered until commit;
        // its assertions are about the state as it sees it, so overlay them.
        if (txn_->snapshot != nullptr) {
          const auto& buffered = txn_->snapshot->write_set().items;
          auto it = buffered.find(var.name);
          if (it != buffered.end()) return it->second;
        }
        return store_->ReadItem(var.name, View());
      case VarKind::kLocal: {
        auto it = txn_->locals.find(var.name);
        if (it == txn_->locals.end()) {
          return Status::NotFound(StrCat("unbound local ", var.name));
        }
        return it->second;
      }
      case VarKind::kLogical: {
        auto it = txn_->logicals.find(var.name);
        if (it == txn_->logicals.end()) {
          return Status::NotFound(StrCat("unbound logical ", var.name));
        }
        return it->second;
      }
    }
    return Status::Internal("bad var kind");
  }

  Status ScanTable(const std::string& table, const Expr&,
                   const std::function<void(const Tuple&)>& fn) const override {
    // Snapshot txns buffer row ops privately; their committed view
    // approximates what they assert.
    return store_->Scan(
        table, View(),
        [&](RowId, const Tuple& t, std::optional<TxnId>) { fn(t); });
  }

 private:
  // Dirty-latest only at READ UNCOMMITTED; committed-latest plus the txn's
  // own images otherwise (a SNAPSHOT txn holds none in the store).
  ReadView View() const {
    if (txn_->snapshot == nullptr &&
        txn_->level == IsoLevel::kReadUncommitted) {
      return ReadView::Latest();
    }
    return ReadView::Own(txn_->id);
  }

  const Store* store_;
  const Txn* txn_;
};

}  // namespace

InvalidationMonitor::InvalidationMonitor(Store* store, StepDriver* driver)
    : store_(store), driver_(driver) {
  driver_->SetPreStepHook([this](int stepping) { BeforeStep(stepping); });
  driver_->SetObserver([this](const StepEvent& e) { OnStep(e); });
}

std::optional<bool> InvalidationMonitor::EvalActive(int i) {
  ProgramRun& run = driver_->run(i);
  // Finished transactions are out of scope: their Q_i only had to hold at
  // commit time, and aborted ones have no obligations.
  if (run.Done()) return std::nullopt;
  ActualStateCtx ctx(store_, &run.txn());
  ++evaluations_;
  Result<bool> v = EvalBool(run.ActiveAssertion(), ctx);
  if (!v.ok()) return std::nullopt;
  return v.value();
}

void InvalidationMonitor::BeforeStep(int stepping) {
  (void)stepping;
  last_truth_.assign(driver_->size(), std::nullopt);
  for (int i = 0; i < driver_->size(); ++i) last_truth_[i] = EvalActive(i);
}

void InvalidationMonitor::OnStep(const StepEvent& event) {
  if (event.outcome == StepOutcome::kBlocked) return;
  last_truth_.resize(driver_->size());
  // The statement executed: if its annotation was false at that moment, the
  // proof assumption it rests on was genuinely violated.
  if (event.run_index >= 0 && event.run_index < driver_->size() &&
      last_truth_[event.run_index].has_value() &&
      !*last_truth_[event.run_index]) {
    ++violated_preconditions_;
  }
  for (int i = 0; i < driver_->size(); ++i) {
    if (i == event.run_index) continue;
    if (!last_truth_[i].has_value() || !*last_truth_[i]) continue;
    std::optional<bool> now = EvalActive(i);
    if (now.has_value() && !*now) {
      InvalidationEvent inv;
      inv.victim = i;
      inv.writer = event.run_index;
      inv.assertion = ToString(driver_->run(i).ActiveAssertion());
      inv.writer_stmt = event.stmt != nullptr ? event.stmt->ToString()
                                              : "(commit)";
      events_.push_back(std::move(inv));
    }
  }
}

}  // namespace semcor
