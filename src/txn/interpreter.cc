#include "txn/interpreter.h"

#include "common/str_util.h"
#include "sem/expr/eval.h"
#include "sem/expr/subst.h"

namespace semcor {

const char* StepOutcomeName(StepOutcome outcome) {
  switch (outcome) {
    case StepOutcome::kRunning:
      return "running";
    case StepOutcome::kBlocked:
      return "blocked";
    case StepOutcome::kRollingBack:
      return "rolling-back";
    case StepOutcome::kCommitted:
      return "committed";
    case StepOutcome::kAborted:
      return "aborted";
  }
  return "?";
}

namespace {

/// Substitutes the transaction's locals & logicals by literal values (closing
/// predicates). Database items stay variables: reading one takes a lock.
Expr CloseOverLocals(const Txn& txn, const Expr& e) {
  if (!e) return e;
  std::map<VarRef, Expr> subst;
  for (const auto& [name, value] : txn.locals) {
    subst.emplace(VarRef{VarKind::kLocal, name}, LitV(value));
  }
  for (const auto& [name, value] : txn.logicals) {
    subst.emplace(VarRef{VarKind::kLogical, name}, LitV(value));
  }
  return SubstituteAll(e, subst);
}

/// Evaluation context that routes database access through the transaction
/// manager (so reads take locks / hit the snapshot per the txn's level).
class TxnEvalContext : public EvalContext {
 public:
  TxnEvalContext(TxnManager* mgr, Txn* txn, bool wait)
      : mgr_(mgr), txn_(txn), wait_(wait) {}

  Result<Value> GetVar(const VarRef& var) const override {
    switch (var.kind) {
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
      case VarKind::kDb: {
        Value v;
        Status s = mgr_->ReadItem(txn_, var.name, &v, wait_);
        if (!s.ok()) return s;
        return v;
      }
    }
    return Status::Internal("bad var kind");
  }

  /// The bound reaches the store closed over locals and logicals only.
  Status ScanTable(const std::string& table, const Expr& bound,
                   const std::function<void(const Tuple&)>& fn) const override {
    return mgr_->ScanVisible(txn_, table, CloseOverLocals(*txn_, bound), fn,
                             wait_);
  }

 private:
  TxnManager* mgr_;
  Txn* txn_;
  bool wait_;
};

/// Locals/logicals only — used for branch and loop guards, which the
/// program model restricts to workspace variables.
class LocalCtx : public EvalContext {
 public:
  explicit LocalCtx(const Txn* txn) : txn_(txn) {}

  Result<Value> GetVar(const VarRef& var) const override {
    const std::map<std::string, Value>* env = nullptr;
    if (var.kind == VarKind::kLocal) env = &txn_->locals;
    if (var.kind == VarKind::kLogical) env = &txn_->logicals;
    if (env == nullptr) {
      return Status::InvalidArgument(
          StrCat("guard references database item ", var.name));
    }
    auto it = env->find(var.name);
    if (it == env->end()) {
      return Status::NotFound(StrCat("unbound variable ", var.name));
    }
    return it->second;
  }

  Status ScanTable(const std::string&, const Expr&,
                   const std::function<void(const Tuple&)>&) const override {
    return Status::InvalidArgument("guards may not scan tables");
  }

 private:
  const Txn* txn_;
};

}  // namespace

ProgramRun::ProgramRun(TxnManager* mgr,
                       std::shared_ptr<const TxnProgram> program,
                       IsoLevel level, CommitLog* log, bool lazy_begin)
    : mgr_(mgr), program_(std::move(program)), log_(log), level_(level) {
  if (!lazy_begin) EnsureBegun();
}

void ProgramRun::EnsureBegun() {
  if (begun_ || Done()) return;
  begun_ = true;
  txn_ = mgr_->Begin(level_, program_->declared_read_only);
  txn_->locals = program_->params;
  // Capture logical variables (initial values of the bound items) from the
  // committed state at start.
  for (const auto& [logical, item] : program_->logical_bindings) {
    Result<Value> v =
        txn_->snapshot ? txn_->snapshot->ReadItem(item)
                       : mgr_->store()->ReadItem(item, ReadView::Committed());
    if (!v.ok()) {
      failure_ = v.status();
      return;
    }
    txn_->logicals[logical] = v.take();
  }
  stack_.push_back({&program_->body, 0, nullptr});
}

const Stmt* ProgramRun::CurrentStmt() const {
  for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
    if (it->index < it->list->size()) return (*it->list)[it->index].get();
  }
  return nullptr;
}

Expr ProgramRun::ActiveAssertion() const {
  if (!begun_) return program_->Precondition();
  if (Done() || body_done_) return program_->Postcondition();
  const Stmt* current = CurrentStmt();
  return current != nullptr && current->pre ? current->pre
                                            : program_->Postcondition();
}

Result<bool> ProgramRun::EvalGuard(const Expr& guard) {
  LocalCtx ctx(txn_.get());
  return EvalBool(guard, ctx);
}

Status ProgramRun::SettleFrames() {
  while (!stack_.empty()) {
    Frame& top = stack_.back();
    if (top.index < top.list->size()) return Status::Ok();
    if (top.loop != nullptr) {
      Result<bool> again = EvalGuard(top.loop->expr);
      if (!again.ok()) return again.status();
      if (again.value()) {
        top.index = 0;  // next iteration
        return Status::Ok();
      }
      stack_.pop_back();
      if (!stack_.empty()) ++stack_.back().index;  // past the while
      continue;
    }
    stack_.pop_back();  // finished branch (parent index already advanced)
  }
  body_done_ = true;
  return Status::Ok();
}

void ProgramRun::Advance() {
  if (!stack_.empty()) ++stack_.back().index;
}

Status ProgramRun::ExecStmt(const Stmt& stmt, bool wait) {
  TxnEvalContext ctx(mgr_, txn_.get(), wait);
  switch (stmt.kind) {
    case StmtKind::kRead: {
      Value v;
      Status s = mgr_->ReadItem(txn_.get(), stmt.item, &v, wait);
      if (!s.ok()) return s;
      txn_->locals[stmt.local] = std::move(v);
      return Status::Ok();
    }
    case StmtKind::kWrite: {
      Result<Value> v = Eval(stmt.expr, ctx);
      if (!v.ok()) return v.status();
      return mgr_->WriteItem(txn_.get(), stmt.item, v.value(), wait);
    }
    case StmtKind::kLocalAssign:
    case StmtKind::kSelectAgg: {
      Result<Value> v = Eval(stmt.expr, ctx);
      if (!v.ok()) return v.status();
      txn_->locals[stmt.local] = v.take();
      return Status::Ok();
    }
    case StmtKind::kSelectRows: {
      const Expr closed = CloseOverLocals(*txn_, stmt.pred);
      std::vector<Tuple> rows;
      Status s = mgr_->SelectRows(txn_.get(), stmt.table, closed, &rows, wait);
      if (!s.ok()) return s;
      txn_->locals[StrCat(stmt.local, "_count")] =
          Value::Int(static_cast<int64_t>(rows.size()));
      txn_->buffers[stmt.local] = std::move(rows);
      return Status::Ok();
    }
    case StmtKind::kUpdate: {
      std::map<std::string, Expr> closed_sets;
      for (const auto& [attr, e] : stmt.sets) {
        closed_sets[attr] = CloseOverLocals(*txn_, e);
      }
      return mgr_->UpdateRows(txn_.get(), stmt.table,
                              CloseOverLocals(*txn_, stmt.pred), closed_sets,
                              wait, nullptr);
    }
    case StmtKind::kInsert: {
      Tuple tuple;
      for (const auto& [attr, e] : stmt.values) {
        Result<Value> v = Eval(e, ctx);
        if (!v.ok()) return v.status();
        tuple[attr] = v.take();
      }
      return mgr_->InsertRow(txn_.get(), stmt.table, std::move(tuple), wait);
    }
    case StmtKind::kDelete:
      return mgr_->DeleteRows(txn_.get(), stmt.table,
                              CloseOverLocals(*txn_, stmt.pred), wait, nullptr);
    case StmtKind::kAbort:
      user_aborted_ = true;
      return Status::Aborted("explicit abort statement");
    case StmtKind::kIf:
    case StmtKind::kWhile:
      return Status::Internal("control statement reached ExecStmt");
  }
  return Status::Internal("unhandled statement kind");
}

StepOutcome ProgramRun::EnterAbort(Status reason) {
  failure_ = std::move(reason);
  if (schedulable_rollback_ && txn_ != nullptr && txn_->snapshot == nullptr &&
      !txn_->undo.empty()) {
    // Keep locks and images; the undo writes become schedulable steps.
    mgr_->BeginRollback(txn_.get());
    rolling_back_ = true;
    return StepOutcome::kRollingBack;
  }
  if (txn_ != nullptr) mgr_->Abort(txn_.get());
  outcome_ = StepOutcome::kAborted;
  return outcome_;
}

StepOutcome ProgramRun::StepRollback() {
  if (!txn_->undo.empty()) {
    mgr_->UndoOneWrite(txn_.get());
    last_step_undo_ = true;
    return StepOutcome::kRollingBack;
  }
  // Final step: release locks and retire the transaction.
  mgr_->FinishRollback(txn_.get());
  rolling_back_ = false;
  outcome_ = StepOutcome::kAborted;
  return outcome_;
}

StepOutcome ProgramRun::Step(bool wait) {
  if (Done()) return outcome_;
  last_step_undo_ = false;
  if (rolling_back_) return StepRollback();
  EnsureBegun();
  if (!failure_.ok()) {  // begin-time failure (nothing written: atomic abort)
    return EnterAbort(failure_);
  }
  Status settled = SettleFrames();
  if (!settled.ok()) {
    return EnterAbort(settled);
  }
  if (body_done_) {
    if (faults_ != nullptr) {
      const FaultKind kind = faults_->At(FaultSite::kCommit, txn_->id);
      if (kind == FaultKind::kCrashBeforeCommit ||
          kind == FaultKind::kForcedAbort) {
        return EnterAbort(FaultStatus(kind));
      }
    }
    Status s = mgr_->Commit(txn_.get());
    if (!s.ok()) {
      // A SNAPSHOT commit failure already aborted internally; nothing is
      // left to undo, so EnterAbort resolves to the atomic path.
      return EnterAbort(s);
    }
    if (log_ != nullptr) log_->Append(program_, txn_->commit_ts);
    outcome_ = StepOutcome::kCommitted;
    return outcome_;
  }

  const Stmt* stmt = CurrentStmt();
  if (stmt->kind == StmtKind::kIf) {
    Result<bool> guard = EvalGuard(stmt->expr);
    if (!guard.ok()) {
      return EnterAbort(guard.status());
    }
    Advance();  // resume after the If once the branch finishes
    const StmtList& branch = guard.value() ? stmt->then_body : stmt->else_body;
    stack_.push_back({&branch, 0, nullptr});
    return StepOutcome::kRunning;
  }
  if (stmt->kind == StmtKind::kWhile) {
    Result<bool> guard = EvalGuard(stmt->expr);
    if (!guard.ok()) {
      return EnterAbort(guard.status());
    }
    if (guard.value()) {
      stack_.push_back({&stmt->then_body, 0, stmt});
    } else {
      Advance();  // skip the loop entirely
    }
    return StepOutcome::kRunning;
  }

  if (faults_ != nullptr) {
    const FaultKind kind = faults_->At(FaultSite::kStatementApply, txn_->id);
    if (kind == FaultKind::kForcedAbort ||
        kind == FaultKind::kCrashBeforeCommit) {
      return EnterAbort(FaultStatus(kind));
    }
    if (kind == FaultKind::kTransientLockFailure) {
      if (!wait) return StepOutcome::kBlocked;  // retried on the next visit
      return EnterAbort(FaultStatus(kind));
    }
  }
  Status s = ExecStmt(*stmt, wait);
  if (s.ok()) {
    Advance();
    return StepOutcome::kRunning;
  }
  if (s.code() == Code::kWouldBlock && !wait) {
    return StepOutcome::kBlocked;  // retry the same statement later
  }
  return EnterAbort(s);
}

void ProgramRun::ForceAbort(Status reason) {
  if (Done()) return;
  if (!rolling_back_) failure_ = std::move(reason);
  // Abort completes an in-progress rollback wholesale (the victim must not
  // keep holding locks while the driver waits for progress).
  if (txn_ != nullptr) mgr_->Abort(txn_.get());
  rolling_back_ = false;
  outcome_ = StepOutcome::kAborted;
}

StepOutcome ProgramRun::RunToCompletion() {
  while (!Done()) {
    Step(/*wait=*/true);
  }
  return outcome_;
}

}  // namespace semcor
