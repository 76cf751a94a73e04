#include "sem/prog/concrete_exec.h"

#include "common/str_util.h"

namespace semcor {

namespace {

Result<Value> ReadItem(const MapEvalContext& ctx, const std::string& item,
                       const ConcreteExecOptions& options) {
  Result<Value> v = ctx.GetVar({VarKind::kDb, item});
  if (v.ok()) return v;
  if (v.status().code() == Code::kNotFound) return options.default_item;
  return v.status();
}

}  // namespace

Status ExecuteStmt(const Stmt& stmt, MapEvalContext* ctx,
                   std::map<std::string, std::vector<Tuple>>* buffers,
                   const ConcreteExecOptions& options) {
  switch (stmt.kind) {
    case StmtKind::kRead: {
      Result<Value> v = ReadItem(*ctx, stmt.item, options);
      if (!v.ok()) return v.status();
      ctx->SetLocal(stmt.local, v.take());
      return Status::Ok();
    }
    case StmtKind::kWrite: {
      Result<Value> v = Eval(stmt.expr, *ctx);
      if (!v.ok()) return v.status();
      ctx->SetDb(stmt.item, v.take());
      return Status::Ok();
    }
    case StmtKind::kLocalAssign:
    case StmtKind::kSelectAgg: {
      Result<Value> v = Eval(stmt.expr, *ctx);
      if (!v.ok()) return v.status();
      ctx->SetLocal(stmt.local, v.take());
      return Status::Ok();
    }
    case StmtKind::kSelectRows: {
      std::vector<Tuple> rows;
      // Ensure the table exists so the scan succeeds on fresh states.
      ctx->MutableTable(stmt.table);
      Status inner = Status::Ok();
      Status s = ctx->ScanTable(stmt.table, stmt.pred, [&](const Tuple& t) {
        if (!inner.ok()) return;
        Result<bool> p = EvalTuplePred(stmt.pred, t, *ctx);
        if (!p.ok()) {
          inner = p.status();
          return;
        }
        if (p.value()) rows.push_back(t);
      });
      if (!s.ok()) return s;
      if (!inner.ok()) return inner;
      if (buffers != nullptr) (*buffers)[stmt.local] = rows;
      ctx->SetLocal(StrCat(stmt.local, "_count"),
                    Value::Int(static_cast<int64_t>(rows.size())));
      return Status::Ok();
    }
    case StmtKind::kUpdate: {
      std::vector<Tuple>* rows = ctx->MutableTable(stmt.table);
      for (Tuple& t : *rows) {
        Result<bool> p = EvalTuplePred(stmt.pred, t, *ctx);
        if (!p.ok()) return p.status();
        if (!p.value()) continue;
        Tuple updated = t;
        for (const auto& [attr, e] : stmt.sets) {
          Result<Value> v = EvalInTupleScope(e, t, *ctx);
          if (!v.ok()) return v.status();
          updated[attr] = v.take();
        }
        t = std::move(updated);
      }
      return Status::Ok();
    }
    case StmtKind::kInsert: {
      Tuple t;
      for (const auto& [attr, e] : stmt.values) {
        Result<Value> v = Eval(e, *ctx);
        if (!v.ok()) return v.status();
        t[attr] = v.take();
      }
      ctx->AddTuple(stmt.table, std::move(t));
      return Status::Ok();
    }
    case StmtKind::kDelete: {
      std::vector<Tuple>* rows = ctx->MutableTable(stmt.table);
      std::vector<Tuple> kept;
      for (Tuple& t : *rows) {
        Result<bool> p = EvalTuplePred(stmt.pred, t, *ctx);
        if (!p.ok()) return p.status();
        if (!p.value()) kept.push_back(std::move(t));
      }
      *rows = std::move(kept);
      return Status::Ok();
    }
    case StmtKind::kAbort:
      return Status::Aborted("explicit abort");
    case StmtKind::kIf: {
      Result<bool> g = EvalBool(stmt.expr, *ctx);
      if (!g.ok()) return g.status();
      return ExecuteStmts(g.value() ? stmt.then_body : stmt.else_body, ctx,
                          buffers, options);
    }
    case StmtKind::kWhile: {
      for (int iter = 0; iter < options.loop_fuel; ++iter) {
        Result<bool> g = EvalBool(stmt.expr, *ctx);
        if (!g.ok()) return g.status();
        if (!g.value()) return Status::Ok();
        Status s = ExecuteStmts(stmt.then_body, ctx, buffers, options);
        if (!s.ok()) return s;
      }
      return Status::Internal("loop fuel exhausted in concrete execution");
    }
  }
  return Status::Internal("unhandled statement kind");
}

Status ExecuteStmts(const StmtList& body, MapEvalContext* ctx,
                    std::map<std::string, std::vector<Tuple>>* buffers,
                    const ConcreteExecOptions& options) {
  for (const StmtPtr& s : body) {
    Status st = ExecuteStmt(*s, ctx, buffers, options);
    if (!st.ok()) return st;
  }
  return Status::Ok();
}

Status ExecuteProgram(const TxnProgram& program, MapEvalContext* ctx,
                      const ConcreteExecOptions& options) {
  for (const auto& [name, value] : program.params) {
    ctx->SetLocal(name, value);
  }
  for (const auto& [logical, item] : program.logical_bindings) {
    Result<Value> v = ReadItem(*ctx, item, options);
    if (!v.ok()) return v.status();
    ctx->SetLogical(logical, v.take());
  }
  MapEvalContext entry_state = *ctx;  // for rollback
  std::map<std::string, std::vector<Tuple>> buffers;
  Status s = ExecuteStmts(program.body, ctx, &buffers, options);
  if (s.code() == Code::kAborted) {
    *ctx = entry_state;
    return Status::Ok();
  }
  return s;
}

}  // namespace semcor
