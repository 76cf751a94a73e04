#include "sem/expr/eval.h"

#include "common/str_util.h"

namespace semcor {

Result<Value> MapEvalContext::GetVar(const VarRef& var) const {
  auto it = vars_.find(var);
  if (it == vars_.end()) {
    return Status::NotFound(StrCat("unbound variable ", var.ToString()));
  }
  return it->second;
}

Status MapEvalContext::ScanTable(
    const std::string& table, const Expr&,
    const std::function<void(const Tuple&)>& fn) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound(StrCat("no table ", table));
  }
  for (const Tuple& t : it->second) fn(t);
  return Status::Ok();
}

namespace {

/// Recursive evaluator; `tuple` is non-null while inside a tuple predicate.
Result<Value> EvalRec(const Expr& e, const EvalContext& ctx,
                      const Tuple* tuple);

Result<int64_t> EvalInt(const Expr& e, const EvalContext& ctx,
                        const Tuple* tuple) {
  Result<Value> r = EvalRec(e, ctx, tuple);
  if (!r.ok()) return r.status();
  if (!r.value().is_int()) {
    return Status::InvalidArgument(
        StrCat("expected int, got ", r.value().ToString(), " in ",
               ToString(e)));
  }
  return r.value().AsInt();
}

Result<bool> EvalBoolRec(const Expr& e, const EvalContext& ctx,
                         const Tuple* tuple) {
  Result<Value> r = EvalRec(e, ctx, tuple);
  if (!r.ok()) return r.status();
  if (!r.value().is_bool()) {
    return Status::InvalidArgument(
        StrCat("expected bool, got ", r.value().ToString(), " in ",
               ToString(e)));
  }
  return r.value().AsBool();
}

Result<Value> EvalCompare(Op op, const Value& a, const Value& b) {
  switch (op) {
    case Op::kEq:
      return Value::Bool(a == b);
    case Op::kNe:
      return Value::Bool(a != b);
    default:
      break;
  }
  // Ordered comparisons require same-typed int or string operands.
  const bool ordered = (a.is_int() && b.is_int()) ||
                       (a.is_string() && b.is_string());
  if (!ordered) {
    return Status::InvalidArgument(StrCat("cannot order ", a.ToString(),
                                          " vs ", b.ToString()));
  }
  switch (op) {
    case Op::kLt:
      return Value::Bool(a < b);
    case Op::kLe:
      return Value::Bool(!(b < a));
    case Op::kGt:
      return Value::Bool(b < a);
    case Op::kGe:
      return Value::Bool(!(a < b));
    default:
      return Status::Internal("bad comparison op");
  }
}

Result<Value> EvalRec(const Expr& e, const EvalContext& ctx,
                      const Tuple* tuple) {
  if (!e) return Status::InvalidArgument("null expression");
  switch (e->op) {
    case Op::kConst:
      return e->const_val;
    case Op::kVar:
      return ctx.GetVar(e->var);
    case Op::kAttr: {
      if (tuple == nullptr) {
        return Status::InvalidArgument(
            StrCat("attribute .", e->attr, " outside tuple predicate"));
      }
      auto it = tuple->find(e->attr);
      if (it == tuple->end()) {
        return Status::NotFound(StrCat("no attribute ", e->attr));
      }
      return it->second;
    }
    case Op::kNeg: {
      Result<int64_t> a = EvalInt(e->kids[0], ctx, tuple);
      if (!a.ok()) return a.status();
      return Value::Int(-a.value());
    }
    case Op::kNot: {
      Result<bool> a = EvalBoolRec(e->kids[0], ctx, tuple);
      if (!a.ok()) return a.status();
      return Value::Bool(!a.value());
    }
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
    case Op::kDiv: {
      Result<int64_t> a = EvalInt(e->kids[0], ctx, tuple);
      if (!a.ok()) return a.status();
      Result<int64_t> b = EvalInt(e->kids[1], ctx, tuple);
      if (!b.ok()) return b.status();
      switch (e->op) {
        case Op::kAdd:
          return Value::Int(a.value() + b.value());
        case Op::kSub:
          return Value::Int(a.value() - b.value());
        case Op::kMul:
          return Value::Int(a.value() * b.value());
        default:
          if (b.value() == 0) {
            return Status::InvalidArgument("division by zero");
          }
          return Value::Int(a.value() / b.value());
      }
    }
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      Result<Value> a = EvalRec(e->kids[0], ctx, tuple);
      if (!a.ok()) return a.status();
      Result<Value> b = EvalRec(e->kids[1], ctx, tuple);
      if (!b.ok()) return b.status();
      return EvalCompare(e->op, a.value(), b.value());
    }
    case Op::kAnd: {
      for (const Expr& k : e->kids) {
        Result<bool> v = EvalBoolRec(k, ctx, tuple);
        if (!v.ok()) return v.status();
        if (!v.value()) return Value::Bool(false);
      }
      return Value::Bool(true);
    }
    case Op::kOr: {
      for (const Expr& k : e->kids) {
        Result<bool> v = EvalBoolRec(k, ctx, tuple);
        if (!v.ok()) return v.status();
        if (v.value()) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    case Op::kImplies: {
      Result<bool> a = EvalBoolRec(e->kids[0], ctx, tuple);
      if (!a.ok()) return a.status();
      if (!a.value()) return Value::Bool(true);
      Result<bool> b = EvalBoolRec(e->kids[1], ctx, tuple);
      if (!b.ok()) return b.status();
      return Value::Bool(b.value());
    }
    case Op::kIte: {
      Result<bool> c = EvalBoolRec(e->kids[0], ctx, tuple);
      if (!c.ok()) return c.status();
      return EvalRec(c.value() ? e->kids[1] : e->kids[2], ctx, tuple);
    }
    case Op::kCount: {
      int64_t count = 0;
      Status inner = Status::Ok();
      Status s = ctx.ScanTable(e->table, e->kids[0], [&](const Tuple& t) {
        if (!inner.ok()) return;
        Result<bool> p = EvalBoolRec(e->kids[0], ctx, &t);
        if (!p.ok()) {
          inner = p.status();
          return;
        }
        if (p.value()) ++count;
      });
      if (!s.ok()) return s;
      if (!inner.ok()) return inner;
      return Value::Int(count);
    }
    case Op::kSum:
    case Op::kMaxAgg:
    case Op::kMinAgg: {
      const bool is_sum = e->op == Op::kSum;
      const bool is_max = e->op == Op::kMaxAgg;
      int64_t acc = is_sum ? 0 : e->dflt;
      bool any = false;
      Status inner = Status::Ok();
      Status s = ctx.ScanTable(e->table, e->kids[0], [&](const Tuple& t) {
        if (!inner.ok()) return;
        Result<bool> p = EvalBoolRec(e->kids[0], ctx, &t);
        if (!p.ok()) {
          inner = p.status();
          return;
        }
        if (!p.value()) return;
        auto it = t.find(e->agg_attr);
        if (it == t.end() || !it->second.is_int()) {
          inner = Status::InvalidArgument(
              StrCat("aggregate attribute ", e->agg_attr, " missing/non-int"));
          return;
        }
        int64_t v = it->second.AsInt();
        if (is_sum) {
          acc += v;
        } else if (is_max) {
          acc = (!any || v > acc) ? v : acc;
        } else {
          acc = (!any || v < acc) ? v : acc;
        }
        any = true;
      });
      if (!s.ok()) return s;
      if (!inner.ok()) return inner;
      return Value::Int(acc);
    }
    case Op::kExists: {
      bool found = false;
      Status inner = Status::Ok();
      Status s = ctx.ScanTable(e->table, e->kids[0], [&](const Tuple& t) {
        if (found || !inner.ok()) return;
        Result<bool> p = EvalBoolRec(e->kids[0], ctx, &t);
        if (!p.ok()) {
          inner = p.status();
          return;
        }
        if (p.value()) found = true;
      });
      if (!s.ok()) return s;
      if (!inner.ok()) return inner;
      return Value::Bool(found);
    }
    case Op::kForall: {
      // The range (kids[0]) bounds the scan, never the body: a row outside
      // the body's equalities is exactly one that can falsify it.
      bool holds = true;
      Status inner = Status::Ok();
      Status s = ctx.ScanTable(e->table, e->kids[0], [&](const Tuple& t) {
        if (!holds || !inner.ok()) return;
        Result<bool> p = EvalBoolRec(e->kids[0], ctx, &t);
        if (!p.ok()) {
          inner = p.status();
          return;
        }
        if (!p.value()) return;
        Result<bool> q = EvalBoolRec(e->kids[1], ctx, &t);
        if (!q.ok()) {
          inner = q.status();
          return;
        }
        if (!q.value()) holds = false;
      });
      if (!s.ok()) return s;
      if (!inner.ok()) return inner;
      return Value::Bool(holds);
    }
  }
  return Status::Internal("unhandled op in Eval");
}

}  // namespace

Result<Value> Eval(const Expr& e, const EvalContext& ctx) {
  return EvalRec(e, ctx, nullptr);
}

Result<bool> EvalBool(const Expr& e, const EvalContext& ctx) {
  return EvalBoolRec(e, ctx, nullptr);
}

Result<bool> EvalTuplePred(const Expr& pred, const Tuple& tuple,
                           const EvalContext& ctx) {
  return EvalBoolRec(pred, ctx, &tuple);
}

Result<Value> EvalInTupleScope(const Expr& e, const Tuple& tuple,
                               const EvalContext& ctx) {
  return EvalRec(e, ctx, &tuple);
}

}  // namespace semcor
