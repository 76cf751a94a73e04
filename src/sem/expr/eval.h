#ifndef SEMCOR_SEM_EXPR_EVAL_H_
#define SEMCOR_SEM_EXPR_EVAL_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/tuple.h"
#include "common/value.h"
#include "sem/expr/expr.h"

namespace semcor {

/// Supplies variable bindings and table contents to the evaluator. The
/// runtime monitor adapts the live transaction-manager state to this
/// interface; the falsifier and tests use MapEvalContext.
class EvalContext {
 public:
  virtual ~EvalContext() = default;

  /// Value of a db / local / logical variable; NotFound if unbound.
  virtual Result<Value> GetVar(const VarRef& var) const = 0;

  /// Calls `fn` on every tuple of `table`; NotFound if no such table.
  ///
  /// `bound` is the tuple predicate the caller applies to each tuple (an
  /// aggregate's range; nullptr for none). A context may leave out tuples
  /// that fail one of its leading `attr = value` conjuncts: the caller
  /// rejects those before evaluating anything that could fail or read the
  /// database, so its value and status stay the same. A context that
  /// reads through locks must still show every tuple whose reading the
  /// level's semantics records (the transaction manager bounds aggregates
  /// except at REPEATABLE READ and SERIALIZABLE, whose long S lock on every
  /// row read is part of the aggregate's meaning). `bound` may refer to
  /// local and logical variables; contexts close it over their own values.
  virtual Status ScanTable(
      const std::string& table, const Expr& bound,
      const std::function<void(const Tuple&)>& fn) const = 0;
};

/// Map-backed context for tests, the falsifier, and the oracle's shadow
/// databases.
class MapEvalContext : public EvalContext {
 public:
  MapEvalContext() = default;

  void Set(const VarRef& var, Value v) { vars_[var] = std::move(v); }
  void SetDb(const std::string& name, Value v) {
    Set({VarKind::kDb, name}, std::move(v));
  }
  void SetLocal(const std::string& name, Value v) {
    Set({VarKind::kLocal, name}, std::move(v));
  }
  void SetLogical(const std::string& name, Value v) {
    Set({VarKind::kLogical, name}, std::move(v));
  }
  /// Creates the table if absent.
  void AddTuple(const std::string& table, Tuple t) {
    tables_[table].push_back(std::move(t));
  }
  void ClearTable(const std::string& table) { tables_[table].clear(); }
  std::vector<Tuple>* MutableTable(const std::string& table) {
    return &tables_[table];
  }

  Result<Value> GetVar(const VarRef& var) const override;
  /// Ignores `bound`: every tuple of the table is shown.
  Status ScanTable(const std::string& table, const Expr& bound,
                   const std::function<void(const Tuple&)>& fn) const override;

  const std::map<VarRef, Value>& vars() const { return vars_; }
  const std::map<std::string, std::vector<Tuple>>& tables() const {
    return tables_;
  }

 private:
  std::map<VarRef, Value> vars_;
  std::map<std::string, std::vector<Tuple>> tables_;
};

/// Evaluates `e` under `ctx`. Boolean connectives short-circuit; type
/// mismatches and division by zero yield InvalidArgument; unbound variables
/// yield NotFound.
Result<Value> Eval(const Expr& e, const EvalContext& ctx);

/// Evaluates a boolean assertion; any error is surfaced as the status.
Result<bool> EvalBool(const Expr& e, const EvalContext& ctx);

/// Evaluates a tuple predicate against one tuple, with outer variables
/// resolved through `ctx`.
Result<bool> EvalTuplePred(const Expr& pred, const Tuple& tuple,
                           const EvalContext& ctx);

/// Evaluates a value-typed expression in the scope of one tuple (used for
/// UPDATE set-clauses like `num_hrs := .num_hrs + 1`).
Result<Value> EvalInTupleScope(const Expr& e, const Tuple& tuple,
                               const EvalContext& ctx);

}  // namespace semcor

#endif  // SEMCOR_SEM_EXPR_EVAL_H_
