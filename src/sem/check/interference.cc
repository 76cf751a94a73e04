#include "sem/check/interference.h"

#include "common/str_util.h"
#include "sem/check/wp.h"
#include "sem/expr/simplify.h"
#include "sem/expr/subst.h"
#include "sem/logic/memo.h"
#include "sem/prog/concrete_exec.h"

namespace semcor {

const char* InterferenceName(Interference v) {
  switch (v) {
    case Interference::kNoInterference:
      return "NO-INTERFERENCE";
    case Interference::kInterference:
      return "INTERFERES";
    case Interference::kUnknown:
      return "UNKNOWN";
  }
  return "?";
}

namespace {

/// One step of an execution path: either an atomic statement or an assumed
/// branch condition.
struct PathElem {
  StmtPtr stmt;  ///< set for atomic statements
  Expr assume;   ///< set for guards
};

struct Path {
  std::vector<PathElem> elems;
  bool aborted = false;
};

struct PathSet {
  std::vector<Path> paths;
  bool complete = true;
};

void AppendCross(const std::vector<Path>& prefixes,
                 const std::vector<Path>& suffixes, PathSet* out) {
  for (const Path& p : prefixes) {
    if (p.aborted) {
      out->paths.push_back(p);
      continue;
    }
    for (const Path& s : suffixes) {
      Path merged = p;
      merged.elems.insert(merged.elems.end(), s.elems.begin(), s.elems.end());
      merged.aborted = s.aborted;
      out->paths.push_back(merged);
    }
  }
}

std::vector<Path> PathsOfBody(const StmtList& body, int unroll, int max_paths,
                              bool* complete);

std::vector<Path> PathsOfStmt(const StmtPtr& stmt, int unroll, int max_paths,
                              bool* complete) {
  switch (stmt->kind) {
    case StmtKind::kIf: {
      std::vector<Path> out;
      for (const bool branch : {true, false}) {
        Path guard;
        guard.elems.push_back(
            {nullptr, branch ? stmt->expr : Not(stmt->expr)});
        std::vector<Path> inner = PathsOfBody(
            branch ? stmt->then_body : stmt->else_body, unroll, max_paths,
            complete);
        PathSet merged;
        AppendCross({guard}, inner, &merged);
        out.insert(out.end(), merged.paths.begin(), merged.paths.end());
      }
      return out;
    }
    case StmtKind::kWhile: {
      // Bounded unrolling; completeness is lost whenever a loop appears.
      *complete = false;
      std::vector<Path> out;
      std::vector<Path> prefixes = {{}};
      for (int iters = 0; iters <= unroll; ++iters) {
        // Exit now: assume !guard.
        PathSet exits;
        Path neg;
        neg.elems.push_back({nullptr, Not(stmt->expr)});
        AppendCross(prefixes, {neg}, &exits);
        out.insert(out.end(), exits.paths.begin(), exits.paths.end());
        if (iters == unroll) break;
        // One more iteration: assume guard, run body.
        Path pos;
        pos.elems.push_back({nullptr, stmt->expr});
        std::vector<Path> body =
            PathsOfBody(stmt->then_body, unroll, max_paths, complete);
        PathSet extended;
        AppendCross(prefixes, {pos}, &extended);
        PathSet extended2;
        AppendCross(extended.paths, body, &extended2);
        prefixes = std::move(extended2.paths);
        if (static_cast<int>(prefixes.size()) > max_paths) {
          *complete = false;
          prefixes.resize(max_paths);
        }
      }
      return out;
    }
    case StmtKind::kAbort: {
      Path p;
      p.aborted = true;
      return {p};
    }
    default: {
      Path p;
      p.elems.push_back({stmt, nullptr});
      return {p};
    }
  }
}

std::vector<Path> PathsOfBody(const StmtList& body, int unroll, int max_paths,
                              bool* complete) {
  std::vector<Path> acc = {{}};
  for (const StmtPtr& s : body) {
    std::vector<Path> variants = PathsOfStmt(s, unroll, max_paths, complete);
    PathSet merged;
    AppendCross(acc, variants, &merged);
    acc = std::move(merged.paths);
    if (static_cast<int>(acc.size()) > max_paths) {
      *complete = false;
      acc.resize(max_paths);
    }
  }
  return acc;
}

/// Conjunction of the program precondition and logical-binding equalities,
/// which hold at transaction start.
Expr StartCondition(const TxnProgram& txn) {
  std::vector<Expr> parts = {txn.Precondition()};
  for (const auto& [logical, item] : txn.logical_bindings) {
    parts.push_back(Eq(Logical(logical), DbVar(item)));
  }
  return Simplify(And(std::move(parts)));
}

/// Binds any unbound local that `stmt` reads to a default so that concrete
/// execution is well-defined (the value is unconstrained by the formula, so
/// any concrete choice yields a genuine state).
void BindMissingLocals(const Stmt& stmt, MapEvalContext* ctx) {
  FreeVars fv;
  auto merge = [&](const Expr& e) {
    if (!e) return;
    FreeVars f = CollectFreeVars(e);
    fv.locals.insert(f.locals.begin(), f.locals.end());
  };
  merge(stmt.expr);
  merge(stmt.pred);
  for (const auto& [a, e] : stmt.sets) merge(e);
  for (const auto& [a, e] : stmt.values) merge(e);
  for (const std::string& name : fv.locals) {
    if (!ctx->GetVar({VarKind::kLocal, name}).ok()) {
      ctx->SetLocal(name, Value::Int(0));
    }
  }
}

}  // namespace

TxnProgram PrepareForAnalysis(const TxnProgram& program,
                              const std::string& prefix) {
  TxnProgram renamed = RenameLocals(program, prefix);
  // Substitute concrete parameter values for the corresponding locals in
  // every expression, so that analysis and concrete replay agree on them.
  std::map<VarRef, Expr> subst;
  for (const auto& [name, value] : renamed.params) {
    subst.emplace(VarRef{VarKind::kLocal, name}, LitV(value));
  }
  auto substitute_expr = [&](const Expr& e) {
    return e ? SubstituteAll(e, subst) : e;
  };
  std::function<StmtPtr(const StmtPtr&)> rewrite =
      [&](const StmtPtr& s) -> StmtPtr {
    auto n = std::make_shared<Stmt>(*s);
    n->pre = substitute_expr(n->pre);
    n->expr = substitute_expr(n->expr);
    n->pred = substitute_expr(n->pred);
    for (auto& [a, e] : n->sets) e = substitute_expr(e);
    for (auto& [a, e] : n->values) e = substitute_expr(e);
    StmtList then_body, else_body;
    for (const StmtPtr& k : s->then_body) then_body.push_back(rewrite(k));
    for (const StmtPtr& k : s->else_body) else_body.push_back(rewrite(k));
    n->then_body = std::move(then_body);
    n->else_body = std::move(else_body);
    return n;
  };
  TxnProgram out = renamed;
  out.i_part = substitute_expr(renamed.i_part);
  out.b_part = substitute_expr(renamed.b_part);
  out.result = substitute_expr(renamed.result);
  out.body.clear();
  for (const StmtPtr& s : renamed.body) out.body.push_back(rewrite(s));
  return out;
}

InterferenceResult InterferenceChecker::SymbolicStmt(const Expr& p,
                                                     const Stmt& stmt) const {
  FreshNames fresh;
  Result<WpResult> wp = Wp(stmt, p, &fresh);
  if (!wp.ok()) {
    return {Interference::kUnknown, wp.status().ToString()};
  }
  const Expr phi = And(p, stmt.pre ? stmt.pre : True());
  DecideResult d =
      DecideValidity(Simplify(Implies(phi, wp.value().formula)), options_.decide);
  if (d.verdict == Verdict::kValid) {
    return {Interference::kNoInterference, "wp-substitution proof"};
  }
  return {Interference::kUnknown,
          StrCat("symbolic check ", VerdictName(d.verdict), ": ", d.detail)};
}

MapEvalContext InterferenceChecker::StateFromInts(
    const std::map<VarRef, int64_t>& ints) const {
  MapEvalContext ctx;
  for (const auto& [var, value] : ints) {
    // Skip abstraction pseudo-variables introduced by the logic layer.
    if (StartsWith(var.name, "$") || StartsWith(var.name, "%") ||
        StartsWith(var.name, "@")) {
      continue;
    }
    ctx.Set(var, Value::Int(value));
  }
  for (const auto& [table, shape] : shapes_) ctx.MutableTable(table);
  return ctx;
}

InterferenceResult InterferenceChecker::RefuteStmt(const Expr& p,
                                                   const Stmt& stmt) const {
  const Expr phi = Simplify(And(p, stmt.pre ? stmt.pre : True()));
  // Candidate states: (a) a symbolic counterexample of the wp implication,
  // (b) models of phi ∧ ¬wp (pre-states that lead straight to a violation),
  // (c) plain models of phi. All are confirmed by executing the statement.
  std::vector<MapEvalContext> candidates;
  FreshNames fresh;
  Result<WpResult> wp = Wp(stmt, p, &fresh);
  if (wp.ok()) {
    DecideResult d = DecideValidity(
        Simplify(Implies(phi, wp.value().formula)), options_.decide);
    if (d.verdict == Verdict::kInvalid && d.counterexample) {
      candidates.push_back(StateFromInts(d.counterexample->ints));
    }
  }
  for (int round = 0; round < options_.refute_rounds; ++round) {
    FalsifierOptions fo = options_.falsifier;
    fo.seed += static_cast<uint64_t>(round) * 7919;
    if (wp.ok()) {
      std::optional<MapEvalContext> model =
          FindModel(Simplify(And(phi, Not(wp.value().formula))), shapes_, fo,
                    options_.decide.memo.get());
      if (model) candidates.push_back(*model);
    }
    std::optional<MapEvalContext> model =
        FindModel(phi, shapes_, fo, options_.decide.memo.get());
    if (model) candidates.push_back(*model);
  }
  for (MapEvalContext& ctx : candidates) {
    // Only genuine pre-states count: phi must hold before the statement.
    Result<bool> before = EvalBool(phi, ctx);
    if (!before.ok() || !before.value()) continue;
    BindMissingLocals(stmt, &ctx);
    std::map<std::string, std::vector<Tuple>> buffers;
    if (!ExecuteStmt(stmt, &ctx, &buffers).ok()) continue;
    Result<bool> holds = EvalBool(p, ctx);
    if (holds.ok() && !holds.value()) {
      return {Interference::kInterference,
              StrCat("concrete invalidation of ", ToString(p), " by ",
                     stmt.ToString())};
    }
  }
  return {Interference::kUnknown, "no proof; no concrete counterexample"};
}

InterferenceResult InterferenceChecker::ProveStmtSafe(const Expr& p,
                                                      const Stmt& stmt) const {
  // Frame rule: a statement whose write footprint is disjoint from the
  // assertion's footprint cannot invalidate it.
  FreeVars fv = CollectFreeVars(p);
  switch (stmt.kind) {
    case StmtKind::kWrite:
      if (!fv.MentionsDbItem(stmt.item)) {
        return {Interference::kNoInterference, "frame: item not mentioned"};
      }
      break;
    case StmtKind::kUpdate:
    case StmtKind::kInsert:
    case StmtKind::kDelete:
      if (!fv.MentionsTable(stmt.table)) {
        return {Interference::kNoInterference, "frame: table not mentioned"};
      }
      break;
    default:
      return {Interference::kNoInterference, "not a database write"};
  }
  return SymbolicStmt(p, stmt);
}

InterferenceResult InterferenceChecker::CheckStmt(const Expr& p,
                                                  const Stmt& stmt) const {
  InterferenceResult proved = ProveStmtSafe(p, stmt);
  if (proved.verdict == Interference::kNoInterference) return proved;
  if (options_.use_refutation) {
    InterferenceResult refuted = RefuteStmt(p, stmt);
    if (refuted.verdict == Interference::kInterference) return refuted;
    return {Interference::kUnknown,
            StrCat(proved.detail, "; ", refuted.detail)};
  }
  return {Interference::kUnknown, proved.detail};
}

InterferenceResult InterferenceChecker::RefuteTxn(
    const Expr& p, const TxnProgram& txn,
    const std::vector<std::map<VarRef, int64_t>>& candidates,
    const std::vector<Expr>& failing_path_formulas) const {
  const Expr phi = Simplify(And(p, txn.Precondition()));
  std::vector<MapEvalContext> states;
  for (const auto& ints : candidates) states.push_back(StateFromInts(ints));
  for (int round = 0; round < options_.refute_rounds; ++round) {
    FalsifierOptions fo = options_.falsifier;
    fo.seed += static_cast<uint64_t>(round) * 104729;
    // Pre-states that symbolically lead to a violation along some path.
    for (size_t i = 0; i < failing_path_formulas.size() && i < 3; ++i) {
      std::optional<MapEvalContext> model =
          FindModel(Simplify(And(phi, Not(failing_path_formulas[i]))), shapes_,
                    fo, options_.decide.memo.get());
      if (model) states.push_back(*model);
    }
    std::optional<MapEvalContext> model =
        FindModel(phi, shapes_, fo, options_.decide.memo.get());
    if (model) states.push_back(*model);
  }
  for (MapEvalContext& ctx : states) {
    Result<bool> before = EvalBool(phi, ctx);
    if (!before.ok() || !before.value()) continue;
    MapEvalContext after = ctx;
    if (!ExecuteProgram(txn, &after).ok()) continue;
    Result<bool> holds = EvalBool(p, after);
    if (holds.ok() && !holds.value()) {
      return {Interference::kInterference,
              StrCat("concrete invalidation of ", ToString(p), " by ",
                     txn.instance_label)};
    }
  }
  return {Interference::kUnknown, "no proof; no concrete counterexample"};
}

InterferenceResult InterferenceChecker::CheckTxn(const Expr& p,
                                                 const TxnProgram& txn) const {
  // Frame rule on the whole transaction's write footprint.
  FreeVars fv = CollectFreeVars(p);
  WriteFootprint fp = CollectWriteFootprint(txn);
  bool touches = false;
  for (const std::string& item : fp.items) {
    touches = touches || fv.MentionsDbItem(item);
  }
  for (const std::string& table : fp.tables) {
    touches = touches || fv.MentionsTable(table);
  }
  if (!touches) {
    return {Interference::kNoInterference, "frame: disjoint footprints"};
  }

  // Path-wise wp proof (precise; complete only without loops).
  bool complete = true;
  std::vector<Path> paths =
      options_.use_pathwise
          ? PathsOfBody(txn.body, options_.loop_unroll, options_.max_paths,
                        &complete)
          : std::vector<Path>{};
  if (!options_.use_pathwise) complete = false;
  const Expr phi = Simplify(And(p, StartCondition(txn)));
  bool all_paths_valid = options_.use_pathwise;
  std::vector<std::map<VarRef, int64_t>> candidates;
  std::vector<Expr> failing_path_formulas;
  for (const Path& path : paths) {
    if (path.aborted) continue;  // rolled back: no effect as an atomic unit
    FreshNames fresh;
    Expr f = p;
    bool wp_failed = false;
    for (auto it = path.elems.rbegin(); it != path.elems.rend(); ++it) {
      if (it->assume) {
        f = Implies(it->assume, f);
        continue;
      }
      Result<WpResult> wp = Wp(*it->stmt, f, &fresh);
      if (!wp.ok()) {
        wp_failed = true;
        break;
      }
      f = wp.value().formula;
    }
    if (wp_failed) {
      all_paths_valid = false;
      continue;
    }
    DecideResult d =
        DecideValidity(Simplify(Implies(phi, f)), options_.decide);
    if (d.verdict != Verdict::kValid) {
      all_paths_valid = false;
      failing_path_formulas.push_back(f);
      if (d.counterexample) candidates.push_back(d.counterexample->ints);
    }
  }
  if (all_paths_valid && complete) {
    return {Interference::kNoInterference, "path-wise wp proof"};
  }

  // Step-wise fallback: if every individual db write of the transaction
  // preserves P (from any state satisfying its annotation), then so does any
  // composition of them.
  bool all_writes_safe = options_.use_stepwise;
  if (options_.use_stepwise) {
    for (const StmtPtr& w : CollectDbWrites(txn)) {
      if (ProveStmtSafe(p, *w).verdict != Interference::kNoInterference) {
        all_writes_safe = false;
        break;
      }
    }
  }
  if (all_writes_safe) {
    return {Interference::kNoInterference, "step-wise preservation proof"};
  }

  if (options_.use_refutation) {
    InterferenceResult refuted =
        RefuteTxn(p, txn, candidates, failing_path_formulas);
    if (refuted.verdict == Interference::kInterference) return refuted;
  }
  return {Interference::kUnknown, "no proof; no concrete counterexample"};
}

}  // namespace semcor
