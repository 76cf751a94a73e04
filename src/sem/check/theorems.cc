#include "sem/check/theorems.h"

#include <algorithm>
#include <iterator>

#include "common/str_util.h"
#include "sem/check/wp.h"
#include "sem/expr/hash.h"
#include "sem/expr/simplify.h"
#include "sem/expr/subst.h"

namespace semcor {

const char* TheoremName(IsoLevel level) {
  switch (level) {
    case IsoLevel::kReadUncommitted:
      return "Theorem 1 (per-write interference, incl. rollback undo)";
    case IsoLevel::kReadCommitted:
      return "Theorem 2 (whole transactions vs read posts and Q_i)";
    case IsoLevel::kReadCommittedFcw:
      return "Theorem 3 (unprotected read posts and Q_i)";
    case IsoLevel::kRepeatableRead:
      return "Theorems 4/6 (conventional: free; relational: SELECT posts "
             "with predicate-intersection excuse)";
    case IsoLevel::kSerializable:
      return "serializability (no obligations)";
    case IsoLevel::kSnapshot:
      return "Theorem 5 (pairwise: write-set intersection or read-step "
             "post + Q_i)";
    case IsoLevel::kSsi:
      return "serializable snapshot isolation (dangerous-structure aborts; "
             "no obligations)";
  }
  return "?";
}

const char* TheoremTag(IsoLevel level) {
  switch (level) {
    case IsoLevel::kReadUncommitted:
      return "Thm 1";
    case IsoLevel::kReadCommitted:
      return "Thm 2";
    case IsoLevel::kReadCommittedFcw:
      return "Thm 3";
    case IsoLevel::kRepeatableRead:
      return "Thm 4/6";
    case IsoLevel::kSerializable:
      return "ser";
    case IsoLevel::kSnapshot:
      return "Thm 5";
    case IsoLevel::kSsi:
      return "ssi";
  }
  return "?";
}

const Obligation* LevelCheckReport::FirstFailure() const {
  for (const Obligation& o : obligations) {
    if (!o.Passed()) return &o;
  }
  return nullptr;
}

Expr ReadStepPostcondition(const TxnProgram& txn) {
  Expr found;
  std::function<bool(const StmtList&)> scan = [&](const StmtList& body) {
    for (const StmtPtr& s : body) {
      if (IsDbWrite(*s)) {
        found = s->pre;
        return true;
      }
      if (scan(s->then_body) || scan(s->else_body)) return true;
    }
    return false;
  };
  scan(txn.body);
  return found ? found : txn.Postcondition();
}

std::vector<StmtPtr> SynthesizeUndoWrites(const TxnProgram& txn,
                                          const Expr& invariant,
                                          const SchemaShapes& shapes) {
  std::vector<StmtPtr> undos;
  int counter = 0;
  VisitStmts(txn.body, [&](const StmtPtr& s) {
    if (!IsDbWrite(*s)) return;
    const std::string fresh_base = StrCat("%undo", counter++, "_");
    switch (s->kind) {
      case StmtKind::kWrite: {
        // Restore an unknown prior value; the prior value is known to have
        // satisfied the conjuncts of the write's annotation that mention
        // only this item and rigid (logical) variables.
        auto undo = std::make_shared<Stmt>();
        undo->kind = StmtKind::kWrite;
        undo->item = s->item;
        const std::string restored = fresh_base + "v";
        undo->expr = Local(restored);
        std::vector<Expr> constraints;
        for (const Expr& c : Conjuncts(s->pre ? s->pre : True())) {
          FreeVars fv = CollectFreeVars(c);
          const bool only_this_item =
              fv.tables.empty() && fv.locals.empty() &&
              fv.db.size() == 1 && fv.MentionsDbItem(s->item);
          if (only_this_item) {
            constraints.push_back(
                Substitute(c, {VarKind::kDb, s->item}, Local(restored)));
          }
        }
        undo->pre = Simplify(And(std::move(constraints)));
        undo->label = StrCat("undo of ", s->ToString());
        undos.push_back(undo);
        break;
      }
      case StmtKind::kInsert: {
        // Roll back an insert by deleting the inserted tuple.
        auto undo = std::make_shared<Stmt>();
        undo->kind = StmtKind::kDelete;
        undo->table = s->table;
        std::vector<Expr> eqs;
        for (const auto& [attr, value] : s->values) {
          eqs.push_back(Eq(Attr(attr), value));
        }
        undo->pred = And(std::move(eqs));
        undo->pre = True();
        undo->label = StrCat("undo of ", s->ToString());
        undos.push_back(undo);
        break;
      }
      case StmtKind::kDelete: {
        // Roll back a delete by re-inserting an unknown tuple that satisfied
        // the per-tuple invariant conjuncts of this table.
        auto undo = std::make_shared<Stmt>();
        undo->kind = StmtKind::kInsert;
        undo->table = s->table;
        auto it = shapes.find(s->table);
        std::map<std::string, Expr> attr_locals;
        if (it != shapes.end()) {
          for (const auto& [attr, type] : it->second.attrs) {
            undo->values[attr] = Local(fresh_base + attr);
            attr_locals[attr] = Local(fresh_base + attr);
          }
        }
        std::vector<Expr> constraints;
        for (const Expr& c : Conjuncts(invariant ? invariant : True())) {
          if (c->op == Op::kForall && c->table == s->table) {
            constraints.push_back(
                Implies(SubstituteAttrs(c->kids[0], attr_locals),
                        SubstituteAttrs(c->kids[1], attr_locals)));
          }
        }
        undo->pre = Simplify(And(std::move(constraints)));
        undo->label = StrCat("undo of ", s->ToString());
        undos.push_back(undo);
        break;
      }
      case StmtKind::kUpdate: {
        // Roll back an update by rewriting the touched attributes of the
        // same rows to unknown prior values.
        auto undo = std::make_shared<Stmt>();
        undo->kind = StmtKind::kUpdate;
        undo->table = s->table;
        undo->pred = s->pred;
        for (const auto& [attr, e] : s->sets) {
          undo->sets[attr] = Local(fresh_base + attr);
        }
        undo->pre = True();
        undo->label = StrCat("undo of ", s->ToString());
        undos.push_back(undo);
        break;
      }
      default:
        break;
    }
  });
  return undos;
}

namespace {

/// Whether the program is "conventional" in the paper's sense: no relational
/// statements and no table atoms in any assertion (Theorem 4 applies).
bool IsConventional(const TxnProgram& txn) {
  bool conventional = true;
  VisitStmts(txn.body, [&](const StmtPtr& s) {
    switch (s->kind) {
      case StmtKind::kSelectAgg:
        if (!CollectTableAtoms(s->expr).empty()) conventional = false;
        break;
      case StmtKind::kSelectRows:
      case StmtKind::kUpdate:
      case StmtKind::kInsert:
      case StmtKind::kDelete:
        conventional = false;
        break;
      default:
        break;
    }
    if (s->pre && !CollectFreeVars(s->pre).tables.empty()) {
      conventional = false;
    }
  });
  if (!CollectFreeVars(txn.Precondition()).tables.empty()) conventional = false;
  if (!CollectFreeVars(txn.Postcondition()).tables.empty()) {
    conventional = false;
  }
  return conventional;
}

/// The (table, predicate) pairs a SELECT statement reads.
std::vector<std::pair<std::string, Expr>> SelectPredicates(const Stmt& s) {
  std::vector<std::pair<std::string, Expr>> out;
  if (s.kind == StmtKind::kSelectRows) {
    out.emplace_back(s.table, s.pred);
  } else if (s.kind == StmtKind::kSelectAgg) {
    for (const Expr& atom : CollectTableAtoms(s.expr)) {
      out.emplace_back(atom->table, atom->kids[0]);
    }
  }
  return out;
}

}  // namespace

TheoremEngine::TheoremEngine(const Application& app, CheckOptions options)
    : app_(app), checker_(app.shapes, std::move(options)) {
  for (const TransactionType& type : app_.types) {
    type_order_.push_back(type.name);
    types_[type.name] = PrepareType(type);
  }
}

TheoremEngine::TypeEntry TheoremEngine::PrepareType(
    const TransactionType& type) const {
  TypeEntry entry;
  entry.fingerprint = HashCombine(0x74797065ULL, HashString(type.name));
  int scenario_index = 0;
  for (const auto& scenario : type.analysis_scenarios) {
    PreparedInstance inst;
    inst.program = PrepareForAnalysis(type.make(scenario), "o::");
    inst.label = StrCat(inst.program.instance_label, "#s", scenario_index++);
    inst.writes = CollectDbWrites(inst.program);
    std::vector<StmtPtr> undos =
        SynthesizeUndoWrites(inst.program, app_.invariant, app_.shapes);
    inst.writes.insert(inst.writes.end(), undos.begin(), undos.end());
    entry.fingerprint =
        HashCombine(entry.fingerprint, HashProgram(inst.program));
    entry.others.push_back(std::move(inst));
  }
  return entry;
}

void TheoremEngine::RegisterType(const TransactionType& type) {
  const bool replacing = types_.count(type.name) > 0;
  types_[type.name] = PrepareType(type);
  {
    std::lock_guard<std::mutex> lock(target_mu_);
    target_cache_.erase(type.name);
  }
  bool found = false;
  for (TransactionType& existing : app_.types) {
    if (existing.name == type.name) {
      existing = type;
      found = true;
      break;
    }
  }
  if (!found) app_.types.push_back(type);
  if (!replacing) type_order_.push_back(type.name);
}

bool TheoremEngine::RemoveType(const std::string& name) {
  if (types_.erase(name) == 0) return false;
  {
    std::lock_guard<std::mutex> lock(target_mu_);
    target_cache_.erase(name);
  }
  type_order_.erase(
      std::remove(type_order_.begin(), type_order_.end(), name),
      type_order_.end());
  app_.types.erase(
      std::remove_if(app_.types.begin(), app_.types.end(),
                     [&](const TransactionType& t) { return t.name == name; }),
      app_.types.end());
  return true;
}

uint64_t TheoremEngine::TypeFingerprint(const std::string& name) const {
  auto it = types_.find(name);
  return it == types_.end() ? 0 : it->second.fingerprint;
}

std::vector<const TheoremEngine::PreparedInstance*> TheoremEngine::AllOthers()
    const {
  std::vector<const PreparedInstance*> out;
  for (const std::string& name : type_order_) {
    for (const PreparedInstance& inst : types_.at(name).others) {
      out.push_back(&inst);
    }
  }
  return out;
}

std::vector<const TheoremEngine::PreparedInstance*> TheoremEngine::OthersOf(
    const std::string& type_name) const {
  std::vector<const PreparedInstance*> out;
  auto it = types_.find(type_name);
  if (it != types_.end()) {
    for (const PreparedInstance& inst : it->second.others) {
      out.push_back(&inst);
    }
  }
  return out;
}

const std::vector<TxnProgram>& TheoremEngine::TargetInstances(
    const std::string& type_name) {
  std::lock_guard<std::mutex> lock(target_mu_);
  auto it = target_cache_.find(type_name);
  if (it != target_cache_.end()) return it->second;
  std::vector<TxnProgram> out;
  for (const TransactionType& type : app_.types) {
    if (type.name != type_name) continue;
    for (const auto& scenario : type.analysis_scenarios) {
      out.push_back(PrepareForAnalysis(type.make(scenario), ""));
    }
  }
  return target_cache_.emplace(type_name, std::move(out)).first->second;
}

namespace {

const LevelCheckReport& Deref(const LevelCheckReport& r) { return r; }
const LevelCheckReport& Deref(
    const std::shared_ptr<const LevelCheckReport>& r) {
  return *r;
}

/// Merge's header and verdict, with the obligation list sized once for the
/// concatenation that follows.
template <typename Part>
LevelCheckReport MergeSkeleton(const std::vector<Part>& parts,
                               const std::string& type_name, IsoLevel level) {
  LevelCheckReport merged;
  merged.txn_type = type_name;
  merged.level = level;
  merged.correct = !parts.empty();
  size_t obligations = 0;
  for (const Part& part : parts) {
    merged.correct = merged.correct && Deref(part).correct;
    merged.triples_checked += Deref(part).triples_checked;
    obligations += Deref(part).obligations.size();
  }
  merged.obligations.reserve(obligations);
  return merged;
}

}  // namespace

LevelCheckReport TheoremEngine::Merge(std::vector<LevelCheckReport> parts,
                                      const std::string& type_name,
                                      IsoLevel level) {
  LevelCheckReport merged = MergeSkeleton(parts, type_name, level);
  for (LevelCheckReport& part : parts) {
    merged.obligations.insert(merged.obligations.end(),
                              std::make_move_iterator(part.obligations.begin()),
                              std::make_move_iterator(part.obligations.end()));
  }
  return merged;
}

LevelCheckReport TheoremEngine::Merge(
    const std::vector<std::shared_ptr<const LevelCheckReport>>& parts,
    const std::string& type_name, IsoLevel level) {
  LevelCheckReport merged = MergeSkeleton(parts, type_name, level);
  for (const auto& part : parts) {
    merged.obligations.insert(merged.obligations.end(),
                              part->obligations.begin(),
                              part->obligations.end());
  }
  return merged;
}

LevelCheckReport TheoremEngine::CheckInstance(
    const TxnProgram& ti, IsoLevel level,
    const std::vector<const PreparedInstance*>& others) {
  switch (level) {
    case IsoLevel::kReadUncommitted:
      return CheckReadUncommitted(ti, others);
    case IsoLevel::kReadCommitted:
      return CheckReadCommitted(ti, /*fcw=*/false, others);
    case IsoLevel::kReadCommittedFcw:
      return CheckReadCommitted(ti, /*fcw=*/true, others);
    case IsoLevel::kRepeatableRead:
      return CheckRepeatableRead(ti, others);
    case IsoLevel::kSerializable: {
      // Strict two-phase locking with predicate locks is serializable;
      // serializability implies semantic correctness. No obligations.
      LevelCheckReport r;
      r.txn_type = ti.type_name;
      r.level = level;
      r.correct = true;
      return r;
    }
    case IsoLevel::kSnapshot:
      return CheckSnapshot(ti, others);
    case IsoLevel::kSsi: {
      // SSI aborts one member of every dangerous structure, so only
      // serializable executions commit; like SERIALIZABLE, semantic
      // correctness follows with no per-pair obligations.
      LevelCheckReport r;
      r.txn_type = ti.type_name;
      r.level = level;
      r.correct = true;
      return r;
    }
  }
  LevelCheckReport r;
  r.txn_type = ti.type_name;
  r.level = level;
  return r;
}

LevelCheckReport TheoremEngine::CheckAtLevel(const std::string& type_name,
                                             IsoLevel level) {
  const std::vector<const PreparedInstance*> others = AllOthers();
  std::vector<LevelCheckReport> parts;
  for (const TxnProgram& ti : TargetInstances(type_name)) {
    parts.push_back(CheckInstance(ti, level, others));
  }
  return Merge(std::move(parts), type_name, level);
}

LevelCheckReport TheoremEngine::CheckPairAtLevel(const std::string& type_name,
                                                 IsoLevel level,
                                                 const std::string& other_type) {
  const std::vector<const PreparedInstance*> others = OthersOf(other_type);
  std::vector<LevelCheckReport> parts;
  for (const TxnProgram& ti : TargetInstances(type_name)) {
    parts.push_back(CheckInstance(ti, level, others));
  }
  return Merge(std::move(parts), type_name, level);
}

LevelCheckReport TheoremEngine::CheckReadUncommitted(
    const TxnProgram& ti,
    const std::vector<const PreparedInstance*>& others) {
  LevelCheckReport report;
  report.txn_type = ti.type_name;
  report.level = IsoLevel::kReadUncommitted;
  report.correct = true;

  // Theorem 1 targets: I_i, the postcondition of every read statement, Q_i.
  std::vector<std::pair<std::string, Expr>> targets;
  targets.emplace_back("I_i", Simplify(ti.i_part ? ti.i_part : True()));
  for (const ReadWithPost& r : CollectReadPostconditions(ti)) {
    targets.emplace_back(StrCat("post(", r.stmt->ToString(), ")"),
                         Simplify(r.post));
  }
  targets.emplace_back("I_i && Q_i", ti.Postcondition());

  for (const auto& [name, p] : targets) {
    if (IsLocalOnly(p)) continue;  // workspace-only assertions are immune
    for (const PreparedInstance* other : others) {
      for (const StmtPtr& w : other->writes) {
        Obligation o;
        o.assertion = name;
        o.source = StrCat(other->label, ": ",
                          w->label.empty() ? w->ToString() : w->label);
        o.result = checker_.CheckStmt(p, *w);
        ++report.triples_checked;
        report.correct = report.correct && o.Passed();
        const bool failed = !o.Passed();
        report.obligations.push_back(std::move(o));
        if (failed) return report;
      }
    }
  }
  return report;
}

LevelCheckReport TheoremEngine::CheckReadCommitted(
    const TxnProgram& ti, bool fcw,
    const std::vector<const PreparedInstance*>& others) {
  LevelCheckReport report;
  report.txn_type = ti.type_name;
  report.level =
      fcw ? IsoLevel::kReadCommittedFcw : IsoLevel::kReadCommitted;
  report.correct = true;

  // Theorems 2 & 3 targets: read postconditions (Thm 3 exempts reads that
  // are followed by a write of the same item) and Q_i; the interfering unit
  // is a whole transaction.
  std::vector<std::pair<std::string, Expr>> targets;
  for (const ReadWithPost& r : CollectReadPostconditions(ti)) {
    if (fcw && r.followed_by_write_same_item) continue;
    targets.emplace_back(StrCat("post(", r.stmt->ToString(), ")"),
                         Simplify(r.post));
  }
  targets.emplace_back("I_i && Q_i", ti.Postcondition());

  for (const auto& [name, p] : targets) {
    if (IsLocalOnly(p)) continue;
    for (const PreparedInstance* other : others) {
      Obligation o;
      o.assertion = name;
      o.source = other->label;
      o.result = checker_.CheckTxn(p, other->program);
      ++report.triples_checked;
      report.correct = report.correct && o.Passed();
      const bool failed = !o.Passed();
      report.obligations.push_back(std::move(o));
      if (failed) return report;
    }
  }
  return report;
}

LevelCheckReport TheoremEngine::CheckRepeatableRead(
    const TxnProgram& ti,
    const std::vector<const PreparedInstance*>& others) {
  LevelCheckReport report;
  report.txn_type = ti.type_name;
  report.level = IsoLevel::kRepeatableRead;
  report.correct = true;

  // Theorem 4: in the conventional model REPEATABLE READ is serializable.
  if (IsConventional(ti)) return report;

  // Theorem 6: Q_i must not be interfered with, and for each SELECT either
  // its postcondition is not interfered with, or the interfering statements
  // are UPDATE/DELETEs whose predicates intersect the SELECT predicate (the
  // long-term tuple read locks block them).
  const Expr qi = ti.Postcondition();
  if (!IsLocalOnly(qi)) {
    for (const PreparedInstance* other : others) {
      Obligation o;
      o.assertion = "I_i && Q_i";
      o.source = other->label;
      o.result = checker_.CheckTxn(qi, other->program);
      ++report.triples_checked;
      report.correct = report.correct && o.Passed();
      const bool failed = !o.Passed();
      report.obligations.push_back(std::move(o));
      if (failed) return report;
    }
  }

  for (const ReadWithPost& r : CollectReadPostconditions(ti)) {
    if (r.stmt->kind == StmtKind::kRead) continue;  // long item lock protects
    const Expr post = Simplify(r.post);
    if (IsLocalOnly(post)) continue;
    const auto select_preds = SelectPredicates(*r.stmt);
    for (const PreparedInstance* other : others) {
      Obligation o;
      o.assertion = StrCat("post(", r.stmt->ToString(), ")");
      o.source = other->label;
      o.result = checker_.CheckTxn(post, other->program);
      ++report.triples_checked;
      if (o.result.verdict != Interference::kNoInterference) {
        // Condition (2): every interfering write must be a blocked
        // UPDATE/DELETE with an intersecting predicate.
        bool all_blocked = true;
        for (const StmtPtr& w : other->writes) {
          ++report.triples_checked;
          if (checker_.CheckStmt(post, *w).verdict ==
              Interference::kNoInterference) {
            continue;
          }
          bool blocked = false;
          if (w->kind == StmtKind::kUpdate || w->kind == StmtKind::kDelete) {
            for (const auto& [table, pred] : select_preds) {
              if (table == w->table && !ProvablyDisjoint(pred, w->pred)) {
                blocked = true;
                break;
              }
            }
          }
          if (!blocked) {
            all_blocked = false;
            break;
          }
        }
        if (all_blocked) {
          o.excused = true;
          o.excuse =
              "interfering statements are UPDATE/DELETEs with intersecting "
              "predicates (blocked by long-term read locks)";
        }
      }
      report.correct = report.correct && o.Passed();
      const bool failed = !o.Passed();
      report.obligations.push_back(std::move(o));
      if (failed) return report;
    }
  }
  return report;
}

LevelCheckReport TheoremEngine::CheckSnapshot(
    const TxnProgram& ti,
    const std::vector<const PreparedInstance*>& others) {
  LevelCheckReport report;
  report.txn_type = ti.type_name;
  report.level = IsoLevel::kSnapshot;
  report.correct = true;

  const WriteFootprint fp_i = CollectWriteFootprint(ti);
  const Expr read_post = Simplify(ReadStepPostcondition(ti));
  const Expr qi = ti.Postcondition();

  for (const PreparedInstance* other : others) {
    const WriteFootprint fp_j = CollectWriteFootprint(other->program);
    // Condition (1): intersecting write sets mean first-committer-wins
    // aborts one of the pair. Only definite (named-item) intersection counts.
    bool intersects = false;
    for (const std::string& item : fp_i.items) {
      intersects = intersects || fp_j.items.count(item) > 0;
    }
    if (intersects) {
      Obligation o;
      o.assertion = "pair condition";
      o.source = other->label;
      o.excused = true;
      o.excuse = "write sets intersect: first-committer-wins aborts one";
      o.result = {Interference::kUnknown, "not checked"};
      ++report.triples_checked;
      report.obligations.push_back(std::move(o));
      continue;
    }
    // Condition (2): T_j must not interfere with the read-step postcondition
    // nor with Q_i.
    for (const auto& [name, p] :
         std::vector<std::pair<std::string, Expr>>{
             {"read-step post", read_post}, {"I_i && Q_i", qi}}) {
      if (IsLocalOnly(p)) continue;
      Obligation o;
      o.assertion = name;
      o.source = other->label;
      o.result = checker_.CheckTxn(p, other->program);
      ++report.triples_checked;
      report.correct = report.correct && o.Passed();
      const bool failed = !o.Passed();
      report.obligations.push_back(std::move(o));
      if (failed) return report;
    }
  }
  return report;
}

}  // namespace semcor
