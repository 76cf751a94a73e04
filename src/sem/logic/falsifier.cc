#include "sem/logic/falsifier.h"

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "common/str_util.h"

namespace semcor {

namespace {

/// Walks comparison nodes; if one side is string/bool-typed (literal or
/// already-typed var/attr), propagates that type to variables on the other
/// side. One pass is enough for the paper's assertions (var-vs-literal and
/// var-vs-attr comparisons).
void InferFromComparisons(const Expr& e, const SchemaShapes* shapes,
                          std::map<VarRef, Value::Type>* types) {
  if (!e) return;
  auto type_of_side = [&](const Expr& side) -> std::optional<Value::Type> {
    if (side->op == Op::kConst) return side->const_val.type();
    return std::nullopt;
  };
  switch (e->op) {
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      const Expr& a = e->kids[0];
      const Expr& b = e->kids[1];
      std::optional<Value::Type> ta = type_of_side(a);
      std::optional<Value::Type> tb = type_of_side(b);
      if (a->op == Op::kVar && tb && *tb != Value::Type::kNull) {
        types->emplace(a->var, *tb);
      }
      if (b->op == Op::kVar && ta && *ta != Value::Type::kNull) {
        types->emplace(b->var, *ta);
      }
      break;
    }
    default:
      break;
  }
  for (const Expr& k : e->kids) InferFromComparisons(k, shapes, types);
}

/// Types variables compared against table attributes using the schema.
void InferFromAttrComparisons(const Expr& e, const std::string& table,
                              const SchemaShapes& shapes,
                              std::map<VarRef, Value::Type>* types) {
  if (!e) return;
  switch (e->op) {
    case Op::kCount:
    case Op::kSum:
    case Op::kMaxAgg:
    case Op::kExists:
    case Op::kForall:
      for (const Expr& k : e->kids) {
        InferFromAttrComparisons(k, e->table, shapes, types);
      }
      return;
    case Op::kEq:
    case Op::kNe:
    case Op::kLt:
    case Op::kLe:
    case Op::kGt:
    case Op::kGe: {
      if (!table.empty()) {
        const Expr& a = e->kids[0];
        const Expr& b = e->kids[1];
        auto attr_type = [&](const Expr& side) -> std::optional<Value::Type> {
          if (side->op != Op::kAttr) return std::nullopt;
          auto it = shapes.find(table);
          if (it == shapes.end()) return std::nullopt;
          for (const auto& [name, type] : it->second.attrs) {
            if (name == side->attr) return type;
          }
          return std::nullopt;
        };
        std::optional<Value::Type> ta = attr_type(a);
        std::optional<Value::Type> tb = attr_type(b);
        if (a->op == Op::kVar && tb) types->emplace(a->var, *tb);
        if (b->op == Op::kVar && ta) types->emplace(b->var, *ta);
      }
      break;
    }
    default:
      break;
  }
  for (const Expr& k : e->kids) {
    InferFromAttrComparisons(k, table, shapes, types);
  }
}

/// Variables used directly as boolean atoms (children of connectives,
/// guards, quantifier predicates) must be bool-typed.
void InferBoolPositions(const Expr& e, bool boolean_position,
                        std::map<VarRef, Value::Type>* types) {
  if (!e) return;
  if (e->op == Op::kVar && boolean_position) {
    types->emplace(e->var, Value::Type::kBool);
    return;
  }
  switch (e->op) {
    case Op::kNot:
    case Op::kAnd:
    case Op::kOr:
    case Op::kImplies:
      for (const Expr& k : e->kids) InferBoolPositions(k, true, types);
      return;
    case Op::kIte:
      InferBoolPositions(e->kids[0], true, types);
      InferBoolPositions(e->kids[1], boolean_position, types);
      InferBoolPositions(e->kids[2], boolean_position, types);
      return;
    case Op::kExists:
      InferBoolPositions(e->kids[0], true, types);
      return;
    case Op::kForall:
      InferBoolPositions(e->kids[0], true, types);
      InferBoolPositions(e->kids[1], true, types);
      return;
    case Op::kCount:
    case Op::kSum:
    case Op::kMaxAgg:
      InferBoolPositions(e->kids[0], true, types);
      return;
    default:
      for (const Expr& k : e->kids) InferBoolPositions(k, false, types);
      return;
  }
}

Value RandomValue(Value::Type type, Rng* rng, const FalsifierOptions& options) {
  switch (type) {
    case Value::Type::kInt:
      return Value::Int(rng->Uniform(options.value_min, options.value_max));
    case Value::Type::kBool:
      return Value::Bool(rng->Bernoulli(0.5));
    case Value::Type::kString: {
      const auto& pool = options.string_pool;
      if (pool.empty()) return Value::Str("s");
      return Value::Str(pool[rng->Uniform(0, pool.size() - 1)]);
    }
    default:
      return Value::Null();
  }
}

/// FindModel's one evaluation state per call: every free variable and
/// every scanned table is laid out once, and each attempt overwrites the
/// values in place. A table with a known shape is a pool of `max_rows`
/// tuples whose attribute keys never change, of which the first `live` rows
/// are visible to scans.
class ModelState : public EvalContext {
 public:
  struct Table {
    std::string name;
    const TableShape* shape = nullptr;  ///< null: unknown, always empty
    std::vector<Tuple> rows;            ///< the pool, max_rows tuples
    /// slots[r][a]: row r's value for shape->attrs[a] (a repeated attribute
    /// name shares one slot, as a map-built tuple keeps the last write).
    std::vector<std::vector<Value*>> slots;
    size_t live = 0;
  };

  ModelState(const std::vector<VarRef>& vars,
             const std::set<std::string>& table_names,
             const SchemaShapes& shapes, int max_rows) {
    for (const VarRef& v : vars) vars_.emplace_back(v, Value());
    tables_.reserve(table_names.size());
    for (const std::string& name : table_names) {
      Table& table = tables_.emplace_back();
      table.name = name;
      auto it = shapes.find(name);
      if (it == shapes.end()) continue;
      table.shape = &it->second;
      table.rows.resize(static_cast<size_t>(std::max(max_rows, 0)));
      for (Tuple& row : table.rows) {
        std::vector<Value*>& slots = table.slots.emplace_back();
        for (const auto& [attr, type] : table.shape->attrs) {
          slots.push_back(&row[attr]);
        }
      }
    }
  }
  // `slots` points into this object's own tuples.
  ModelState(const ModelState&) = delete;
  ModelState& operator=(const ModelState&) = delete;

  Value& var_value(size_t i) { return vars_[i].second; }
  std::vector<Table>& tables() { return tables_; }

  Result<Value> GetVar(const VarRef& var) const override {
    for (const auto& [ref, value] : vars_) {
      if (ref == var) return value;
    }
    return Status::NotFound(StrCat("unbound variable ", var.ToString()));
  }

  Status ScanTable(const std::string& name, const Expr&,
                   const std::function<void(const Tuple&)>& fn) const override {
    for (const Table& table : tables_) {
      if (table.name != name) continue;
      for (size_t r = 0; r < table.live; ++r) fn(table.rows[r]);
      return Status::Ok();
    }
    return Status::NotFound(StrCat("no table ", name));
  }

  /// The current state as a standalone context (only for a returned model).
  MapEvalContext ToMapContext() const {
    MapEvalContext ctx;
    for (const auto& [ref, value] : vars_) ctx.Set(ref, value);
    for (const Table& table : tables_) {
      ctx.MutableTable(table.name);
      for (size_t r = 0; r < table.live; ++r) {
        ctx.AddTuple(table.name, table.rows[r]);
      }
    }
    return ctx;
  }

 private:
  std::vector<std::pair<VarRef, Value>> vars_;
  std::vector<Table> tables_;
};

}  // namespace

std::map<VarRef, Value::Type> InferVarTypes(const Expr& e) {
  std::map<VarRef, Value::Type> types;
  InferFromComparisons(e, nullptr, &types);
  return types;
}

std::map<VarRef, Value::Type> ModelVarTypes(const Expr& constraint,
                                            const SchemaShapes& shapes,
                                            const FalsifierOptions& options) {
  std::map<VarRef, Value::Type> types = options.var_types;
  std::map<VarRef, Value::Type> inferred;
  InferFromComparisons(constraint, &shapes, &inferred);
  InferFromAttrComparisons(constraint, "", shapes, &inferred);
  InferBoolPositions(constraint, true, &inferred);
  for (const auto& [v, t] : inferred) types.emplace(v, t);
  return types;
}

std::optional<MapEvalContext> FindModel(const Expr& constraint,
                                        const SchemaShapes& shapes,
                                        const FalsifierOptions& options) {
  FreeVars fv = CollectFreeVars(constraint);
  const std::map<VarRef, Value::Type> types =
      ModelVarTypes(constraint, shapes, options);
  auto type_of = [&](const VarRef& v) {
    auto it = types.find(v);
    return it == types.end() ? Value::Type::kInt : it->second;
  };

  std::vector<VarRef> vars;
  for (const std::string& n : fv.db) vars.push_back({VarKind::kDb, n});
  for (const std::string& n : fv.locals) vars.push_back({VarKind::kLocal, n});
  for (const std::string& n : fv.logicals) {
    vars.push_back({VarKind::kLogical, n});
  }
  std::vector<Value::Type> var_types;
  var_types.reserve(vars.size());
  for (const VarRef& v : vars) var_types.push_back(type_of(v));

  ModelState state(vars, fv.tables, shapes, options.max_rows);
  Rng rng(options.seed);
  for (int attempt = 0; attempt < options.attempts; ++attempt) {
    for (size_t i = 0; i < vars.size(); ++i) {
      state.var_value(i) = RandomValue(var_types[i], &rng, options);
    }
    for (ModelState::Table& table : state.tables()) {
      // Unknown shape: the table stays empty so scans succeed.
      if (table.shape == nullptr) continue;
      table.live = static_cast<size_t>(rng.Uniform(0, options.max_rows));
      for (size_t r = 0; r < table.live; ++r) {
        for (size_t a = 0; a < table.shape->attrs.size(); ++a) {
          *table.slots[r][a] =
              RandomValue(table.shape->attrs[a].second, &rng, options);
        }
      }
    }
    Result<bool> holds = EvalBool(constraint, state);
    if (holds.ok() && holds.value()) return state.ToMapContext();
  }
  return std::nullopt;
}

}  // namespace semcor
