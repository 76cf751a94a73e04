#include "workload/workload.h"

#include "common/str_util.h"

namespace semcor {

namespace {

const TransactionType* FindType(const Application& app,
                                const std::string& name) {
  for (const TransactionType& type : app.types) {
    if (type.name == name) return &type;
  }
  return nullptr;
}

Status UnknownType(const std::string& name) {
  return Status::InvalidArgument(
      StrCat("unknown transaction type '", name, "'"));
}

/// Checks `params` against the signature of `type` (the names and value
/// types of its first analysis scenario) and builds the program.
Result<std::shared_ptr<const TxnProgram>> Bind(const TransactionType& type,
                                               const ParamList& params) {
  const auto& signature = type.analysis_scenarios.front();
  auto reject = [&](const char* what, const std::string& name,
                    const std::string& detail = "") {
    return Status::InvalidArgument(
        StrCat(type.name, ": ", what, " parameter '", name, "'", detail));
  };
  std::map<std::string, Value> bound;
  for (const auto& [name, value] : params) {
    const auto slot = signature.find(name);
    if (slot == signature.end()) return reject("unknown", name);
    const Value::Type want = slot->second.type();
    Value arg = value;
    if (want == Value::Type::kBool && arg.is_int() &&
        (arg.AsInt() == 0 || arg.AsInt() == 1)) {
      arg = Value::Bool(arg.AsInt() == 1);
    }
    if (arg.type() != want) {
      return reject("mistyped", name,
                    StrCat(" (want ", TypeName(want), ", got ",
                           value.ToString(), ")"));
    }
    if (!bound.emplace(name, std::move(arg)).second) {
      return reject("duplicated", name);
    }
  }
  for (const auto& [name, value] : signature) {
    if (!bound.count(name)) return reject("missing", name);
  }
  return std::shared_ptr<const TxnProgram>(
      std::make_shared<TxnProgram>(type.make(bound)));
}

}  // namespace

Result<std::shared_ptr<const TxnProgram>> Workload::Instantiate(
    const std::string& type, const ParamList& params) const {
  const TransactionType* t = FindType(app, type);
  return t ? Bind(*t, params) : UnknownType(type);
}

Result<std::shared_ptr<const TxnProgram>> Workload::Instantiate(
    const std::string& type, Rng& rng) const {
  const TransactionType* t = FindType(app, type);
  return t ? Bind(*t, draw_params(type, rng)) : UnknownType(type);
}

const std::string& Workload::DrawType(Rng& rng) const {
  double total = 0;
  for (const auto& [type, weight] : mix) total += weight;
  double draw = rng.NextDouble() * total;
  const std::string* chosen = &mix.front().first;
  for (const auto& [type, weight] : mix) {
    chosen = &type;
    draw -= weight;
    if (draw <= 0) break;
  }
  return *chosen;
}

WorkItem Workload::DrawFromMix(Rng& rng,
                               const std::map<std::string, IsoLevel>& levels,
                               IsoLevel fallback) const {
  const std::string& type = DrawType(rng);
  WorkItem item;
  // Every draw binds: workload_test instantiates each mix type's draws.
  item.program = Instantiate(type, rng).value();
  auto it = levels.find(type);
  item.level = it == levels.end() ? fallback : it->second;
  return item;
}

const ExploreMix* Workload::FindExploreMix(const std::string& name) const {
  for (const ExploreMix& m : explore_mixes) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace semcor
