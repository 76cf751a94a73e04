#include "sem/rt/oracle.h"

#include <algorithm>

#include "common/str_util.h"
#include "sem/prog/concrete_exec.h"

namespace semcor {

std::string OracleReport::ToString() const {
  if (ok()) return "semantically correct (invariant + serial-replay match)";
  std::string out = "VIOLATIONS:";
  for (const std::string& p : problems) out += StrCat("\n  - ", p);
  return out;
}

Result<MapEvalContext> SerialReplay(const MapEvalContext& initial,
                                    const CommitLog& log) {
  MapEvalContext state = initial;
  for (const CommitRecord& record : log.SortedByCommit()) {
    // Each committed program replays with its own parameters; locals from
    // previous replays must not leak into it.
    MapEvalContext scratch = state;
    Status s = ExecuteProgram(*record.program, &scratch);
    if (!s.ok()) {
      return Status::Internal(StrCat("serial replay of ",
                                     record.program->instance_label,
                                     " failed: ", s.ToString()));
    }
    state = std::move(scratch);
  }
  return state;
}

namespace {

std::string DescribeTupleSet(const std::vector<Tuple>& tuples) {
  std::vector<std::string> parts;
  for (const Tuple& t : tuples) parts.push_back(TupleToString(t));
  return Join(parts, ", ");
}

}  // namespace

OracleReport CheckSemanticCorrectness(const MapEvalContext& initial,
                                      const Store& final_store,
                                      const CommitLog& log,
                                      const Expr& invariant) {
  OracleReport report;
  MapEvalContext final_state = final_store.SnapshotToMap();

  if (invariant) {
    Result<bool> holds = EvalBool(invariant, final_state);
    if (!holds.ok()) {
      report.invariant_holds = false;
      report.problems.push_back(
          StrCat("invariant evaluation failed: ", holds.status().ToString()));
    } else if (!holds.value()) {
      report.invariant_holds = false;
      report.problems.push_back(
          StrCat("consistency constraint violated: ", ToString(invariant)));
    }
  }

  Result<MapEvalContext> replay = SerialReplay(initial, log);
  if (!replay.ok()) {
    report.matches_serial_replay = false;
    report.problems.push_back(replay.status().ToString());
    return report;
  }
  const MapEvalContext& expected = replay.value();

  // Compare database items (locals in the replay context are scratch).
  for (const auto& [var, value] : expected.vars()) {
    if (var.kind != VarKind::kDb) continue;
    Result<Value> actual = final_state.GetVar(var);
    if (!actual.ok() || actual.value() != value) {
      report.matches_serial_replay = false;
      report.problems.push_back(StrCat(
          "item ", var.name, ": serial replay gives ", value.ToString(),
          ", actual is ",
          actual.ok() ? actual.value().ToString() : actual.status().ToString()));
    }
  }
  // Compare tables as tuple multisets.
  for (const auto& [table, tuples] : expected.tables()) {
    std::vector<Tuple> want = tuples;
    auto actual = final_state.tables().find(table);
    std::vector<Tuple> got;
    if (actual != final_state.tables().end()) got = actual->second;
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    if (want != got) {
      report.matches_serial_replay = false;
      report.problems.push_back(
          StrCat("table ", table, ": serial replay gives {",
                 DescribeTupleSet(want), "}, actual is {",
                 DescribeTupleSet(got), "}"));
    }
  }
  return report;
}

OracleReport ScheduleOracle::Check(const Store& final_store,
                                   const CommitLog& log) const {
  if (log.size() == 0) return OracleReport();
  return CheckSemanticCorrectness(initial_, final_store, log, invariant_);
}

}  // namespace semcor
