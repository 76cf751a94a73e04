#include "spec/runner.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/str_util.h"
#include "txn/interpreter.h"

namespace semcor::spec {

std::string LevelOutcome::Row() const {
  return StrCat("level ", IsoLevelName(level), " perms=",
                std::to_string(perms), " invalid=", std::to_string(invalid),
                " committed=", std::to_string(committed), " aborted=",
                std::to_string(aborted), " deadlock=",
                std::to_string(deadlock), " fcw=", std::to_string(fcw),
                " ssi=", std::to_string(ssi), " ssi_fp=",
                std::to_string(ssi_fp), " ssi_req=", std::to_string(ssi_req),
                " nonser=", std::to_string(nonser), " inv_viol=",
                std::to_string(inv_viol), " replay_div=",
                std::to_string(replay_div));
}

bool operator==(const LevelOutcome& a, const LevelOutcome& b) {
  return a.level == b.level && a.perms == b.perms && a.invalid == b.invalid &&
         a.committed == b.committed && a.aborted == b.aborted &&
         a.deadlock == b.deadlock && a.fcw == b.fcw && a.ssi == b.ssi &&
         a.ssi_fp == b.ssi_fp && a.ssi_req == b.ssi_req &&
         a.nonser == b.nonser && a.inv_viol == b.inv_viol &&
         a.replay_div == b.replay_div;
}

std::string SpecReport::Golden() const {
  std::string out = StrCat("spec ", name, "\n");
  for (const LevelOutcome& l : levels) {
    out += l.Row();
    out += "\n";
  }
  return out;
}

Result<SpecReport> ParseGolden(const std::string& text,
                               const std::string& path) {
  SpecReport report;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string kw;
    ls >> kw;
    if (kw == "spec") {
      ls >> report.name;
      continue;
    }
    if (kw != "level") {
      return Status::InvalidArgument(StrCat(
          path, ":", std::to_string(lineno), ": unexpected golden line"));
    }
    std::string level_name;
    ls >> level_name;
    LevelOutcome out;
    bool found = false;
    for (IsoLevel l : AllLevels()) {
      if (level_name == IsoLevelName(l)) {
        out.level = l;
        found = true;
      }
    }
    if (!found) {
      return Status::InvalidArgument(StrCat(path, ":", std::to_string(lineno),
                                            ": unknown level \"", level_name,
                                            "\""));
    }
    std::string field;
    while (ls >> field) {
      const size_t eq = field.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument(StrCat(
            path, ":", std::to_string(lineno), ": malformed field \"", field,
            "\""));
      }
      const std::string key = field.substr(0, eq);
      const std::string num = field.substr(eq + 1);
      char* end = nullptr;
      const long value = std::strtol(num.c_str(), &end, 10);
      if (num.empty() || end != num.c_str() + num.size()) {
        return Status::InvalidArgument(StrCat(
            path, ":", std::to_string(lineno), ": non-numeric field \"",
            field, "\""));
      }
      if (key == "perms") {
        out.perms = value;
      } else if (key == "invalid") {
        out.invalid = value;
      } else if (key == "committed") {
        out.committed = value;
      } else if (key == "aborted") {
        out.aborted = value;
      } else if (key == "deadlock") {
        out.deadlock = value;
      } else if (key == "fcw") {
        out.fcw = value;
      } else if (key == "ssi") {
        out.ssi = value;
      } else if (key == "ssi_fp") {
        out.ssi_fp = value;
      } else if (key == "ssi_req") {
        out.ssi_req = value;
      } else if (key == "nonser") {
        out.nonser = value;
      } else if (key == "inv_viol") {
        out.inv_viol = value;
      } else if (key == "replay_div") {
        out.replay_div = value;
      } else {
        return Status::InvalidArgument(StrCat(
            path, ":", std::to_string(lineno), ": unknown field \"", key,
            "\""));
      }
    }
    report.levels.push_back(out);
  }
  if (report.levels.empty()) {
    return Status::InvalidArgument(StrCat(path, ": golden lists no levels"));
  }
  return report;
}

namespace {

/// Multiset comparison of MapEvalContext captures: items exactly, tables as
/// sorted tuple multisets (serial replays assign row ids in their own order,
/// so row identity cannot participate in state equality).
bool SameState(const MapEvalContext& a, const MapEvalContext& b) {
  if (a.vars() != b.vars()) return false;
  if (a.tables().size() != b.tables().size()) return false;
  for (const auto& [table, rows_a] : a.tables()) {
    auto it = b.tables().find(table);
    if (it == b.tables().end()) return false;
    std::vector<Tuple> sa = rows_a;
    std::vector<Tuple> sb = it->second;
    if (sa.size() != sb.size()) return false;
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());
    if (sa != sb) return false;
  }
  return true;
}

}  // namespace

struct SpecRunner::SessionState {
  std::unique_ptr<ProgramRun> run;
  int stmt_cursor = 0;        ///< top-level body statements executed
  int target_end = 0;         ///< run until this many statements are done
  bool target_commit = false; ///< ...then take the commit step
  bool waiting = false;       ///< parked on the waiting list
};

Status SpecRunner::Init() {
  Status s = spec_.setup.Apply(&store_);
  if (!s.ok()) return s;
  setup_cut_ = store_.CommittedCut();
  oracle_ = std::make_unique<ScheduleOracle>(store_.SnapshotToMap(), True());
  return Status::Ok();
}

void SpecRunner::ResetWorld() {
  store_.Load(setup_cut_);
  locks_.Reset();
  log_.Clear();
  mgr_.ResetIds();
}

Result<LevelOutcome> SpecRunner::RunLevel(IsoLevel level) {
  if (oracle_ == nullptr) {
    return Status::Internal("SpecRunner::Init was not called");
  }
  LevelOutcome out;
  out.level = level;
  for (const std::vector<std::pair<int, int>>& perm : spec_.permutations) {
    ++out.perms;
    Status s = RunPermutation(perm, level, &out);
    if (!s.ok()) return s;
  }
  return out;
}

Result<SpecReport> SpecRunner::RunAllLevels() {
  SpecReport report;
  report.name = spec_.source.name;
  for (IsoLevel level : AllLevels()) {
    Result<LevelOutcome> out = RunLevel(level);
    if (!out.ok()) return out.status();
    report.levels.push_back(out.value());
  }
  return report;
}

Status SpecRunner::RunPermutation(
    const std::vector<std::pair<int, int>>& perm, IsoLevel level,
    LevelOutcome* out) {
  ResetWorld();
  const size_t n = spec_.programs.size();
  std::vector<SessionState> sessions(n);
  for (size_t s = 0; s < n; ++s) {
    sessions[s].run = std::make_unique<ProgramRun>(
        &mgr_, spec_.programs[s], level, &log_, /*lazy_begin=*/true);
  }
  std::vector<int> waiting;  // FIFO of parked session indices

  // Advances one session toward its current target. Returns true when the
  // session is no longer runnable right now (done or target reached) and
  // false when it blocked on a lock.
  auto try_advance = [&](int si) -> bool {
    SessionState& st = sessions[static_cast<size_t>(si)];
    while (true) {
      if (st.run->Done()) return true;
      if (st.stmt_cursor < st.target_end) {
        const StepOutcome o = st.run->Step(/*wait=*/false);
        if (o == StepOutcome::kBlocked) return false;
        if (o == StepOutcome::kRunning || o == StepOutcome::kRollingBack) {
          ++st.stmt_cursor;
          continue;
        }
        return true;  // committed/aborted: the transaction is finished
      }
      if (st.target_commit) {
        const StepOutcome o = st.run->Step(/*wait=*/false);
        if (o == StepOutcome::kBlocked) return false;
        if (o == StepOutcome::kRunning || o == StepOutcome::kRollingBack) {
          ++st.stmt_cursor;  // defensive; targets cover the whole body
          continue;
        }
        return true;
      }
      return true;  // target reached; wait for the next issued step
    }
  };

  auto drain = [&]() {
    bool progress = true;
    while (progress) {
      progress = false;
      for (size_t wi = 0; wi < waiting.size();) {
        const int si = waiting[wi];
        if (try_advance(si)) {
          sessions[static_cast<size_t>(si)].waiting = false;
          waiting.erase(waiting.begin() + static_cast<long>(wi));
          progress = true;
        } else {
          ++wi;
        }
      }
    }
  };

  for (const auto& [si, step_idx] : perm) {
    const CompiledStep& step =
        spec_.steps[static_cast<size_t>(si)][static_cast<size_t>(step_idx)];
    SessionState& st = sessions[static_cast<size_t>(si)];
    // Extend the session's target to cover this step; a parked session
    // simply queues it behind the blocked statement (tester semantics:
    // later steps of a blocked session wait their turn).
    st.target_end = step.end;
    st.target_commit = st.target_commit || step.commit_after;
    if (st.waiting) continue;
    if (!try_advance(si)) {
      st.waiting = true;
      waiting.push_back(si);
      continue;
    }
    drain();
  }

  drain();
  // Deadlock backstop: everything still parked is in a cycle (no future
  // steps exist to unblock it). Abort the youngest — the same victim rule
  // as StepDriver — and retry until the list empties.
  while (!waiting.empty()) {
    size_t victim_wi = 0;
    TxnId victim_id = 0;
    for (size_t wi = 0; wi < waiting.size(); ++wi) {
      const SessionState& st = sessions[static_cast<size_t>(waiting[wi])];
      const TxnId id = st.run->begun() ? st.run->txn().id : 0;
      if (id >= victim_id) {
        victim_id = id;
        victim_wi = wi;
      }
    }
    const int victim = waiting[victim_wi];
    sessions[static_cast<size_t>(victim)].run->ForceAbort(
        Status::Deadlock("spec runner: stuck waiting, youngest aborted"));
    sessions[static_cast<size_t>(victim)].waiting = false;
    waiting.erase(waiting.begin() + static_cast<long>(victim_wi));
    ++out->deadlock;
    drain();
  }
  // Defensive: a session can only be unfinished here if its spec never
  // commits it (impossible — compile adds an implicit final commit) or an
  // internal error wedged it. Force-abort so accounting stays total.
  for (SessionState& st : sessions) {
    if (!st.run->Done()) {
      st.run->ForceAbort(Status::Internal("spec runner: session unfinished"));
    }
  }

  // ---- per-permutation accounting ----
  std::vector<int> committed_sessions;
  for (size_t s = 0; s < n; ++s) {
    if (sessions[s].run->outcome() == StepOutcome::kCommitted) {
      ++out->committed;
      committed_sessions.push_back(static_cast<int>(s));
    } else {
      ++out->aborted;
      const std::string& why = sessions[s].run->failure().message();
      if (why.find("first-committer-wins") != std::string::npos) ++out->fcw;
    }
  }
  const SsiCounters ssi = mgr_.ssi().counters();
  out->ssi += ssi.aborts;
  out->ssi_fp += ssi.false_positive_aborts;
  out->ssi_req += ssi.required_aborts;

  // Commit-order replay oracle (definition (2) of the paper).
  const OracleReport oracle = oracle_->Check(store_, log_);
  if (!oracle.invariant_holds) ++out->inv_viol;
  if (!oracle.matches_serial_replay) ++out->replay_div;

  // Full serializability: some serial order of the committed sessions must
  // reproduce both the final database state and every committed session's
  // observed values (locals and row buffers). Capture the observation...
  if (committed_sessions.empty()) return Status::Ok();
  const MapEvalContext observed_final = store_.SnapshotToMap();
  std::vector<std::map<std::string, Value>> observed_locals(n);
  std::vector<std::map<std::string, std::vector<Tuple>>> observed_buffers(n);
  for (int s : committed_sessions) {
    observed_locals[static_cast<size_t>(s)] =
        sessions[static_cast<size_t>(s)].run->txn().locals;
    auto buffers = sessions[static_cast<size_t>(s)].run->txn().buffers;
    for (auto& [name, rows] : buffers) std::sort(rows.begin(), rows.end());
    observed_buffers[static_cast<size_t>(s)] = std::move(buffers);
  }

  // ...then try every order (sessions are few; n! is tiny).
  std::vector<int> order = committed_sessions;
  bool serializable = false;
  do {
    ResetWorld();
    bool order_ok = true;
    for (int s : order) {
      ProgramRun replay(&mgr_, spec_.programs[static_cast<size_t>(s)],
                        IsoLevel::kSerializable, /*log=*/nullptr);
      const StepOutcome o = replay.RunToCompletion();
      if (o != StepOutcome::kCommitted) {
        order_ok = false;
        break;
      }
      if (replay.txn().locals != observed_locals[static_cast<size_t>(s)]) {
        order_ok = false;
        break;
      }
      auto buffers = replay.txn().buffers;
      for (auto& [name, rows] : buffers) std::sort(rows.begin(), rows.end());
      if (buffers != observed_buffers[static_cast<size_t>(s)]) {
        order_ok = false;
        break;
      }
    }
    if (order_ok && SameState(store_.SnapshotToMap(), observed_final)) {
      serializable = true;
      break;
    }
  } while (std::next_permutation(order.begin(), order.end()));
  if (!serializable) ++out->nonser;
  return Status::Ok();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(StrCat("cannot open ", path));
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::Internal(StrCat("cannot write ", path));
  }
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  std::fclose(f);
  if (!ok) return Status::Internal(StrCat("short write to ", path));
  return Status::Ok();
}

}  // namespace semcor::spec
