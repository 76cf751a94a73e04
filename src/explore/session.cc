#include "explore/session.h"

#include <cstdint>
#include <utility>

#include "common/str_util.h"
#include "sem/prog/stmt.h"
#include "wal/wal.h"

namespace semcor {

std::string ScheduleToString(const Schedule& schedule) {
  std::vector<std::string> parts;
  parts.reserve(schedule.size());
  for (int h : schedule) parts.push_back(std::to_string(h));
  return StrCat("[", Join(parts, " "), "]");
}

std::string EventTrace(const std::vector<ScheduleEvent>& events) {
  std::vector<std::string> parts;
  parts.reserve(events.size());
  for (const ScheduleEvent& e : events) {
    parts.push_back(
        StrCat(e.undo ? "u" : (e.write ? "w" : "r"), e.txn + 1));
  }
  return Join(parts, " ");
}

std::string RunResult::Signature() const {
  if (!anomalous) return "";
  std::string sig = Join(oracle.problems, " | ");
  // Runs that read a mid-rollback value witness Theorem 1's undo-write
  // obligations; keep them distinct from the plain-dirty-read variant of
  // the same oracle complaint.
  if (undo_dirty_reads > 0) sig += " | observed-mid-rollback";
  return sig;
}

Status ExploreSession::Init(const Workload& workload, const ExploreMix& mix,
                            IsoLevel level,
                            const ExploreSessionOptions& options) {
  if (checkpoint_ != nullptr) {
    return Status::InvalidArgument("session already initialized");
  }
  level_ = level;
  session_options_ = options;
  if (options.lock_shards != 0) locks_.Reshard(options.lock_shards);
  if (!options.faults.empty()) {
    faults_.SetPlan(options.faults);
    // Lock-grant faults flow through the lock manager's hook; the injector
    // decides from (seed, txn, site, visit) only, so replays are exact.
    locks_.SetFaultHook([this](TxnId txn) {
      return FaultStatus(faults_.At(FaultSite::kLockGrant, txn));
    });
  }
  Status s = workload.setup(&store_);
  if (!s.ok()) return s;
  checkpoint_ = store_.Checkpoint();
  for (const ExploreMix::Entry& entry : mix.txns) {
    auto program = workload.Instantiate(entry.type, entry.params);
    if (!program.ok()) {
      return Status::InvalidArgument(
          StrCat(program.status().message(), " in mix ", mix.name));
    }
    programs_.push_back(program.take());
  }
  if (programs_.empty()) {
    return Status::InvalidArgument(StrCat("mix ", mix.name, " is empty"));
  }
  oracle_ = std::make_unique<ScheduleOracle>(store_.SnapshotToMap(),
                                             workload.app.invariant);
  return Status::Ok();
}

void ExploreSession::ResetWorld() {
  store_.Restore(*checkpoint_);
  locks_.Reset();
  log_.Clear();
  mgr_.ResetIds();
  faults_.BeginRun();
}

void ExploreSession::ConfigureDriver(StepDriver* driver) {
  driver->SetDeadlockPolicy(session_options_.deadlock_policy);
  driver->SetSchedulableRollback(session_options_.schedulable_rollback);
  if (!session_options_.faults.empty()) driver->SetFaultInjector(&faults_);
}

int ExploreSession::ApplyChoice(StepDriver& driver, int hint,
                                RunResult* result, int* last_exec) {
  if (driver.AllDone()) return -1;
  const int n = driver.size();
  while (true) {
    std::vector<bool> blocked(n, false);
    auto try_step = [&](int i) {
      StepOutcome outcome = driver.Step(i);
      if (outcome == StepOutcome::kBlocked) {
        blocked[i] = true;
        return false;
      }
      // A switch away from a transaction that could still run is a
      // preemption — unless it was the hinted one and simply blocked
      // (a forced switch, which any schedule must take).
      if (*last_exec >= 0 && i != *last_exec &&
          !driver.run(*last_exec).Done() && hint != *last_exec) {
        ++result->preemptions;
      }
      *last_exec = i;
      return true;
    };
    if (hint >= 0 && hint < n && !driver.run(hint).Done()) {
      if (try_step(hint)) return hint;
    }
    for (int i = 0; i < n; ++i) {
      if (blocked[i] || driver.run(i).Done()) continue;
      if (try_step(i)) return i;
    }
    // Every active transaction is blocked: a try-lock deadlock. The
    // session's deadlock policy picks the victim (default: youngest, same
    // rule as StepDriver::RunRoundRobin) and resolution retries against the
    // freed locks. Bounded-wait degenerates to youngest here: with try-locks
    // a blocked sweep cannot make progress by waiting.
    std::vector<int> blocked_idx;
    for (int i = 0; i < n; ++i) {
      if (blocked[i] && !driver.run(i).Done()) blocked_idx.push_back(i);
    }
    const int victim = PickDeadlockVictim(
        session_options_.deadlock_policy, blocked_idx, [&](int i) {
          return driver.run(i).begun() ? driver.run(i).txn().id : TxnId{0};
        });
    if (victim < 0) return -1;  // defensive: nothing left to do
    driver.run(victim).ForceAbort(
        Status::Deadlock("schedule-explorer deadlock victim"));
    ++result->deadlock_aborts;
    if (driver.AllDone()) return victim;  // the abort was the whole choice
  }
}

void ExploreSession::Finish(StepDriver& driver, RunResult* result) {
  result->complete = driver.AllDone();
  for (int i = 0; i < driver.size(); ++i) {
    if (!driver.run(i).Done()) {
      driver.run(i).ForceAbort(Status::Aborted("schedule exhausted"));
    }
  }
  for (int i = 0; i < driver.size(); ++i) {
    if (driver.run(i).outcome() == StepOutcome::kCommitted) {
      ++result->committed;
    } else {
      ++result->aborted;
    }
  }
  for (int i = 0; i < driver.size(); ++i) {
    if (!driver.run(i).begun()) continue;
    result->dirty_reads += driver.run(i).txn().dirty_reads;
    result->undo_dirty_reads += driver.run(i).txn().undo_dirty_reads;
  }
  result->injected_faults = faults_.run_injected();
  // ResetWorld cleared the SSI tracker, so its counters are this run's.
  const SsiCounters ssi = mgr_.ssi().counters();
  result->ssi_aborts = ssi.aborts;
  result->ssi_false_positive_aborts = ssi.false_positive_aborts;
  result->ssi_required_aborts = ssi.required_aborts;
  result->oracle = oracle_->Check(store_, log_);
  result->anomalous = !result->oracle.ok();
}

namespace {

/// Records the paper-style r/w trace of productive steps; undo writes of a
/// schedulable rollback are recorded as writes flagged `undo`.
StepDriver::Observer EventRecorder(RunResult* result) {
  return [result](const StepEvent& ev) {
    if (ev.undo_write) {
      result->events.push_back({ev.run_index, true, true});
      return;
    }
    if (ev.stmt == nullptr) return;  // commit or rollback-finish step
    if (ev.outcome == StepOutcome::kBlocked ||
        ev.outcome == StepOutcome::kAborted) {
      return;  // the statement did not take effect
    }
    if (IsDbWrite(*ev.stmt)) {
      result->events.push_back({ev.run_index, true});
    } else if (IsDbRead(*ev.stmt)) {
      result->events.push_back({ev.run_index, false});
    }
  };
}

}  // namespace

RunResult ExploreSession::Run(const Schedule& hints) {
  ResetWorld();
  StepDriver driver(&mgr_, &log_, /*lazy_begin=*/true);
  ConfigureDriver(&driver);
  for (const auto& program : programs_) driver.Add(program, level_);
  RunResult result;
  driver.SetObserver(EventRecorder(&result));
  int last_exec = -1;
  for (int hint : hints) {
    result.executed.push_back(ApplyChoice(driver, hint, &result, &last_exec));
  }
  Finish(driver, &result);
  return result;
}

std::string CrashMatrixResult::Summary() const {
  std::string out = StrCat(
      "crash-matrix: ", points_checked, " crash points over ", log_bytes,
      " log bytes (", committed, " commits, ", torn_points, " torn tails): ",
      mismatches == 0 ? "all recoveries match commit-order replay"
                      : StrCat(mismatches, " MISMATCHES"));
  for (const std::string& p : problems) out += StrCat("\n  ", p);
  return out;
}

namespace {

/// Committed-state equality for the crash matrix. Items and rows (values and
/// commit timestamps) must match exactly. The clock and the row-id
/// watermarks are deliberately excluded: the live store advances both for
/// in-flight transactions (begin reads, uncommitted inserts) that recovery
/// rightly never sees. Returns an empty string on equality, else a
/// description of the first divergence.
std::string DiffCommittedStates(const CommittedState& want,
                                const CommittedState& got) {
  using ItemMap = std::map<std::string, std::pair<Timestamp, Value>>;
  ItemMap want_items, got_items;
  for (const auto& it : want.items)
    want_items[it.name] = {it.commit_ts, it.value};
  for (const auto& it : got.items) got_items[it.name] = {it.commit_ts, it.value};
  for (const auto& [name, v] : want_items) {
    auto it = got_items.find(name);
    if (it == got_items.end())
      return StrCat("item ", name, " missing after recovery");
    if (it->second != v)
      return StrCat("item ", name, " recovered as ", it->second.second.ToString(),
                    "@", it->second.first, ", expected ", v.second.ToString(),
                    "@", v.first);
  }
  if (got_items.size() != want_items.size())
    return "recovery resurrected an item that should not exist";

  using RowMap = std::map<RowId, std::pair<Timestamp, std::optional<Tuple>>>;
  std::map<std::string, RowMap> want_rows, got_rows;
  for (const auto& t : want.tables)
    for (const auto& r : t.rows) want_rows[t.name][r.row] = {r.commit_ts, r.image};
  for (const auto& t : got.tables)
    for (const auto& r : t.rows) got_rows[t.name][r.row] = {r.commit_ts, r.image};
  for (const auto& [table, rows] : want_rows) {
    const RowMap& grows = got_rows[table];
    for (const auto& [row, v] : rows) {
      auto it = grows.find(row);
      if (it == grows.end())
        return StrCat("row ", table, "/", row, " missing after recovery");
      if (it->second != v)
        return StrCat("row ", table, "/", row, " diverged after recovery");
    }
    if (grows.size() != rows.size())
      return StrCat("table ", table, " has extra rows after recovery");
  }
  return "";
}

/// Frame boundaries of a WAL image: byte offsets where each complete record
/// frame ends (the framing is [u32 len][u32 crc][payload]).
std::vector<size_t> FrameEnds(const std::string& bytes) {
  std::vector<size_t> ends;
  size_t off = 0;
  while (off + 8 <= bytes.size()) {
    const auto* p = reinterpret_cast<const unsigned char*>(bytes.data() + off);
    const uint32_t len = static_cast<uint32_t>(p[0]) |
                         static_cast<uint32_t>(p[1]) << 8 |
                         static_cast<uint32_t>(p[2]) << 16 |
                         static_cast<uint32_t>(p[3]) << 24;
    const size_t next = off + 8 + len;
    if (next > bytes.size()) break;  // torn tail already on disk
    ends.push_back(next);
    off = next;
  }
  return ends;
}

}  // namespace

CrashMatrixResult ExploreSession::RunCrashMatrix(const Schedule& hints) {
  CrashMatrixResult result;
  ResetWorld();
  auto device = std::make_unique<wal::MemDevice>();
  wal::MemDevice* mem = device.get();
  wal::WalOptions wopts;
  // No fsync policy and no auto-truncation: the matrix enumerates survivor
  // prefixes itself, and a mid-run checkpoint would fold commits out of the
  // per-commit capture the comparison is anchored to (checkpoint crash
  // coverage lives in wal_test's fault-hook cases).
  wopts.fsync = wal::FsyncPolicy::kNone;
  wopts.checkpoint_every_bytes = 0;
  wal::WriteAheadLog wal(std::move(device), &store_, wopts);
  wal.Start();
  mgr_.SetWal(&wal);

  // Clean run, capturing the committed state after every logged commit:
  // capture[k] is what recovering a prefix with exactly k complete commit
  // records must reproduce. A choice resolves one productive step, so at
  // most one commit lands per iteration.
  std::vector<CommittedState> capture;
  capture.push_back(store_.DumpCommittedState());
  {
    StepDriver driver(&mgr_, &log_, /*lazy_begin=*/true);
    ConfigureDriver(&driver);
    for (const auto& program : programs_) driver.Add(program, level_);
    RunResult run;
    int last_exec = -1;
    for (int hint : hints) {
      ApplyChoice(driver, hint, &run, &last_exec);
      while (capture.size() <= wal.stats().commits_logged) {
        capture.push_back(store_.DumpCommittedState());
      }
    }
    result.complete = driver.AllDone();
    // Stragglers stay in flight: their begin/write records make them the
    // losers every recovery below must discard.
  }
  mgr_.SetWal(nullptr);
  wal.Stop();
  result.committed = static_cast<int>(wal.stats().commits_logged);

  const std::string bytes = mem->data();
  result.log_bytes = static_cast<long>(bytes.size());

  // Crash points: byte 0, every frame boundary, and a cut through the middle
  // of every frame (a torn append the CRC must reject).
  std::vector<size_t> cuts;
  cuts.push_back(0);
  size_t frame_start = 0;
  for (size_t end : FrameEnds(bytes)) {
    cuts.push_back(frame_start + (end - frame_start) / 2);
    cuts.push_back(end);
    frame_start = end;
  }

  for (size_t cut : cuts) {
    Store recovered;
    recovered.Restore(*checkpoint_);
    const wal::RecoveryResult rec = wal::RecoverFromBytes(
        std::string_view(bytes).substr(0, cut), &recovered);
    ++result.points_checked;
    if (rec.tail_torn) ++result.torn_points;
    auto report = [&](std::string what) {
      ++result.mismatches;
      if (result.problems.size() < 8) {
        result.problems.push_back(StrCat("cut@", cut, " (", rec.replayed_txns,
                                         " commits replayed): ",
                                         std::move(what)));
      }
    };
    const size_t k = static_cast<size_t>(rec.replayed_txns);
    if (k >= capture.size()) {
      report("recovered more commits than the schedule performed");
      continue;
    }
    // The full image must yield every commit: a lost acked commit is a
    // durability violation even if the final states happen to coincide.
    if (cut == bytes.size() && k + 1 != capture.size()) {
      report(StrCat("full log recovered only ", k, " of ", capture.size() - 1,
                    " commits"));
      continue;
    }
    const std::string diff =
        DiffCommittedStates(capture[k], recovered.DumpCommittedState());
    if (!diff.empty()) report(diff);
  }
  return result;
}

RunResult ExploreSession::Fuzz(Rng& rng, int max_choices,
                               Schedule* hints_out) {
  ResetWorld();
  StepDriver driver(&mgr_, &log_, /*lazy_begin=*/true);
  ConfigureDriver(&driver);
  for (const auto& program : programs_) driver.Add(program, level_);
  RunResult result;
  driver.SetObserver(EventRecorder(&result));
  Schedule hints;
  int last_exec = -1;
  for (int step = 0; step < max_choices && !driver.AllDone(); ++step) {
    std::vector<int> active;
    for (int i = 0; i < driver.size(); ++i) {
      if (!driver.run(i).Done()) active.push_back(i);
    }
    const int hint =
        active[rng.Uniform(0, static_cast<int64_t>(active.size()) - 1)];
    hints.push_back(hint);
    result.executed.push_back(ApplyChoice(driver, hint, &result, &last_exec));
  }
  Finish(driver, &result);
  if (hints_out != nullptr) *hints_out = std::move(hints);
  return result;
}

}  // namespace semcor
