#include "wal/wal.h"

#include <algorithm>
#include <map>

#include "common/str_util.h"

namespace semcor::wal {

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kGroupCommit:
      return "group";
  }
  return "?";
}

bool ParseFsyncPolicy(const std::string& name, FsyncPolicy* out) {
  if (name == "none") {
    *out = FsyncPolicy::kNone;
  } else if (name == "group") {
    *out = FsyncPolicy::kGroupCommit;
  } else {
    return false;
  }
  return true;
}

const char* FsyncFailurePolicyName(FsyncFailurePolicy policy) {
  switch (policy) {
    case FsyncFailurePolicy::kPanic:
      return "panic";
    case FsyncFailurePolicy::kDegradeToUnsafe:
      return "degrade";
  }
  return "?";
}

bool ParseFsyncFailurePolicy(const std::string& name,
                             FsyncFailurePolicy* out) {
  if (name == "panic") {
    *out = FsyncFailurePolicy::kPanic;
  } else if (name == "degrade" || name == "degrade-to-unsafe") {
    *out = FsyncFailurePolicy::kDegradeToUnsafe;
  } else {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

RecoveryResult RecoverFromBytes(std::string_view log, Store* store) {
  RecoveryResult out;
  ScanResult scan = ScanRecords(log);
  out.scanned_records = scan.records.size();
  out.tail_torn = scan.tail_torn;
  out.clean_bytes = scan.clean_bytes;

  // Analysis: find the last complete checkpoint; classify transactions.
  size_t cp_index = scan.records.size();  // "none"
  for (size_t i = 0; i < scan.records.size(); ++i) {
    if (scan.records[i].type == RecordType::kCheckpoint) cp_index = i;
  }

  std::set<TxnId> started;   // kBegin seen after the checkpoint
  std::set<TxnId> finished;  // committed or aborted after the checkpoint
  std::map<TxnId, uint64_t> writes;
  std::map<TxnId, uint64_t> clrs;
  std::vector<const CommitBody*> commits;
  const size_t redo_from = cp_index == scan.records.size() ? 0 : cp_index;

  auto see_txn = [&](TxnId txn) {
    if (txn > out.max_txn_id) out.max_txn_id = txn;
  };

  if (cp_index != scan.records.size()) {
    const auto& cp = std::get<CheckpointBody>(scan.records[cp_index].body);
    store->LoadCommittedState(cp.state);
    out.found_checkpoint = true;
    out.recovered_commits = cp.committed_total;
    for (TxnId txn : cp.active) {
      started.insert(txn);
      see_txn(txn);
    }
  }
  for (size_t i = redo_from; i < scan.records.size(); ++i) {
    const Record& rec = scan.records[i];
    switch (rec.type) {
      case RecordType::kBegin: {
        const auto& b = std::get<BeginBody>(rec.body);
        started.insert(b.txn);
        see_txn(b.txn);
        break;
      }
      case RecordType::kWrite: {
        const auto& b = std::get<WriteBody>(rec.body);
        ++writes[b.txn];
        see_txn(b.txn);
        break;
      }
      case RecordType::kClr: {
        const auto& b = std::get<ClrBody>(rec.body);
        ++clrs[b.txn];
        see_txn(b.txn);
        break;
      }
      case RecordType::kCommit: {
        const auto& b = std::get<CommitBody>(rec.body);
        commits.push_back(&b);
        finished.insert(b.txn);
        see_txn(b.txn);
        break;
      }
      case RecordType::kAbort: {
        const auto& b = std::get<AbortBody>(rec.body);
        finished.insert(b.txn);
        see_txn(b.txn);
        break;
      }
      case RecordType::kCheckpoint:
        break;
    }
  }

  // Redo: replay the committed prefix in commit-timestamp order. LogCommit's
  // append-mutex discipline already puts commit records in ts order; the
  // sort is defensive.
  std::sort(commits.begin(), commits.end(),
            [](const CommitBody* a, const CommitBody* b) {
              return a->commit_ts < b->commit_ts;
            });
  for (const CommitBody* commit : commits) {
    Status s = store->RecoveryApply(commit->effects, commit->commit_ts);
    if (!s.ok()) {
      // A committed record the store refuses is a corrupt or inconsistent
      // log: the store now holds a partial replay and must not be served.
      // Surface the failure instead of silently skipping the txn.
      out.status = Status::Internal(
          StrCat("replay of committed txn ", commit->txn, " (ts ",
                 commit->commit_ts, ") failed: ", s.message()));
      return out;
    }
    ++out.replayed_txns;
    ++out.recovered_commits;
  }

  // Undo: losers (started, never finished) are discarded with accounting —
  // their uncommitted images were never checkpointed, so there is nothing
  // to physically revert; the kWrite/kClr chronicle says how many undo
  // steps a live rollback would still have owed.
  for (TxnId txn : started) {
    if (finished.count(txn)) continue;
    ++out.losers_aborted;
    const uint64_t w = writes.count(txn) ? writes.at(txn) : 0;
    const uint64_t c = clrs.count(txn) ? clrs.at(txn) : 0;
    out.undone_writes += w > c ? w - c : 0;
  }

  out.clock = store->CurrentTs();
  out.next_lsn =
      scan.records.empty() ? Lsn{1} : scan.records.back().lsn + 1;
  return out;
}

// ---------------------------------------------------------------------------
// WriteAheadLog
// ---------------------------------------------------------------------------

WriteAheadLog::WriteAheadLog(std::unique_ptr<LogDevice> device, Store* store,
                             WalOptions options)
    : device_(std::move(device)),
      store_(store),
      options_(options),
      next_lsn_(options.first_lsn),
      last_lsn_(options.first_lsn - 1),
      durable_lsn_(options.first_lsn - 1),
      faulty_(dynamic_cast<FaultyDevice*>(device_.get())) {}

WriteAheadLog::~WriteAheadLog() { Stop(); }

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::OpenDir(
    const std::string& dir, Store* store, WalOptions options,
    RecoveryResult* recovery) {
  Result<std::unique_ptr<FileDevice>> device = FileDevice::Open(dir);
  if (!device.ok()) return device.status();
  std::unique_ptr<LogDevice> dev(device.take());
  if (!options.disk_faults.empty()) {
    // Recovery reads stay un-faulted (FaultyDevice never injects on reads):
    // whatever the injected writes left on disk must always be examinable.
    dev = std::make_unique<FaultyDevice>(std::move(dev), options.disk_faults);
  }
  Result<std::string> image = dev->ReadAll();
  if (!image.ok()) return image.status();
  RecoveryResult rec = RecoverFromBytes(image.value(), store);
  if (recovery != nullptr) *recovery = rec;
  if (!rec.status.ok()) return rec.status;
  if (rec.next_lsn > options.first_lsn) options.first_lsn = rec.next_lsn;
  auto wal =
      std::make_unique<WriteAheadLog>(std::move(dev), store, options);
  wal->committed_base_ = rec.recovered_commits;
  // A fresh checkpoint bounds the next recovery and truncates the replayed
  // history (first boot: captures the workload's setup state).
  Status s = wal->Checkpoint();
  if (!s.ok()) return s;
  return wal;
}

void WriteAheadLog::Stop() { Flush(); }

bool WriteAheadLog::HookSaysCrash(FaultSite site, TxnId txn) {
  if (!hook_ || crashed_) return crashed_;
  if (hook_(site, txn)) crashed_ = true;
  return crashed_;
}

Lsn WriteAheadLog::TakeLsn() {
  // LSN 0 is the "no record appended" sentinel, so a wrapping counter skips
  // it; LsnLe keeps ordering across the wrap.
  if (next_lsn_ == 0) ++next_lsn_;
  return next_lsn_++;
}

Lsn WriteAheadLog::AppendLocked(Record* rec, TxnId txn) {
  if (crashed_) return 0;
  rec->lsn = TakeLsn();
  std::string bytes = EncodeRecord(*rec);
  if (HookSaysCrash(FaultSite::kWalAppend, txn)) {
    // A torn append: half the frame reaches the device, then the crash.
    device_->Append(std::string_view(bytes).substr(0, bytes.size() / 2));
    return 0;
  }
  Status appended = device_->Append(bytes);
  if (!appended.ok()) {
    // Any append failure freezes the log regardless of fsync-failure policy:
    // the device may now hold a torn frame mid-log, recovery stops at the
    // first bad CRC, and appending past the hole would silently orphan
    // everything written after it.
    ++stats_.device_errors;
    if (device_error_.ok()) device_error_ = appended;
    crashed_ = true;
    return 0;
  }
  last_lsn_ = rec->lsn;
  ++stats_.appends;
  stats_.bytes_appended += bytes.size();
  return rec->lsn;
}

void WriteAheadLog::LogBegin(TxnId txn, IsoLevel level) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return;
  active_.insert(txn);
  Record rec;
  rec.type = RecordType::kBegin;
  rec.body = BeginBody{txn, static_cast<uint8_t>(level)};
  AppendLocked(&rec, txn);
}

void WriteAheadLog::LogItemWrite(TxnId txn, const std::string& name,
                                 const std::optional<Value>& prior) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return;
  Record rec;
  rec.type = RecordType::kWrite;
  WriteBody body;
  body.txn = txn;
  body.target = name;
  body.item_prior = prior;
  rec.body = std::move(body);
  AppendLocked(&rec, txn);
}

void WriteAheadLog::LogRowWrite(
    TxnId txn, const std::string& table, RowId row,
    const std::optional<std::optional<Tuple>>& prior) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return;
  Record rec;
  rec.type = RecordType::kWrite;
  WriteBody body;
  body.txn = txn;
  body.is_row = true;
  body.target = table;
  body.row = row;
  body.row_prior = prior;
  rec.body = std::move(body);
  AppendLocked(&rec, txn);
}

void WriteAheadLog::LogClrItem(TxnId txn, const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return;
  Record rec;
  rec.type = RecordType::kClr;
  rec.body = ClrBody{txn, false, name, 0};
  AppendLocked(&rec, txn);
}

void WriteAheadLog::LogClrRow(TxnId txn, const std::string& table, RowId row) {
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return;
  Record rec;
  rec.type = RecordType::kClr;
  rec.body = ClrBody{txn, true, table, row};
  AppendLocked(&rec, txn);
}

void WriteAheadLog::LogAbort(TxnId txn) {
  std::lock_guard<std::mutex> lock(mu_);
  active_.erase(txn);
  if (crashed_) return;
  Record rec;
  rec.type = RecordType::kAbort;
  rec.body = AbortBody{txn};
  AppendLocked(&rec, txn);
}

WriteAheadLog::CommitHandle WriteAheadLog::LogCommit(
    TxnId txn, const std::function<Result<Timestamp>(TxnEffects*)>& apply,
    Status* apply_status) {
  std::lock_guard<std::mutex> lock(mu_);
  CommitHandle handle;
  // The store commit runs under mu_, so log order == commit order even when
  // sessions race: the durable log prefix is always a commit-order prefix.
  TxnEffects effects;
  Result<Timestamp> ts = apply(&effects);
  if (apply_status != nullptr) *apply_status = ts.status();
  if (!ts.ok()) return handle;
  handle.applied = true;
  handle.commit_ts = ts.value();
  active_.erase(txn);
  if (crashed_) return handle;

  Record rec;
  rec.type = RecordType::kCommit;
  rec.body = CommitBody{txn, ts.value(), std::move(effects)};
  handle.lsn = AppendLocked(&rec, txn);
  if (handle.lsn == 0) return handle;
  ++stats_.commits_logged;
  if (options_.fsync == FsyncPolicy::kNone) {
    durable_lsn_ = last_lsn_;
    acked_commits_ = stats_.commits_logged;
  }

  // Counted from the last checkpoint's image, not from zero: an image past
  // the threshold would otherwise checkpoint again at every commit.
  if (options_.checkpoint_every_bytes > 0 && !crashed_ &&
      device_->Size() >=
          checkpoint_bytes_ + options_.checkpoint_every_bytes) {
    // The checkpoint's Reset is itself durable, so when it folds this commit
    // in, WaitDurable finds durable_lsn_ already past it.
    CheckpointLocked();
  }
  return handle;
}

void WriteAheadLog::SyncCovering(Lsn lsn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_ || LsnLe(lsn, durable_lsn_)) return;
  }
  std::lock_guard<std::mutex> sync_lock(sync_mu_);
  const TxnId site_txn = 0;
  Lsn target = 0;
  uint64_t target_commits = 0;
  bool skip_sync = false;
  {
    // Read the target only now: a sync that ran while this caller queued
    // may have covered it already, and otherwise everything appended
    // meanwhile rides on this one fsync.
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_ || LsnLe(lsn, durable_lsn_)) return;
    target = last_lsn_;
    target_commits = stats_.commits_logged;
    if (HookSaysCrash(FaultSite::kWalPreSync, site_txn)) return;
    skip_sync = degraded_;
  }
  Status synced = Status::Ok();
  if (!skip_sync) synced = device_->Sync();
  std::lock_guard<std::mutex> lock(mu_);
  if (crashed_) return;
  if (!synced.ok()) {
    ++stats_.device_errors;
    if (device_error_.ok()) device_error_ = synced;
    if (options_.fsync_failure == FsyncFailurePolicy::kPanic) {
      // Freeze: nothing past durable_lsn_ may ever be acknowledged. A retry
      // would prove nothing even if it "succeeded" — the kernel may have
      // dropped the dirty pages when the first fsync failed.
      crashed_ = true;
      return;
    }
    // Degrade to unsafe: keep serving, stop claiming durability. From here
    // on the watermark advances without fsyncs and stats say so.
    degraded_ = true;
    skip_sync = true;
  }
  if (skip_sync) {
    ++stats_.fsyncs_skipped;
  } else {
    ++stats_.fsyncs;
  }
  // A checkpoint may have truncated past `target` while the fsync ran; only
  // advance the watermark, never rewind it.
  if (LsnLt(durable_lsn_, target)) {
    durable_lsn_ = target;
    const uint64_t batch = target_commits - acked_commits_;
    if (batch > 0) {
      ++stats_.group_commit_batches;
      stats_.batch_commits += batch;
    }
    if (degraded_ && batch > 0) stats_.unsafe_acks += batch;
    if (acked_commits_ < target_commits) acked_commits_ = target_commits;
  }
  HookSaysCrash(FaultSite::kWalPostSync, site_txn);
}

bool WriteAheadLog::WaitDurable(Lsn lsn) {
  if (lsn == 0) return false;
  SyncCovering(lsn);
  std::lock_guard<std::mutex> lock(mu_);
  return LsnLe(lsn, durable_lsn_);
}

Status WriteAheadLog::Checkpoint() {
  std::lock_guard<std::mutex> lock(mu_);
  return CheckpointLocked();
}

Status WriteAheadLog::CheckpointLocked() {
  if (crashed_) return Status::Aborted("wal crashed");
  if (HookSaysCrash(FaultSite::kWalCheckpoint, 0)) {
    // Mid-checkpoint crash: the atomic-replace never happened; the old log
    // (with whatever tail was durable) is what recovery sees.
    return Status::Aborted("wal crashed at checkpoint");
  }
  Record rec;
  rec.type = RecordType::kCheckpoint;
  CheckpointBody body;
  body.state = store_->DumpCommittedState();
  body.active.assign(active_.begin(), active_.end());
  body.committed_total = committed_base_ + stats_.commits_logged;
  rec.body = std::move(body);
  rec.lsn = TakeLsn();
  std::string bytes = EncodeRecord(rec);
  const uint64_t old_size = device_->Size();
  Status s = device_->Reset(bytes);
  if (!s.ok()) {
    // The atomic replace failed, so the old log (and durable_lsn_) still
    // stands — but the device is now suspect, so apply the failure policy:
    // panic freezes the log; degrade keeps appending to the untruncated log
    // without durability claims.
    ++stats_.device_errors;
    if (device_error_.ok()) device_error_ = s;
    if (options_.fsync_failure == FsyncFailurePolicy::kPanic) {
      crashed_ = true;
    } else {
      degraded_ = true;
    }
    return s;
  }
  last_lsn_ = rec.lsn;
  durable_lsn_ = rec.lsn;
  checkpoint_bytes_ = bytes.size();
  ++stats_.appends;
  ++stats_.checkpoints;
  ++stats_.truncations;
  ++stats_.fsyncs;
  stats_.bytes_appended += bytes.size();
  stats_.bytes_reclaimed += old_size;
  acked_commits_ = stats_.commits_logged;
  return Status::Ok();
}

Status WriteAheadLog::Flush() {
  Lsn last = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (crashed_) return Status::Aborted("wal crashed");
    last = last_lsn_;
  }
  SyncCovering(last);
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_ ? Status::Aborted("wal crashed") : Status::Ok();
}

void WriteAheadLog::SetFaultHook(FaultHook hook) {
  std::lock_guard<std::mutex> lock(mu_);
  hook_ = std::move(hook);
}

void WriteAheadLog::Freeze() {
  std::lock_guard<std::mutex> lock(mu_);
  crashed_ = true;
}

bool WriteAheadLog::crashed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_;
}

bool WriteAheadLog::degraded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return degraded_;
}

bool WriteAheadLog::panicked() const {
  std::lock_guard<std::mutex> lock(mu_);
  return crashed_ && !device_error_.ok();
}

Status WriteAheadLog::device_error() const {
  std::lock_guard<std::mutex> lock(mu_);
  return device_error_;
}

DiskFaultStats WriteAheadLog::disk_fault_stats() const {
  // faulty_ is set at construction and FaultyDevice::stats() locks its own
  // mutex, so no mu_ needed here.
  return faulty_ != nullptr ? faulty_->stats() : DiskFaultStats{};
}

WalStats WriteAheadLog::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  WalStats out = stats_;
  out.log_bytes = device_->Size();
  return out;
}

uint64_t WriteAheadLog::committed_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_base_ + stats_.commits_logged;
}

Lsn WriteAheadLog::durable_lsn() const {
  std::lock_guard<std::mutex> lock(mu_);
  return durable_lsn_;
}

}  // namespace semcor::wal
