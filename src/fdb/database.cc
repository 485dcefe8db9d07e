#include "fdb/database.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <optional>
#include <thread>

#include "common/file_io.h"
#include "fdb/checkpoint.h"
#include "fdb/interval_resolver.h"

namespace quick::fdb {

Database::Database(std::string name) : Database(std::move(name), Options{}) {}

Database::Database(std::string name, Options options)
    : name_(std::move(name)),
      options_(options),
      faults_(options.faults, options.fault_plan, options.clock),
      resolver_(std::make_unique<IntervalResolver>()),
      latency_(options.latency),
      batch_size_hist_(
          MetricsRegistry::Default()->GetHistogram("fdb.commit.batch_size")),
      tracked_commits_gauge_(
          MetricsRegistry::Default()->GetGauge("fdb.resolver.tracked_commits")),
      read_ranges_checked_counter_(MetricsRegistry::Default()->GetCounter(
          "fdb.resolver.read_ranges_checked")),
      resolver_conflicts_counter_(
          MetricsRegistry::Default()->GetCounter("fdb.resolver.conflicts")) {
  if (options_.durability.enable_wal) {
    InitDurability();
  }
}

Database::~Database() {
  std::thread pump;
  {
    std::lock_guard<std::mutex> lock(commit_queue_mu_);
    commit_pump_stop_ = true;
    pump = std::move(commit_pump_);
  }
  commit_cv_.notify_all();
  if (pump.joinable()) pump.join();
}

void Database::InitDurability() {
  const std::string& dir = options_.durability.dir;
  if (dir.empty() || !CreateDirs(dir).ok()) {
    halted_.store(true, std::memory_order_release);
    return;
  }
  Result<RecoveryInfo> recovered = RecoverVersionedStore(dir, &store_);
  if (!recovered.ok()) {
    halted_.store(true, std::memory_order_release);
    return;
  }
  recovery_info_ = std::move(*recovered);
  // Resume exactly at the last durable commit version (invariant 14):
  // allocation, publication, and the GRV floor all restart from it.
  applied_version_.store(recovery_info_.last_durable_version,
                         std::memory_order_relaxed);
  last_version_.store(recovery_info_.last_durable_version,
                      std::memory_order_release);
  durable_checkpoint_version_.store(recovery_info_.checkpoint_version,
                                    std::memory_order_release);
  // Checkpoint entries exist only at the checkpoint version; reads below
  // it would see a hole, so the read floor starts there.
  min_read_version_.store(recovery_info_.checkpoint_version,
                          std::memory_order_release);
  wal_ = std::make_unique<Wal>(dir, recovery_info_.next_wal_seq, &faults_,
                               options_.clock,
                               recovery_info_.segment_max_versions);
  if (!wal_->Open().ok()) {
    halted_.store(true, std::memory_order_release);
  }
}

bool Database::DurabilityDead() const {
  if (halted_.load(std::memory_order_acquire)) return true;
  return wal_ != nullptr && wal_->dead();
}

void Database::InjectLatency(int64_t micros) {
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
  // Scheduled latency spikes are paid on the cluster's Clock so that a
  // ManualClock advances deterministically (and transactions age) instead
  // of the test blocking in real time.
  const int64_t spike_millis = faults_.ExtraLatencyMillis();
  if (spike_millis > 0) {
    options_.clock->SleepMillis(spike_millis);
  }
}

Result<Version> Database::AcquireReadVersion(const TransactionOptions& topts) {
  if (options_.durability.enable_wal && DurabilityDead()) {
    return Status::Unavailable("durable log dead; restart required");
  }
  if (topts.use_cached_read_version) {
    std::lock_guard<std::mutex> lock(grv_cache_mu_);
    if (cached_grv_ != kInvalidVersion &&
        options_.clock->NowMillis() - cached_grv_time_millis_ <=
            options_.grv_cache_staleness_millis) {
      stats_.grv_cache_hits.Increment();
      return cached_grv_;
    }
  }
  if (faults_.NextGrvFault()) {
    return Status::Unavailable("injected GRV failure");
  }
  InjectLatency(topts.causal_read_risky
                    ? latency_.grv_causal_read_risky_micros
                    : latency_.grv_micros);
  const Version v = last_version_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(grv_cache_mu_);
    cached_grv_ = v;
    cached_grv_time_millis_ = options_.clock->NowMillis();
  }
  stats_.grv_calls.Increment();
  return v;
}

Result<std::optional<std::string>> Database::ReadAt(const std::string& key,
                                                    Version version) {
  if (options_.durability.enable_wal && DurabilityDead()) {
    return Status::Unavailable("durable log dead; restart required");
  }
  InjectLatency(latency_.read_micros);
  QUICK_RETURN_IF_ERROR(faults_.NextReadFault());
  if (version < min_read_version_.load(std::memory_order_acquire)) {
    return Status::TransactionTooOld("read version pruned");
  }
  stats_.reads.Increment();
  std::shared_lock<std::shared_mutex> lock(mu_);
  return store_.Get(key, version);
}

Status Database::ScanRangeAt(const KeyRange& range, Version version,
                             const RangeOptions& options,
                             const RangeSink& sink) {
  if (options_.durability.enable_wal && DurabilityDead()) {
    return Status::Unavailable("durable log dead; restart required");
  }
  InjectLatency(latency_.read_micros);
  QUICK_RETURN_IF_ERROR(faults_.NextReadFault());
  if (version < min_read_version_.load(std::memory_order_acquire)) {
    return Status::TransactionTooOld("read version pruned");
  }
  stats_.reads.Increment();
  std::shared_lock<std::shared_mutex> lock(mu_);
  stats_.storage_chains_visited.Increment(
      static_cast<int64_t>(store_.ScanRange(range, version, options, sink)));
  return Status::OK();
}

size_t Database::MaxCommitBatch() const {
  // Every commit flows through the log pipeline: the replication /
  // log-force round (latency.commit_micros) is a SERIALIZED resource —
  // one round is in flight at a time, led by whichever committer holds
  // the baton. With group commit the leader's round doubles as the
  // batching window: commits arriving during it pile into the queue and
  // are resolved and applied together at one version, so the round is
  // amortized across the batch. max_commit_batch = 1 degrades the
  // pipeline to batches of exactly one — every commit pays its own
  // round, which is what a commit log without batching costs.
  return static_cast<size_t>(std::clamp(options_.max_commit_batch, 1, 65535));
}

Result<CommitOutcome> Database::CommitAt(CommitRequest&& request) {
  if (options_.durability.enable_wal && DurabilityDead()) {
    return Status::Unavailable("durable log dead; restart required");
  }
  stats_.commits_attempted.Increment();

  PendingCommit pc;
  pc.request = std::move(request);
  pc.fault = faults_.NextCommitFault();
  if (pc.fault == FaultInjector::CommitFault::kUnavailable) {
    return Status::Unavailable("injected commit failure");
  }
  if (pc.fault == FaultInjector::CommitFault::kTooOld) {
    stats_.too_old.Increment();
    return Status::TransactionTooOld("injected transaction_too_old");
  }

  const size_t max_batch = MaxCommitBatch();
  std::unique_lock<std::mutex> qlock(commit_queue_mu_);
  commit_queue_.push_back(&pc);
  while (!pc.done) {
    if (commit_leader_active_ || pc.claimed) {
      // A leader is mid-round (or this commit is already in an in-flight
      // batch whose leader released the baton before the fsync); wait to
      // be resolved, or to inherit the baton if the leader retires before
      // reaching this commit.
      commit_cv_.wait(qlock, [&] {
        return pc.done || (!commit_leader_active_ && !pc.claimed);
      });
      continue;
    }
    commit_leader_active_ = true;
    LeadOneRound(qlock, max_batch);
  }
  qlock.unlock();

  MaybeAutoCheckpoint();

  if (!pc.status.ok()) return pc.status;
  return pc.outcome;
}

void Database::CommitAsync(CommitRequest&& request, CommitCallback done) {
  if (options_.durability.enable_wal && DurabilityDead()) {
    done(Status::Unavailable("durable log dead; restart required"));
    return;
  }
  stats_.commits_attempted.Increment();

  const FaultInjector::CommitFault fault = faults_.NextCommitFault();
  if (fault == FaultInjector::CommitFault::kUnavailable) {
    done(Status::Unavailable("injected commit failure"));
    return;
  }
  if (fault == FaultInjector::CommitFault::kTooOld) {
    stats_.too_old.Increment();
    done(Status::TransactionTooOld("injected transaction_too_old"));
    return;
  }

  auto* pc = new PendingCommit();
  pc->request = std::move(request);
  pc->fault = fault;
  pc->on_done = std::move(done);
  {
    std::lock_guard<std::mutex> lock(commit_queue_mu_);
    commit_queue_.push_back(pc);
    EnsureCommitPumpLocked();
  }
  // Wake the pump (or a parked blocking committer that can inherit the
  // baton and drain this commit into its own batch).
  commit_cv_.notify_all();
}

void Database::LeadOneRound(std::unique_lock<std::mutex>& qlock,
                            size_t max_batch) {
  // Pay the replication latency with the queue unlocked (the batching
  // window), then drain and process one batch.
  qlock.unlock();
  InjectLatency(latency_.commit_micros);
  qlock.lock();
  std::vector<PendingCommit*> batch;
  const size_t n = std::min(commit_queue_.size(), max_batch);
  batch.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    batch.push_back(commit_queue_.front());
    commit_queue_.pop_front();
    batch.back()->claimed = true;
  }
  qlock.unlock();
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    ProcessBatchLocked(batch);
  }
  std::vector<PendingCommit*> async_done;
  if (wal_ == nullptr) {
    // In-memory mode: the apply pass is the commit point.
    qlock.lock();
    FinishMembersLocked(batch, &async_done);
    commit_leader_active_ = false;
    commit_cv_.notify_all();
    qlock.unlock();
    FireCallbacks(&async_done);
    qlock.lock();
    return;
  }
  // Pipelined durability: the batch is framed as one WAL record and
  // appended while this thread still holds the baton — the baton
  // serializes appends, so the log sees batches in version order —
  // but the baton is released BEFORE the fsync, so the next leader's
  // append overlaps this batch's sync and one group fsync covers every
  // batch appended behind it. No member is acked before its record is on
  // stable storage and the replication fence has acked (invariant 15: no
  // ack before fsync).
  WalBatchRef ref;
  uint64_t log_end = 0;
  const Status append_st = AppendBatchToWal(batch, &ref, &log_end);
  qlock.lock();
  commit_leader_active_ = false;
  commit_cv_.notify_all();
  qlock.unlock();
  FinishBatchDurable(batch, ref, log_end, append_st);
  qlock.lock();
  // Once `done` flips and the queue mutex is released a follower may
  // return and destroy its PendingCommit — no touching sync batch
  // members beyond this point.
  FinishMembersLocked(batch, &async_done);
  commit_cv_.notify_all();
  qlock.unlock();
  FireCallbacks(&async_done);
  qlock.lock();
}

void Database::FinishMembersLocked(const std::vector<PendingCommit*>& batch,
                                   std::vector<PendingCommit*>* async_done) {
  for (PendingCommit* pc : batch) {
    if (pc->on_done) {
      async_done->push_back(pc);
    } else {
      pc->done = true;
    }
  }
}

void Database::FireCallbacks(std::vector<PendingCommit*>* async_done) {
  for (PendingCommit* pc : *async_done) {
    CommitCallback cb = std::move(pc->on_done);
    Result<CommitOutcome> result =
        pc->status.ok() ? Result<CommitOutcome>(pc->outcome)
                        : Result<CommitOutcome>(pc->status);
    delete pc;
    cb(std::move(result));
  }
  async_done->clear();
}

void Database::EnsureCommitPumpLocked() {
  if (commit_pump_started_ || commit_pump_stop_) return;
  commit_pump_started_ = true;
  commit_pump_ = std::thread([this] { CommitPumpLoop(); });
}

void Database::CommitPumpLoop() {
  const size_t max_batch = MaxCommitBatch();
  std::unique_lock<std::mutex> qlock(commit_queue_mu_);
  for (;;) {
    commit_cv_.wait(qlock, [&] {
      return commit_pump_stop_ ||
             (!commit_queue_.empty() && !commit_leader_active_);
    });
    if (commit_pump_stop_) break;
    commit_leader_active_ = true;
    LeadOneRound(qlock, max_batch);
    qlock.unlock();
    MaybeAutoCheckpoint();
    qlock.lock();
  }
  // Shutdown: fail whatever async commits are still queued so their
  // callbacks (and the state they own) are released. Blocking commits
  // left in the queue belong to live threads inside CommitAt, which will
  // inherit the baton once commit_leader_active_ clears.
  std::vector<PendingCommit*> orphaned;
  for (auto it = commit_queue_.begin(); it != commit_queue_.end();) {
    if ((*it)->on_done && !(*it)->claimed) {
      orphaned.push_back(*it);
      it = commit_queue_.erase(it);
    } else {
      ++it;
    }
  }
  qlock.unlock();
  for (PendingCommit* pc : orphaned) {
    CommitCallback cb = std::move(pc->on_done);
    delete pc;
    cb(Status::Unavailable("database shutting down"));
  }
}

Status Database::AppendBatchToWal(const std::vector<PendingCommit*>& batch,
                                  WalBatchRef* ref, uint64_t* log_end) {
  for (PendingCommit* pc : batch) {
    if (pc->outcome.version == kInvalidVersion) continue;  // not applied
    ref->version = pc->outcome.version;
    ref->members.emplace_back(pc->outcome.batch_order, &pc->request.mutations);
  }
  if (ref->members.empty()) return Status::OK();
  Result<uint64_t> end = wal_->AppendBatch(*ref);
  if (!end.ok()) return end.status();
  *log_end = *end;
  return Status::OK();
}

void Database::FinishBatchDurable(const std::vector<PendingCommit*>& batch,
                                  const WalBatchRef& ref, uint64_t log_end,
                                  Status append_status) {
  if (ref.members.empty()) return;
  Status st = std::move(append_status);
  if (st.ok()) st = wal_->SyncTo(log_end);
  if (st.ok() && options_.durability.commit_fence) {
    // Replication fence (invariant 17): the control plane must confirm
    // this region still owns the current epoch before the batch is acked
    // or its version published. A sealed epoch means a failover happened
    // while the batch was in flight — halt, fencing the zombie primary
    // for good; a mere control-plane partition only demotes the batch
    // (the zombie keeps serving, its acks withheld).
    st = options_.durability.commit_fence(ref.version);
    if (st.code() == StatusCode::kFailedPrecondition) {
      halted_.store(true, std::memory_order_release);
    }
  }
  if (st.ok()) {
    // Publish with a fetch-max: pipelined group fsyncs complete out of
    // order across leaders, and publication must never move backwards.
    Version cur = last_version_.load(std::memory_order_relaxed);
    while (cur < ref.version &&
           !last_version_.compare_exchange_weak(cur, ref.version,
                                                std::memory_order_release,
                                                std::memory_order_relaxed)) {
    }
    return;
  }
  // The batch applied in memory but its durability or fence failed; the
  // version was never published, so no reader saw it. Each accepted
  // member's outcome is genuinely unknown — recovery (or the promoted
  // replica) may or may not surface it.
  for (PendingCommit* pc : batch) {
    if (pc->outcome.version == kInvalidVersion) continue;
    if (pc->status.ok()) {
      stats_.unknown_results.Increment();
    }
    pc->status = Status::CommitUnknownResult(
        "applied in memory but not confirmed: " + st.message());
  }
}

void Database::MaybeAutoCheckpoint() {
  if (wal_ == nullptr) return;
  const int64_t interval = options_.durability.checkpoint_interval_bytes;
  if (interval <= 0 || DurabilityDead()) return;
  if (wal_->CurrentSegmentBytes() < interval) return;
  // Best effort: a concurrent checkpoint (or a fault inside this one)
  // surfaces through Checkpoint()'s own status; commits never fail on it.
  (void)Checkpoint();
}

Result<Version> Database::Checkpoint() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("durability is disabled");
  }
  if (DurabilityDead()) {
    return Status::Unavailable("durable log dead; restart required");
  }
  bool expected = false;
  if (!checkpoint_in_progress_.compare_exchange_strong(
          expected, true, std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("checkpoint already in progress");
  }
  struct ClearFlag {
    std::atomic<bool>* flag;
    ~ClearFlag() { flag->store(false, std::memory_order_release); }
  } clear_flag{&checkpoint_in_progress_};

  // Snapshot at the published (== durable) version. The prune floor is
  // clamped at the previous checkpoint version, which cannot advance
  // while this checkpoint is in flight, so `snapshot` stays readable
  // across the shared-lock gaps between chunks.
  const Version snapshot = last_version_.load(std::memory_order_acquire);
  // Nothing committed since the last checkpoint: writing again would
  // target the same CHECKPOINT-<version> file, and a write fault there
  // would clobber the only valid checkpoint after its WAL coverage has
  // been retired. The existing file already covers `snapshot` exactly.
  if (snapshot == durable_checkpoint_version_.load(std::memory_order_acquire)) {
    return snapshot;
  }
  CheckpointBuilder builder(snapshot);
  std::string resume_key;
  std::vector<KeyValue> chunk;
  bool exhausted = false;
  while (!exhausted) {
    chunk.clear();
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      exhausted = store_.CollectSnapshotChunk(
          snapshot, &resume_key, options_.durability.checkpoint_chunk_keys,
          &chunk);
    }
    for (const KeyValue& kv : chunk) builder.Add(kv.key, kv.value);
  }
  const int64_t keys = builder.key_count();
  std::string blob = builder.Finish();
  const std::string path =
      options_.durability.dir + "/" + CheckpointFileName(snapshot);

  // Scheduled checkpoint-write faults model the process dying mid-
  // checkpoint. Crucially the WAL is NOT rolled and nothing is retired:
  // recovery skips the invalid file, falls back to the previous
  // checkpoint, and replays the intact log.
  if (std::optional<DiskFault> fault =
          faults_.NextDiskFault(DiskFault::Op::kCheckpointWrite)) {
    switch (fault->kind) {
      case DiskFault::Kind::kFsyncStall:
        options_.clock->SleepMillis(fault->stall_millis);
        break;
      case DiskFault::Kind::kTornWrite: {
        const size_t keep =
            fault->torn_bytes >= 0
                ? std::min<size_t>(static_cast<size_t>(fault->torn_bytes),
                                   blob.size())
                : blob.size() / 2;
        (void)AtomicWriteFile(path, std::string_view(blob).substr(0, keep));
        halted_.store(true, std::memory_order_release);
        return Status::Unavailable("injected torn checkpoint write");
      }
      case DiskFault::Kind::kChecksumCorruption: {
        if (!blob.empty()) {
          const size_t at = std::min<size_t>(
              static_cast<size_t>(std::max<int64_t>(fault->corrupt_offset, 0)),
              blob.size() - 1);
          blob[at] = static_cast<char>(blob[at] ^ 1);
        }
        (void)AtomicWriteFile(path, blob);
        halted_.store(true, std::memory_order_release);
        return Status::Unavailable("injected corrupt checkpoint write");
      }
    }
  }

  Status st = AtomicWriteFile(path, blob);
  if (!st.ok()) {
    halted_.store(true, std::memory_order_release);
    return st;
  }
  // The checkpoint is durable: roll to a fresh segment and retire every
  // closed segment (and older checkpoint) it fully covers.
  st = wal_->RollSegment(snapshot);
  if (!st.ok()) {
    halted_.store(true, std::memory_order_release);
    return st;
  }
  durable_checkpoint_version_.store(snapshot, std::memory_order_release);
  RetireOldCheckpoints(options_.durability.dir, snapshot);
  stats_.checkpoints_written.Increment();
  stats_.checkpoint_keys_written.Increment(keys);
  return snapshot;
}

void Database::ProcessBatchLocked(const std::vector<PendingCommit*>& batch) {
  // Allocation runs on applied_version_, not the published last_version_:
  // with the WAL on, the batch applies in memory here but last_version_
  // (what GRVs hand out) only advances after the record is fsynced, so
  // no reader ever observes a not-yet-durable version.
  const Version version =
      applied_version_.load(std::memory_order_relaxed) + 1;
  // Write ranges of members already accepted in this batch: a later
  // arrival whose reads overlap them must conflict (its read version
  // necessarily predates the shared batch version). Only members ahead of
  // the last one with reads add theirs, and the set is built only then: a
  // batch of one, or one with no later reader, allocates nothing for it.
  size_t last_reader = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!batch[i]->request.read_conflicts.empty()) last_reader = i;
  }
  std::optional<IntervalResolver> batch_writes;
  std::vector<KeyRange> combined_writes;
  uint16_t order = 0;

  for (size_t i = 0; i < batch.size(); ++i) {
    PendingCommit* pc = batch[i];
    CommitRequest& req = pc->request;
    if (!req.read_conflicts.empty()) {
      read_ranges_checked_counter_->Increment(
          static_cast<int64_t>(req.read_conflicts.size()));
      if (req.read_version < resolver_->MinCheckableVersion()) {
        stats_.too_old.Increment();
        pc->status =
            Status::TransactionTooOld("read version predates resolver window");
        continue;
      }
      if (resolver_->HasConflict(req.read_conflicts, req.read_version) ||
          (batch_writes.has_value() &&
           batch_writes->HasConflict(req.read_conflicts, req.read_version))) {
        stats_.conflicts.Increment();
        resolver_conflicts_counter_->Increment();
        pc->status = Status::NotCommitted();
        continue;
      }
    }
    if (pc->fault == FaultInjector::CommitFault::kUnknownDropped) {
      stats_.unknown_results.Increment();
      pc->status = Status::CommitUnknownResult("injected; not applied");
      continue;
    }

    store_.Apply(req.mutations, version, order);
    if (!req.write_conflicts.empty()) {
      if (i < last_reader) {
        if (!batch_writes.has_value()) batch_writes.emplace();
        batch_writes->AddCommit(version, req.write_conflicts);
      }
      if (combined_writes.empty()) {
        combined_writes = std::move(req.write_conflicts);
      } else {
        combined_writes.insert(
            combined_writes.end(),
            std::make_move_iterator(req.write_conflicts.begin()),
            std::make_move_iterator(req.write_conflicts.end()));
      }
    }
    pc->outcome = CommitOutcome{version, order};
    ++order;
    stats_.commits_succeeded.Increment();
    if (pc->fault == FaultInjector::CommitFault::kUnknownApplied) {
      stats_.unknown_results.Increment();
      pc->status = Status::CommitUnknownResult("injected; applied");
    }
  }

  batch_size_hist_->Record(static_cast<int64_t>(batch.size()));
  stats_.commit_batches.Increment();
  if (order > 0) {
    resolver_->AddCommit(version, std::move(combined_writes));
    version_times_.emplace_back(version, options_.clock->NowMillis());
    applied_version_.store(version, std::memory_order_relaxed);
    if (wal_ == nullptr) {
      // In-memory mode acknowledges immediately; with the WAL the leader
      // publishes after the fsync (AppendBatchDurable).
      last_version_.store(version, std::memory_order_release);
    }
    tracked_commits_gauge_->Set(
        static_cast<int64_t>(resolver_->TrackedCount()));
  }
  MaybePruneLocked();
}

void Database::MaybePruneLocked() {
  if (version_times_.empty()) return;
  const int64_t cutoff =
      options_.clock->NowMillis() - options_.mvcc_window_millis;
  // O(1) staleness probe: pruning is driven by the MVCC window, not by a
  // commit count — the oldest retained version going stale is what arms
  // the prune, and the prune costs only the entries it retires.
  if (version_times_.front().second >= cutoff) return;
  // With the WAL on, the floor never passes the last durable checkpoint:
  // the chunked checkpoint writer reads at a snapshot version above it
  // between shared-lock chunks, and pruning past that snapshot would
  // erase entries the snapshot still needs. Entries beyond the clamp stay
  // queued in version_times_ for the prune after the next checkpoint.
  const Version prune_limit =
      wal_ == nullptr
          ? std::numeric_limits<Version>::max()
          : durable_checkpoint_version_.load(std::memory_order_acquire);
  Version pruned = min_read_version_.load(std::memory_order_relaxed);
  while (!version_times_.empty() && version_times_.front().second < cutoff &&
         version_times_.front().first <= prune_limit) {
    pruned = version_times_.front().first;
    version_times_.pop_front();
  }
  if (pruned > min_read_version_.load(std::memory_order_relaxed)) {
    resolver_->Prune(pruned);
    stats_.storage_chains_visited.Increment(
        static_cast<int64_t>(store_.Prune(pruned)));
    min_read_version_.store(pruned, std::memory_order_release);
    tracked_commits_gauge_->Set(
        static_cast<int64_t>(resolver_->TrackedCount()));
  }
}

Database::Stats Database::GetStats() const {
  Stats out = stats_.Read();
  if (wal_ != nullptr) {
    const Wal::Stats wal = wal_->GetStats();
#define QUICK_FDB_COPY_WAL_STAT(name) out.wal_##name = wal.name;
    QUICK_FDB_WAL_COUNTERS(QUICK_FDB_COPY_WAL_STAT)
#undef QUICK_FDB_COPY_WAL_STAT
  }
  return out;
}

size_t Database::LiveKeyCount() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return store_.LiveKeyCount();
}

size_t Database::TotalEntryCount() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return store_.TotalEntryCount();
}

size_t Database::ResolverTrackedCount() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return resolver_->TrackedCount();
}

}  // namespace quick::fdb
