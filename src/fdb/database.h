#ifndef QUICK_FDB_DATABASE_H_
#define QUICK_FDB_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "common/result.h"
#include "fdb/fault_injector.h"
#include "fdb/recovery.h"
#include "fdb/resolver.h"
#include "fdb/transaction.h"
#include "fdb/types.h"
#include "fdb/versioned_store.h"
#include "fdb/wal.h"

/// The cluster's counters, named once (common/metrics.h's declare-once
/// lists).
#define QUICK_FDB_DATABASE_COUNTERS(X)                                 \
  X(grv_calls)                                                         \
  X(grv_cache_hits)                                                    \
  X(commits_attempted)                                                 \
  X(commits_succeeded)                                                 \
  /* Commit batches applied; commits_attempted / commit_batches is the \
     mean group-commit batch size. */                                  \
  X(commit_batches)                                                    \
  X(conflicts)                                                         \
  X(too_old)                                                           \
  X(unknown_results)                                                   \
  X(reads)                                                             \
  /* Version chains that storage scans and prunes stepped over: a work \
     count that must track what a read returns or a prune retires, not \
     the store's size. */                                              \
  X(storage_chains_visited)                                            \
  /* Durability pipeline (zero while the WAL is disabled). */          \
  X(checkpoints_written)                                               \
  X(checkpoint_keys_written)

namespace quick::fdb {

/// One simulated FoundationDB cluster: MVCC storage + resolver + version
/// authority. Thread-safe; any number of threads may run transactions
/// concurrently (reads take a shared lock; commits are group-committed —
/// concurrently arriving commits are resolved and applied as one batch at a
/// single storage version under one exclusive lock acquisition, as a real
/// cluster's commit proxies batch transactions. Injected latencies are paid
/// outside the locks so commits pipeline).
class Database {
 public:
  struct Options {
    Clock* clock = SystemClock::Default();
    /// FoundationDB's 5-second transaction lifetime; reads/commits on older
    /// transactions fail with kTransactionTooOld.
    int64_t transaction_timeout_millis = 5000;
    /// MVCC retention: versions older than this are pruned.
    int64_t mvcc_window_millis = 5000;
    /// Byte budget per transaction (FDB's limit is 10 MB; smaller default
    /// keeps the simulator honest about batch sizes).
    int64_t max_transaction_bytes = 1 << 20;
    /// How stale a cached read version may be before a real GRV is issued.
    int64_t grv_cache_staleness_millis = 1000;
    /// Group commit: concurrently arriving commits are resolved and
    /// applied as one batch at a single storage version (members get
    /// distinct versionstamp batch-order bytes), at most this many per
    /// batch (capped at 65535, the versionstamp batch-order range). 1 =
    /// every commit is a batch of one.
    int max_commit_batch = 128;
    LatencyModel latency;
    FaultInjector::Config faults;
    /// Scheduled fault windows (outages, failure-rate spikes, latency
    /// spikes) layered on the probabilistic config; see fault_plan.h.
    FaultPlan fault_plan;
    /// Durable write-ahead log + checkpointing (DESIGN.md §9). Off by
    /// default: the cluster is purely in-memory, exactly as before.
    struct Durability {
      bool enable_wal = false;
      /// Directory for WAL segments and checkpoint files; required (and
      /// created) when enable_wal is set. A restart is modelled by
      /// constructing a new Database over the same directory.
      std::string dir;
      /// Auto-checkpoint once the current WAL segment exceeds this many
      /// bytes; 0 disables the trigger (Checkpoint() is still callable).
      int64_t checkpoint_interval_bytes = 4 << 20;
      /// Keys visited per shared-lock acquisition while the checkpoint
      /// writer streams the store — commits interleave between chunks.
      size_t checkpoint_chunk_keys = 1024;
      /// Replication commit fence (DESIGN.md §10): invoked by the commit
      /// leader after the batch's WAL fsync and before any member is
      /// acknowledged or the version published. Non-OK demotes the whole
      /// batch to kCommitUnknownResult and keeps the version unpublished;
      /// kFailedPrecondition (the epoch is sealed — this region has been
      /// failed away from) additionally halts the database, fencing the
      /// zombie primary for good. Null = no fence (single-region).
      std::function<Status(Version)> commit_fence;
    };
    Durability durability;
  };

  /// Cumulative cluster statistics (observability; Figure 7's collision
  /// breakdown reads the conflict counter), followed by the WAL's counters
  /// as wal_<name> (all zero when the WAL is disabled).
  struct Stats {
#define QUICK_FDB_WAL_STAT_FIELD(name) int64_t wal_##name = 0;
    QUICK_FDB_DATABASE_COUNTERS(QUICK_STAT_FIELD)
    QUICK_FDB_WAL_COUNTERS(QUICK_FDB_WAL_STAT_FIELD)
#undef QUICK_FDB_WAL_STAT_FIELD
  };

  /// Replaces the injected-latency model. NOT thread-safe: call only while
  /// no transactions are in flight (benchmarks use it to pre-fill data at
  /// full speed before turning realistic latencies on).
  void set_latency(const LatencyModel& latency) { latency_ = latency; }

  explicit Database(std::string name);
  Database(std::string name, Options options);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Begins a transaction on this cluster.
  Transaction CreateTransaction(TransactionOptions topts = {}) {
    return Transaction(this, topts);
  }

  const std::string& name() const { return name_; }
  const Options& options() const { return options_; }
  Clock* clock() const { return options_.clock; }
  FaultInjector* fault_injector() { return &faults_; }

  /// Latest committed version (no latency; test/diagnostic use).
  Version LastCommittedVersion() const {
    return last_version_.load(std::memory_order_acquire);
  }

  Stats GetStats() const;

  /// Number of live keys (diagnostics).
  size_t LiveKeyCount() const;

  /// Total version-chain entries in storage (prune/churn diagnostics).
  size_t TotalEntryCount() const;

  /// Commit records / interval nodes currently retained by the resolver
  /// (diagnostics; also exported as fdb.resolver.tracked_commits).
  size_t ResolverTrackedCount() const;

  /// Snapshots the store at the latest durable version into a checkpoint
  /// file, rolls the WAL to a fresh segment, and retires segments and
  /// checkpoints wholly covered by the new one. Streams the store in
  /// chunks, so commits and reads proceed concurrently. Returns the
  /// checkpoint version; kFailedPrecondition when the WAL is disabled or
  /// another checkpoint is in flight, kUnavailable after a fatal disk
  /// fault. Also fired automatically by segment growth
  /// (durability.checkpoint_interval_bytes).
  Result<Version> Checkpoint();

  /// What cold-start recovery found in durability.dir (all-defaults when
  /// the WAL is disabled). `recovered` distinguishes a resumed store from
  /// a genuinely fresh directory.
  const RecoveryInfo& GetRecoveryInfo() const { return recovery_info_; }

  /// Version of the newest durable checkpoint (0 before the first). The
  /// MVCC prune floor never passes this while the WAL is on.
  Version DurableCheckpointVersion() const {
    return durable_checkpoint_version_.load(std::memory_order_acquire);
  }

  /// True after a fatal disk fault (torn write, corruption, I/O error):
  /// the simulated process is dead and every operation returns
  /// kUnavailable. Recover by constructing a new Database over the dir.
  bool DurabilityDead() const;

  /// Kills the simulated process (region-kill in failover chaos): every
  /// subsequent operation fails kUnavailable until a new Database
  /// recovers from the directory. Also how a sealed epoch's zombie
  /// primary is fenced off after its ack is refused.
  void Halt() { halted_.store(true, std::memory_order_release); }

 private:
  friend class Transaction;

  /// Completion hook for CommitAsync. Runs exactly once, off the commit
  /// queue lock, on whichever thread finishes the batch (usually the
  /// cluster's commit-pump thread).
  using CommitCallback = std::function<void(Result<CommitOutcome>)>;

  /// One commit waiting in (or being processed from) the group-commit
  /// queue. Blocking commits own theirs on the committing thread's stack
  /// (`on_done` empty; the leader flips `done` under commit_queue_mu_);
  /// async commits are heap-allocated and deleted after `on_done` fires.
  struct PendingCommit {
    CommitRequest request;
    FaultInjector::CommitFault fault;
    Status status = Status::OK();
    CommitOutcome outcome;
    bool done = false;
    /// Drained into an in-flight batch: its leader releases the baton
    /// before the fsync, so a claimed commit must wait for `done` rather
    /// than become leader itself.
    bool claimed = false;
    CommitCallback on_done;
  };

  /// getReadVersion with latency, fault injection, and the version cache.
  Result<Version> AcquireReadVersion(const TransactionOptions& topts);

  Result<std::optional<std::string>> ReadAt(const std::string& key,
                                            Version version);

  /// Streaming range read: sink is invoked under the shared lock with
  /// views into storage — the copy-light path behind Transaction::ScanRange.
  Status ScanRangeAt(const KeyRange& range, Version version,
                     const RangeOptions& options, const RangeSink& sink);

  Result<CommitOutcome> CommitAt(CommitRequest&& request);

  /// Fire-and-notify commit: enqueues the request into the same group-
  /// commit pipeline as CommitAt and returns immediately; `done` runs with
  /// the outcome once the batch leader acks (after the WAL fsync and
  /// replication fence, exactly as a blocking commit would unblock). An
  /// in-flight commit therefore no longer owns a thread — hundreds can
  /// ride one pump round. Precheck failures (durability dead, injected
  /// unavailable/too-old) invoke `done` inline before returning.
  void CommitAsync(CommitRequest&& request, CommitCallback done);

  /// Leads one group-commit round. Precondition: `qlock` holds
  /// commit_queue_mu_ and commit_leader_active_ was just set by the
  /// caller. Pays the replication latency (the batching window) with the
  /// queue unlocked, drains one batch, resolves + applies it, runs the
  /// durability pipeline, acks sync members (done flag) and async members
  /// (callbacks, fired outside the lock). Returns with `qlock` re-held and
  /// the baton released.
  void LeadOneRound(std::unique_lock<std::mutex>& qlock, size_t max_batch);

  /// Splits a finished batch under commit_queue_mu_: sync members get
  /// `done = true` (their committer wakes and reads status/outcome); async
  /// members are collected for FireCallbacks.
  void FinishMembersLocked(const std::vector<PendingCommit*>& batch,
                           std::vector<PendingCommit*>* async_done);

  /// Invokes and frees async members' callbacks. Caller must NOT hold
  /// commit_queue_mu_ — callbacks may re-enter the database (retry
  /// re-arms, chained transactions).
  void FireCallbacks(std::vector<PendingCommit*>* async_done);

  /// Lazily starts the commit-pump thread that leads rounds on behalf of
  /// async commits (a blocking commit leads its own round; an async commit
  /// has no thread parked in CommitAt to inherit the baton). Caller holds
  /// commit_queue_mu_.
  void EnsureCommitPumpLocked();
  void CommitPumpLoop();

  size_t MaxCommitBatch() const;

  /// Resolves and applies one batch at a single new version. Caller holds
  /// the exclusive lock.
  void ProcessBatchLocked(const std::vector<PendingCommit*>& batch);

  /// Drops MVCC state older than the retention window on every batch: an
  /// O(1) staleness probe, then a prune that costs what it retires. Caller
  /// holds the exclusive lock. With the WAL on, the floor is additionally
  /// clamped at the last durable checkpoint version so the chunked
  /// checkpoint writer's snapshot version stays readable between chunks.
  void MaybePruneLocked();

  /// Frames the batch's accepted members as one WAL record and appends it
  /// WITHOUT fsyncing; `*ref` and `*log_end` feed FinishBatchDurable.
  /// Called by the commit leader while it still holds the baton — the
  /// baton serializes appends, so records land in version order.
  Status AppendBatchToWal(const std::vector<PendingCommit*>& batch,
                          WalBatchRef* ref, uint64_t* log_end);

  /// Fsyncs the batch's record (group fsync: one fsync covers every batch
  /// appended behind it), runs the replication commit fence, and publishes
  /// the batch version only when both succeed (invariant 15: no ack before
  /// fsync; invariant 17: no ack past a sealed epoch). On failure every
  /// accepted member is demoted to kCommitUnknownResult. Called after the
  /// baton is released, so the next leader's append overlaps this fsync.
  void FinishBatchDurable(const std::vector<PendingCommit*>& batch,
                          const WalBatchRef& ref, uint64_t log_end,
                          Status append_status);

  /// Runs Checkpoint() when the current WAL segment outgrew the
  /// configured interval; one trigger wins, concurrent ones no-op.
  void MaybeAutoCheckpoint();

  /// Cold-start path when durability.enable_wal is set: recover the store
  /// from the directory, seed the version counters, open the WAL. A
  /// recovery failure halts the database (every operation returns
  /// kUnavailable) rather than serving an inconsistent store.
  void InitDurability();

  void InjectLatency(int64_t micros);

  const std::string name_;
  const Options options_;
  FaultInjector faults_;

  mutable std::shared_mutex mu_;
  VersionedStore store_;
  std::unique_ptr<Resolver> resolver_;
  std::deque<std::pair<Version, int64_t>> version_times_;

  /// Group-commit queue: committers enqueue, the first becomes leader and
  /// drains the queue in max_commit_batch-sized batches; the rest wait.
  std::mutex commit_queue_mu_;
  std::condition_variable commit_cv_;
  std::deque<PendingCommit*> commit_queue_;
  bool commit_leader_active_ = false;

  /// Commit pump (async path): started on the first CommitAsync, joined in
  /// the destructor. Guarded by commit_queue_mu_.
  std::thread commit_pump_;
  bool commit_pump_started_ = false;
  bool commit_pump_stop_ = false;

  std::atomic<Version> last_version_{0};
  std::atomic<Version> min_read_version_{0};

  // Durability pipeline; wal_ stays null when durability.enable_wal is
  // off and every path below reduces to today's in-memory behaviour.
  // applied_version_ is the allocation counter: with the WAL on it runs
  // ahead of the published last_version_ between apply and fsync, so
  // readers and GRVs never observe a version that is not yet durable.
  std::unique_ptr<Wal> wal_;
  RecoveryInfo recovery_info_;
  std::atomic<Version> applied_version_{0};
  std::atomic<Version> durable_checkpoint_version_{0};
  std::atomic<bool> checkpoint_in_progress_{false};
  /// Fatal durability failure outside the Wal itself (checkpoint-write
  /// faults): the simulated process is dead.
  std::atomic<bool> halted_{false};

  std::mutex grv_cache_mu_;
  Version cached_grv_ = kInvalidVersion;
  int64_t cached_grv_time_millis_ = 0;

  LatencyModel latency_;

  // Process-wide instruments (MetricsRegistry::Default()), resolved once.
  Histogram* batch_size_hist_;
  Gauge* tracked_commits_gauge_;
  Counter* read_ranges_checked_counter_;
  Counter* resolver_conflicts_counter_;

  // Lock-free statistic counters: reads/commits from every thread touch
  // these, so a mutex here would serialize the whole cluster.
  QUICK_LIVE_COUNTERS(QUICK_FDB_DATABASE_COUNTERS, Stats) stats_;
};

}  // namespace quick::fdb

#endif  // QUICK_FDB_DATABASE_H_
