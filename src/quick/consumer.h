#ifndef QUICK_QUICK_CONSUMER_H_
#define QUICK_QUICK_CONSUMER_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/blocking_queue.h"
#include "common/random.h"
#include "fdb/executor.h"
#include "fdb/future.h"
#include "quick/alerts.h"
#include "quick/cluster_health.h"
#include "quick/config.h"
#include "quick/job_registry.h"
#include "quick/lease_cache.h"
#include "quick/pointer.h"
#include "quick/quick.h"
#include "quick/stats.h"
#include "quick/trace_hooks.h"

namespace quick::core {

/// One QuiCK consumer process (§6): a Scanner thread round-robining over
/// the top-level queues of its assigned clusters (Algorithm 1), a pool of
/// Manager threads leasing pointers and batch-dequeuing work items
/// (Algorithm 2), a pool of Worker threads executing items with dynamic
/// lease extension and retry policies (Algorithm 3), and a lease-extender
/// thread.
///
/// Three driving modes run one chain of steps — lease, dequeue, execute,
/// finish, pointer requeue/GC — each written once; only the private
/// transaction runner (RunStep/CommitOnce) knows which mode a chain is in:
///  - RunOnePass()/ProcessTopItem(): inline. Every transaction commits on
///    the calling thread and work items run there too (deterministic
///    tests).
///  - Start()/Stop(): threaded. Real threads, used by benchmarks and
///    examples; Manager threads run the chains with blocking commits.
///  - Start() with config.async_pipeline: pipelined (DESIGN.md §11). No
///    Manager pool: pointer leases are batched across Q_C pointers per
///    transaction, commits ride the cluster's async group-commit pipeline
///    (Database::CommitAsync), and a bounded window of in-flight
///    transactions — hundreds per consumer — overlaps the commit RTTs
///    that the blocking modes serialize. The Scanner applies backpressure
///    when the window fills.
class Consumer {
 public:
  /// `election_cache` enables the dynamic election of one sequential
  /// scanner per top-level queue (§6); pass nullptr to use
  /// config.sequential statically.
  Consumer(Quick* quick, std::vector<std::string> cluster_names,
           JobRegistry* registry, ConsumerConfig config,
           std::string consumer_id = "", LeaseCache* election_cache = nullptr);
  ~Consumer();

  Consumer(const Consumer&) = delete;
  Consumer& operator=(const Consumer&) = delete;

  /// Spawns scanner/manager/worker/extender threads.
  void Start();

  /// Stops all threads; safe to call twice. In-flight leases are simply
  /// abandoned (they expire, and other consumers take over — the
  /// fault-tolerance story of §5).
  void Stop();

  bool running() const { return running_.load(); }

  /// Synchronous Algorithm 1 body for one cluster: peeks, selects, and
  /// processes every selected top-level item inline. Returns the number of
  /// top-level items processed.
  Result<int> RunOnePass(const std::string& cluster_name);

  /// Synchronous Algorithm 2/3 for one top-level item (pointer or local).
  Status ProcessTopItem(const std::string& cluster_name,
                        const std::string& item_id);

  ConsumerStats& stats() { return stats_; }
  const std::string& id() const { return id_; }
  const ConsumerConfig& config() const { return config_; }

  /// Per-cluster health tracking (circuit breakers); the Scanner consults
  /// it to skip clusters that look down (§5's graceful degradation under
  /// partial outages).
  ClusterHealth& health() { return health_; }

  /// Routes operational alerts (repeated failures, drops, breaker
  /// transitions) to `sink`. Call before Start(); the sink must outlive
  /// the consumer.
  void SetAlertSink(AlertSink* sink) {
    alert_sink_ = sink;
    health_.SetAlertSink(sink);
  }

  /// Chaos hook: freezes this consumer as if its process died — every
  /// subsequent scan, dequeue, execution, completion, and lease extension
  /// becomes a no-op, so leases it holds are simply abandoned and expire
  /// (the §5 fault-tolerance story: other consumers take over). Unlike
  /// Stop() this can fire mid-item from a handler, leaving work genuinely
  /// half-done. Irreversible for this instance.
  void SimulateCrash() { crashed_.store(true); }
  bool crashed() const { return crashed_.load(); }

 private:
  /// How a chain is driven: the three modes of the class comment. Steps
  /// hand every transaction to RunStep/CommitOnce, the only code that
  /// commits a chain's transactions; inline and threaded chains commit
  /// there on the calling thread and continue before the call returns,
  /// pipelined ones hold a window slot and continue on the executor
  /// (DESIGN.md §11).
  enum class ChainMode { kInline, kThreaded, kPipelined };

  struct TopJob {
    std::string cluster;
    std::string item_id;
  };

  /// One top-level item travelling through Algorithm 2 after the lease
  /// step read it: every later step of its chain carries this.
  struct TopChain {
    std::string cluster;
    ck::QueuedItem pointer;  // as read by the lease step
    std::string lease_id;    // the pointer lease this chain holds
    ChainMode mode = ChainMode::kInline;
    /// ProcessTopItem's return slot for the chain's error, if any. Only
    /// inline chains set it; they end before ProcessTopItem returns.
    Status* result = nullptr;
  };

  struct WorkerJob {
    std::string cluster;
    ck::DatabaseId db_id;
    std::string zone_name;
    tup::Subspace zone_subspace;
    /// The zone's schema (FIFO zones maintain an arrival index that every
    /// item write must keep consistent).
    bool fifo_zone = false;
    ck::LeasedItem leased;
    std::shared_ptr<std::atomic<bool>> lease_lost;
    std::shared_ptr<const JobRegistry::Entry> entry;  // may be null
    bool throttle_held = false;
    /// The mode of the chain that dequeued the item; its finish (complete,
    /// requeue, quarantine) is driven the same way.
    ChainMode mode = ChainMode::kInline;
    /// What the handler produced on its final attempt: continuations,
    /// outbox effects, and the same-transaction hook ride the successful
    /// Complete (Gray's queued-transaction pattern).
    WorkResult result;
    /// Produced by the entry's TerminalHandler when the item is headed for
    /// a terminal failure; its extras ride the quarantine/drop transaction
    /// (saga compensation launch).
    WorkResult terminal_result;
  };

  /// What one dequeue transaction took out of a tenant zone. Shared by the
  /// transaction body (which resets it on every attempt) and the step's
  /// continuation.
  struct Dequeued {
    std::vector<ck::LeasedItem> items;
    std::optional<int64_t> min_vesting;
  };

  /// Outcome of a finish transaction's committed attempt, and its span.
  struct FinishState {
    bool fenced = false;
    /// The continuations part one staged, ids filled in.
    std::vector<DelayedItem> continuations;
    EnqueueFollowUp follow_up;
    int64_t start_micros = 0;
    int64_t end_micros = 0;
  };

  using TxnBody = std::function<Status(fdb::Transaction&)>;
  using Continuation = std::function<void(const Status&)>;

  // --- The transaction runner: the only code that commits a chain's txns ---
  /// Retrying step: runs `body` under the FDB retry loop, then `then` with
  /// the outcome.
  void RunStep(ChainMode mode, const std::string& cluster, TxnBody body,
               Continuation then);
  /// Single-attempt commit of a transaction the caller has already filled
  /// (the pointer lease and the pointer GC, where a conflict is an answer,
  /// not something to retry).
  void CommitOnce(ChainMode mode, std::shared_ptr<fdb::Transaction> txn,
                  Continuation then);
  /// Scanner-side window admission: blocks (counting backpressure stalls)
  /// until the window has room; false on shutdown.
  bool WaitForWindowSlot();
  /// Window accounting: RunStep/CommitOnce hold one slot per pipelined
  /// transaction, from before it starts until after its continuation ran,
  /// so a chain never drops out of the window between steps.
  void BeginTxn() { inflight_txns_.fetch_add(1, std::memory_order_relaxed); }
  void EndTxn() { inflight_txns_.fetch_sub(1, std::memory_order_acq_rel); }

  // --- Algorithm 1 ---
  void ScannerLoop(ChainMode mode);
  /// One peek+select+dispatch round; returns number dispatched.
  Result<int> ScanClusterOnce(const std::string& cluster_name, ChainMode mode);
  /// Shared peek + in-flight filter + selection (Alg. 1 lines 6–9); the
  /// returned ids are NOT yet marked in flight. Records scan_micros.
  std::vector<std::string> PeekAndSelect(fdb::Database* cluster,
                                         const std::string& cluster_name,
                                         ChainMode mode);
  /// Per-(cluster, shard) sequential-scanner election (§6, DESIGN.md §12).
  /// `shard_zone` is the top-level shard's zone name; unsharded clusters
  /// keep the legacy per-cluster key.
  bool IsSequential(const std::string& cluster_name,
                    const std::string& shard_zone);

  /// The shards of `cluster_name` this consumer visits this scan
  /// (DESIGN.md §12): with striping, the stripe rendezvous hashing assigns
  /// to this consumer given the current LeaseCache membership, plus at
  /// most one stolen foreign shard; otherwise every shard. Visit order is
  /// rotated by a random offset so no shard is systematically first.
  struct ShardPlan {
    std::vector<std::string> visit;
    int owned = 0;   // stripe size (visit minus stolen)
    int stolen = 0;  // 1 when a foreign shard was added this scan
  };
  ShardPlan PlanShards(const std::string& cluster_name);
  /// TTL of the sequential-scanner election and of the stripe membership
  /// announcement: 4 × idle_sleep, bounded below by 1 s.
  int64_t ElectionTtlMillis() const {
    return std::max<int64_t>(1000, 4 * config_.idle_sleep_millis);
  }

  // --- Algorithm 2 ---
  /// The lease step: one transaction leases every pointer in `ids` (all
  /// already marked in flight); each survivor continues its own chain.
  /// Only pipelined chains pass more than one id.
  void LeaseBatch(const std::string& cluster_name,
                  std::vector<std::string> ids, ChainMode mode,
                  Status* result = nullptr);
  void OnLeaseCommitted(const std::string& cluster_name, ChainMode mode,
                        std::vector<TopChain> survivors, int64_t lease_start,
                        const Status& commit);
  /// Dequeue step for a leased pointer, then the requeue/GC step.
  void HandlePointer(TopChain chain);
  /// A1 ablation: dequeue directly without a pointer lease (item-level
  /// contention, ATF-style).
  void HandlePointerItemLevel(TopChain chain);
  /// Dequeue transaction body (Alg. 2 step ii) behind the migration fence.
  Status DequeueBody(fdb::Transaction& txn, const ck::DatabaseId& db_id,
                     const tup::Subspace& zone_subspace, Dequeued* out);
  /// Hands a dequeue's items to the Workers.
  void DispatchDequeued(const TopChain& chain, const Pointer& pointer,
                        std::vector<ck::LeasedItem> items, int64_t deq_start,
                        int64_t deq_end, const std::string& detail);
  void RequeueOrGcPointer(const TopChain& chain, bool found_items,
                          std::optional<int64_t> min_vesting,
                          const tup::Subspace& zone_subspace);
  /// Last step of every top-level chain: releases the in-flight mark and
  /// reports `st` to ProcessTopItem.
  void EndChain(const TopChain& chain, const Status& st);

  // --- Algorithm 3 ---
  void DispatchWorkerJob(WorkerJob job);
  /// Pushes an already-dequeued item back (admission / throttle verdicts).
  void RequeueBack(const WorkerJob& job, int64_t delay, std::string why);
  void ProcessWorkItem(WorkerJob job);
  void FinishItem(WorkerJob job, const Status& final_status);
  /// Terminal failure (permanent error, retry exhaustion, unknown job
  /// type): quarantines or — legacy mode — deletes the item, fenced by the
  /// job's lease so an expired-lease consumer can never perform a terminal
  /// transition on an item another consumer has retaken.
  void FinishTerminalFailure(std::shared_ptr<const WorkerJob> job,
                             const Status& final_status,
                             const RetryPolicy& policy);
  /// One lease-fenced transition out of processing: `transition` is the
  /// queue write, `extras` (may be null) commit with it, and `done` runs
  /// after an unfenced commit. A fenced transition applies nothing and is
  /// counted as such under `what`.
  void FinishStep(std::shared_ptr<const WorkerJob> job, const char* what,
                  const WorkResult* extras, bool observe_health,
                  std::function<Status(ck::QueueZone&)> transition,
                  std::function<void(const FinishState&)> done);
  /// True when `result` carries anything the finish transaction must apply.
  static bool HasExtras(const WorkResult& result) {
    return result.txn_hook != nullptr || !result.continuations.empty() ||
           !result.effects.empty();
  }
  /// Applies a WorkResult's extras inside the finish transaction `txn`,
  /// after the (non-fenced) queue transition: runs the txn_hook, stages
  /// the continuations through Quick::EnqueuePartOne into the finishing
  /// item's database, and appends the outbox rows. Resets
  /// state->continuations and state->follow_up on entry (transaction
  /// bodies re-run on conflict).
  Status ApplyResultExtras(fdb::Transaction& txn, const WorkerJob& job,
                           const WorkResult& result, FinishState* state);
  /// Post-commit bookkeeping for applied extras: stats, and the
  /// continuations' Quick::EnqueueEpilogue.
  void AfterResultExtras(const WorkerJob& job, const WorkResult& result,
                         const FinishState& state);

  // Lease extender.
  void ExtenderLoop();
  void ExtendOnce();

  // Bookkeeping.
  fdb::Database* Cluster(const std::string& name);
  std::string InFlightKey(const std::string& cluster,
                          const std::string& id) const {
    return cluster + "|" + id;
  }
  bool MarkInFlight(const std::string& key);
  void UnmarkInFlight(const std::string& key);
  bool TryAcquireThrottle(const std::string& job_type, int max_concurrent);
  void ReleaseThrottle(const std::string& job_type);

  fdb::TransactionOptions PeekOptions() const {
    fdb::TransactionOptions topts;
    if (config_.relaxed_reads_for_peek) {
      topts.use_cached_read_version = true;
      topts.causal_read_risky = true;
    }
    return topts;
  }

  void RaiseAlert(Alert::Kind kind, const WorkerJob& job,
                  int64_t error_count, const std::string& detail);

  Quick* quick_;
  JobRegistry* registry_;
  AlertSink* alert_sink_ = nullptr;
  ConsumerConfig config_;
  std::string id_;
  std::vector<std::string> clusters_;
  LeaseCache* election_;
  ConsumerStats stats_;
  ClusterHealth health_;
  /// Span recorder bound to this consumer's id; captures quick_->tracer()
  /// at construction (set_tracer is setup-time only).
  TraceHooks hooks_;
  Random scanner_rng_;

  std::atomic<bool> running_{false};
  std::atomic<bool> crashed_{false};
  std::vector<std::thread> threads_;
  std::unique_ptr<BlockingQueue<TopJob>> manager_queue_;
  std::unique_ptr<BlockingQueue<WorkerJob>> worker_queue_;

  /// Pipelined chains: continuation executor, chain cancellation (armed by
  /// Stop()), and the in-flight transaction window counter.
  std::unique_ptr<fdb::ThreadPoolExecutor> exec_;
  fdb::CancelToken cancel_;
  std::atomic<int> inflight_txns_{0};

  std::mutex inflight_mu_;
  std::set<std::string> in_flight_;

  /// Last computed stripe size per cluster, for the shards_owned gauge.
  std::mutex stripe_mu_;
  std::map<std::string, int> owned_shards_;
  /// Process-wide scanner metrics (quick.scanner.*): the steals counter is
  /// shared across consumers; the stripe-size gauge is per consumer.
  Counter* steals_metric_;
  Gauge* shards_owned_gauge_;

  std::mutex throttle_mu_;
  std::map<std::string, int> throttle_counts_;

  struct ExtensionEntry {
    std::string cluster;
    tup::Subspace zone_subspace;
    bool fifo_zone = false;
    std::string item_id;
    std::string lease_id;
    std::shared_ptr<std::atomic<bool>> lease_lost;
  };
  std::mutex ext_mu_;
  std::map<std::string, ExtensionEntry> extensions_;
};

}  // namespace quick::core

#endif  // QUICK_QUICK_CONSUMER_H_
