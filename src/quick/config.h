#ifndef QUICK_QUICK_CONFIG_H_
#define QUICK_QUICK_CONFIG_H_

#include <cstdint>
#include <map>
#include <string>

namespace quick::core {

/// System-wide QuiCK settings.
struct QuickConfig {
  /// Zone name used for the per-database work queue Q_DB.
  std::string queue_zone_name = "_queue";
  /// Use the strict-FIFO schema for tenant queue zones (§5's commit-order
  /// extension). Consumers read this switch too: they then dequeue
  /// tenant-zone items in strict enqueue-commit order instead of
  /// (priority, vesting) order.
  bool fifo_tenant_zones = false;
  /// Zone name of the top-level queue Q_C inside each ClusterDB.
  std::string top_zone_name = "_quick_q";
  /// Number of top-level queue shards per cluster (§6: "more queues can be
  /// created for scalability by sharding the key-space"). Entries are
  /// assigned to shards by hashing their item id, so every component —
  /// enqueuers, consumers, migration, admin — derives the shard
  /// independently. 1 reproduces the paper's deployed configuration.
  int top_zone_shards = 1;
  /// Per-cluster overrides of `top_zone_shards`, keyed by cluster name.
  /// Clusters absent from the map use the global value. Shard derivation
  /// is always done against the cluster that owns the zone, so a tenant
  /// migrating between clusters with different shard counts lands in the
  /// shard derived at the *destination*.
  std::map<std::string, int> cluster_top_zone_shards;
  /// Second-part enqueue optimization (§6 "Reducing contention"): lower the
  /// pointer's vesting time when it exceeds the new item's vesting by more
  /// than this slack.
  int64_t pointer_vesting_slack_millis = 1000;
};

/// Per-cluster circuit breaker (closed → open → half-open) guarding the
/// consumer against clusters that have gone dark: instead of burning FDB
/// retry budgets against an unreachable cluster every scan round, the
/// Scanner skips open-circuit clusters and probes them with exponentially
/// backed-off half-open attempts until they recover.
struct CircuitBreakerConfig {
  bool enabled = true;
  /// Consecutive infrastructure failures (unavailable / timed-out /
  /// transaction-too-old) that trip the breaker open. Contention outcomes
  /// (conflicts, lost leases) never count.
  int failure_threshold = 5;
  /// Consecutive half-open probe successes required to close again.
  int success_threshold = 2;
  /// How long the breaker stays open before the first half-open probe;
  /// doubles (times `open_backoff_multiplier`) on every failed probe, up
  /// to `open_max_millis`.
  int64_t open_initial_millis = 500;
  int64_t open_max_millis = 30000;
  double open_backoff_multiplier = 2.0;
};

/// Per-consumer scheduling parameters; names follow Algorithm 1–3 of the
/// paper. Defaults mirror §8 where given (peek_max=20K, selection_max=2K,
/// selection_frac=0.02) and are otherwise practical small-scale values.
struct ConsumerConfig {
  /// Max pointers peeked from a top-level queue per scan (Alg. 1).
  int peek_max = 20000;
  /// Fraction of peeked pointers a randomized Scanner selects (Alg. 1).
  double selection_frac = 0.02;
  /// Upper bound on pointers selected per peek (Alg. 1).
  int selection_max = 2000;
  /// Max pointers processed per cluster before moving on (Alg. 1).
  int processing_bound = 10000;
  /// Max work items dequeued per queue visit (Alg. 2) — the per-queue
  /// fairness bound.
  int dequeue_max = 1;
  /// Pointer lease duration (short: just long enough to dequeue, §6).
  int64_t pointer_lease_millis = 1000;
  /// Work-item lease duration.
  int64_t item_lease_millis = 5000;
  /// How often the lease extender renews in-flight item leases.
  int64_t lease_extension_interval_millis = 1000;
  /// Pointer GC grace (§6): a pointer to an empty queue is deleted only
  /// after the queue has been inactive this long.
  int64_t min_inactive_millis = 60000;
  /// Threads in the Manager pool (128 in the paper's runs).
  int num_manager_threads = 4;
  /// Threads in the Worker pool (128 in the paper's runs).
  int num_worker_threads = 8;
  /// Scanner sleep when every top-level queue came up empty.
  int64_t idle_sleep_millis = 20;
  /// Process pointers in top-level-queue order instead of random selection
  /// (the elected no-starvation scanner, §6). When a LeaseCache is
  /// provided, election is dynamic and this field is ignored.
  bool sequential = false;
  /// Use cached read versions / causal-read-risky for peeks and leases
  /// (§6 "Isolation level"); enqueues never do.
  bool relaxed_reads_for_peek = true;
  /// Baseline mode for the lease-granularity ablation: consumers lease
  /// individual work items without first leasing the queue's pointer
  /// (ATF-style, §7). Leave false for QuiCK behaviour.
  bool item_level_leases_only = false;
  /// Per-cluster health tracking / circuit breaking (see
  /// CircuitBreakerConfig).
  CircuitBreakerConfig breaker;

  // --- Shard-affine striped scanning (DESIGN.md §12) ---
  /// Stripe the top-level shards of each cluster across the live consumers:
  /// every scan the consumer announces itself to the LeaseCache membership
  /// group and peeks only the shards that rendezvous-hashing assigns to it,
  /// plus occasional work-stealing peeks of foreign shards (below). With
  /// one consumer, or without a LeaseCache, the stripe is all shards.
  /// Ignored when the cluster has a single shard — striping one shard
  /// would idle every consumer but the owner.
  bool striped_scanners = false;
  /// Probability per (scan, cluster) that a striped scanner also peeks one
  /// random foreign shard. This bounds starvation when a stripe's owner
  /// dies: until membership TTL expiry re-assigns the stripe, foreign
  /// shards are still visited at this rate. A consumer owning zero shards
  /// always steals exactly one.
  double steal_probability = 0.05;

  // --- Async pipelined mode (DESIGN.md §11) ---
  /// Drive the consumer as a pipelined state machine: lease / dequeue /
  /// finish transactions commit through the cluster's async group-commit
  /// pipeline, so an in-flight commit holds a window slot instead of a
  /// thread and hundreds of transactions overlap one commit RTT. The
  /// synchronous RunOnePass()/ProcessTopItem() paths are unaffected.
  bool async_pipeline = false;
  /// In-flight transaction window per consumer: the Scanner stops
  /// admitting new pointer batches when this many async transaction
  /// chains are outstanding (backpressure; see stats.backpressure_waits).
  int max_inflight_txns = 256;
  /// Q_C pointers leased per transaction in async mode: one commit RTT is
  /// amortized across the batch; a conflicted batch falls back to
  /// single-pointer leases so one contended pointer cannot poison it.
  int lease_batch_size = 8;
  /// Threads in the continuation executor that runs async transaction
  /// bodies and completions.
  int async_executor_threads = 4;
};

}  // namespace quick::core

#endif  // QUICK_QUICK_CONFIG_H_
