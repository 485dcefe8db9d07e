#ifndef QUICK_QUICK_QUICK_H_
#define QUICK_QUICK_QUICK_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cloudkit/service.h"
#include "common/trace.h"
#include "fdb/executor.h"
#include "fdb/future.h"
#include "quick/admission_gate.h"
#include "quick/config.h"
#include "quick/pointer.h"
#include "quick/tenant_metrics.h"

namespace quick::core {

class TraceHooks;

/// A client-facing work item.
struct WorkItem {
  std::string job_type;
  std::string payload;
  int64_t priority = 0;
  /// Optional idempotency id; random when empty.
  std::string id;
};

/// A work item with its own vesting delay: one entry of part one's list
/// (Quick::EnqueuePartOne). A consumer's continuations are these.
struct DelayedItem : WorkItem {
  int64_t vesting_delay_millis = 0;
};

/// Callback invoked after an enqueue commits an item at the FRONT of its
/// queue (§5 "Push notifications"): the sketched client-notification path —
/// CloudKit's daemon would arm a timer for `vesting_time` and wake the app
/// then, instead of polling. Invoked outside any transaction, at most once
/// per request.
using FrontOfQueueNotifier =
    std::function<void(const ck::DatabaseId& db_id, const std::string& item_id,
                       int64_t vesting_time)>;

/// Deferred follow-up of a two-part enqueue (§6 "Reducing contention
/// between producers and consumers"): when the pointer already existed,
/// part two — a separate, best-effort transaction — lowers its vesting
/// time if the request's earliest item would otherwise wait too long.
/// Never fails the client request.
struct EnqueueFollowUp {
  bool pointer_existed = false;
  Pointer pointer;
  /// The earliest vesting time among the request's items.
  int64_t item_vesting_millis = 0;
  /// Set when one of the request's items is the front of its queue after
  /// commit and a FrontOfQueueNotifier is registered; ExecuteFollowUp
  /// fires it for that item.
  bool notify_front = false;
  std::string front_item_id;
  int64_t front_vesting_millis = 0;
};

/// What the epilogue's birth spans say besides the caller's actor.
struct EnqueueBirth {
  int64_t start_micros = 0;
  /// The finishing item whose continuations these are; empty otherwise.
  std::string parent{};
  /// An operator requeue: the items are reborn with kDeadLetterRequeued,
  /// not kEnqueued.
  bool dead_letter_requeue = false;
};

/// One request for Quick::Produce (DESIGN.md §11): the items to enqueue
/// plus the caller's own writes, committed in one transaction.
struct ProduceRequest {
  ck::DatabaseId db_id;
  int64_t vesting_delay_millis = 0;
  std::vector<WorkItem> items{};  // admission charges one token each
  /// Optional: the caller's writes, run first in every attempt's
  /// transaction on the tenant's current home `db`; may append items.
  std::function<Status(fdb::Transaction&, const ck::DatabaseRef& db,
                       std::vector<WorkItem>* items)>
      body = nullptr;
  /// An operator requeue out of the quarantine: uncharged, and its items
  /// are reborn with kDeadLetterRequeued (actor "admin").
  bool dead_letter_requeue = false;
};

/// QuiCK's public API: transactional enqueue of deferred work items into
/// per-tenant queue zones, with the per-cluster top-level queue and pointer
/// index maintained as the paper describes (§6). Consumers are created via
/// consumer.h.
class Quick {
 public:
  Quick(ck::CloudKitService* ck, QuickConfig config = {})
      : ck_(ck), config_(config) {}

  /// Part one of §6's enqueue protocol for a list of items, composable
  /// with the caller's own writes in `txn` (which must be on `db`'s
  /// cluster). Into a tenant it makes one migration-fence read, writes
  /// every item into Q_DB, reads the exact pointer-index key once (never
  /// the pointer record) and creates the Q_C pointer when it is missing,
  /// vesting with the earliest item; each item past the first costs one
  /// read, its record's previous image. Into a ClusterDB it writes each
  /// item straight into its Q_C shard as a §6 local item: no fence, no
  /// pointer. Fills in empty item ids. On success *follow_up (required)
  /// says what ExecuteFollowUp should do after commit.
  Status EnqueuePartOne(fdb::Transaction* txn, const ck::DatabaseRef& db,
                        std::span<DelayedItem> items,
                        EnqueueFollowUp* follow_up);

  /// EnqueuePartOne for one item; returns its id. Each call pays the
  /// fence and pointer-index reads again.
  Result<std::string> EnqueueInTransaction(fdb::Transaction* txn,
                                           const ck::DatabaseRef& db,
                                           const WorkItem& item,
                                           int64_t vesting_delay_millis,
                                           EnqueueFollowUp* follow_up);

  /// Creates `pointer` in its Q_C shard on `cluster_db`'s cluster within
  /// `txn`, vesting after `vesting_delay_millis`. Part one calls it when
  /// the pointer index has no entry; a tenant move calls it for the
  /// queued work it carries.
  Status CreatePointer(fdb::Transaction* txn, const ck::DatabaseRef& cluster_db,
                       const Pointer& pointer, int64_t vesting_delay_millis);

  /// Part two: best-effort vesting-time fix-up in its own transaction.
  /// Failures (e.g. conflicts with a consumer leasing the pointer) are
  /// absorbed — this is an optimization, not a correctness requirement.
  /// Fires the front-of-queue notification first.
  void ExecuteFollowUp(const ck::DatabaseRef& db,
                       const EnqueueFollowUp& follow_up);

  /// The epilogue of a committed EnqueuePartOne, run once per request:
  /// counts the items in ck.tenant.enqueued, records each item's birth
  /// span and, when part one made the pointer, kPointerCreated under
  /// `hooks`' actor, then runs part two.
  void EnqueueEpilogue(const ck::DatabaseRef& db,
                       std::span<const DelayedItem> items,
                       const EnqueueFollowUp& follow_up,
                       const TraceHooks& hooks, const EnqueueBirth& birth);

  /// Migration-fence retries per producer request, each re-resolving
  /// placement so the request lands at a moved tenant's new home.
  static constexpr int kMoveRetryAttempts = 10;
  static constexpr int64_t kMoveRetryDelayMillis = 20;

  /// The producer runner; every client enqueue is one request. Checks
  /// admission once (operator requeues and local items are uncharged),
  /// then commits the body's writes and part one, retrying a migration
  /// fence; after commit it runs the epilogue (actor "producer", or
  /// "admin" for a requeue). Without `exec` it commits on the calling
  /// thread and returns a ready future; with one it commits through
  /// RunTransactionAsync, and `exec` and this Quick must outlive the
  /// future. Resolves with the item ids.
  fdb::Future<Result<std::vector<std::string>>> Produce(
      ProduceRequest request, fdb::Executor* exec = nullptr,
      fdb::CancelToken cancel = {});

  /// Convenience: a one-item EnqueueBatch. Returns the enqueued item id.
  Result<std::string> Enqueue(const ck::DatabaseId& db_id, const WorkItem& item,
                              int64_t vesting_delay_millis = 0);

  /// Enqueue's pipelined twin (DESIGN.md §11 applied to the producer
  /// path): Produce with `exec`, so the calling thread never blocks on a
  /// commit RTT. The item id is picked up front and written to
  /// *item_id_out (when non-null) before the future resolves — the id is
  /// only meaningful once the future resolves OK. Admission is checked
  /// synchronously; metrics, spans, and the best-effort follow-up run on
  /// the executor after the commit.
  fdb::Future<Status> EnqueueAsync(const ck::DatabaseId& db_id,
                                   const WorkItem& item,
                                   int64_t vesting_delay_millis,
                                   std::string* item_id_out,
                                   fdb::Executor* exec,
                                   fdb::CancelToken cancel = {});

  /// Atomically enqueues several items for one tenant in a single
  /// transaction (the queue-zone transactional batch §7 contrasts with
  /// SQS). Returns the item ids, all-or-nothing.
  Result<std::vector<std::string>> EnqueueBatch(
      const ck::DatabaseId& db_id, const std::vector<WorkItem>& items,
      int64_t vesting_delay_millis = 0);

  /// Registers the §5 front-of-queue notification hook. Not thread-safe;
  /// call during setup.
  void SetFrontOfQueueNotifier(FrontOfQueueNotifier notifier) {
    notifier_ = std::move(notifier);
  }

  /// §6 local work items: enqueued directly into cluster `cluster_name`'s
  /// top-level queue alongside pointers; they never migrate with a tenant.
  /// Enqueue into the cluster's ClusterDB, uncharged.
  Result<std::string> EnqueueLocal(const std::string& cluster_name,
                                   const WorkItem& item,
                                   int64_t vesting_delay_millis = 0);

  /// Number of pending items in `db_id`'s queue zone (per-tenant
  /// observability, from the count index; a snapshot read).
  Result<int64_t> PendingCount(const ck::DatabaseId& db_id);

  /// Number of entries (pointers + local items) in a cluster's top-level
  /// queue.
  Result<int64_t> TopLevelCount(const std::string& cluster_name);

  /// Number of top-level shards for `cluster_name`: the per-cluster
  /// override when present, else the global `top_zone_shards`.
  int TopZoneShards(const std::string& cluster_name) const {
    auto it = config_.cluster_top_zone_shards.find(cluster_name);
    const int n = it != config_.cluster_top_zone_shards.end()
                      ? it->second
                      : config_.top_zone_shards;
    return n < 1 ? 1 : n;
  }

  /// Shard index `item_id` hashes to under `n_shards` shards. Exposed so
  /// tests and admin tooling can derive placement independently.
  static size_t ShardIndexFor(const std::string& item_id, int n_shards) {
    if (n_shards <= 1) return 0;
    return std::hash<std::string>{}(item_id) % static_cast<size_t>(n_shards);
  }

  /// Name of the top-level queue shard of `cluster_name` holding
  /// `item_id` (a pointer key or local-item id). With one shard this is
  /// just top_zone_name.
  std::string TopZoneNameFor(const std::string& cluster_name,
                             const std::string& item_id) const {
    const int n = TopZoneShards(cluster_name);
    if (n <= 1) return config_.top_zone_name;
    return config_.top_zone_name + "/" +
           std::to_string(ShardIndexFor(item_id, n));
  }

  /// All top-level shard zone names a consumer must scan on
  /// `cluster_name`, in shard order.
  std::vector<std::string> TopZoneNames(const std::string& cluster_name) const {
    const int n = TopZoneShards(cluster_name);
    if (n <= 1) return {config_.top_zone_name};
    std::vector<std::string> names;
    names.reserve(n);
    for (int i = 0; i < n; ++i) {
      names.push_back(config_.top_zone_name + "/" + std::to_string(i));
    }
    return names;
  }

  /// Opens the top-level queue shard that holds `item_id`. The shard is
  /// derived against the cluster the zone lives on (`cluster_db`), so
  /// migration between clusters with different shard counts re-derives
  /// placement at the destination.
  ck::QueueZone OpenTopZoneFor(const ck::DatabaseRef& cluster_db,
                               const std::string& item_id,
                               fdb::Transaction* txn) {
    return ck_->OpenQueueZone(
        cluster_db, TopZoneNameFor(cluster_db.cluster->name(), item_id), txn);
  }

  /// Opens the top-level queue zone Q_C of a cluster within `txn`
  /// (unsharded configurations only; sharded callers use OpenTopZoneFor).
  ck::QueueZone OpenTopZone(const ck::DatabaseRef& cluster_db,
                            fdb::Transaction* txn) {
    return ck_->OpenQueueZone(cluster_db, config_.top_zone_name, txn);
  }

  /// Opens a tenant's queue zone Q_DB within `txn`.
  ck::QueueZone OpenTenantZone(const ck::DatabaseRef& db,
                               fdb::Transaction* txn) {
    return ck_->OpenQueueZone(db, config_.queue_zone_name, txn,
                              config_.fifo_tenant_zones);
  }

  ck::CloudKitService* cloudkit() { return ck_; }
  const QuickConfig& config() const { return config_; }
  Clock* clock() const { return ck_->clock(); }

  /// Item-lifecycle span store. Producers record the enqueue-commit span
  /// here; consumers created over this Quick record the rest of the
  /// chain. Defaults to the process-wide Tracer::Default() (disabled
  /// unless QUICK_TRACE is set).
  Tracer* tracer() const { return tracer_; }
  /// Not thread-safe; call during setup, before creating consumers (they
  /// capture the tracer at construction).
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }

  /// Admission gate consulted by every charged Produce request and by
  /// consumer dispatch. Null (the default) admits everything. Not thread-safe;
  /// call during setup.
  AdmissionGate* admission() const { return admission_; }
  void set_admission(AdmissionGate* gate) { admission_ = gate; }

  /// Per-tenant ck.tenant.* counters (shared with consumers).
  TenantMetrics* tenant_metrics() { return &tenant_metrics_; }

 private:
  /// One Produce request in flight; its attempts, then its epilogue.
  struct Production;
  void ProduceAttempt(const std::shared_ptr<Production>& p);
  void ProduceDone(Production& p, const Status& st);

  ck::CloudKitService* ck_;
  QuickConfig config_;
  FrontOfQueueNotifier notifier_;
  Tracer* tracer_ = Tracer::Default();
  AdmissionGate* admission_ = nullptr;
  TenantMetrics tenant_metrics_;
};

}  // namespace quick::core

#endif  // QUICK_QUICK_QUICK_H_
