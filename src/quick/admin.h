#ifndef QUICK_QUICK_ADMIN_H_
#define QUICK_QUICK_ADMIN_H_

#include <string>
#include <vector>

#include "common/metrics.h"
#include "quick/quick.h"

namespace quick::core {

/// Operational introspection over QuiCK's state (§2 "Operations and
/// monitoring", §3 "Querying outstanding work by user is inexpressible"
/// in external queuing systems — here it is a first-class query). All
/// reads are snapshot reads: inspection never aborts producers or
/// consumers.
class QuickAdmin {
 public:
  explicit QuickAdmin(Quick* quick) : quick_(quick) {}

  /// Per-tenant view: queue depth, earliest vesting time, oldest enqueue
  /// time, and the state of the tenant's pointer in Q_C.
  struct TenantQueueInfo {
    ck::DatabaseId db_id;
    std::string cluster;
    int64_t depth = 0;
    std::optional<int64_t> min_vesting_time;
    std::optional<int64_t> oldest_enqueue_time;
    int64_t vested_now = 0;
    bool pointer_exists = false;
    bool pointer_leased = false;
    int64_t pointer_vesting_time = 0;
    int64_t pointer_error_count = 0;
    /// Items in the zone's dead-letter quarantine.
    int64_t dead_letters = 0;
  };

  /// Per-shard breakdown of a cluster's top-level queue (DESIGN.md §12):
  /// one row per shard zone, in shard order, so operators see stripe skew
  /// instead of one collapsed number.
  struct ShardQueueInfo {
    std::string zone;
    int64_t entries = 0;
    int64_t pointers = 0;
    int64_t local_items = 0;
    int64_t vested_now = 0;
  };

  /// Per-cluster view of the top-level queue.
  struct ClusterQueueInfo {
    std::string cluster;
    int64_t top_level_entries = 0;
    int64_t pointers = 0;
    int64_t local_items = 0;
    int64_t vested_now = 0;
    int64_t leased_now = 0;
    std::optional<int64_t> oldest_pointer_last_active;
    /// One entry per top-level shard (a single entry when unsharded).
    std::vector<ShardQueueInfo> shards;
  };

  /// One row of the outstanding-work listing.
  struct OutstandingQueue {
    Pointer pointer;
    int64_t vesting_time = 0;
    bool leased = false;
    int64_t depth = 0;  // of the referenced queue zone
  };

  Result<TenantQueueInfo> InspectTenant(const ck::DatabaseId& db_id);

  Result<ClusterQueueInfo> InspectCluster(const std::string& cluster_name);

  /// The non-empty queues of a cluster (by pointer), with their depths —
  /// the per-tenant query external queuing systems cannot express (§3).
  Result<std::vector<OutstandingQueue>> ListOutstandingQueues(
      const std::string& cluster_name, int limit = 100);

  /// Human-readable multi-line report over every cluster.
  Result<std::string> RenderFleetReport();

  /// Samples every cluster's per-shard top-level backlog and publishes it
  /// as ck.zone.top_backlog.<cluster>.<shard> gauges, the operator view
  /// of stripe skew (DESIGN.md §12). Snapshot reads; never aborts
  /// producers or consumers.
  Status PublishShardBacklog(MetricsRegistry* registry);

  // --- Dead-letter quarantine (operator drain; "no item is ever silently
  // lost" — every terminal failure lands here, and leaves only through
  // these explicit requeue/purge decisions). ---

  /// Dead-lettered items of a tenant's queue zone, oldest first.
  Result<std::vector<ck::DeadLetterItem>> ListDeadLetters(
      const ck::DatabaseId& db_id, int limit = 0);

  /// Number of dead-lettered items in a tenant's queue zone.
  Result<int64_t> DeadLetterCount(const ck::DatabaseId& db_id);

  /// Moves a dead-lettered item back into the tenant's live queue under
  /// its original id, payload, and priority — as one uncharged
  /// Quick::Produce request, so the Q_C pointer is recreated when missing
  /// and the item is immediately findable. Removal from the quarantine and
  /// re-enqueue commit in one transaction; the error count restarts at zero.
  Status RequeueDeadLetter(const ck::DatabaseId& db_id,
                           const std::string& item_id);

  /// Requeues every dead-lettered item of the tenant; returns how many.
  Result<int> RequeueAllDeadLetters(const ck::DatabaseId& db_id);

  /// Permanently discards a dead-lettered item (the only deliberate
  /// data-loss path, and it is explicit and logged in metrics).
  Status PurgeDeadLetter(const ck::DatabaseId& db_id,
                         const std::string& item_id);

  /// Dead-lettered local items (and corrupt pointers) across a cluster's
  /// top-level queue shards, oldest first per shard.
  Result<std::vector<ck::DeadLetterItem>> ListClusterDeadLetters(
      const std::string& cluster_name, int limit = 0);

  /// Requeues a dead-lettered local item into its top-level queue shard,
  /// as one uncharged Quick::Produce request into the cluster's ClusterDB.
  Status RequeueClusterDeadLetter(const std::string& cluster_name,
                                  const std::string& item_id);

  /// Permanently discards a dead-lettered local item.
  Status PurgeClusterDeadLetter(const std::string& cluster_name,
                                const std::string& item_id);

  // --- Item-lifecycle traces (the per-item "where did my task go" query;
  // answers come from the in-process Tracer, so they cover items this
  // process and its consumers touched while tracing was enabled). ---

  /// The recorded span chain of a work item (or pointer key), in recording
  /// order. Empty when tracing is off or the trace was evicted.
  std::vector<Span> ItemTrace(const std::string& item_id) const;

  /// Human-readable rendering of ItemTrace: one line per span with
  /// relative timestamps, durations, actors, and details.
  std::string RenderTrace(const std::string& item_id) const;

  /// A whole saga's chain: the workflow-lifecycle spans recorded on the
  /// workflow id (wf_started / wf_step_start / wf_step_finish /
  /// wf_compensate / wf_done), in recording order. Each span's
  /// parent_trace names the step item that carried it — follow with
  /// ItemTrace(parent) for the queue-level story of that step.
  std::vector<Span> WorkflowTrace(const std::string& workflow_id) const;

  /// Renders WorkflowTrace plus the durable WorkflowRecord (state, step
  /// statuses, failure) and, per step item referenced by the chain, its
  /// own item trace — the "where did my saga go" query across items.
  std::string RenderWorkflowTrace(const ck::DatabaseId& db_id,
                                  const std::string& workflow_id) const;

 private:
  Quick* quick_;
};

}  // namespace quick::core

#endif  // QUICK_QUICK_ADMIN_H_
