#include "quick/quick.h"

#include <algorithm>
#include <utility>

#include "cloudkit/migration_state.h"
#include "common/random.h"
#include "fdb/retry.h"
#include "quick/trace_hooks.h"

namespace quick::core {

namespace {

ck::QueuedItem ToQueued(const WorkItem& item) {
  ck::QueuedItem queued;
  queued.id = item.id;
  queued.job_type = item.job_type;
  queued.priority = item.priority;
  queued.payload = item.payload;
  return queued;
}

}  // namespace

Status Quick::EnqueuePartOne(fdb::Transaction* txn, const ck::DatabaseRef& db,
                             std::span<DelayedItem> items,
                             EnqueueFollowUp* follow_up) {
  *follow_up = EnqueueFollowUp{};
  if (items.empty()) return Status::OK();
  const int64_t now = clock()->NowMillis();
  const int64_t min_delay =
      std::ranges::min_element(items, {}, &DelayedItem::vesting_delay_millis)
          ->vesting_delay_millis;
  follow_up->item_vesting_millis = now + min_delay;

  if (db.id.kind == ck::DatabaseKind::kCluster) {
    // §6 local work items go straight into the cluster's top-level queue:
    // no tenant zone, no pointer, no migration fence. The shard is derived
    // from the item id, so pick the id first.
    for (DelayedItem& item : items) {
      if (item.id.empty()) item.id = Random::ThreadLocal().NextUuid();
      ck::QueueZone top_zone = OpenTopZoneFor(db, item.id, txn);
      QUICK_RETURN_IF_ERROR(
          top_zone.Enqueue(ToQueued(item), item.vesting_delay_millis).status());
    }
    return Status::OK();
  }

  // Migration fence: a strong read of the tenant's MoveState key. When a
  // move has sealed the tenant, back off (kTenantMoving — non-retryable,
  // so it escapes the FDB retry loop; the producer runner re-resolves
  // placement). When no fence is up, the read makes this enqueue conflict
  // with a racing seal transaction's write — any enqueue serialized after
  // the seal is guaranteed to have seen it, which is what makes the
  // balancer's post-seal final copy exact.
  QUICK_ASSIGN_OR_RETURN(std::optional<ck::MoveState> fence,
                         ck::MoveState::ReadFence(*txn, db.id));
  if (fence.has_value()) {
    return Status::TenantMoving("tenant " + db.id.ToString() +
                                " is moving to " + fence->dest_cluster);
  }

  ck::QueueZone tenant_zone = OpenTenantZone(db, txn);

  // §5 push-notification hook: the request's first item in (priority,
  // vesting) order is the queue's front after commit when it sorts
  // strictly before the current head (one snapshot index read, only when
  // a notifier is registered).
  const DelayedItem* front = nullptr;
  if (notifier_ != nullptr) {
    auto key = [now](const DelayedItem& item) {
      return std::make_pair(item.priority, now + item.vesting_delay_millis);
    };
    front = &*std::ranges::min_element(items, {}, key);
    rl::IndexScanOptions head_opts;
    head_opts.limit = 1;
    head_opts.snapshot = true;
    QUICK_ASSIGN_OR_RETURN(
        std::vector<rl::IndexEntry> head,
        tenant_zone.store()->ScanIndex(ck::QueueZone::kVestingIndex,
                                       tup::Tuple(), head_opts));
    if (!head.empty()) {
      QUICK_ASSIGN_OR_RETURN(int64_t head_priority,
                             head[0].indexed_values.GetInt(0));
      QUICK_ASSIGN_OR_RETURN(int64_t head_vesting,
                             head[0].indexed_values.GetInt(1));
      if (key(*front) >= std::make_pair(head_priority, head_vesting)) {
        front = nullptr;
      }
    }
  }

  for (DelayedItem& item : items) {
    QUICK_ASSIGN_OR_RETURN(
        item.id,
        tenant_zone.Enqueue(ToQueued(item), item.vesting_delay_millis));
  }
  if (front != nullptr) {
    follow_up->notify_front = true;
    follow_up->front_item_id = front->id;
    follow_up->front_vesting_millis = now + front->vesting_delay_millis;
  }

  // Pointer existence is a point read of the pointer-index key in Q_C —
  // deliberately not the pointer record, whose frequent lease/requeue
  // updates would otherwise conflict with every enqueue (§6).
  follow_up->pointer = Pointer{db.id, config_.queue_zone_name};
  const std::string pointer_key = follow_up->pointer.Key();
  const ck::DatabaseRef cluster_db = ck_->OpenClusterDb(db.cluster->name());
  const std::string index_key =
      OpenTopZoneFor(cluster_db, pointer_key, txn)
          .DbKeyIndexEntryKey(pointer_key, pointer_key);
  QUICK_ASSIGN_OR_RETURN(std::optional<std::string> index_entry,
                         txn->Get(index_key));
  follow_up->pointer_existed = index_entry.has_value();
  if (follow_up->pointer_existed) return Status::OK();
  // Create the pointer; its index entry is written in this transaction,
  // so a concurrent delete (which reads the zone and clears this index
  // key) conflicts with us — the §6 correctness argument.
  return CreatePointer(txn, cluster_db, follow_up->pointer, min_delay);
}

Result<std::string> Quick::EnqueueInTransaction(fdb::Transaction* txn,
                                                const ck::DatabaseRef& db,
                                                const WorkItem& item,
                                                int64_t vesting_delay_millis,
                                                EnqueueFollowUp* follow_up) {
  DelayedItem one{item, vesting_delay_millis};
  QUICK_RETURN_IF_ERROR(EnqueuePartOne(txn, db, {&one, 1}, follow_up));
  return std::move(one.id);
}

Status Quick::CreatePointer(fdb::Transaction* txn,
                            const ck::DatabaseRef& cluster_db,
                            const Pointer& pointer,
                            int64_t vesting_delay_millis) {
  ck::QueueZone top_zone = OpenTopZoneFor(cluster_db, pointer.Key(), txn);
  ck::QueuedItem pointer_item = pointer.ToItem();
  pointer_item.last_active_time = clock()->NowMillis();
  return top_zone.Enqueue(std::move(pointer_item), vesting_delay_millis)
      .status();
}

void Quick::ExecuteFollowUp(const ck::DatabaseRef& db,
                            const EnqueueFollowUp& follow_up) {
  if (follow_up.notify_front && notifier_ != nullptr) {
    notifier_(db.id, follow_up.front_item_id,
              follow_up.front_vesting_millis);
  }
  if (!follow_up.pointer_existed) return;
  // Best effort, single attempt: if this conflicts with a consumer, the
  // consumer is touching the queue right now anyway.
  fdb::Transaction txn = db.cluster->CreateTransaction();
  const ck::DatabaseRef cluster_db = ck_->OpenClusterDb(db.cluster->name());
  ck::QueueZone top_zone =
      OpenTopZoneFor(cluster_db, follow_up.pointer.Key(), &txn);
  Result<std::optional<ck::QueuedItem>> loaded =
      top_zone.Load(follow_up.pointer.Key());
  if (!loaded.ok() || !loaded->has_value()) return;
  ck::QueuedItem pointer_item = **loaded;
  if (pointer_item.leased()) return;  // a consumer is on it already
  if (pointer_item.vesting_time <=
      follow_up.item_vesting_millis + config_.pointer_vesting_slack_millis) {
    return;  // pointer vests soon enough
  }
  pointer_item.vesting_time = follow_up.item_vesting_millis;
  if (!top_zone.SaveItem(pointer_item).ok()) return;
  (void)txn.Commit();  // ignore failures: optimization only
}

void Quick::EnqueueEpilogue(const ck::DatabaseRef& db,
                            std::span<const DelayedItem> items,
                            const EnqueueFollowUp& follow_up,
                            const TraceHooks& hooks,
                            const EnqueueBirth& birth) {
  tenant_metrics_.OnEnqueued(db.id, static_cast<int64_t>(items.size()));
  // Birth spans are keyed by the ids part one assigned and recorded only
  // for committed requests. An operator requeue opens a new incarnation
  // that must reach its own terminal span.
  if (hooks.enabled() && !items.empty()) {
    const char* name = birth.dead_letter_requeue ? stage::kDeadLetterRequeued
                                                 : stage::kEnqueued;
    const int64_t end_micros = hooks.NowMicros();
    const std::string detail = "db=" + db.id.ToString() +
                               " batch=" + std::to_string(items.size()) +
                               " delay_ms=";
    for (const DelayedItem& item : items) {
      hooks.Record(item.id, name, birth.start_micros, end_micros,
                   detail + std::to_string(item.vesting_delay_millis),
                   birth.parent);
    }
    if (db.id.kind != ck::DatabaseKind::kCluster &&
        !follow_up.pointer_existed) {
      hooks.Record(follow_up.pointer.Key(), stage::kPointerCreated,
                   birth.start_micros, end_micros, std::string(),
                   /*parent=*/items.front().id);
    }
  }
  ExecuteFollowUp(db, follow_up);
}

// ---------------------------------------------------------------------------
// The producer runner. Like the consumer's RunStep, a synchronous request
// keeps the blocking commit on the calling thread; a request given an
// executor commits through RunTransactionAsync and re-arms fence retries
// with PostAfter, so no thread parks for a commit or a backoff.
// ---------------------------------------------------------------------------

struct Quick::Production {
  ProduceRequest request;
  fdb::Executor* exec = nullptr;
  fdb::CancelToken cancel{};
  int64_t start_micros = 0;
  int attempt = 0;
  // Set by each attempt; the committed one's values are the request's.
  ck::DatabaseRef db{};
  std::vector<DelayedItem> items{};
  EnqueueFollowUp follow_up{};
  fdb::Promise<Result<std::vector<std::string>>> promise{};
};

fdb::Future<Result<std::vector<std::string>>> Quick::Produce(
    ProduceRequest request, fdb::Executor* exec, fdb::CancelToken cancel) {
  auto p = std::make_shared<Production>(Production{
      std::move(request), exec, std::move(cancel), clock()->NowMicros()});
  const ck::DatabaseId& db_id = p->request.db_id;
  // Admission is checked once per request, before any transaction work;
  // fence retries never re-charge the buckets. Operator requeues and local
  // items (no tenant) are uncharged.
  if (admission_ != nullptr && !p->request.dead_letter_requeue &&
      db_id.kind != ck::DatabaseKind::kCluster) {
    const AdmissionDecision d = admission_->AdmitEnqueue(
        db_id, ck_->placement()->AssignOrGet(db_id),
        static_cast<int64_t>(p->request.items.size()));
    if (!d.admitted()) {
      // Pre-birth denial: no item id exists, so the span chain is keyed
      // by the tenant.
      const TraceHooks hooks(tracer_, clock(), "producer");
      if (hooks.enabled()) {
        hooks.Mark(db_id.ToString(),
                   d.outcome == AdmissionDecision::Outcome::kShed
                       ? stage::kAdmissionShed
                       : stage::kAdmissionThrottled,
                   std::string("level=") + d.level + " retry_after_ms=" +
                       std::to_string(d.retry_after_millis));
      }
      p->promise.Set(ThrottledStatus(d));
      return p->promise.GetFuture();
    }
  }
  ProduceAttempt(p);
  return p->promise.GetFuture();
}

void Quick::ProduceAttempt(const std::shared_ptr<Production>& p) {
  // Re-resolve placement each attempt: after a move's flip the tenant's
  // new home admits the request.
  p->db = ck_->OpenDatabase(p->request.db_id);
  if (p->db.cluster == nullptr) {  // the ClusterDB of an unknown cluster
    ProduceDone(*p, Status::InvalidArgument("unknown cluster for " +
                                            p->request.db_id.ToString()));
    return;
  }
  auto body = [this, p](fdb::Transaction& txn) -> Status {
    std::vector<WorkItem> items = p->request.items;
    if (p->request.body) {
      QUICK_RETURN_IF_ERROR(p->request.body(txn, p->db, &items));
    }
    p->items.clear();
    p->items.reserve(items.size());
    for (WorkItem& item : items) {
      p->items.push_back({std::move(item), p->request.vesting_delay_millis});
    }
    return EnqueuePartOne(&txn, p->db, p->items, &p->follow_up);
  };
  auto then = [this, p](const Status& st) {
    if (!st.IsTenantMoving() || p->attempt++ >= kMoveRetryAttempts) {
      ProduceDone(*p, st);
    } else if (p->exec == nullptr) {
      clock()->SleepMillis(kMoveRetryDelayMillis);
      ProduceAttempt(p);
    } else {
      p->exec->PostAfter(kMoveRetryDelayMillis,
                         [this, p] { ProduceAttempt(p); });
    }
  };
  if (p->exec == nullptr) {
    then(fdb::RunTransaction(p->db.cluster, body));
  } else {
    fdb::RunTransactionAsync(p->db.cluster, body, p->exec, p->cancel)
        .OnReady(then);
  }
}

void Quick::ProduceDone(Production& p, const Status& st) {
  if (!st.ok()) {
    p.promise.Set(st);
    return;
  }
  const bool requeue = p.request.dead_letter_requeue;
  EnqueueEpilogue(
      p.db, p.items, p.follow_up,
      TraceHooks(tracer_, clock(), requeue ? "admin" : "producer"),
      {.start_micros = p.start_micros, .dead_letter_requeue = requeue});
  std::vector<std::string> ids;
  ids.reserve(p.items.size());
  for (DelayedItem& item : p.items) ids.push_back(std::move(item.id));
  p.promise.Set(std::move(ids));
}

Result<std::string> Quick::Enqueue(const ck::DatabaseId& db_id,
                                   const WorkItem& item,
                                   int64_t vesting_delay_millis) {
  QUICK_ASSIGN_OR_RETURN(std::vector<std::string> ids,
                         EnqueueBatch(db_id, {item}, vesting_delay_millis));
  return ids.front();
}

Result<std::vector<std::string>> Quick::EnqueueBatch(
    const ck::DatabaseId& db_id, const std::vector<WorkItem>& items,
    int64_t vesting_delay_millis) {
  return Produce({.db_id = db_id,
                  .vesting_delay_millis = vesting_delay_millis,
                  .items = items})
      .Get();
}

fdb::Future<Status> Quick::EnqueueAsync(const ck::DatabaseId& db_id,
                                        const WorkItem& item,
                                        int64_t vesting_delay_millis,
                                        std::string* item_id_out,
                                        fdb::Executor* exec,
                                        fdb::CancelToken cancel) {
  // The id is picked up front so the caller (and a workflow's deterministic
  // id scheme) knows it before the commit resolves; Q_DB's Enqueue is
  // idempotent on a set id.
  WorkItem fixed = item;
  if (fixed.id.empty()) fixed.id = Random::ThreadLocal().NextUuid();
  if (item_id_out != nullptr) *item_id_out = fixed.id;
  return Produce({.db_id = db_id,
                  .vesting_delay_millis = vesting_delay_millis,
                  .items = {std::move(fixed)}},
                 exec, std::move(cancel))
      .Then([](const auto& ids) { return ids.status(); });
}

Result<std::string> Quick::EnqueueLocal(const std::string& cluster_name,
                                        const WorkItem& item,
                                        int64_t vesting_delay_millis) {
  return Enqueue(ck::DatabaseId::Cluster(cluster_name), item,
                 vesting_delay_millis);
}

Result<int64_t> Quick::PendingCount(const ck::DatabaseId& db_id) {
  const ck::DatabaseRef db = ck_->OpenDatabase(db_id);
  return fdb::RunTransactionResult<int64_t>(
      db.cluster, fdb::TransactionOptions{},
      [&](fdb::Transaction& txn, int64_t* out) {
        ck::QueueZone zone = OpenTenantZone(db, &txn);
        QUICK_ASSIGN_OR_RETURN(*out, zone.Count());
        return Status::OK();
      });
}

Result<int64_t> Quick::TopLevelCount(const std::string& cluster_name) {
  const ck::DatabaseRef cluster_db = ck_->OpenClusterDb(cluster_name);
  if (cluster_db.cluster == nullptr) {
    return Status::InvalidArgument("unknown cluster " + cluster_name);
  }
  return fdb::RunTransactionResult<int64_t>(
      cluster_db.cluster, fdb::TransactionOptions{},
      [&](fdb::Transaction& txn, int64_t* out) {
        *out = 0;
        for (const std::string& shard : TopZoneNames(cluster_name)) {
          ck::QueueZone zone = ck_->OpenQueueZone(cluster_db, shard, &txn);
          QUICK_ASSIGN_OR_RETURN(int64_t n, zone.Count());
          *out += n;
        }
        return Status::OK();
      });
}

}  // namespace quick::core
