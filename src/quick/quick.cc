#include "quick/quick.h"

#include "cloudkit/migration_state.h"
#include "common/random.h"
#include "fdb/retry.h"
#include "quick/trace_hooks.h"

namespace quick::core {

Result<std::string> Quick::EnqueueInTransaction(fdb::Transaction* txn,
                                                const ck::DatabaseRef& db,
                                                const WorkItem& item,
                                                int64_t vesting_delay_millis,
                                                EnqueueFollowUp* follow_up) {
  // Migration fence: a strong read of the tenant's MoveState key. When a
  // move has sealed the tenant, back off (kTenantMoving — non-retryable,
  // so it escapes the FDB retry loop; the producer runner re-resolves
  // placement). When no fence is up, the read makes this enqueue conflict
  // with a racing seal transaction's write — any enqueue serialized after
  // the seal is guaranteed to have seen it, which is what makes the
  // balancer's post-seal final copy exact.
  if (db.id.kind != ck::DatabaseKind::kCluster) {
    QUICK_ASSIGN_OR_RETURN(std::optional<ck::MoveState> fence,
                           ck::MoveState::ReadFence(*txn, db.id));
    if (fence.has_value()) {
      return Status::TenantMoving("tenant " + db.id.ToString() +
                                  " is moving to " + fence->dest_cluster);
    }
  }

  // Add the work item to the tenant's queue zone Q_DB.
  ck::QueueZone tenant_zone = OpenTenantZone(db, txn);

  // §5 push-notification hook: detect whether this item will be the new
  // queue front (snapshot index read; only when a notifier is registered).
  bool is_front = false;
  if (notifier_ != nullptr && follow_up != nullptr) {
    rl::IndexScanOptions head_opts;
    head_opts.limit = 1;
    head_opts.snapshot = true;
    QUICK_ASSIGN_OR_RETURN(
        std::vector<rl::IndexEntry> head,
        tenant_zone.store()->ScanIndex(ck::QueueZone::kVestingIndex,
                                       tup::Tuple(), head_opts));
    if (head.empty()) {
      is_front = true;
    } else {
      QUICK_ASSIGN_OR_RETURN(int64_t head_priority,
                             head[0].indexed_values.GetInt(0));
      QUICK_ASSIGN_OR_RETURN(int64_t head_vesting,
                             head[0].indexed_values.GetInt(1));
      const int64_t item_vesting =
          clock()->NowMillis() + vesting_delay_millis;
      is_front = std::make_pair(item.priority, item_vesting) <
                 std::make_pair(head_priority, head_vesting);
    }
  }

  ck::QueuedItem queued;
  queued.id = item.id;
  queued.job_type = item.job_type;
  queued.priority = item.priority;
  queued.payload = item.payload;
  QUICK_ASSIGN_OR_RETURN(std::string item_id,
                         tenant_zone.Enqueue(queued, vesting_delay_millis));

  // Pointer existence is a point read of the pointer-index key in Q_C —
  // deliberately not the pointer record, whose frequent lease/requeue
  // updates would otherwise conflict with every enqueue (§6).
  const Pointer pointer{db.id, config_.queue_zone_name};
  const ck::DatabaseRef cluster_db = ck_->OpenClusterDb(db.cluster->name());
  ck::QueueZone top_zone = OpenTopZoneFor(cluster_db, pointer.Key(), txn);
  const std::string index_key =
      top_zone.DbKeyIndexEntryKey(pointer.Key(), pointer.Key());
  QUICK_ASSIGN_OR_RETURN(std::optional<std::string> index_entry,
                         txn->Get(index_key));

  const int64_t now = clock()->NowMillis();
  if (follow_up != nullptr) {
    follow_up->pointer = pointer;
    follow_up->item_vesting_millis = now + vesting_delay_millis;
    follow_up->pointer_existed = index_entry.has_value();
    follow_up->notify_front = is_front;
    follow_up->item_id = item_id;
  }
  if (!index_entry.has_value()) {
    // Create the pointer; its index entry is written in this transaction,
    // so a concurrent delete (which reads the zone and clears this index
    // key) conflicts with us — the §6 correctness argument.
    ck::QueuedItem pointer_item = pointer.ToItem();
    pointer_item.last_active_time = now;
    QUICK_RETURN_IF_ERROR(
        top_zone.Enqueue(std::move(pointer_item), vesting_delay_millis)
            .status());
  }
  return item_id;
}

void Quick::ExecuteFollowUp(const ck::DatabaseRef& db,
                            const EnqueueFollowUp& follow_up) {
  if (follow_up.notify_front && notifier_ != nullptr) {
    notifier_(db.id, follow_up.item_id, follow_up.item_vesting_millis);
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
  std::vector<std::string> ids{};
  EnqueueFollowUp follow_up{};
  fdb::Promise<Result<std::vector<std::string>>> promise{};
};

fdb::Future<Result<std::vector<std::string>>> Quick::Produce(
    ProduceRequest request, fdb::Executor* exec, fdb::CancelToken cancel) {
  auto p = std::make_shared<Production>(Production{
      std::move(request), exec, std::move(cancel), clock()->NowMicros()});
  const ck::DatabaseId& db_id = p->request.db_id;
  // Admission is checked once per request, before any transaction work;
  // fence retries never re-charge the buckets.
  if (admission_ != nullptr && !p->request.dead_letter_requeue) {
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
  auto body = [this, p](fdb::Transaction& txn) -> Status {
    std::vector<WorkItem> items = p->request.items;
    if (p->request.body) {
      QUICK_RETURN_IF_ERROR(p->request.body(txn, p->db, &items));
    }
    p->ids.clear();
    for (const WorkItem& item : items) {
      // Only the first item can create the pointer; later ones see the
      // buffered index entry through read-your-writes, so the first item's
      // follow-up is the request's.
      EnqueueFollowUp follow_up;
      QUICK_ASSIGN_OR_RETURN(
          std::string id,
          EnqueueInTransaction(&txn, p->db, item,
                               p->request.vesting_delay_millis, &follow_up));
      if (p->ids.empty()) p->follow_up = follow_up;
      p->ids.push_back(std::move(id));
    }
    return Status::OK();
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
  tenant_metrics_.OnEnqueued(p.request.db_id,
                             static_cast<int64_t>(p.ids.size()));
  // Birth spans are keyed by the ids EnqueueInTransaction assigned and
  // recorded only for committed requests. An operator requeue opens a new
  // incarnation that must reach its own terminal span.
  const bool requeue = p.request.dead_letter_requeue;
  const TraceHooks hooks(tracer_, clock(), requeue ? "admin" : "producer");
  if (hooks.enabled() && !p.ids.empty()) {
    const int64_t end_micros = hooks.NowMicros();
    for (const std::string& id : p.ids) {
      hooks.Record(id, requeue ? stage::kDeadLetterRequeued : stage::kEnqueued,
                   p.start_micros, end_micros,
                   "db=" + p.request.db_id.ToString() +
                       " batch=" + std::to_string(p.ids.size()) +
                       " delay_ms=" +
                       std::to_string(p.request.vesting_delay_millis));
    }
    if (!p.follow_up.pointer_existed) {
      hooks.Record(p.follow_up.pointer.Key(), stage::kPointerCreated,
                   p.start_micros, end_micros, std::string(),
                   /*parent=*/p.ids.front());
    }
  }
  ExecuteFollowUp(p.db, p.follow_up);
  p.promise.Set(p.ids);
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
  const ck::DatabaseRef cluster_db = ck_->OpenClusterDb(cluster_name);
  if (cluster_db.cluster == nullptr) {
    return Status::InvalidArgument("unknown cluster " + cluster_name);
  }
  // The shard is derived from the item id, so pick the id up front.
  const std::string local_id =
      item.id.empty() ? Random::ThreadLocal().NextUuid() : item.id;
  const TraceHooks hooks(tracer_, clock(), "producer");
  const int64_t start_micros = hooks.enabled() ? hooks.NowMicros() : 0;
  std::string item_id;
  Status st =
      fdb::RunTransaction(cluster_db.cluster, [&](fdb::Transaction& txn) {
        ck::QueueZone top_zone = OpenTopZoneFor(cluster_db, local_id, &txn);
        ck::QueuedItem queued;
        queued.id = local_id;
        queued.job_type = item.job_type;
        queued.priority = item.priority;
        queued.payload = item.payload;
        Result<std::string> r =
            top_zone.Enqueue(std::move(queued), vesting_delay_millis);
        QUICK_RETURN_IF_ERROR(r.status());
        item_id = *r;
        return Status::OK();
      });
  QUICK_RETURN_IF_ERROR(st);
  tenant_metrics_.OnEnqueued(cluster_db.id, 1);
  if (hooks.enabled()) {
    hooks.Record(item_id, stage::kEnqueued, start_micros, hooks.NowMicros(),
                 "local cluster=" + cluster_name +
                     " delay_ms=" + std::to_string(vesting_delay_millis));
  }
  return item_id;
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
