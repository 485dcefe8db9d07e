#include "quick/admin.h"

#include <algorithm>
#include <sstream>

#include "cloudkit/workflow_record.h"
#include "common/metrics.h"
#include "fdb/retry.h"

namespace quick::core {

namespace {

/// quick.deadletter.* registry counters, resolved on first use.
Counter* RequeuedMetric() {
  static Counter* const counter =
      MetricsRegistry::Default()->GetCounter("quick.deadletter.requeued");
  return counter;
}

Counter* PurgedMetric() {
  static Counter* const counter =
      MetricsRegistry::Default()->GetCounter("quick.deadletter.purged");
  return counter;
}

/// One operator requeue: an uncharged Quick::Produce request whose body
/// takes `item_id` out of the quarantine of the zone `open` returns, so
/// removal and re-enqueue commit in one transaction.
template <typename OpenZone>
Status Requeue(Quick* quick, const ck::DatabaseId& db_id,
               const std::string& item_id, OpenZone open) {
  auto take = [open, item_id](fdb::Transaction& txn, const ck::DatabaseRef& db,
                              std::vector<WorkItem>* items) -> Status {
    QUICK_ASSIGN_OR_RETURN(ck::DeadLetterItem dl,
                           open(txn, db).TakeDeadLetter(item_id));
    items->push_back({.job_type = dl.job_type,
                      .payload = dl.payload,
                      .priority = dl.priority,
                      .id = dl.id});
    return Status::OK();
  };
  const ProduceRequest request{
      .db_id = db_id, .body = take, .dead_letter_requeue = true};
  QUICK_RETURN_IF_ERROR(quick->Produce(request).Get().status());
  RequeuedMetric()->Increment();
  return Status::OK();
}

}  // namespace

Result<QuickAdmin::TenantQueueInfo> QuickAdmin::InspectTenant(
    const ck::DatabaseId& db_id) {
  ck::CloudKitService* ck = quick_->cloudkit();
  const ck::DatabaseRef db = ck->OpenDatabase(db_id);
  const ck::DatabaseRef cluster_db = ck->OpenClusterDb(db.cluster->name());
  const Pointer pointer{db_id, quick_->config().queue_zone_name};

  TenantQueueInfo info;
  info.db_id = db_id;
  info.cluster = db.cluster->name();
  Status st = fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
    ck::QueueZone zone = quick_->OpenTenantZone(db, &txn);
    QUICK_ASSIGN_OR_RETURN(info.depth, zone.Count());
    QUICK_ASSIGN_OR_RETURN(info.min_vesting_time, zone.MinVestingTime());
    QUICK_ASSIGN_OR_RETURN(info.dead_letters, zone.DeadLetterCount());
    // Oldest enqueue time + vested count need the records; peek them all
    // (snapshot) — inspection is an operator action, not a hot path.
    QUICK_ASSIGN_OR_RETURN(std::vector<ck::QueuedItem> vested,
                           zone.Peek(/*max_items=*/0));
    info.vested_now = static_cast<int64_t>(vested.size());
    QUICK_ASSIGN_OR_RETURN(std::vector<rl::Record> all,
                           zone.store()->ScanRecords());
    for (rl::Record& rec : all) {
      QUICK_ASSIGN_OR_RETURN(ck::QueuedItem item,
                             ck::QueuedItem::FromRecord(std::move(rec)));
      if (!info.oldest_enqueue_time.has_value() ||
          item.enqueue_time < *info.oldest_enqueue_time) {
        info.oldest_enqueue_time = item.enqueue_time;
      }
    }

    ck::QueueZone top = quick_->OpenTopZoneFor(cluster_db, pointer.Key(), &txn);
    QUICK_ASSIGN_OR_RETURN(std::optional<ck::QueuedItem> ptr,
                           top.Load(pointer.Key()));
    if (ptr.has_value()) {
      info.pointer_exists = true;
      info.pointer_leased = ptr->leased();
      info.pointer_vesting_time = ptr->vesting_time;
      info.pointer_error_count = ptr->error_count;
    }
    return Status::OK();
  });
  QUICK_RETURN_IF_ERROR(st);
  return info;
}

Result<QuickAdmin::ClusterQueueInfo> QuickAdmin::InspectCluster(
    const std::string& cluster_name) {
  ck::CloudKitService* ck = quick_->cloudkit();
  fdb::Database* cluster = ck->clusters()->Get(cluster_name);
  if (cluster == nullptr) {
    return Status::InvalidArgument("unknown cluster " + cluster_name);
  }
  const ck::DatabaseRef cluster_db = ck->OpenClusterDb(cluster_name);
  ClusterQueueInfo info;
  info.cluster = cluster_name;
  Status st = fdb::RunTransaction(cluster, [&](fdb::Transaction& txn) {
    // Per-shard pass (DESIGN.md §12): each shard is scanned and summarized
    // on its own instead of collapsing every shard into one merged scan.
    info.shards.clear();
    const int64_t now = quick_->clock()->NowMillis();
    for (const std::string& shard : quick_->TopZoneNames(cluster_name)) {
      ShardQueueInfo row;
      row.zone = shard;
      ck::QueueZone top =
          quick_->cloudkit()->OpenQueueZone(cluster_db, shard, &txn);
      QUICK_ASSIGN_OR_RETURN(row.entries, top.Count());
      info.top_level_entries += row.entries;
      QUICK_ASSIGN_OR_RETURN(std::vector<rl::Record> shard_records,
                             top.store()->ScanRecords());
      for (rl::Record& rec : shard_records) {
        QUICK_ASSIGN_OR_RETURN(ck::QueuedItem item,
                               ck::QueuedItem::FromRecord(std::move(rec)));
        if (item.job_type == ck::kPointerJobType) {
          ++row.pointers;
          if (!info.oldest_pointer_last_active.has_value() ||
              item.last_active_time < *info.oldest_pointer_last_active) {
            info.oldest_pointer_last_active = item.last_active_time;
          }
        } else {
          ++row.local_items;
        }
        if (item.vesting_time <= now) ++row.vested_now;
        if (item.leased() && item.vesting_time > now) ++info.leased_now;
      }
      info.pointers += row.pointers;
      info.local_items += row.local_items;
      info.vested_now += row.vested_now;
      info.shards.push_back(std::move(row));
    }
    return Status::OK();
  });
  QUICK_RETURN_IF_ERROR(st);
  return info;
}

Result<std::vector<QuickAdmin::OutstandingQueue>>
QuickAdmin::ListOutstandingQueues(const std::string& cluster_name, int limit) {
  ck::CloudKitService* ck = quick_->cloudkit();
  fdb::Database* cluster = ck->clusters()->Get(cluster_name);
  if (cluster == nullptr) {
    return Status::InvalidArgument("unknown cluster " + cluster_name);
  }
  const ck::DatabaseRef cluster_db = ck->OpenClusterDb(cluster_name);
  std::vector<OutstandingQueue> out;
  Status st = fdb::RunTransaction(cluster, [&](fdb::Transaction& txn) {
    out.clear();
    // Shard by shard, without merging the scans (DESIGN.md §12); the
    // limit spans the whole cluster listing.
    for (const std::string& shard : quick_->TopZoneNames(cluster_name)) {
      ck::QueueZone top =
          quick_->cloudkit()->OpenQueueZone(cluster_db, shard, &txn);
      QUICK_ASSIGN_OR_RETURN(std::vector<rl::Record> shard_records,
                             top.store()->ScanRecords());
      for (rl::Record& rec : shard_records) {
        QUICK_ASSIGN_OR_RETURN(ck::QueuedItem item,
                               ck::QueuedItem::FromRecord(std::move(rec)));
        if (item.job_type != ck::kPointerJobType) continue;
        Result<Pointer> pointer = Pointer::FromItem(item);
        if (!pointer.ok()) continue;  // corrupt pointers are skipped here
        OutstandingQueue row;
        row.pointer = *pointer;
        row.vesting_time = item.vesting_time;
        row.leased =
            item.leased() && item.vesting_time > quick_->clock()->NowMillis();
        // Depth from the referenced zone's count index (same cluster).
        const tup::Subspace zone_subspace =
            ck::CloudKitService::ZoneSubspace(pointer->db_id, pointer->zone);
        ck::QueueZone zone(&txn, zone_subspace, quick_->clock());
        QUICK_ASSIGN_OR_RETURN(row.depth, zone.Count());
        out.push_back(std::move(row));
        if (limit > 0 && static_cast<int>(out.size()) >= limit) {
          return Status::OK();
        }
      }
    }
    return Status::OK();
  });
  QUICK_RETURN_IF_ERROR(st);
  return out;
}

Result<std::string> QuickAdmin::RenderFleetReport() {
  std::ostringstream os;
  os << "QuiCK fleet report\n";
  for (const std::string& name : quick_->cloudkit()->clusters()->names()) {
    QUICK_ASSIGN_OR_RETURN(ClusterQueueInfo info, InspectCluster(name));
    os << "  cluster " << info.cluster << ": " << info.top_level_entries
       << " top-level entries (" << info.pointers << " pointers, "
       << info.local_items << " local items), " << info.vested_now
       << " vested, " << info.leased_now << " leased\n";
    QUICK_ASSIGN_OR_RETURN(std::vector<OutstandingQueue> queues,
                           ListOutstandingQueues(name, 20));
    for (const OutstandingQueue& q : queues) {
      os << "    " << q.pointer.db_id.ToString() << " zone=" << q.pointer.zone
         << " depth=" << q.depth << (q.leased ? " [leased]" : "");
      QUICK_ASSIGN_OR_RETURN(TenantQueueInfo tenant,
                             InspectTenant(q.pointer.db_id));
      if (tenant.dead_letters > 0) {
        os << " dead_letters=" << tenant.dead_letters;
      }
      os << "\n";
    }
  }
  return os.str();
}

Status QuickAdmin::PublishShardBacklog(MetricsRegistry* registry) {
  ck::CloudKitService* ck = quick_->cloudkit();
  for (const std::string& cluster_name : ck->clusters()->names()) {
    fdb::Database* cluster = ck->clusters()->Get(cluster_name);
    if (cluster == nullptr) continue;
    const ck::DatabaseRef cluster_db = ck->OpenClusterDb(cluster_name);
    const std::vector<std::string> shards =
        quick_->TopZoneNames(cluster_name);
    Status st = fdb::RunTransaction(cluster, [&](fdb::Transaction& txn) {
      for (size_t i = 0; i < shards.size(); ++i) {
        ck::QueueZone top = ck->OpenQueueZone(cluster_db, shards[i], &txn);
        QUICK_ASSIGN_OR_RETURN(int64_t entries, top.Count());
        registry
            ->GetGauge("ck.zone.top_backlog." + cluster_name + "." +
                       std::to_string(i))
            ->Set(entries);
      }
      return Status::OK();
    });
    QUICK_RETURN_IF_ERROR(st);
  }
  return Status::OK();
}

Result<std::vector<ck::DeadLetterItem>> QuickAdmin::ListDeadLetters(
    const ck::DatabaseId& db_id, int limit) {
  const ck::DatabaseRef db = quick_->cloudkit()->OpenDatabase(db_id);
  std::vector<ck::DeadLetterItem> out;
  Status st = fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
    ck::QueueZone zone = quick_->OpenTenantZone(db, &txn);
    QUICK_ASSIGN_OR_RETURN(out, zone.ListDeadLetters(limit));
    return Status::OK();
  });
  QUICK_RETURN_IF_ERROR(st);
  return out;
}

Result<int64_t> QuickAdmin::DeadLetterCount(const ck::DatabaseId& db_id) {
  const ck::DatabaseRef db = quick_->cloudkit()->OpenDatabase(db_id);
  return fdb::RunTransactionResult<int64_t>(
      db.cluster, fdb::TransactionOptions{},
      [&](fdb::Transaction& txn, int64_t* out) {
        ck::QueueZone zone = quick_->OpenTenantZone(db, &txn);
        QUICK_ASSIGN_OR_RETURN(*out, zone.DeadLetterCount());
        return Status::OK();
      });
}

Status QuickAdmin::RequeueDeadLetter(const ck::DatabaseId& db_id,
                                     const std::string& item_id) {
  return Requeue(quick_, db_id, item_id,
                 [this](fdb::Transaction& txn, const ck::DatabaseRef& db) {
                   return quick_->OpenTenantZone(db, &txn);
                 });
}

Result<int> QuickAdmin::RequeueAllDeadLetters(const ck::DatabaseId& db_id) {
  // Snapshot the ids first, then requeue each in its own bounded
  // transaction; items quarantined while the drain runs are picked up by
  // the operator's next drain.
  QUICK_ASSIGN_OR_RETURN(std::vector<ck::DeadLetterItem> items,
                         ListDeadLetters(db_id));
  int requeued = 0;
  for (const ck::DeadLetterItem& item : items) {
    Status st = RequeueDeadLetter(db_id, item.id);
    if (st.IsNotFound()) continue;  // purged/requeued concurrently
    QUICK_RETURN_IF_ERROR(st);
    ++requeued;
  }
  return requeued;
}

Status QuickAdmin::PurgeDeadLetter(const ck::DatabaseId& db_id,
                                   const std::string& item_id) {
  const ck::DatabaseRef db = quick_->cloudkit()->OpenDatabase(db_id);
  Status st = fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
    ck::QueueZone zone = quick_->OpenTenantZone(db, &txn);
    return zone.PurgeDeadLetter(item_id);
  });
  QUICK_RETURN_IF_ERROR(st);
  PurgedMetric()->Increment();
  return Status::OK();
}

Result<std::vector<ck::DeadLetterItem>> QuickAdmin::ListClusterDeadLetters(
    const std::string& cluster_name, int limit) {
  ck::CloudKitService* ck = quick_->cloudkit();
  fdb::Database* cluster = ck->clusters()->Get(cluster_name);
  if (cluster == nullptr) {
    return Status::InvalidArgument("unknown cluster " + cluster_name);
  }
  const ck::DatabaseRef cluster_db = ck->OpenClusterDb(cluster_name);
  std::vector<ck::DeadLetterItem> out;
  Status st = fdb::RunTransaction(cluster, [&](fdb::Transaction& txn) {
    out.clear();
    for (const std::string& shard : quick_->TopZoneNames(cluster_name)) {
      ck::QueueZone top = ck->OpenQueueZone(cluster_db, shard, &txn);
      QUICK_ASSIGN_OR_RETURN(std::vector<ck::DeadLetterItem> shard_items,
                             top.ListDeadLetters(limit));
      for (ck::DeadLetterItem& item : shard_items) {
        out.push_back(std::move(item));
        if (limit > 0 && static_cast<int>(out.size()) >= limit) {
          return Status::OK();
        }
      }
    }
    return Status::OK();
  });
  QUICK_RETURN_IF_ERROR(st);
  return out;
}

Status QuickAdmin::RequeueClusterDeadLetter(const std::string& cluster_name,
                                            const std::string& item_id) {
  // Quarantine keeps a local item in its own top-level shard, so the shard
  // of the dead letter is re-derivable from the id.
  return Requeue(
      quick_, ck::DatabaseId::Cluster(cluster_name), item_id,
      [this, item_id](fdb::Transaction& txn, const ck::DatabaseRef& db) {
        return quick_->OpenTopZoneFor(db, item_id, &txn);
      });
}

Status QuickAdmin::PurgeClusterDeadLetter(const std::string& cluster_name,
                                          const std::string& item_id) {
  ck::CloudKitService* ck = quick_->cloudkit();
  fdb::Database* cluster = ck->clusters()->Get(cluster_name);
  if (cluster == nullptr) {
    return Status::InvalidArgument("unknown cluster " + cluster_name);
  }
  const ck::DatabaseRef cluster_db = ck->OpenClusterDb(cluster_name);
  Status st = fdb::RunTransaction(cluster, [&](fdb::Transaction& txn) {
    ck::QueueZone top = quick_->OpenTopZoneFor(cluster_db, item_id, &txn);
    return top.PurgeDeadLetter(item_id);
  });
  QUICK_RETURN_IF_ERROR(st);
  PurgedMetric()->Increment();
  return Status::OK();
}

std::vector<Span> QuickAdmin::ItemTrace(const std::string& item_id) const {
  Tracer* tracer = quick_->tracer();
  if (tracer == nullptr) return {};
  return tracer->TraceOf(item_id);
}

std::vector<Span> QuickAdmin::WorkflowTrace(
    const std::string& workflow_id) const {
  Tracer* tracer = quick_->tracer();
  if (tracer == nullptr) return {};
  return tracer->TraceOf(workflow_id);
}

std::string QuickAdmin::RenderWorkflowTrace(
    const ck::DatabaseId& db_id, const std::string& workflow_id) const {
  std::ostringstream os;
  os << "workflow " << workflow_id;

  // Durable state first: the record survives tracer eviction and process
  // restarts, so this line is authoritative even when the spans are gone.
  const ck::DatabaseRef db = quick_->cloudkit()->OpenDatabase(db_id);
  const std::string key = ck::WorkflowRecord::Key(db_id, workflow_id);
  std::optional<ck::WorkflowRecord> record;
  Status st = fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
    record.reset();
    QUICK_ASSIGN_OR_RETURN(std::optional<std::string> raw, txn.Get(key));
    if (raw.has_value()) record = ck::WorkflowRecord::Decode(*raw);
    return Status::OK();
  });
  if (st.ok() && record.has_value()) {
    os << " state=" << ck::WorkflowRecord::StateName(record->state)
       << " saga=" << record->saga << " steps=" << record->step_status;
    if (!record->failure.empty()) os << " failure=\"" << record->failure
                                    << "\"";
  } else {
    os << " (no record)";
  }
  os << "\n";

  const std::vector<Span> spans = WorkflowTrace(workflow_id);
  if (spans.empty()) {
    os << "  (no spans — tracing off or evicted)\n";
    return os.str();
  }
  const int64_t t0 = spans.front().start_micros;
  std::vector<std::string> step_items;
  for (const Span& s : spans) {
    os << "  +" << (s.start_micros - t0) << "us " << s.name << " ["
       << s.actor << "]";
    const int64_t dur = s.end_micros - s.start_micros;
    if (dur > 0) os << " dur=" << dur << "us";
    if (!s.detail.empty()) os << " " << s.detail;
    if (!s.parent_trace.empty()) {
      os << " item=" << s.parent_trace;
      if (std::find(step_items.begin(), step_items.end(), s.parent_trace) ==
          step_items.end()) {
        step_items.push_back(s.parent_trace);
      }
    }
    os << "\n";
  }
  // The queue-level story of every step item the chain touched.
  for (const std::string& item_id : step_items) {
    std::istringstream item_trace(RenderTrace(item_id));
    std::string line;
    while (std::getline(item_trace, line)) os << "  | " << line << "\n";
  }
  return os.str();
}

std::string QuickAdmin::RenderTrace(const std::string& item_id) const {
  const std::vector<Span> spans = ItemTrace(item_id);
  std::ostringstream os;
  os << "trace " << item_id << " (" << spans.size() << " spans)\n";
  if (spans.empty()) return os.str();
  const int64_t t0 = spans.front().start_micros;
  for (const Span& s : spans) {
    os << "  +" << (s.start_micros - t0) << "us " << s.name << " ["
       << s.actor << "]";
    const int64_t dur = s.end_micros - s.start_micros;
    if (dur > 0) os << " dur=" << dur << "us";
    if (!s.detail.empty()) os << " " << s.detail;
    if (!s.parent_trace.empty()) os << " parent=" << s.parent_trace;
    os << "\n";
  }
  return os.str();
}

}  // namespace quick::core
