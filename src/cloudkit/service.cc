#include "cloudkit/service.h"

#include "cloudkit/migration_state.h"
#include "fdb/retry.h"

namespace quick::ck {

DatabaseRef CloudKitService::OpenDatabase(const DatabaseId& id) {
  const std::string cluster_name = placement_.AssignOrGet(id);
  DatabaseRef ref;
  ref.id = id;
  ref.cluster = clusters_->Get(cluster_name);
  ref.subspace = DatabaseSubspace(id);
  return ref;
}

Status CloudKitService::CopyDatabaseData(const DatabaseId& id,
                                         const std::string& dest_cluster) {
  const std::optional<std::string> src_cluster = placement_.Get(id);
  if (!src_cluster.has_value()) {
    return Status::NotFound("database " + id.ToString() + " not placed");
  }
  fdb::Database* src = clusters_->Get(*src_cluster);
  fdb::Database* dst = clusters_->Get(dest_cluster);
  if (src == nullptr || dst == nullptr) {
    return Status::InvalidArgument("unknown cluster");
  }
  const KeyRange range = DatabaseSubspace(id).Range();

  // Batched copy: read a page from the source, write it to the
  // destination, resume after the last key. Each page is its own pair of
  // transactions, so arbitrarily large databases move without hitting
  // transaction limits.
  std::string cursor = range.begin;
  constexpr int kPageSize = 256;
  while (true) {
    std::vector<fdb::KeyValue> page;
    Status st = fdb::RunTransaction(src, [&](fdb::Transaction& txn) {
      fdb::RangeOptions opts;
      opts.limit = kPageSize;
      auto kvs = txn.GetRange(KeyRange{cursor, range.end}, opts,
                              /*snapshot=*/true);
      QUICK_RETURN_IF_ERROR(kvs.status());
      page = *std::move(kvs);
      return Status::OK();
    });
    QUICK_RETURN_IF_ERROR(st);
    if (page.empty()) break;
    st = fdb::RunTransaction(dst, [&](fdb::Transaction& txn) {
      for (const fdb::KeyValue& kv : page) {
        txn.Set(kv.key, kv.value);
      }
      return Status::OK();
    });
    QUICK_RETURN_IF_ERROR(st);
    cursor = KeyAfter(page.back().key);
    if (static_cast<int>(page.size()) < kPageSize) break;
  }
  return Status::OK();
}

Status CloudKitService::CommitMove(const DatabaseId& id,
                                   const std::string& dest_cluster,
                                   const std::string& queue_zone_name) {
  if (id.kind == DatabaseKind::kCluster) {
    return Status::InvalidArgument("cannot move a ClusterDB: " +
                                   id.ToString());
  }
  const std::optional<std::string> src_cluster = placement_.Get(id);
  if (!src_cluster.has_value()) {
    return Status::NotFound("database " + id.ToString() + " not placed");
  }
  if (*src_cluster == dest_cluster) return Status::OK();
  fdb::Database* src = clusters_->Get(*src_cluster);
  fdb::Database* dst = clusters_->Get(dest_cluster);
  if (src == nullptr || dst == nullptr) {
    return Status::InvalidArgument("unknown cluster");
  }
  Status st = fdb::RunTransaction(src, [&](fdb::Transaction& txn) {
    // A sealed migration fence on the source means the balancer has
    // frozen the tenant and owns carrying the queue contents across.
    QUICK_ASSIGN_OR_RETURN(std::optional<MoveState> fence,
                           MoveState::ReadFence(txn, id));
    if (fence.has_value()) return Status::OK();
    QueueZone zone(&txn, ZoneSubspace(id, queue_zone_name), clock_);
    QUICK_ASSIGN_OR_RETURN(int64_t count, zone.Count());
    QUICK_ASSIGN_OR_RETURN(int64_t dl_count, zone.DeadLetterCount());
    if (count > 0 || dl_count > 0) {
      return Status::FailedPrecondition(
          "refusing placement flip for " + id.ToString() + ": source has " +
          std::to_string(count) + " queued and " + std::to_string(dl_count) +
          " dead-lettered item(s); move them with "
          "control::TenantBalancer::MoveTenant instead");
    }
    return Status::OK();
  });
  QUICK_RETURN_IF_ERROR(st);
  placement_.Set(id, dest_cluster);
  return Status::OK();
}

Status CloudKitService::DeleteDatabaseData(const DatabaseId& id,
                                           const std::string& cluster_name) {
  fdb::Database* db = clusters_->Get(cluster_name);
  if (db == nullptr) return Status::InvalidArgument("unknown cluster");
  const KeyRange range = DatabaseSubspace(id).Range();
  return fdb::RunTransaction(db, [&](fdb::Transaction& txn) {
    txn.ClearRange(range);
    return Status::OK();
  });
}

}  // namespace quick::ck
