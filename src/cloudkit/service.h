#ifndef QUICK_CLOUDKIT_SERVICE_H_
#define QUICK_CLOUDKIT_SERVICE_H_

#include <string>
#include <vector>

#include "cloudkit/database_id.h"
#include "cloudkit/placement.h"
#include "cloudkit/queue_zone.h"
#include "common/clock.h"
#include "fdb/cluster_set.h"

namespace quick::ck {

/// A logical database resolved to its physical location: the cluster that
/// stores it and its keyspace prefix there.
struct DatabaseRef {
  DatabaseId id;
  fdb::Database* cluster = nullptr;
  tup::Subspace subspace;

  /// Subspace of a zone within this database.
  tup::Subspace ZoneSubspace(const std::string& zone_name) const;
};

/// The CloudKit storage service over a fleet of FoundationDB clusters:
/// resolves logical databases to clusters (assigning placement on first
/// use), scopes zones within them, opens queue zones, and provides the
/// data-movement primitives tenant migration is built from (§4–§6).
///
/// Transactions are created against a DatabaseRef's cluster and may touch
/// any number of logical databases on that cluster — the cross-database
/// transactional enqueue the paper added to CloudKit ("arbitrary
/// transactions across multiple keys in the same FoundationDB cluster").
class CloudKitService {
 public:
  CloudKitService(fdb::ClusterSet* clusters, Clock* clock)
      : clusters_(clusters),
        clock_(clock),
        placement_(clusters->names()) {}

  /// Resolves `id`, assigning it to a cluster on first use.
  DatabaseRef OpenDatabase(const DatabaseId& id);

  /// The per-cluster ClusterDB (always pinned to `cluster_name`).
  DatabaseRef OpenClusterDb(const std::string& cluster_name) {
    return OpenDatabase(DatabaseId::Cluster(cluster_name));
  }

  /// Opens a queue zone of `db` inside an existing transaction on the
  /// database's cluster. `fifo` selects the FIFO schema and must match the
  /// zone's designation for its whole lifetime (ZoneCatalog enforces this
  /// for catalogued zones).
  QueueZone OpenQueueZone(const DatabaseRef& db, const std::string& zone_name,
                          fdb::Transaction* txn, bool fifo = false) {
    return QueueZone(txn, db.ZoneSubspace(zone_name), clock_, fifo);
  }

  /// Copies every key of `id`'s database to `dest_cluster` (same keyspace
  /// prefix), in batches of its own transactions. First phase of a tenant
  /// move; the source stays readable.
  Status CopyDatabaseData(const DatabaseId& id,
                          const std::string& dest_cluster);

  /// Deletes every key of `id`'s database on `cluster_name`.
  Status DeleteDatabaseData(const DatabaseId& id,
                            const std::string& cluster_name);

  /// Re-points the placement directory at `dest_cluster` (metadata flip of
  /// a tenant move). Guarded: when the source still has queue items (live
  /// or dead-lettered) in `queue_zone_name`, the flip is refused unless a
  /// sealed MoveState fence is up on the source — i.e. the caller is
  /// control::TenantBalancer, which has frozen the source and will carry
  /// the items over. A bare flip with queued work would strand (and later
  /// delete) that work on the source.
  Status CommitMove(const DatabaseId& id, const std::string& dest_cluster,
                    const std::string& queue_zone_name = "_queue");

  PlacementDirectory* placement() { return &placement_; }
  fdb::ClusterSet* clusters() { return clusters_; }
  Clock* clock() const { return clock_; }

  /// Keyspace prefix of a logical database (identical on every cluster, so
  /// moves are prefix-preserving copies): ("ck", app, user, kind).
  static tup::Subspace DatabaseSubspace(const DatabaseId& id) {
    return tup::Subspace(DatabasePrefix(id, 0));
  }

  /// Keyspace of zone `zone_name` within `id`'s database. It depends on
  /// the database alone, never on placement, so a stale pointer at a
  /// migration source resolves to the same (by then empty) keys.
  static tup::Subspace ZoneSubspace(const DatabaseId& id,
                                    std::string_view zone_name) {
    std::string prefix =
        DatabasePrefix(id, kZoneTag.size() + zone_name.size() + 2);
    AppendZone(zone_name, &prefix);
    return tup::Subspace(std::move(prefix));
  }

  /// The same below an already derived DatabaseSubspace(id).
  static tup::Subspace ZoneSubspace(const tup::Subspace& database,
                                    std::string_view zone_name) {
    const std::string& db_prefix = database.prefix();
    std::string prefix;
    prefix.reserve(db_prefix.size() + kZoneTag.size() + zone_name.size() + 2);
    prefix.append(db_prefix);
    AppendZone(zone_name, &prefix);
    return tup::Subspace(std::move(prefix));
  }

 private:
  static constexpr tup::StringTag kDatabasesTag{"ck"};
  static constexpr tup::StringTag kZoneTag{"z"};

  /// DatabaseSubspace(id)'s prefix, with room for `extra` more bytes.
  static std::string DatabasePrefix(const DatabaseId& id, size_t extra) {
    std::string prefix;
    prefix.reserve(kDatabasesTag.size() + id.EncodedSize() + extra);
    prefix.append(kDatabasesTag);
    id.AppendTo(&prefix);
    return prefix;
  }
  /// Appends a zone's part of its prefix, ("z", zone_name): the one place
  /// the zone layout is written down.
  static void AppendZone(std::string_view zone_name, std::string* prefix) {
    prefix->append(kZoneTag);
    tup::AppendString(zone_name, prefix);
  }

  fdb::ClusterSet* clusters_;
  Clock* clock_;
  PlacementDirectory placement_;
};

inline tup::Subspace DatabaseRef::ZoneSubspace(
    const std::string& zone_name) const {
  return CloudKitService::ZoneSubspace(subspace, zone_name);
}

}  // namespace quick::ck

#endif  // QUICK_CLOUDKIT_SERVICE_H_
