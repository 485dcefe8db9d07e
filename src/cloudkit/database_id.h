#ifndef QUICK_CLOUDKIT_DATABASE_ID_H_
#define QUICK_CLOUDKIT_DATABASE_ID_H_

#include <string>

#include "common/result.h"
#include "tuple/tuple.h"

namespace quick::ck {

/// CloudKit logical database kinds (§4): every user of an app gets a
/// private database; each app has one shared public database; ClusterDB is
/// the QuiCK-specific kind pinned to a FoundationDB cluster (§6).
enum class DatabaseKind : int64_t {
  kPrivate = 0,
  kPublic = 1,
  kCluster = 2,
};

/// Identity of one logical database — CloudKit's tenancy unit. Sharding,
/// fairness, observability, and migration all key off this.
struct DatabaseId {
  std::string app;
  /// User identifier for kPrivate; empty for kPublic; the pinned cluster
  /// name for kCluster.
  std::string user;
  DatabaseKind kind = DatabaseKind::kPrivate;

  static DatabaseId Private(std::string app, std::string user) {
    return {std::move(app), std::move(user), DatabaseKind::kPrivate};
  }
  static DatabaseId Public(std::string app) {
    return {std::move(app), "", DatabaseKind::kPublic};
  }
  /// The per-cluster system database holding the top-level queue Q_C.
  static DatabaseId Cluster(std::string cluster_name) {
    return {"_quick", std::move(cluster_name), DatabaseKind::kCluster};
  }

  /// Appends the tuple encoding of (app, user, kind) to `out`: the
  /// database's part of its keyspace prefix.
  void AppendTo(std::string* out) const {
    tup::AppendString(app, out);
    tup::AppendString(user, out);
    tup::AppendElement(tup::Element(static_cast<int64_t>(kind)), out);
  }

  /// Room for what AppendTo appends, escapes aside: two bytes around each
  /// string, at most two for the kind.
  size_t EncodedSize() const { return app.size() + user.size() + 6; }

  /// Canonical string form; used as the pointer-index key component.
  std::string ToKeyString() const {
    return app + "\x1f" + user + "\x1f" +
           std::to_string(static_cast<int64_t>(kind));
  }

  static Result<DatabaseId> FromKeyString(std::string_view s);

  std::string ToString() const {
    switch (kind) {
      case DatabaseKind::kPrivate:
        return app + "/private/" + user;
      case DatabaseKind::kPublic:
        return app + "/public";
      case DatabaseKind::kCluster:
        return app + "/cluster/" + user;
    }
    return app + "/?";
  }

  bool operator==(const DatabaseId&) const = default;
  auto operator<=>(const DatabaseId&) const = default;
};

}  // namespace quick::ck

#endif  // QUICK_CLOUDKIT_DATABASE_ID_H_
