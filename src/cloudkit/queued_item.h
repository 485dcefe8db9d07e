#ifndef QUICK_CLOUDKIT_QUEUED_ITEM_H_
#define QUICK_CLOUDKIT_QUEUED_ITEM_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "reclayer/record.h"

namespace quick::ck {

/// Metadata CloudKit queue zones keep for every enqueued record (§5):
/// priority (lower = higher), lease identifier, vesting time, and error
/// count — plus the fields QuiCK adds for pointers (db_key,
/// last_active_time) and observability (job_type, enqueue_time).
struct QueuedItem {
  /// Record id; randomly generated at enqueue unless the client supplies
  /// one for idempotency.
  std::string id;
  /// Work-item type; selects the handler and retry policy. QuiCK's
  /// top-level-queue pointers use kPointerJobType.
  std::string job_type;
  int64_t priority = 0;
  /// Wall-clock millis at which the item becomes visible to consumers.
  /// Leases advance it by the lease duration (fault-tolerant leasing, §5).
  int64_t vesting_time = 0;
  /// Empty when unleased; otherwise the random UUID the lease holder must
  /// present to complete/extend.
  std::string lease_id;
  int64_t error_count = 0;
  /// Opaque application payload (any CloudKit record, serialized).
  std::string payload;
  int64_t enqueue_time = 0;
  /// For pointer items: the canonical key of the logical database whose
  /// queue zone this pointer references (indexed — the pointer index, §6).
  std::string db_key;
  /// For pointer items: the last time work items were observed in the
  /// referenced queue zone (drives pointer GC grace, §6).
  int64_t last_active_time = 0;

  /// Record-type name queue zones use.
  static constexpr const char* kRecordType = "QueuedItem";

  rl::Record ToRecord() const;
  /// Takes the record by value and moves its strings out.
  static Result<QueuedItem> FromRecord(rl::Record record);

  bool leased() const { return !lease_id.empty(); }
};

/// An item a consumer holds a lease on.
struct LeasedItem {
  QueuedItem item;
  std::string lease_id;
};

/// A terminally-failed item moved into a zone's dead-letter quarantine
/// instead of being deleted (§2: "a corrupt task should not block the
/// whole system" — without silently losing it). Preserves everything an
/// operator needs to diagnose and requeue the original item.
struct DeadLetterItem {
  /// The original item's id (primary key here too, so requeue restores the
  /// item under its idempotency id).
  std::string id;
  std::string job_type;
  int64_t priority = 0;
  std::string payload;
  /// Original enqueue time of the failed item.
  int64_t enqueue_time = 0;
  /// Preserved for quarantined pointer items.
  std::string db_key;
  /// Total attempts made, including the final failing one.
  int64_t attempts = 0;
  /// Why the item was quarantined: "permanent", "exhausted",
  /// "unknown_job_type", or "corrupt_pointer".
  std::string reason;
  /// Message of the final error.
  std::string final_error;
  /// Wall-clock millis at which the item was quarantined.
  int64_t quarantine_time = 0;

  static constexpr const char* kRecordType = "DeadLetterItem";

  rl::Record ToRecord() const;
  /// Takes the record by value and moves its strings out.
  static Result<DeadLetterItem> FromRecord(rl::Record record);
};

}  // namespace quick::ck

#endif  // QUICK_CLOUDKIT_QUEUED_ITEM_H_
