#ifndef QUICK_CLOUDKIT_QUEUE_ZONE_H_
#define QUICK_CLOUDKIT_QUEUE_ZONE_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "cloudkit/queued_item.h"
#include "common/clock.h"
#include "fdb/transaction.h"
#include "reclayer/record_store.h"
#include "tuple/subspace.h"

namespace quick::ck {

/// Job-type name used for QuiCK's top-level-queue pointers.
inline constexpr const char* kPointerJobType = "__pointer";

/// A CloudKit zone designated as a queue (§5): queued items ordered by
/// (priority, vesting time) through a Record Layer value index, an atomic
/// count index for observability, and a value index on db_key — the
/// pointer index QuiCK's enqueue protocol reads (§6).
///
/// Like a RecordStore, a QueueZone is opened per transaction: every method
/// buffers into the supplied transaction and takes effect when the caller
/// commits. Multiple operations in one transaction are atomic — e.g.
/// enqueue a batch, or dequeue + process side effects + complete.
class QueueZone {
 public:
  /// Index/metadata names.
  static constexpr const char* kVestingIndex = "vesting";
  static constexpr const char* kDbKeyIndex = "by_db_key";
  static constexpr const char* kCountIndex = "cnt";
  static constexpr const char* kArrivalIndex = "arrival";
  /// Dead-letter store: child-subspace tag and index names.
  static constexpr const char* kDeadLetterTag = "dl";
  static constexpr const char* kDeadLetterCountIndex = "dl_cnt";
  static constexpr const char* kQuarantineTimeIndex = "by_qtime";

  /// The shared schema of every queue zone.
  static const rl::RecordMetadata& Metadata();

  /// Schema of the per-zone dead-letter quarantine (see Quarantine()).
  static const rl::RecordMetadata& DeadLetterMetadata();

  /// Schema for FIFO-ordered queue zones: adds a sticky version index that
  /// stamps each item with its enqueue commit version — the §5 future-work
  /// ordering ("we can leverage FoundationDB's commit timestamps to order
  /// queued items, rather than relying on local server clocks").
  static const rl::RecordMetadata& FifoMetadata();

  /// `fifo` selects the FIFO schema; a zone must be opened with the same
  /// choice for its whole lifetime.
  QueueZone(fdb::Transaction* txn, tup::Subspace zone_subspace, Clock* clock,
            bool fifo = false);

  /// §5 enqueue: stores the item with vesting time = now + delay. A random
  /// id is generated unless item.id is set (idempotent enqueue). Returns
  /// the item id.
  Result<std::string> Enqueue(QueuedItem item, int64_t vesting_delay_millis);

  /// §5 peek: up to max_items vested items in (priority, vesting) order
  /// that satisfy `predicate` (when given). Does not lease. Reads only each
  /// priority group's vested prefix, so it costs O(items examined), not
  /// O(zone size). The index scan is snapshot (never aborts writers);
  /// record loads are snapshot too since peek makes no decision a conflict
  /// must protect.
  Result<std::vector<QueuedItem>> Peek(
      int max_items,
      const std::function<bool(const QueuedItem&)>& predicate = nullptr);

  /// Scanner fast path (§6 optimization): ids of vested items straight from
  /// the vesting index without touching the records, in index order. Each
  /// entry decodes only its (priority, vesting, id) fields.
  Result<std::vector<std::string>> PeekIds(int max_items);

  /// FIFO-zone peek: vested items in strict enqueue-commit order (ignores
  /// priority). Requires the FIFO schema. Fully snapshot, like Peek; reads
  /// the arrival index a page at a time and stops at max_items.
  Result<std::vector<QueuedItem>> PeekFifo(int max_items);

  /// Transactional FIFO peek+lease.
  Result<std::vector<LeasedItem>> DequeueFifo(int max_items,
                                              int64_t lease_duration_millis);

  /// The 10-byte enqueue-commit stamp of an item in a FIFO zone (its
  /// position in the strict order); nullopt for unknown items.
  Result<std::optional<std::string>> ArrivalStamp(const std::string& item_id);

  /// §5 obtain lease: leases the item for `lease_duration_millis` by
  /// advancing its vesting time; returns the generated lease id. Fails with
  /// kLeaseLost when the item is not vested (someone else holds a live
  /// lease or the item is delayed) and kNotFound when it does not exist.
  Result<std::string> ObtainLease(const std::string& item_id,
                                  int64_t lease_duration_millis);

  /// §5 complete: deletes the item. With a lease id, succeeds only while
  /// that lease is still the item's current one (kLeaseLost otherwise);
  /// without one it cancels unconditionally.
  Status Complete(const std::string& item_id,
                  const std::optional<std::string>& lease_id = std::nullopt);

  /// §5 extend lease: pushes the vesting time out again. Succeeds while the
  /// caller's lease id is still current — including after expiry, provided
  /// no other consumer has re-leased the item.
  Status ExtendLease(const std::string& item_id, const std::string& lease_id,
                     int64_t lease_duration_millis);

  /// §5 requeue: re-vests the item after `vesting_delay_millis`, optionally
  /// bumping the error count (retry bookkeeping), and releases any lease.
  /// With a lease id the requeue is fenced: it succeeds only while that
  /// lease is still the item's current one (kLeaseLost otherwise), so an
  /// expired-lease consumer cannot clear a lease another consumer took.
  Status Requeue(const std::string& item_id, int64_t vesting_delay_millis,
                 bool increment_error_count = true,
                 const std::optional<std::string>& lease_id = std::nullopt);

  /// Dead-letter quarantine: atomically (within the caller's transaction)
  /// removes the item from the queue and records it in the zone's
  /// dead-letter subspace with the final error, attempt count (the item's
  /// error count plus the final failing attempt), and quarantine time.
  /// With a lease id the transition is fenced like Complete: kLeaseLost
  /// when the lease was superseded, kNotFound when the item is gone —
  /// an expired-lease ("zombie") consumer can never quarantine an item
  /// another consumer has retaken. The dead-letter subspace is a sibling
  /// of the queue's record store, so IsEmpty()/Count() — and therefore
  /// pointer GC — ignore quarantined items, while the zone's keyspace
  /// prefix still covers them (they migrate with the tenant).
  Status Quarantine(const std::string& item_id,
                    const std::optional<std::string>& lease_id,
                    const std::string& reason, const std::string& final_error);

  /// Dead-lettered items in quarantine-time order (limit 0 = all).
  /// Snapshot reads: inspection never aborts producers or consumers.
  Result<std::vector<DeadLetterItem>> ListDeadLetters(int max_items = 0);

  /// Loads one dead-lettered item; nullopt when absent.
  Result<std::optional<DeadLetterItem>> LoadDeadLetter(
      const std::string& item_id);

  /// Removes and returns a dead-lettered item (kNotFound when absent) —
  /// the first half of an operator requeue; the caller re-enqueues the
  /// returned item in the same transaction.
  Result<DeadLetterItem> TakeDeadLetter(const std::string& item_id);

  /// Permanently discards a dead-lettered item (operator decision; the
  /// only deliberate data-loss path, and it is explicit).
  Status PurgeDeadLetter(const std::string& item_id);

  /// Number of quarantined items, from the dead-letter count index
  /// (snapshot read).
  Result<int64_t> DeadLetterCount();

  /// Every item in the zone regardless of vesting state — leased, delayed,
  /// and vested alike (limit 0 = all). Fully snapshot like Peek; the
  /// migration orchestrator uses it to audit lease drain before the fenced
  /// final copy, when the fence already guarantees quiescence.
  Result<std::vector<QueuedItem>> SnapshotAll(int max_items = 0);

  /// Transactional peek+lease of up to `max_items` vested items (§5
  /// dequeue, batched as QuiCK's Managers use it).
  Result<std::vector<LeasedItem>> Dequeue(int max_items,
                                          int64_t lease_duration_millis);

  /// Loads one item (strong read).
  Result<std::optional<QueuedItem>> Load(const std::string& item_id);

  /// Current queue length from the atomic count index (snapshot read; never
  /// conflicts — the per-tenant observability the paper highlights).
  Result<int64_t> Count();

  /// Earliest vesting time over all items including unvested ones, or
  /// nullopt when empty. Snapshot index read of one entry per priority
  /// group (each group's first).
  Result<std::optional<int64_t>> MinVestingTime();

  /// Strong emptiness check: adds a read conflict over the zone's records
  /// so a concurrent enqueue aborts this transaction (pointer-GC safety,
  /// §6 "Correctness").
  Result<bool> IsEmpty();

  /// Exact key of the db_key-index entry for an item — the "pointer index"
  /// key QuiCK's enqueue reads (and declares write conflicts on, §6.1).
  std::string DbKeyIndexEntryKey(std::string_view db_key,
                                 std::string_view item_id) const;

  /// Low-level save preserving every field as given (QuiCK's pointer
  /// maintenance: vesting/lease/last_active updates in one write).
  Status SaveItem(const QueuedItem& item) { return Save(item); }

  /// Direct record-store access (update-in-place of pointers).
  rl::RecordStore* store() { return &store_; }
  Clock* clock() const { return clock_; }

 private:
  Result<QueuedItem> LoadOrNotFound(const std::string& item_id);
  Result<std::optional<QueuedItem>> LoadItem(const std::string& item_id,
                                             bool snapshot);
  Status Save(const QueuedItem& item);
  /// The dead-letter store, opened on first use: most transactions never
  /// touch it, so opening a zone does not derive its prefixes.
  rl::RecordStore& DeadLetterStore();
  /// Peek as of `now`: up to max_items items vested by then that satisfy
  /// `predicate`, in (priority, vesting) order.
  Result<std::vector<QueuedItem>> PeekVestedBy(
      int64_t now, int max_items,
      const std::function<bool(const QueuedItem&)>& predicate);

  fdb::Transaction* txn_;
  rl::RecordStore store_;
  /// Dead-letter quarantine, rooted at a child tag of the zone subspace —
  /// disjoint from the queue store's records/indexes, inside the zone's
  /// keyspace prefix. Empty until DeadLetterStore() opens it.
  std::optional<rl::RecordStore> dl_store_;
  Clock* clock_;
};

}  // namespace quick::ck

#endif  // QUICK_CLOUDKIT_QUEUE_ZONE_H_
