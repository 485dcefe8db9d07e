#include "cloudkit/queue_zone.h"

#include <limits>

#include "common/metrics.h"
#include "common/random.h"

namespace quick::ck {

namespace {

/// Storage-layer operation counters (ck.zone.*). They count attempts at
/// this layer, including ones whose enclosing transaction later aborts —
/// the delta against the consumer-level counters is itself a useful
/// signal (retry amplification). Counter pointers are cached per call
/// site so the hot paths never touch the registry mutex.
Counter* ZoneCounter(const char* name) {
  return MetricsRegistry::Default()->GetCounter(name);
}

// Index reads. Every scan below is a snapshot scan that streams entry
// bytes (rl::IndexEntrySink) and decodes only the fields it uses, so a
// read costs O(entries it returns), not O(zone size). Walks resume from a
// cursor in entry bytes; nullopt means the end of the index.

bool Full(size_t have, int max_items) {
  return max_items > 0 && static_cast<int>(have) >= max_items;
}

/// Scan limit for the rest of a `max_items` request (0 = unlimited).
int Remaining(size_t have, int max_items) {
  return max_items > 0 ? max_items - static_cast<int>(have) : 0;
}

/// Reads the (priority, vesting_time) head of a vesting-index entry,
/// leaving `reader` at the primary key.
Status ReadVestingKey(tup::TupleReader& reader, int64_t* priority,
                      int64_t* vesting) {
  QUICK_ASSIGN_OR_RETURN(*priority, reader.ReadInt());
  QUICK_ASSIGN_OR_RETURN(*vesting, reader.ReadInt());
  return Status::OK();
}

/// The item id of the primary key (record type, id) at `reader`.
Result<std::string> ReadItemId(tup::TupleReader& reader) {
  QUICK_RETURN_IF_ERROR(reader.Skip());  // record type name
  std::string id;
  QUICK_RETURN_IF_ERROR(reader.ReadString(&id));
  return id;
}

/// Entry bytes just past every entry of priority group `priority`: tuple
/// continuations sort below 0xFF.
std::string PastGroup(int64_t priority) {
  std::string bytes;
  tup::AppendElement(tup::Element(priority), &bytes);  // at most 9 bytes
  bytes.push_back('\xFF');
  return bytes;
}

/// An item id as the encoded primary-key fields RecordStore takes.
std::string EncodedId(std::string_view item_id) {
  std::string pk;
  pk.reserve(item_id.size() + 2);
  tup::AppendString(item_id, &pk);
  return pk;
}

/// Ids of up to `max_items` (0 = all) items vested at `now`, in (priority,
/// vesting) order, walking the vesting index from `*cursor`. Within a
/// priority group vested entries come first, so the walk reads a group's
/// vested prefix and hops past the group at its first unvested entry: one
/// entry per id returned plus one per group hopped. *cursor is left where
/// the walk continues.
Result<std::vector<std::string>> VestedIds(rl::RecordStore& store,
                                           int64_t now, int max_items,
                                           std::optional<std::string>* cursor) {
  rl::IndexScanOptions options;
  options.snapshot = true;
  std::vector<std::string> ids;
  while (cursor->has_value() && !Full(ids.size(), max_items)) {
    options.limit = Remaining(ids.size(), max_items);
    const KeyRange range{**cursor, KeyRange::All().end};
    cursor->reset();  // the end of the index, unless the scan stops early
    Status decode;
    QUICK_RETURN_IF_ERROR(store.ScanIndexEntries(
        QueueZone::kVestingIndex, range, options, [&](std::string_view bytes) {
          tup::TupleReader reader(bytes);
          int64_t priority = 0;
          int64_t vesting = 0;
          decode = ReadVestingKey(reader, &priority, &vesting);
          if (!decode.ok()) return false;
          if (vesting > now) {  // not vested (or leased into the future)
            cursor->emplace(PastGroup(priority));
            return false;
          }
          Result<std::string> id = ReadItemId(reader);
          if (!id.ok()) {
            decode = id.status();
            return false;
          }
          ids.push_back(*std::move(id));
          if (Full(ids.size(), max_items)) cursor->emplace(KeyAfter(bytes));
          return true;
        }));
    QUICK_RETURN_IF_ERROR(decode);
  }
  return ids;
}

/// Ids of the next `max_items` (0 = all) entries of `index` from `*cursor`,
/// decoded by `id_of`; *cursor is left after the last entry read.
Result<std::vector<std::string>> IdPage(
    rl::RecordStore& store, const char* index, int max_items,
    Result<std::string> (*id_of)(std::string_view entry),
    std::optional<std::string>* cursor) {
  rl::IndexScanOptions options;
  options.snapshot = true;
  options.limit = max_items;
  const KeyRange range{**cursor, KeyRange::All().end};
  cursor->reset();
  std::vector<std::string> ids;
  Status decode;
  QUICK_RETURN_IF_ERROR(store.ScanIndexEntries(
      index, range, options, [&](std::string_view bytes) {
        Result<std::string> id = id_of(bytes);
        if (!id.ok()) {
          decode = id.status();
          return false;
        }
        ids.push_back(*std::move(id));
        if (Full(ids.size(), max_items)) cursor->emplace(KeyAfter(bytes));
        return true;
      }));
  QUICK_RETURN_IF_ERROR(decode);
  return ids;
}

/// Item id of an arrival (version) index entry: stamp + primary key.
Result<std::string> ArrivalEntryId(std::string_view entry) {
  if (entry.size() < rl::kVersionstampBytes) {
    return Status::Internal("corrupt arrival index entry");
  }
  tup::TupleReader reader(entry.substr(rl::kVersionstampBytes));
  return ReadItemId(reader);
}

/// Item id of a quarantine-time index entry: (quarantine_time, primary key).
Result<std::string> QuarantineEntryId(std::string_view entry) {
  tup::TupleReader reader(entry);
  QUICK_RETURN_IF_ERROR(reader.Skip());  // quarantine_time
  return ReadItemId(reader);
}

rl::RecordMetadata BuildMetadata(bool fifo) {
  rl::RecordMetadata meta(fifo ? 2 : 1);
  rl::RecordTypeDef item;
  item.name = QueuedItem::kRecordType;
  item.fields = {
      {"id", rl::FieldType::kString},
      {"job_type", rl::FieldType::kString},
      {"priority", rl::FieldType::kInt64},
      {"vesting_time", rl::FieldType::kInt64},
      {"lease_id", rl::FieldType::kString},
      {"error_count", rl::FieldType::kInt64},
      {"payload", rl::FieldType::kBytes},
      {"enqueue_time", rl::FieldType::kInt64},
      {"db_key", rl::FieldType::kString},
      {"last_active_time", rl::FieldType::kInt64},
  };
  item.primary_key_fields = {"id"};
  Status st = meta.AddRecordType(std::move(item));
  (void)st;

  rl::IndexDef vesting;
  vesting.name = QueueZone::kVestingIndex;
  vesting.kind = rl::IndexKind::kValue;
  vesting.record_types = {QueuedItem::kRecordType};
  vesting.fields = {"priority", "vesting_time"};
  st = meta.AddIndex(std::move(vesting));

  rl::IndexDef by_db_key;
  by_db_key.name = QueueZone::kDbKeyIndex;
  by_db_key.kind = rl::IndexKind::kValue;
  by_db_key.record_types = {QueuedItem::kRecordType};
  by_db_key.fields = {"db_key"};
  st = meta.AddIndex(std::move(by_db_key));

  rl::IndexDef count;
  count.name = QueueZone::kCountIndex;
  count.kind = rl::IndexKind::kCount;
  count.record_types = {QueuedItem::kRecordType};
  st = meta.AddIndex(std::move(count));

  if (fifo) {
    // Sticky version index: each item keeps the commit version of its
    // enqueue across lease/requeue updates, giving a strict arrival order
    // immune to clock skew (§5).
    rl::IndexDef arrival;
    arrival.name = QueueZone::kArrivalIndex;
    arrival.kind = rl::IndexKind::kVersion;
    arrival.sticky_version = true;
    arrival.record_types = {QueuedItem::kRecordType};
    st = meta.AddIndex(std::move(arrival));
  }
  return meta;
}

rl::RecordMetadata BuildDeadLetterMetadata() {
  rl::RecordMetadata meta(1);
  rl::RecordTypeDef item;
  item.name = DeadLetterItem::kRecordType;
  item.fields = {
      {"id", rl::FieldType::kString},
      {"job_type", rl::FieldType::kString},
      {"priority", rl::FieldType::kInt64},
      {"payload", rl::FieldType::kBytes},
      {"enqueue_time", rl::FieldType::kInt64},
      {"db_key", rl::FieldType::kString},
      {"attempts", rl::FieldType::kInt64},
      {"reason", rl::FieldType::kString},
      {"final_error", rl::FieldType::kString},
      {"quarantine_time", rl::FieldType::kInt64},
  };
  item.primary_key_fields = {"id"};
  Status st = meta.AddRecordType(std::move(item));
  (void)st;

  rl::IndexDef by_qtime;
  by_qtime.name = QueueZone::kQuarantineTimeIndex;
  by_qtime.kind = rl::IndexKind::kValue;
  by_qtime.record_types = {DeadLetterItem::kRecordType};
  by_qtime.fields = {"quarantine_time"};
  st = meta.AddIndex(std::move(by_qtime));

  rl::IndexDef count;
  count.name = QueueZone::kDeadLetterCountIndex;
  count.kind = rl::IndexKind::kCount;
  count.record_types = {DeadLetterItem::kRecordType};
  st = meta.AddIndex(std::move(count));
  return meta;
}

}  // namespace

const rl::RecordMetadata& QueueZone::Metadata() {
  static const rl::RecordMetadata* meta =
      new rl::RecordMetadata(BuildMetadata(false));
  return *meta;
}

const rl::RecordMetadata& QueueZone::FifoMetadata() {
  static const rl::RecordMetadata* meta =
      new rl::RecordMetadata(BuildMetadata(true));
  return *meta;
}

const rl::RecordMetadata& QueueZone::DeadLetterMetadata() {
  static const rl::RecordMetadata* meta =
      new rl::RecordMetadata(BuildDeadLetterMetadata());
  return *meta;
}

QueueZone::QueueZone(fdb::Transaction* txn, tup::Subspace zone_subspace,
                     Clock* clock, bool fifo)
    : txn_(txn),
      store_(txn, std::move(zone_subspace),
             fifo ? &FifoMetadata() : &Metadata()),
      clock_(clock) {}

rl::RecordStore& QueueZone::DeadLetterStore() {
  if (!dl_store_.has_value()) {
    dl_store_.emplace(txn_, store_.subspace().Sub(kDeadLetterTag),
                      &DeadLetterMetadata());
  }
  return *dl_store_;
}

std::string QueueZone::DbKeyIndexEntryKey(std::string_view db_key,
                                          std::string_view item_id) const {
  // The entry is (db_key, (record type, item id)).
  const std::string_view type = QueuedItem::kRecordType;
  std::string values_and_pk;
  values_and_pk.reserve(db_key.size() + type.size() + item_id.size() + 6);
  tup::AppendString(db_key, &values_and_pk);
  const size_t pk_begin = values_and_pk.size();
  tup::AppendString(type, &values_and_pk);
  tup::AppendString(item_id, &values_and_pk);
  const std::string_view entry = values_and_pk;
  return store_.ValueIndexEntryKey(kDbKeyIndex, entry.substr(0, pk_begin),
                                   entry.substr(pk_begin));
}

Result<std::string> QueueZone::Enqueue(QueuedItem item,
                                       int64_t vesting_delay_millis) {
  if (item.id.empty()) {
    item.id = Random::ThreadLocal().NextUuid();
  }
  const int64_t now = clock_->NowMillis();
  item.vesting_time = now + vesting_delay_millis;
  item.enqueue_time = now;
  item.lease_id.clear();
  QUICK_RETURN_IF_ERROR(Save(item));
  static Counter* counter = ZoneCounter("ck.zone.enqueues");
  counter->Increment();
  return item.id;
}

Result<QueuedItem> QueueZone::LoadOrNotFound(const std::string& item_id) {
  QUICK_ASSIGN_OR_RETURN(std::optional<QueuedItem> item,
                         LoadItem(item_id, /*snapshot=*/false));
  if (!item.has_value()) {
    return Status::NotFound("queued item " + item_id);
  }
  return *std::move(item);
}

Result<std::optional<QueuedItem>> QueueZone::LoadItem(
    const std::string& item_id, bool snapshot) {
  QUICK_ASSIGN_OR_RETURN(
      std::optional<rl::Record> rec,
      store_.LoadRecord(QueuedItem::kRecordType, EncodedId(item_id),
                        snapshot));
  if (!rec.has_value()) return std::optional<QueuedItem>(std::nullopt);
  QUICK_ASSIGN_OR_RETURN(QueuedItem item,
                         QueuedItem::FromRecord(*std::move(rec)));
  return std::optional<QueuedItem>(std::move(item));
}

Status QueueZone::Save(const QueuedItem& item) {
  return store_.SaveRecord(item.ToRecord());
}

Result<std::vector<QueuedItem>> QueueZone::Peek(
    int max_items, const std::function<bool(const QueuedItem&)>& predicate) {
  return PeekVestedBy(clock_->NowMillis(), max_items, predicate);
}

Result<std::vector<QueuedItem>> QueueZone::SnapshotAll(int max_items) {
  // Every item has vested by the end of time.
  return PeekVestedBy(std::numeric_limits<int64_t>::max(), max_items, nullptr);
}

Result<std::vector<QueuedItem>> QueueZone::PeekVestedBy(
    int64_t now, int max_items,
    const std::function<bool(const QueuedItem&)>& predicate) {
  std::vector<QueuedItem> out;
  std::optional<std::string> cursor(std::in_place);
  while (cursor.has_value() && !Full(out.size(), max_items)) {
    QUICK_ASSIGN_OR_RETURN(
        std::vector<std::string> ids,
        VestedIds(store_, now, Remaining(out.size(), max_items), &cursor));
    for (const std::string& id : ids) {
      // Snapshot load: peek makes no decision a conflict must protect, and
      // a dequeue that acts on the item conflicts via SaveRecord's
      // previous-image read — so peeking never feeds the resolver.
      QUICK_ASSIGN_OR_RETURN(std::optional<QueuedItem> item,
                             LoadItem(id, /*snapshot=*/true));
      if (!item.has_value()) continue;  // raced with a delete; snapshot scan
      if (predicate && !predicate(*item)) continue;
      out.push_back(*std::move(item));
    }
  }
  return out;
}

Result<std::vector<std::string>> QueueZone::PeekIds(int max_items) {
  std::optional<std::string> cursor(std::in_place);
  return VestedIds(store_, clock_->NowMillis(), max_items, &cursor);
}

Result<std::string> QueueZone::ObtainLease(const std::string& item_id,
                                           int64_t lease_duration_millis) {
  QUICK_ASSIGN_OR_RETURN(QueuedItem item, LoadOrNotFound(item_id));
  const int64_t now = clock_->NowMillis();
  if (item.vesting_time > now) {
    // Either delayed or under someone else's live lease — the cheap,
    // read-detected collision of Figure 7(a).
    static Counter* unvested = ZoneCounter("ck.zone.lease_unvested");
    unvested->Increment();
    return Status::LeaseLost("item not vested until " +
                             std::to_string(item.vesting_time));
  }
  item.lease_id = Random::ThreadLocal().NextUuid();
  item.vesting_time = now + lease_duration_millis;
  QUICK_RETURN_IF_ERROR(Save(item));
  static Counter* obtained = ZoneCounter("ck.zone.leases_obtained");
  obtained->Increment();
  return item.lease_id;
}

Status QueueZone::Complete(const std::string& item_id,
                           const std::optional<std::string>& lease_id) {
  QUICK_ASSIGN_OR_RETURN(QueuedItem item, LoadOrNotFound(item_id));
  if (lease_id.has_value() && item.lease_id != *lease_id) {
    return Status::LeaseLost("lease superseded on " + item_id);
  }
  QUICK_ASSIGN_OR_RETURN(
      bool deleted,
      store_.DeleteRecord(QueuedItem::kRecordType, EncodedId(item_id)));
  if (!deleted) return Status::NotFound("queued item " + item_id);
  static Counter* counter = ZoneCounter("ck.zone.completes");
  counter->Increment();
  return Status::OK();
}

Status QueueZone::ExtendLease(const std::string& item_id,
                              const std::string& lease_id,
                              int64_t lease_duration_millis) {
  QUICK_ASSIGN_OR_RETURN(QueuedItem item, LoadOrNotFound(item_id));
  if (item.lease_id != lease_id) {
    return Status::LeaseLost("lease superseded on " + item_id);
  }
  item.vesting_time = clock_->NowMillis() + lease_duration_millis;
  return Save(item);
}

Status QueueZone::Requeue(const std::string& item_id,
                          int64_t vesting_delay_millis,
                          bool increment_error_count,
                          const std::optional<std::string>& lease_id) {
  QUICK_ASSIGN_OR_RETURN(QueuedItem item, LoadOrNotFound(item_id));
  if (lease_id.has_value() && item.lease_id != *lease_id) {
    return Status::LeaseLost("lease superseded on " + item_id);
  }
  item.vesting_time = clock_->NowMillis() + vesting_delay_millis;
  if (increment_error_count) ++item.error_count;
  item.lease_id.clear();
  QUICK_RETURN_IF_ERROR(Save(item));
  static Counter* counter = ZoneCounter("ck.zone.requeues");
  counter->Increment();
  return Status::OK();
}

Status QueueZone::Quarantine(const std::string& item_id,
                             const std::optional<std::string>& lease_id,
                             const std::string& reason,
                             const std::string& final_error) {
  QUICK_ASSIGN_OR_RETURN(QueuedItem item, LoadOrNotFound(item_id));
  if (lease_id.has_value() && item.lease_id != *lease_id) {
    return Status::LeaseLost("lease superseded on " + item_id);
  }
  QUICK_ASSIGN_OR_RETURN(
      bool deleted,
      store_.DeleteRecord(QueuedItem::kRecordType, EncodedId(item_id)));
  if (!deleted) return Status::NotFound("queued item " + item_id);
  DeadLetterItem dl;
  dl.id = item.id;
  dl.job_type = item.job_type;
  dl.priority = item.priority;
  dl.payload = item.payload;
  dl.enqueue_time = item.enqueue_time;
  dl.db_key = item.db_key;
  dl.attempts = item.error_count + 1;
  dl.reason = reason;
  dl.final_error = final_error;
  dl.quarantine_time = clock_->NowMillis();
  QUICK_RETURN_IF_ERROR(DeadLetterStore().SaveRecord(dl.ToRecord()));
  static Counter* counter = ZoneCounter("ck.zone.quarantines");
  counter->Increment();
  return Status::OK();
}

Result<std::vector<DeadLetterItem>> QueueZone::ListDeadLetters(int max_items) {
  std::vector<DeadLetterItem> out;
  std::optional<std::string> cursor(std::in_place);
  while (cursor.has_value() && !Full(out.size(), max_items)) {
    QUICK_ASSIGN_OR_RETURN(
        std::vector<std::string> ids,
        IdPage(DeadLetterStore(), kQuarantineTimeIndex,
               Remaining(out.size(), max_items), QuarantineEntryId, &cursor));
    for (const std::string& id : ids) {
      QUICK_ASSIGN_OR_RETURN(
          std::optional<rl::Record> rec,
          DeadLetterStore().LoadRecord(DeadLetterItem::kRecordType,
                                       EncodedId(id), /*snapshot=*/true));
      if (!rec.has_value()) continue;  // raced with a purge; snapshot scan
      QUICK_ASSIGN_OR_RETURN(DeadLetterItem item,
                             DeadLetterItem::FromRecord(*std::move(rec)));
      out.push_back(std::move(item));
    }
  }
  return out;
}

Result<std::optional<DeadLetterItem>> QueueZone::LoadDeadLetter(
    const std::string& item_id) {
  QUICK_ASSIGN_OR_RETURN(
      std::optional<rl::Record> rec,
      DeadLetterStore().LoadRecord(DeadLetterItem::kRecordType,
                                   EncodedId(item_id)));
  if (!rec.has_value()) return std::optional<DeadLetterItem>(std::nullopt);
  QUICK_ASSIGN_OR_RETURN(DeadLetterItem item,
                         DeadLetterItem::FromRecord(*std::move(rec)));
  return std::optional<DeadLetterItem>(std::move(item));
}

Result<DeadLetterItem> QueueZone::TakeDeadLetter(const std::string& item_id) {
  QUICK_ASSIGN_OR_RETURN(std::optional<DeadLetterItem> item,
                         LoadDeadLetter(item_id));
  if (!item.has_value()) {
    return Status::NotFound("dead-lettered item " + item_id);
  }
  QUICK_ASSIGN_OR_RETURN(
      bool deleted,
      DeadLetterStore().DeleteRecord(DeadLetterItem::kRecordType,
                                     EncodedId(item_id)));
  if (!deleted) return Status::NotFound("dead-lettered item " + item_id);
  return *std::move(item);
}

Status QueueZone::PurgeDeadLetter(const std::string& item_id) {
  QUICK_ASSIGN_OR_RETURN(
      bool deleted,
      DeadLetterStore().DeleteRecord(DeadLetterItem::kRecordType,
                                     EncodedId(item_id)));
  return deleted ? Status::OK()
                 : Status::NotFound("dead-lettered item " + item_id);
}

Result<int64_t> QueueZone::DeadLetterCount() {
  return DeadLetterStore().GetCount(kDeadLetterCountIndex, tup::Tuple(),
                                    /*snapshot=*/true);
}

Result<std::vector<LeasedItem>> QueueZone::Dequeue(
    int max_items, int64_t lease_duration_millis) {
  QUICK_ASSIGN_OR_RETURN(std::vector<QueuedItem> items, Peek(max_items));
  const int64_t now = clock_->NowMillis();
  std::vector<LeasedItem> out;
  out.reserve(items.size());
  for (QueuedItem& item : items) {
    item.lease_id = Random::ThreadLocal().NextUuid();
    item.vesting_time = now + lease_duration_millis;
    QUICK_RETURN_IF_ERROR(Save(item));
    out.push_back({item, item.lease_id});
  }
  static Counter* counter = ZoneCounter("ck.zone.dequeued_items");
  counter->Increment(static_cast<int64_t>(out.size()));
  return out;
}

Result<std::optional<QueuedItem>> QueueZone::Load(const std::string& item_id) {
  return LoadItem(item_id, /*snapshot=*/false);
}

Result<int64_t> QueueZone::Count() {
  return store_.GetCount(kCountIndex, tup::Tuple(), /*snapshot=*/true);
}

Result<std::optional<int64_t>> QueueZone::MinVestingTime() {
  // The index orders by (priority, vesting), so each priority group's
  // first entry holds the group's earliest vesting time: read that one
  // entry, then hop to the next group.
  rl::IndexScanOptions options;
  options.snapshot = true;
  options.limit = 1;
  std::optional<int64_t> min_vesting;
  std::optional<std::string> cursor(std::in_place);
  while (cursor.has_value()) {
    const KeyRange range{*cursor, KeyRange::All().end};
    cursor.reset();
    Status decode;
    QUICK_RETURN_IF_ERROR(store_.ScanIndexEntries(
        kVestingIndex, range, options, [&](std::string_view bytes) {
          tup::TupleReader reader(bytes);
          int64_t priority = 0;
          int64_t vesting = 0;
          decode = ReadVestingKey(reader, &priority, &vesting);
          if (decode.ok()) {
            min_vesting = std::min(vesting, min_vesting.value_or(vesting));
            cursor.emplace(PastGroup(priority));
          }
          return false;
        }));
    QUICK_RETURN_IF_ERROR(decode);
  }
  return min_vesting;
}

Result<bool> QueueZone::IsEmpty() { return store_.IsEmpty(); }

Result<std::vector<QueuedItem>> QueueZone::PeekFifo(int max_items) {
  const int64_t now = clock_->NowMillis();
  std::vector<QueuedItem> out;
  std::optional<std::string> cursor(std::in_place);
  while (cursor.has_value() && !Full(out.size(), max_items)) {
    QUICK_ASSIGN_OR_RETURN(
        std::vector<std::string> ids,
        IdPage(store_, kArrivalIndex, Remaining(out.size(), max_items),
               ArrivalEntryId, &cursor));
    for (const std::string& id : ids) {
      // Snapshot load, as in Peek: leasing paths conflict via SaveRecord.
      QUICK_ASSIGN_OR_RETURN(std::optional<QueuedItem> item,
                             LoadItem(id, /*snapshot=*/true));
      if (!item.has_value()) continue;
      if (item->vesting_time > now) continue;  // leased or delayed
      out.push_back(*std::move(item));
    }
  }
  return out;
}

Result<std::vector<LeasedItem>> QueueZone::DequeueFifo(
    int max_items, int64_t lease_duration_millis) {
  QUICK_ASSIGN_OR_RETURN(std::vector<QueuedItem> items, PeekFifo(max_items));
  const int64_t now = clock_->NowMillis();
  std::vector<LeasedItem> out;
  out.reserve(items.size());
  for (QueuedItem& item : items) {
    item.lease_id = Random::ThreadLocal().NextUuid();
    item.vesting_time = now + lease_duration_millis;
    QUICK_RETURN_IF_ERROR(Save(item));
    out.push_back({item, item.lease_id});
  }
  static Counter* counter = ZoneCounter("ck.zone.dequeued_items");
  counter->Increment(static_cast<int64_t>(out.size()));
  return out;
}

Result<std::optional<std::string>> QueueZone::ArrivalStamp(
    const std::string& item_id) {
  return store_.GetRecordVersion(kArrivalIndex, QueuedItem::kRecordType,
                                 EncodedId(item_id));
}

}  // namespace quick::ck
