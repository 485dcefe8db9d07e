#include "reclayer/record_store.h"

#include <algorithm>

#include "common/bytes.h"

namespace quick::rl {

namespace {
// Child subspace tags, held encoded, so a key needs no child Subspace.
// Strings keep keys debuggable; the per-key overhead is a few bytes.
constexpr tup::StringTag kRecordsTag{"r"};
constexpr tup::StringTag kIndexesTag{"i"};
constexpr tup::StringTag kHeadersTag{"h"};  // per-record last-write stamps
constexpr tup::StringTag kStatesTag{"st"};  // per-index lifecycle state

/// Room for a type name and a primary key of usual size (a 32-character
/// id), so building a record key allocates once.
constexpr size_t kRecordKeyReserve = 64;

/// `a` then `b` in one allocation.
std::string Joined(std::string_view a, std::string_view b) {
  std::string out;
  out.reserve(a.size() + b.size());
  out.append(a).append(b);
  return out;
}

/// Appends the encoding of `index`'s values in `record`: each indexed
/// field's element, Null when the field is absent.
void AppendIndexedValues(const IndexDef& index, const Record& record,
                         std::string* out) {
  for (const std::string& field : index.fields) {
    const tup::Element* e = record.Find(field);
    tup::AppendElement(e != nullptr ? *e : tup::Element(tup::Null{}), out);
  }
}
}  // namespace

Counter* IndexEntriesReadCounter() {
  static Counter* const counter =
      MetricsRegistry::Default()->GetCounter(kIndexEntriesReadCounterName);
  return counter;
}

RecordStore::RecordStore(fdb::Transaction* txn, tup::Subspace subspace,
                         const RecordMetadata* metadata)
    : txn_(txn), subspace_(std::move(subspace)), metadata_(metadata) {}

std::string RecordStore::TagPrefix(std::string_view tag, size_t extra) const {
  const std::string& prefix = subspace_.prefix();
  std::string key;
  key.reserve(prefix.size() + tag.size() + extra);
  key.append(prefix).append(tag);
  return key;
}

std::string RecordStore::Key(std::string_view tag, std::string_view name,
                             std::string_view a, std::string_view b) const {
  // The string element takes two bytes beyond the name (one more per zero
  // byte in it, which no name here has).
  std::string key = TagPrefix(tag, name.size() + 2 + a.size() + b.size());
  tup::AppendString(name, &key);
  key.append(a).append(b);
  return key;
}

std::string RecordStore::IndexStateKey(std::string_view index_name) const {
  return Key(kStatesTag, index_name);
}

std::string RecordStore::ValueIndexEntryKey(
    std::string_view index_name, std::string_view values,
    std::string_view primary_key) const {
  return Key(kIndexesTag, index_name, values, primary_key);
}

void RecordStore::WriteIndexEntry(const IndexDef& index,
                                  std::string_view values,
                                  std::string_view full_pk, bool add) {
  switch (index.kind) {
    case IndexKind::kValue: {
      const std::string key = Key(kIndexesTag, index.name, values, full_pk);
      if (add) {
        txn_->Set(key, "");
      } else {
        txn_->Clear(key);
      }
      break;
    }
    case IndexKind::kCount:
      txn_->Atomic(fdb::AtomicOp::kAdd, Key(kIndexesTag, index.name, values),
                   EncodeLittleEndian64(static_cast<uint64_t>(add ? 1 : -1)));
      break;
    case IndexKind::kVersion:
      break;  // MaintainVersionIndexes
  }
}

Status RecordStore::MaintainVersionIndexes(const std::string& record_type,
                                           std::string_view full_pk,
                                           bool deleting) {
  for (const IndexDef& index : metadata_->indexes()) {
    if (index.kind != IndexKind::kVersion || !index.Covers(record_type)) {
      continue;
    }
    // Each version index keeps its own per-record header with the stamp of
    // the entry it currently holds, so entries can be cleared later even
    // though their keys embed a commit version.
    const std::string header_key = Key(kHeadersTag, index.name, full_pk);
    QUICK_ASSIGN_OR_RETURN(std::optional<std::string> old_stamp,
                           txn_->Get(header_key));
    const bool existed =
        old_stamp.has_value() && old_stamp->size() == kVersionstampBytes;
    if (deleting) {
      if (existed) {
        txn_->Clear(Key(kIndexesTag, index.name, *old_stamp, full_pk));
        txn_->Clear(header_key);
      }
      continue;
    }
    if (index.sticky_version && existed) {
      continue;  // insertion-order index: the original entry stands
    }
    if (existed) {
      txn_->Clear(Key(kIndexesTag, index.name, *old_stamp, full_pk));
    }
    txn_->SetVersionstampedKey(Key(kIndexesTag, index.name),
                               std::string(full_pk), "");
    txn_->SetVersionstampedValue(header_key, "");
  }
  return Status::OK();
}

Status RecordStore::RemoveIndexEntries(const Record& record,
                                       std::string_view full_pk) {
  std::string values;
  for (const IndexDef& index : metadata_->indexes()) {
    if (!index.Covers(record.type())) continue;
    values.clear();
    AppendIndexedValues(index, record, &values);
    WriteIndexEntry(index, values, full_pk, /*add=*/false);
  }
  return MaintainVersionIndexes(record.type(), full_pk, /*deleting=*/true);
}

Status RecordStore::SaveRecord(const Record& record) {
  const RecordTypeDef* type = metadata_->FindRecordType(record.type());
  if (type == nullptr) {
    return Status::InvalidArgument("unknown record type " + record.type());
  }
  QUICK_RETURN_IF_ERROR(record.Validate(*type));

  // The primary key (type name, pk fields...) is encoded once, straight
  // into the record key; every index entry and version header below
  // reuses those bytes.
  std::string key = TagPrefix(kRecordsTag, kRecordKeyReserve);
  const size_t pk_begin = key.size();
  QUICK_RETURN_IF_ERROR(record.AppendPrimaryKey(*type, &key));
  const std::string_view pk = std::string_view(key).substr(pk_begin);

  // Index maintenance needs the previous image to clear stale entries. The
  // read stays strong even when no index moves: its conflict is what makes
  // two leases of one item collide. Only the fields indexes read are
  // decoded.
  QUICK_ASSIGN_OR_RETURN(std::optional<std::string> old_bytes,
                         txn_->Get(key));
  std::optional<Record> old_record;
  if (old_bytes.has_value()) {
    QUICK_ASSIGN_OR_RETURN(
        Record old,
        Record::Deserialize(*old_bytes, &metadata_->indexed_fields()));
    old_record = std::move(old);
  }
  txn_->Set(key, record.Serialize());

  // Per-index diff. Entries whose indexed values did not change are left
  // untouched: updates to a record must not write (and hence not conflict
  // on) index keys they do not move — QuiCK's pointer index relies on this
  // ("updated only on pointer creations or deletions, never on updates").
  // The values are compared as their encodings: the encoding is injective
  // (doubles by their bits, as CompareElements orders them), so equal
  // bytes are equal values.
  std::string old_values;
  std::string new_values;
  for (const IndexDef& index : metadata_->indexes()) {
    if (index.kind == IndexKind::kVersion) continue;  // handled below
    const bool covers_new = index.Covers(record.type());
    const bool covers_old =
        old_record.has_value() && index.Covers(old_record->type());
    new_values.clear();
    old_values.clear();
    if (covers_new) AppendIndexedValues(index, record, &new_values);
    if (covers_old) AppendIndexedValues(index, *old_record, &old_values);
    if (covers_new && covers_old && new_values == old_values) {
      continue;  // unchanged entry / unchanged count group
    }
    if (covers_old) WriteIndexEntry(index, old_values, pk, /*add=*/false);
    if (covers_new) WriteIndexEntry(index, new_values, pk, /*add=*/true);
  }
  return MaintainVersionIndexes(record.type(), pk, /*deleting=*/false);
}

Result<std::optional<Record>> RecordStore::LoadRecord(std::string_view type,
                                                      std::string_view pk,
                                                      bool snapshot) {
  QUICK_ASSIGN_OR_RETURN(std::optional<std::string> bytes,
                         txn_->Get(Key(kRecordsTag, type, pk), snapshot));
  if (!bytes.has_value()) return std::optional<Record>(std::nullopt);
  QUICK_ASSIGN_OR_RETURN(Record record, Record::Deserialize(*bytes));
  return std::optional<Record>(std::move(record));
}

Result<bool> RecordStore::DeleteRecord(std::string_view type,
                                       std::string_view pk) {
  const std::string key = Key(kRecordsTag, type, pk);
  const std::string_view full_pk = std::string_view(key).substr(
      subspace_.prefix().size() + kRecordsTag.size());
  QUICK_ASSIGN_OR_RETURN(std::optional<std::string> bytes, txn_->Get(key));
  if (!bytes.has_value()) return false;
  QUICK_ASSIGN_OR_RETURN(
      Record record,
      Record::Deserialize(*bytes, &metadata_->indexed_fields()));
  QUICK_RETURN_IF_ERROR(RemoveIndexEntries(record, full_pk));
  txn_->Clear(key);
  return true;
}

Result<std::vector<Record>> RecordStore::ScanRecords(int limit) {
  fdb::RangeOptions opts;
  opts.limit = limit;
  QUICK_ASSIGN_OR_RETURN(
      std::vector<fdb::KeyValue> kvs,
      txn_->GetRange(KeyRange::Prefix(TagPrefix(kRecordsTag)), opts));
  std::vector<Record> out;
  out.reserve(kvs.size());
  for (const fdb::KeyValue& kv : kvs) {
    QUICK_ASSIGN_OR_RETURN(Record record, Record::Deserialize(kv.value));
    out.push_back(std::move(record));
  }
  return out;
}

Result<std::vector<IndexEntry>> RecordStore::ScanIndex(
    const std::string& index_name, const tup::Tuple& prefix,
    const IndexScanOptions& options) {
  return CollectIndexEntries(
      index_name,
      prefix.empty() ? KeyRange::All() : KeyRange::Prefix(prefix.Encode()),
      options);
}

Result<std::vector<IndexEntry>> RecordStore::ScanIndexRange(
    const std::string& index_name, const std::optional<tup::Tuple>& begin,
    const std::optional<tup::Tuple>& end, const IndexScanOptions& options) {
  KeyRange range = KeyRange::All();
  if (begin.has_value()) range.begin = begin->Encode();
  if (end.has_value()) range.end = end->Encode();
  return CollectIndexEntries(index_name, range, options);
}

Status RecordStore::CheckIndexReadable(const std::string& index_name) {
  if (std::find(readable_indexes_.begin(), readable_indexes_.end(),
                index_name) != readable_indexes_.end()) {
    return Status::OK();
  }
  QUICK_ASSIGN_OR_RETURN(std::optional<std::string> state,
                         txn_->Get(IndexStateKey(index_name),
                                   /*snapshot=*/true));
  if (state.has_value() && DecodeLittleEndian64(*state) != 0) {
    return Status::FailedPrecondition("index " + index_name +
                                      " is write-only (still building)");
  }
  readable_indexes_.push_back(index_name);
  return Status::OK();
}

Result<std::vector<StoredRecord>> RecordStore::ScanRecordsPage(
    const std::optional<tup::Tuple>& after_primary_key, int limit) {
  const std::string records = TagPrefix(kRecordsTag);
  KeyRange range = KeyRange::Prefix(records);
  if (after_primary_key.has_value()) {
    range.begin = KeyAfter(Joined(records, after_primary_key->Encode()));
  }
  fdb::RangeOptions opts;
  opts.limit = limit;
  // A full page's read conflict stops at its last key, so writes to records
  // the backfill has not reached yet do not abort the batch.
  QUICK_ASSIGN_OR_RETURN(std::vector<fdb::KeyValue> kvs,
                         txn_->GetRange(range, opts));
  std::vector<StoredRecord> out;
  out.reserve(kvs.size());
  for (const fdb::KeyValue& kv : kvs) {
    StoredRecord row;
    QUICK_ASSIGN_OR_RETURN(
        row.primary_key,
        tup::Tuple::Decode(std::string_view(kv.key).substr(records.size())));
    QUICK_ASSIGN_OR_RETURN(row.record, Record::Deserialize(kv.value));
    out.push_back(std::move(row));
  }
  return out;
}

Status RecordStore::BackfillIndexEntry(const std::string& index_name,
                                       const Record& record) {
  const IndexDef* index = metadata_->FindIndex(index_name);
  if (index == nullptr) {
    return Status::InvalidArgument("unknown index " + index_name);
  }
  if (index->kind != IndexKind::kValue) {
    return Status::InvalidArgument("only value indexes can be backfilled");
  }
  if (!index->Covers(record.type())) return Status::OK();
  const RecordTypeDef* type = metadata_->FindRecordType(record.type());
  if (type == nullptr) {
    return Status::InvalidArgument("unknown record type " + record.type());
  }
  std::string pk;
  QUICK_RETURN_IF_ERROR(record.AppendPrimaryKey(*type, &pk));
  std::string values;
  AppendIndexedValues(*index, record, &values);
  WriteIndexEntry(*index, values, pk, /*add=*/true);
  return Status::OK();
}

Result<std::vector<IndexEntry>> RecordStore::ScanIndexBounds(
    const std::string& index_name, const IndexBounds& bounds,
    const IndexScanOptions& options) {
  KeyRange range = KeyRange::All();
  if (bounds.begin.has_value()) {
    range.begin = bounds.begin->Encode();
    if (!bounds.begin_inclusive) {
      // Skip the bound tuple and all its extensions: primary-key
      // continuations use tuple type codes < 0xFF.
      range.begin.push_back('\xFF');
    }
  }
  if (bounds.end.has_value()) {
    range.end = bounds.end->Encode();
    if (bounds.end_inclusive) {
      range.end.push_back('\xFF');
    }
  }
  return CollectIndexEntries(index_name, range, options);
}

Result<std::optional<Record>> RecordStore::LoadByFullPrimaryKey(
    std::string_view full_pk, bool snapshot) {
  std::string key = TagPrefix(kRecordsTag, full_pk.size());
  key.append(full_pk);
  QUICK_ASSIGN_OR_RETURN(std::optional<std::string> bytes,
                         txn_->Get(key, snapshot));
  if (!bytes.has_value()) return std::optional<Record>(std::nullopt);
  QUICK_ASSIGN_OR_RETURN(Record record, Record::Deserialize(*bytes));
  return std::optional<Record>(std::move(record));
}

Status RecordStore::ScanIndexEntries(const std::string& index_name,
                                     const KeyRange& range,
                                     const IndexScanOptions& options,
                                     const IndexEntrySink& sink) {
  const IndexDef* index = metadata_->FindIndex(index_name);
  if (index == nullptr) {
    return Status::InvalidArgument("unknown index " + index_name);
  }
  if (index->kind == IndexKind::kCount) {
    return Status::InvalidArgument("index " + index_name +
                                   " is a count index");
  }
  // Only value indexes are built online, so only they can be write-only.
  if (index->kind == IndexKind::kValue) {
    QUICK_RETURN_IF_ERROR(CheckIndexReadable(index_name));
  }
  const std::string prefix = Key(kIndexesTag, index_name);
  const KeyRange keys{
      Joined(prefix, range.begin),
      range.end == KeyRange::All().end ? KeyRange::Prefix(prefix).end
                                       : Joined(prefix, range.end)};
  fdb::RangeOptions opts;
  opts.limit = options.limit;
  opts.reverse = options.reverse;
  int64_t entries_read = 0;
  const Status st = txn_->ScanRange(
      keys, opts, options.snapshot,
      [&](std::string_view key, std::string_view /*value*/) {
        ++entries_read;
        return sink(key.substr(prefix.size()));
      });
  IndexEntriesReadCounter()->Increment(entries_read);
  return st;
}

Result<std::vector<IndexEntry>> RecordStore::CollectIndexEntries(
    const std::string& index_name, const KeyRange& range,
    const IndexScanOptions& options) {
  const IndexDef* index = metadata_->FindIndex(index_name);
  if (index != nullptr && index->kind != IndexKind::kValue) {
    return Status::InvalidArgument("index " + index_name +
                                   " is not a value index");
  }
  std::vector<IndexEntry> out;
  Status decode;
  QUICK_RETURN_IF_ERROR(ScanIndexEntries(
      index_name, range, options, [&](std::string_view bytes) {
        // Layout: (values..., primary key...).
        const size_t arity = index->fields.size();
        tup::TupleReader reader(bytes);
        IndexEntry entry;
        for (size_t i = 0; !reader.done(); ++i) {
          tup::Element e;
          decode = reader.Read(&e);
          if (!decode.ok()) return false;
          (i < arity ? entry.indexed_values : entry.primary_key)
              .Add(std::move(e));
        }
        if (entry.indexed_values.size() < arity) {
          decode = Status::Internal("corrupt index entry");
          return false;
        }
        out.push_back(std::move(entry));
        return true;
      }));
  QUICK_RETURN_IF_ERROR(decode);
  return out;
}

Result<int64_t> RecordStore::GetCount(const std::string& index_name,
                                      const tup::Tuple& group, bool snapshot) {
  const IndexDef* index = metadata_->FindIndex(index_name);
  if (index == nullptr) {
    return Status::InvalidArgument("unknown index " + index_name);
  }
  if (index->kind != IndexKind::kCount) {
    return Status::InvalidArgument("index " + index_name +
                                   " is not a count index");
  }
  QUICK_ASSIGN_OR_RETURN(
      std::optional<std::string> v,
      txn_->Get(Key(kIndexesTag, index_name, group.Encode()), snapshot));
  if (!v.has_value()) return int64_t{0};
  return static_cast<int64_t>(DecodeLittleEndian64(*v));
}

Result<std::vector<VersionIndexEntry>> RecordStore::ScanVersionIndex(
    const std::string& index_name,
    const std::optional<std::string>& after_versionstamp,
    const IndexScanOptions& options) {
  const IndexDef* index = metadata_->FindIndex(index_name);
  if (index == nullptr) {
    return Status::InvalidArgument("unknown index " + index_name);
  }
  if (index->kind != IndexKind::kVersion) {
    return Status::InvalidArgument("index " + index_name +
                                   " is not a version index");
  }
  KeyRange range = KeyRange::All();
  if (after_versionstamp.has_value()) {
    // Strictly after: increment the fixed-width stamp so every entry at the
    // given stamp (any primary key) is excluded.
    std::string next_stamp = *after_versionstamp;
    next_stamp.resize(kVersionstampBytes, '\x00');
    for (int i = static_cast<int>(kVersionstampBytes) - 1; i >= 0; --i) {
      if (static_cast<unsigned char>(next_stamp[i]) != 0xFF) {
        next_stamp[i] = static_cast<char>(next_stamp[i] + 1);
        break;
      }
      next_stamp[i] = '\x00';
    }
    range.begin = std::move(next_stamp);
  }
  std::vector<VersionIndexEntry> out;
  Status decode;
  QUICK_RETURN_IF_ERROR(ScanIndexEntries(
      index_name, range, options, [&](std::string_view bytes) {
        if (bytes.size() < kVersionstampBytes) {
          decode = Status::Internal("corrupt version index entry");
          return false;
        }
        VersionIndexEntry entry;
        entry.versionstamp = std::string(bytes.substr(0, kVersionstampBytes));
        Result<tup::Tuple> pk =
            tup::Tuple::Decode(bytes.substr(kVersionstampBytes));
        if (!pk.ok()) {
          decode = pk.status();
          return false;
        }
        entry.primary_key = *std::move(pk);
        out.push_back(std::move(entry));
        return true;
      }));
  QUICK_RETURN_IF_ERROR(decode);
  return out;
}

Result<std::optional<std::string>> RecordStore::GetRecordVersion(
    std::string_view index_name, std::string_view type, std::string_view pk) {
  // The header key of the full primary key (type name, pk fields...).
  std::string key =
      TagPrefix(kHeadersTag, index_name.size() + type.size() + 4 + pk.size());
  tup::AppendString(index_name, &key);
  tup::AppendString(type, &key);
  key.append(pk);
  return txn_->Get(key);
}

Result<std::vector<Record>> RecordStore::Execute(const Query& query) {
  IndexScanOptions options;
  options.reverse = query.reverse;
  // The residual predicate may reject entries, so the index scan cannot be
  // limited when one is present.
  options.limit = query.predicate ? 0 : query.limit;
  QUICK_ASSIGN_OR_RETURN(
      std::vector<IndexEntry> entries,
      ScanIndexRange(query.index_name, query.begin, query.end, options));
  std::vector<Record> out;
  for (const IndexEntry& entry : entries) {
    QUICK_ASSIGN_OR_RETURN(std::optional<Record> record,
                           LoadByFullPrimaryKey(entry.primary_key.Encode()));
    if (!record.has_value()) {
      return Status::Internal("index entry without record");
    }
    if (query.predicate && !query.predicate(*record)) continue;
    out.push_back(*std::move(record));
    if (query.limit > 0 && static_cast<int>(out.size()) >= query.limit) break;
  }
  return out;
}

Result<bool> RecordStore::IsEmpty() {
  fdb::RangeOptions opts;
  opts.limit = 1;
  QUICK_ASSIGN_OR_RETURN(
      std::vector<fdb::KeyValue> kvs,
      txn_->GetRange(KeyRange::Prefix(TagPrefix(kRecordsTag)), opts));
  return kvs.empty();
}

Status RecordStore::DeleteAllRecords() {
  txn_->ClearRange(subspace_.Range());
  return Status::OK();
}

Result<int64_t> RecordStore::CountRecords() {
  QUICK_ASSIGN_OR_RETURN(
      std::vector<fdb::KeyValue> kvs,
      txn_->GetRange(KeyRange::Prefix(TagPrefix(kRecordsTag))));
  return static_cast<int64_t>(kvs.size());
}

}  // namespace quick::rl
