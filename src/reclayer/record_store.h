#ifndef QUICK_RECLAYER_RECORD_STORE_H_
#define QUICK_RECLAYER_RECORD_STORE_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "fdb/transaction.h"
#include "reclayer/metadata.h"
#include "reclayer/record.h"
#include "tuple/subspace.h"

namespace quick::rl {

/// One entry of a value index: the indexed field values and the primary key
/// of the record they belong to.
struct IndexEntry {
  tup::Tuple indexed_values;
  tup::Tuple primary_key;
};

/// A record together with its full primary key (type-name prefix
/// included) — what paged scans return so callers can resume.
struct StoredRecord {
  tup::Tuple primary_key;
  Record record;
};

/// Width of the commit versionstamp that leads a version-index entry.
inline constexpr size_t kVersionstampBytes = 10;

/// One entry of a version index: the 10-byte commit versionstamp of the
/// record's last write and its primary key, in commit order.
struct VersionIndexEntry {
  std::string versionstamp;
  tup::Tuple primary_key;
};

/// Tuple bounds for a value-index scan with per-end inclusivity. An
/// inclusive bound covers every entry extending the bound tuple (the
/// encoding guarantees primary-key continuations sort before 0xFF).
struct IndexBounds {
  std::optional<tup::Tuple> begin;
  bool begin_inclusive = true;
  std::optional<tup::Tuple> end;
  bool end_inclusive = false;
};

/// Receives one index entry as its entry bytes: the entry's key with the
/// index's own prefix stripped — the tuple encoding of (indexed values...,
/// primary key...) for a value index, the 10-byte versionstamp followed by
/// the encoded primary key for a version index. Callers decode only the
/// fields they use (tup::TupleReader). Return false to stop the scan; the
/// view is valid only during the call.
using IndexEntrySink = std::function<bool(std::string_view entry)>;

/// Registry counter of index entries read by RecordStore scans, whatever
/// their caller decodes ("rl.index.entries_read"): the count bench-smoke
/// gates to show a queue-zone dequeue reads O(1) entries at any backlog.
inline constexpr const char* kIndexEntriesReadCounterName =
    "rl.index.entries_read";
Counter* IndexEntriesReadCounter();

/// Options for index scans.
struct IndexScanOptions {
  int limit = 0;
  bool reverse = false;
  /// Snapshot scans add no read conflict — QuiCK's Scanner peeks the
  /// vesting index this way so peeks never abort enqueues (§6).
  bool snapshot = false;
};

/// A simple query: scan a value index within [begin, end) tuple bounds and
/// filter residually. This models the slice of the Record Layer's query
/// machinery that QuiCK exercises.
struct Query {
  std::string index_name;
  /// Inclusive lower bound on the indexed values (prefix allowed).
  std::optional<tup::Tuple> begin;
  /// Exclusive upper bound on the indexed values.
  std::optional<tup::Tuple> end;
  int limit = 0;
  bool reverse = false;
  std::function<bool(const Record&)> predicate;  // optional residual filter
};

/// Record-oriented view over a subspace of one FoundationDB cluster,
/// operating entirely within a caller-supplied transaction (the Record
/// Layer idiom: a RecordStore is cheap, stateless, and opened per
/// transaction). Secondary indexes are maintained transactionally with
/// every save/delete; count indexes use atomic adds and therefore never
/// conflict.
///
/// The calls that address one record or index entry take its primary key
/// as encoded tuple bytes (tup::Tuple::Encode of the pk fields, or
/// tup::AppendString/AppendElement of them): every key is built by
/// appending encoded elements to one string, with no Tuple in between.
/// Scans hand back decoded Tuples.
class RecordStore {
 public:
  RecordStore(fdb::Transaction* txn, tup::Subspace subspace,
              const RecordMetadata* metadata);

  /// Inserts or replaces by primary key, updating every covering index.
  Status SaveRecord(const Record& record);

  /// `pk` is the encoded primary-key fields, without the type name (it is
  /// prefixed internally). `snapshot` loads add no read conflict —
  /// observational scans (QuiCK's peeks) use them so looking at an item
  /// never aborts its writers; any path that acts on the record must load
  /// strongly (or SaveRecord's own previous-image read supplies the
  /// conflict).
  Result<std::optional<Record>> LoadRecord(std::string_view type,
                                           std::string_view pk,
                                           bool snapshot = false);

  /// True when a record was deleted. `pk` as in LoadRecord.
  Result<bool> DeleteRecord(std::string_view type, std::string_view pk);

  /// All records in primary-key order (limit 0 = unlimited).
  Result<std::vector<Record>> ScanRecords(int limit = 0);

  /// A page of records strictly after `after_primary_key` (nullopt starts
  /// from the beginning) — the online index builder's resumable scan. A
  /// strong limited read: a full page conflicts only on the keys it spans.
  Result<std::vector<StoredRecord>> ScanRecordsPage(
      const std::optional<tup::Tuple>& after_primary_key, int limit);

  /// Writes the value-index entry `index_name` would hold for `record`
  /// (online index backfill; no-op semantics are the caller's concern).
  Status BackfillIndexEntry(const std::string& index_name,
                            const Record& record);

  /// Key of the per-store index-state record (IndexState as LE64; absent
  /// means readable). Shared with OnlineIndexBuilder.
  std::string IndexStateKey(std::string_view index_name) const;

  /// Streams the entries of a value or version index whose entry bytes
  /// lie in `range` (begin inclusive, end exclusive; an end of
  /// KeyRange::All().end runs to the end of the index) to `sink`, in key
  /// order, stopping at options.limit or when the sink returns false.
  /// Nothing is materialized, and a strong scan's read conflict stops at
  /// the last entry read (Transaction::ScanRange). The index-scan methods
  /// below are collectors over this one scan.
  Status ScanIndexEntries(const std::string& index_name, const KeyRange& range,
                          const IndexScanOptions& options,
                          const IndexEntrySink& sink);

  /// Entries of a value index whose indexed values start with `prefix`
  /// (empty prefix scans the whole index), ordered by indexed value.
  Result<std::vector<IndexEntry>> ScanIndex(const std::string& index_name,
                                            const tup::Tuple& prefix,
                                            const IndexScanOptions& options = {});

  /// Index scan between tuple bounds: [begin, end) on indexed values.
  Result<std::vector<IndexEntry>> ScanIndexRange(
      const std::string& index_name, const std::optional<tup::Tuple>& begin,
      const std::optional<tup::Tuple>& end, const IndexScanOptions& options = {});

  /// Index scan with per-end inclusivity (the query planner's access path).
  Result<std::vector<IndexEntry>> ScanIndexBounds(
      const std::string& index_name, const IndexBounds& bounds,
      const IndexScanOptions& options = {});

  /// Loads a record by its encoded full primary key (type-name prefix
  /// included), as index entries carry it. `snapshot` as in LoadRecord.
  Result<std::optional<Record>> LoadByFullPrimaryKey(std::string_view full_pk,
                                                     bool snapshot = false);

  /// Value of a count index for a grouping tuple. `snapshot` avoids a read
  /// conflict (monitoring reads, §6 "Isolation level").
  Result<int64_t> GetCount(const std::string& index_name,
                           const tup::Tuple& group, bool snapshot = true);

  /// Entries of a version index in commit order, optionally only those
  /// committed strictly after `after_versionstamp` — the "what changed
  /// since my last sync token" scan CloudKit sync performs.
  Result<std::vector<VersionIndexEntry>> ScanVersionIndex(
      const std::string& index_name,
      const std::optional<std::string>& after_versionstamp = std::nullopt,
      const IndexScanOptions& options = {});

  /// The versionstamp `index_name` currently holds for the record (its
  /// last write, or first write for sticky indexes); nullopt when absent.
  /// `pk` as in LoadRecord.
  Result<std::optional<std::string>> GetRecordVersion(
      std::string_view index_name, std::string_view type,
      std::string_view pk);

  /// Runs a query: index scan + record load + residual predicate.
  Result<std::vector<Record>> Execute(const Query& query);

  /// Exact storage key of one value-index entry, from the encoded indexed
  /// values and the encoded full primary key (type name included). QuiCK's
  /// enqueue protocol point-reads this key to test pointer existence and
  /// declares write conflicts on it for external stores (§6.1 of the
  /// paper).
  std::string ValueIndexEntryKey(std::string_view index_name,
                                 std::string_view values,
                                 std::string_view primary_key) const;

  /// True when the store holds no records. Performs a strong (conflicting)
  /// read of one key, which is what makes QuiCK's pointer GC safe (§6
  /// "Correctness": the emptiness check conflicts with concurrent inserts).
  Result<bool> IsEmpty();

  /// Removes every record, index entry, and counter in the store.
  Status DeleteAllRecords();

  /// Number of records via full scan (tests/diagnostics).
  Result<int64_t> CountRecords();

  const tup::Subspace& subspace() const { return subspace_; }

 private:
  /// This store's prefix followed by `tag`, the encoding of one of its
  /// child tags, in a string with room for `extra` more bytes.
  std::string TagPrefix(std::string_view tag, size_t extra = 0) const;
  /// TagPrefix(tag), then the string element `name` and the encoded bytes
  /// `a` and `b`, built in one string: a record key is (records tag, type
  /// name, pk fields), a value-index entry (indexes tag, index name,
  /// values, full primary key), a count group (indexes tag, index name,
  /// values), a version header (headers tag, index name, full primary
  /// key).
  std::string Key(std::string_view tag, std::string_view name,
                  std::string_view a = {}, std::string_view b = {}) const;

  /// Writes (`add`) or clears the entry of value index `index` at encoded
  /// `values` for encoded full primary key `full_pk`; for a count index,
  /// adds one to or subtracts one from the group at `values`.
  void WriteIndexEntry(const IndexDef& index, std::string_view values,
                       std::string_view full_pk, bool add);
  /// Clears the entries of `record`, whose encoded full primary key is
  /// `full_pk`, from every covering index.
  Status RemoveIndexEntries(const Record& record, std::string_view full_pk);

  /// Maintains every covering version index for a record write/delete:
  /// clears the entry at the old stamp (from the header) and, unless
  /// `deleting`, writes a fresh versionstamped entry and header.
  Status MaintainVersionIndexes(const std::string& record_type,
                                std::string_view full_pk, bool deleting);
  /// Collects a value index's entries in `range` (entry bytes) as
  /// IndexEntry tuples.
  Result<std::vector<IndexEntry>> CollectIndexEntries(
      const std::string& index_name, const KeyRange& range,
      const IndexScanOptions& options);

  fdb::Transaction* txn_;
  tup::Subspace subspace_;
  const RecordMetadata* metadata_;
  /// Indexes this store has found readable; each is checked once per store.
  std::vector<std::string> readable_indexes_;

  /// Rejects scans of write-only (still building) indexes, reading the
  /// index state once per store. Snapshot read: never adds conflicts,
  /// preserving QuiCK's contention design.
  Status CheckIndexReadable(const std::string& index_name);
};

}  // namespace quick::rl

#endif  // QUICK_RECLAYER_RECORD_STORE_H_
