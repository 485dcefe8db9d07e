#ifndef QUICK_RECLAYER_METADATA_H_
#define QUICK_RECLAYER_METADATA_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace quick::rl {

/// Scalar field types a record may carry (the subset of the FoundationDB
/// Record Layer's protobuf-backed model that QuiCK needs).
enum class FieldType { kInt64, kString, kDouble, kBool, kBytes };

struct FieldDef {
  std::string name;
  FieldType type;
};

/// A record type: named fields plus the ordered list of fields forming the
/// primary key. Primary keys are scoped per type; the store prefixes them
/// with the type name so different types never collide.
struct RecordTypeDef {
  std::string name;
  std::vector<FieldDef> fields;
  std::vector<std::string> primary_key_fields;

  const FieldDef* FindField(const std::string& field_name) const {
    for (const FieldDef& f : fields) {
      if (f.name == field_name) return &f;
    }
    return nullptr;
  }
};

enum class IndexKind {
  /// Key per record: (indexed field values..., primary key) — ordered scans.
  kValue,
  /// One counter per distinct grouping-field value, maintained with atomic
  /// adds so it never causes conflicts (§4: "atomic operations to implement
  /// efficient counters (exposed as a Record Layer count index)").
  kCount,
  /// One entry per record ordered by the commit version of its last write,
  /// maintained with versionstamped keys — the Record Layer VERSION index
  /// that CloudKit sync is built on (§5 cites it as the commit-timestamp
  /// ordering mechanism). Takes no fields.
  kVersion,
};

struct IndexDef {
  std::string name;
  IndexKind kind = IndexKind::kValue;
  /// Record types this index covers; empty means every type that has all
  /// the indexed fields.
  std::vector<std::string> record_types;
  /// Indexed fields for kValue (ordering fields); grouping fields for
  /// kCount (may be empty for a store-wide count).
  std::vector<std::string> fields;
  /// kVersion only: when true the entry keeps the stamp of the record's
  /// FIRST write (insertion/arrival order — strict-FIFO queues, §5's
  /// commit-timestamp ordering); when false it tracks the last write
  /// (sync-style change feeds).
  bool sticky_version = false;

  bool Covers(const std::string& record_type) const {
    if (record_types.empty()) return true;
    for (const std::string& t : record_types) {
      if (t == record_type) return true;
    }
    return false;
  }
};

/// Schema for one record store: record types and index definitions, with
/// a version for evolution (the Record Layer persists the version in each
/// store's header and re-validates on open).
class RecordMetadata {
 public:
  explicit RecordMetadata(int version = 1) : version_(version) {}

  /// Fails on duplicate type name, empty/unknown primary key fields.
  Status AddRecordType(RecordTypeDef type);

  /// Fails on duplicate index name, unknown fields in covered types, or a
  /// value index with no fields.
  Status AddIndex(IndexDef index);

  const RecordTypeDef* FindRecordType(const std::string& name) const;
  const IndexDef* FindIndex(const std::string& name) const;

  const std::vector<RecordTypeDef>& record_types() const {
    return record_types_;
  }
  const std::vector<IndexDef>& indexes() const { return indexes_; }
  /// Every field some index reads, sorted, without repeats: the fields
  /// RecordStore decodes of a record's previous image.
  const std::vector<std::string>& indexed_fields() const {
    return indexed_fields_;
  }
  int version() const { return version_; }

 private:
  int version_;
  std::vector<RecordTypeDef> record_types_;
  std::vector<IndexDef> indexes_;
  std::vector<std::string> indexed_fields_;
};

}  // namespace quick::rl

#endif  // QUICK_RECLAYER_METADATA_H_
