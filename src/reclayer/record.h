#ifndef QUICK_RECLAYER_RECORD_H_
#define QUICK_RECLAYER_RECORD_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "reclayer/metadata.h"
#include "tuple/tuple.h"

namespace quick::rl {

/// One record instance: a typed bag of named field values. The fields live
/// in one vector sorted by name, which is also the order of the canonical
/// encoding (type, name_1, value_1, name_2, value_2, ...), so encoding and
/// decoding are single passes over the bytes with no per-field node.
class Record {
 public:
  Record() = default;
  explicit Record(std::string type) : type_(std::move(type)) {}

  const std::string& type() const { return type_; }
  void set_type(std::string type) { type_ = std::move(type); }

  /// Makes room for `fields` fields, so setting that many allocates once.
  Record& Reserve(size_t fields) {
    fields_.reserve(fields);
    return *this;
  }

  Record& SetInt(std::string_view field, int64_t v);
  Record& SetString(std::string_view field, std::string v);
  Record& SetDouble(std::string_view field, double v);
  Record& SetBool(std::string_view field, bool v);
  Record& SetBytes(std::string_view field, std::string v);
  Record& ClearField(std::string_view field);

  bool HasField(std::string_view field) const {
    return Find(field) != nullptr;
  }

  Result<int64_t> GetInt(std::string_view field) const;
  Result<std::string> GetString(std::string_view field) const;
  Result<double> GetDouble(std::string_view field) const;
  Result<bool> GetBool(std::string_view field) const;
  Result<std::string> GetBytes(std::string_view field) const;

  /// Like GetString/GetBytes, but moves the value out, leaving the field
  /// empty: for a caller that is done with the record.
  Result<std::string> TakeString(std::string_view field);
  Result<std::string> TakeBytes(std::string_view field);

  /// Raw element access (null when absent).
  const tup::Element* Find(std::string_view field) const;

  /// Field value as a tuple element for index keys; Null when absent.
  tup::Element ElementOrNull(std::string_view field) const;

  /// Verifies every present field matches the type's schema and all primary
  /// key fields are present.
  Status Validate(const RecordTypeDef& type_def) const;

  /// Appends the tuple encoding of the record's primary key per
  /// `type_def`, (type name, pk fields...), to `out`: the bytes RecordStore
  /// keys the record and its index entries by.
  Status AppendPrimaryKey(const RecordTypeDef& type_def,
                          std::string* out) const;

  std::string Serialize() const;

  /// Inverse of Serialize. With `only`, a sorted list of field names, the
  /// other fields' values are stepped over, not decoded, and left out of
  /// the record: RecordStore decodes a previous image this way, for the
  /// fields its indexes read. Fields out of name order or repeated decode
  /// sorted, the last value winning.
  static Result<Record> Deserialize(
      std::string_view data, const std::vector<std::string>* only = nullptr);

  std::string ToString() const;

  bool operator==(const Record& other) const;

 private:
  /// One named field value.
  struct Field {
    std::string name;
    tup::Element value;
  };
  static bool NameBefore(const Field& f, std::string_view name) {
    return f.name < name;
  }

  /// Inserts `field`, or replaces the value of the field of that name.
  void Put(Field field);
  tup::Element* FindMutable(std::string_view field);

  std::string type_;
  std::vector<Field> fields_;  // sorted by name, names unique
};

}  // namespace quick::rl

#endif  // QUICK_RECLAYER_RECORD_H_
