#include "reclayer/metadata.h"

#include <algorithm>

namespace quick::rl {

Status RecordMetadata::AddRecordType(RecordTypeDef type) {
  if (type.name.empty()) {
    return Status::InvalidArgument("record type name must not be empty");
  }
  if (FindRecordType(type.name) != nullptr) {
    return Status::AlreadyExists("record type " + type.name);
  }
  if (type.primary_key_fields.empty()) {
    return Status::InvalidArgument("record type " + type.name +
                                   " needs a primary key");
  }
  for (const std::string& pk : type.primary_key_fields) {
    if (type.FindField(pk) == nullptr) {
      return Status::InvalidArgument("primary key field " + pk +
                                     " not defined on " + type.name);
    }
  }
  record_types_.push_back(std::move(type));
  return Status::OK();
}

Status RecordMetadata::AddIndex(IndexDef index) {
  if (index.name.empty()) {
    return Status::InvalidArgument("index name must not be empty");
  }
  if (FindIndex(index.name) != nullptr) {
    return Status::AlreadyExists("index " + index.name);
  }
  if (index.kind == IndexKind::kValue && index.fields.empty()) {
    return Status::InvalidArgument("value index " + index.name +
                                   " needs at least one field");
  }
  if (index.kind == IndexKind::kVersion && !index.fields.empty()) {
    return Status::InvalidArgument("version index " + index.name +
                                   " takes no fields");
  }
  for (const std::string& type_name : index.record_types) {
    const RecordTypeDef* type = FindRecordType(type_name);
    if (type == nullptr) {
      return Status::InvalidArgument("index " + index.name +
                                     " covers unknown type " + type_name);
    }
    for (const std::string& field : index.fields) {
      if (type->FindField(field) == nullptr) {
        return Status::InvalidArgument("index " + index.name + " field " +
                                       field + " not defined on " + type_name);
      }
    }
  }
  for (const std::string& field : index.fields) {
    auto it = std::lower_bound(indexed_fields_.begin(), indexed_fields_.end(),
                               field);
    if (it == indexed_fields_.end() || *it != field) {
      indexed_fields_.insert(it, field);
    }
  }
  indexes_.push_back(std::move(index));
  return Status::OK();
}

const RecordTypeDef* RecordMetadata::FindRecordType(
    const std::string& name) const {
  for (const RecordTypeDef& t : record_types_) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

const IndexDef* RecordMetadata::FindIndex(const std::string& name) const {
  for (const IndexDef& i : indexes_) {
    if (i.name == name) return &i;
  }
  return nullptr;
}

}  // namespace quick::rl
