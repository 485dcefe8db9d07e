#include "reclayer/record.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace quick::rl {

namespace {

Status Missing(std::string_view field) {
  return Status::NotFound("field " + std::string(field));
}

Status WrongType(std::string_view field, const char* expected) {
  return Status::InvalidArgument("field " + std::string(field) + " is not " +
                                 expected);
}

/// Bytes `e` adds to an encoding, escapes aside: sizes Serialize's buffer
/// so an encoding allocates once. Every non-string type a record holds
/// encodes in at most 9 bytes.
size_t EncodedSizeHint(const tup::Element& e) {
  if (const auto* s = std::get_if<std::string>(&e)) return s->size() + 2;
  if (const auto* b = std::get_if<tup::Bytes>(&e)) return b->data.size() + 2;
  return 9;
}

/// Elements in `data`, or the error that stops stepping over them.
Result<size_t> CountElements(std::string_view data) {
  tup::TupleReader reader(data);
  size_t n = 0;
  for (; !reader.done(); ++n) QUICK_RETURN_IF_ERROR(reader.Skip());
  return n;
}

bool ElementMatchesType(const tup::Element& e, FieldType type) {
  switch (type) {
    case FieldType::kInt64:
      return std::holds_alternative<int64_t>(e);
    case FieldType::kString:
      return std::holds_alternative<std::string>(e);
    case FieldType::kDouble:
      return std::holds_alternative<double>(e);
    case FieldType::kBool:
      return std::holds_alternative<bool>(e);
    case FieldType::kBytes:
      return std::holds_alternative<tup::Bytes>(e);
  }
  return false;
}

}  // namespace

void Record::Put(Field field) {
  // Decoding and ToRecord set fields in name order, so the common case
  // appends.
  if (fields_.empty() || fields_.back().name < field.name) {
    fields_.push_back(std::move(field));
    return;
  }
  auto it = std::lower_bound(fields_.begin(), fields_.end(), field.name,
                             NameBefore);
  if (it != fields_.end() && it->name == field.name) {
    it->value = std::move(field.value);
  } else {
    fields_.insert(it, std::move(field));
  }
}

Record& Record::SetInt(std::string_view field, int64_t v) {
  Put({std::string(field), v});
  return *this;
}

Record& Record::SetString(std::string_view field, std::string v) {
  Put({std::string(field), tup::Element(std::move(v))});
  return *this;
}

Record& Record::SetDouble(std::string_view field, double v) {
  Put({std::string(field), v});
  return *this;
}

Record& Record::SetBool(std::string_view field, bool v) {
  Put({std::string(field), v});
  return *this;
}

Record& Record::SetBytes(std::string_view field, std::string v) {
  Put({std::string(field), tup::Bytes{std::move(v)}});
  return *this;
}

Record& Record::ClearField(std::string_view field) {
  auto it = std::lower_bound(fields_.begin(), fields_.end(), field,
                             NameBefore);
  if (it != fields_.end() && it->name == field) fields_.erase(it);
  return *this;
}

const tup::Element* Record::Find(std::string_view field) const {
  auto it = std::lower_bound(fields_.begin(), fields_.end(), field,
                             NameBefore);
  return it != fields_.end() && it->name == field ? &it->value : nullptr;
}

tup::Element* Record::FindMutable(std::string_view field) {
  return const_cast<tup::Element*>(std::as_const(*this).Find(field));
}

tup::Element Record::ElementOrNull(std::string_view field) const {
  const tup::Element* e = Find(field);
  return e == nullptr ? tup::Element(tup::Null{}) : *e;
}

Result<int64_t> Record::GetInt(std::string_view field) const {
  const tup::Element* e = Find(field);
  if (e == nullptr) return Missing(field);
  if (const auto* v = std::get_if<int64_t>(e)) return *v;
  return WrongType(field, "an int");
}

Result<std::string> Record::GetString(std::string_view field) const {
  const tup::Element* e = Find(field);
  if (e == nullptr) return Missing(field);
  if (const auto* v = std::get_if<std::string>(e)) return *v;
  return WrongType(field, "a string");
}

Result<double> Record::GetDouble(std::string_view field) const {
  const tup::Element* e = Find(field);
  if (e == nullptr) return Missing(field);
  if (const auto* v = std::get_if<double>(e)) return *v;
  return WrongType(field, "a double");
}

Result<bool> Record::GetBool(std::string_view field) const {
  const tup::Element* e = Find(field);
  if (e == nullptr) return Missing(field);
  if (const auto* v = std::get_if<bool>(e)) return *v;
  return WrongType(field, "a bool");
}

Result<std::string> Record::GetBytes(std::string_view field) const {
  const tup::Element* e = Find(field);
  if (e == nullptr) return Missing(field);
  if (const auto* v = std::get_if<tup::Bytes>(e)) return v->data;
  return WrongType(field, "bytes");
}

Result<std::string> Record::TakeString(std::string_view field) {
  tup::Element* e = FindMutable(field);
  if (e == nullptr) return Missing(field);
  if (auto* v = std::get_if<std::string>(e)) return std::move(*v);
  return WrongType(field, "a string");
}

Result<std::string> Record::TakeBytes(std::string_view field) {
  tup::Element* e = FindMutable(field);
  if (e == nullptr) return Missing(field);
  if (auto* v = std::get_if<tup::Bytes>(e)) return std::move(v->data);
  return WrongType(field, "bytes");
}

Status Record::Validate(const RecordTypeDef& type_def) const {
  if (type_ != type_def.name) {
    return Status::InvalidArgument("record type " + type_ +
                                   " does not match schema " + type_def.name);
  }
  for (const Field& field : fields_) {
    const FieldDef* def = type_def.FindField(field.name);
    if (def == nullptr) {
      return Status::InvalidArgument("unknown field " + field.name + " on " +
                                     type_);
    }
    if (!ElementMatchesType(field.value, def->type)) {
      return Status::InvalidArgument("field " + field.name +
                                     " has wrong type");
    }
  }
  for (const std::string& pk : type_def.primary_key_fields) {
    if (!HasField(pk)) {
      return Status::InvalidArgument("missing primary key field " + pk);
    }
  }
  return Status::OK();
}

Status Record::AppendPrimaryKey(const RecordTypeDef& type_def,
                                std::string* out) const {
  tup::AppendString(type_, out);
  for (const std::string& field : type_def.primary_key_fields) {
    const tup::Element* e = Find(field);
    if (e == nullptr) {
      return Status::InvalidArgument("missing primary key field " + field);
    }
    tup::AppendElement(*e, out);
  }
  return Status::OK();
}

std::string Record::Serialize() const {
  size_t size = type_.size() + 2;
  for (const Field& field : fields_) {
    size += field.name.size() + 2 + EncodedSizeHint(field.value);
  }
  std::string out;
  out.reserve(size);
  tup::AppendString(type_, &out);
  for (const Field& field : fields_) {
    tup::AppendString(field.name, &out);
    tup::AppendElement(field.value, &out);
  }
  return out;
}

Result<Record> Record::Deserialize(std::string_view data,
                                   const std::vector<std::string>* only) {
  if (data.empty()) return Status::InvalidArgument("empty record encoding");
  tup::TupleReader reader(data);
  Record rec;
  QUICK_RETURN_IF_ERROR(reader.ReadString(&rec.type_));
  if (only != nullptr) {
    rec.fields_.reserve(only->size());
  } else {
    // Sized once, so a record's field count does not add allocations.
    QUICK_ASSIGN_OR_RETURN(const size_t elements, CountElements(data));
    rec.fields_.reserve(elements / 2);
  }
  Field field;
  while (!reader.done()) {
    QUICK_RETURN_IF_ERROR(reader.ReadString(&field.name));
    if (reader.done()) {
      return Status::InvalidArgument("malformed record encoding");
    }
    if (only != nullptr &&
        !std::binary_search(only->begin(), only->end(), field.name)) {
      QUICK_RETURN_IF_ERROR(reader.Skip());
      continue;
    }
    QUICK_RETURN_IF_ERROR(reader.Read(&field.value));
    rec.Put(std::move(field));
  }
  return rec;
}

std::string Record::ToString() const {
  std::ostringstream os;
  os << type_ << "{";
  bool first = true;
  for (const Field& field : fields_) {
    if (!first) os << ", ";
    first = false;
    tup::Tuple t;
    t.Add(field.value);
    std::string rendered = t.ToString();  // "(value)"
    os << field.name << "=" << rendered.substr(1, rendered.size() - 2);
  }
  os << "}";
  return os.str();
}

bool Record::operator==(const Record& other) const {
  if (type_ != other.type_ || fields_.size() != other.fields_.size()) {
    return false;
  }
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name != other.fields_[i].name ||
        tup::CompareElements(fields_[i].value, other.fields_[i].value) !=
            std::strong_ordering::equal) {
      return false;
    }
  }
  return true;
}

}  // namespace quick::rl
