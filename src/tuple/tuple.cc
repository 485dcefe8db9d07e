#include "tuple/tuple.h"

#include <bit>
#include <cstring>
#include <sstream>

namespace quick::tup {

namespace {

// Type codes follow the FoundationDB tuple-layer specification so encoded
// tuples sort identically to the reference implementation.
constexpr uint8_t kNullCode = 0x00;
constexpr uint8_t kBytesCode = 0x01;
constexpr uint8_t kStringCode = 0x02;
constexpr uint8_t kNestedCode = 0x05;
constexpr uint8_t kIntZeroCode = 0x14;  // negatives 0x0B..0x13, positives 0x15..0x1D
constexpr uint8_t kDoubleCode = 0x21;
constexpr uint8_t kFalseCode = 0x26;
constexpr uint8_t kTrueCode = 0x27;
constexpr uint8_t kUuidCode = 0x30;
constexpr uint8_t kEscape = 0xFF;

/// Appends `s` with each zero byte escaped as 0x00 0xFF, then the 0x00
/// terminator, copying each run between zero bytes in one step.
void EncodeRawWithEscaping(std::string_view s, std::string* out) {
  for (size_t zero = s.find('\x00'); zero != std::string_view::npos;
       zero = s.find('\x00')) {
    out->append(s.data(), zero + 1);
    out->push_back(static_cast<char>(kEscape));
    s.remove_prefix(zero + 1);
  }
  out->append(s.data(), s.size());
  out->push_back('\x00');
}

// Sortable 8-byte transform of an IEEE-754 double: positive values get the
// sign bit flipped; negative values get all bits flipped. Big-endian byte
// order then sorts numerically.
uint64_t DoubleToSortableBits(double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  if (bits & 0x8000000000000000ULL) {
    return ~bits;
  }
  return bits ^ 0x8000000000000000ULL;
}

double SortableBitsToDouble(uint64_t bits) {
  if (bits & 0x8000000000000000ULL) {
    bits ^= 0x8000000000000000ULL;
  } else {
    bits = ~bits;
  }
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

void EncodeInt(int64_t v, std::string* out) {
  if (v == 0) {
    out->push_back(static_cast<char>(kIntZeroCode));
    return;
  }
  if (v > 0) {
    uint64_t u = static_cast<uint64_t>(v);
    int n = 0;
    for (uint64_t t = u; t != 0; t >>= 8) ++n;
    out->push_back(static_cast<char>(kIntZeroCode + n));
    for (int i = n - 1; i >= 0; --i) {
      out->push_back(static_cast<char>((u >> (8 * i)) & 0xFF));
    }
    return;
  }
  // Negative: encode magnitude's one's complement so larger (closer to zero)
  // values sort later; byte length determines the type code below zero.
  uint64_t mag = ~static_cast<uint64_t>(v) + 1;  // |v| without UB at INT64_MIN
  int n = 0;
  for (uint64_t t = mag; t != 0; t >>= 8) ++n;
  const uint64_t max_for_n =
      n == 8 ? ~uint64_t{0} : ((uint64_t{1} << (8 * n)) - 1);
  const uint64_t offset = max_for_n - mag;
  out->push_back(static_cast<char>(kIntZeroCode - n));
  for (int i = n - 1; i >= 0; --i) {
    out->push_back(static_cast<char>((offset >> (8 * i)) & 0xFF));
  }
}

void EncodeNested(const Tuple& t, std::string* out) {
  out->push_back(static_cast<char>(kNestedCode));
  for (const Element& e : t.elements()) {
    if (std::holds_alternative<Null>(e)) {
      // Nulls inside nested tuples are escaped so the terminator stays
      // unambiguous.
      out->push_back('\x00');
      out->push_back(static_cast<char>(kEscape));
    } else {
      AppendElement(e, out);
    }
  }
  out->push_back('\x00');
}

int TypeRank(const Element& e) {
  // Must match the cross-type order induced by the type codes.
  if (std::holds_alternative<Null>(e)) return 0;
  if (std::holds_alternative<Bytes>(e)) return 1;
  if (std::holds_alternative<std::string>(e)) return 2;
  if (std::holds_alternative<Tuple>(e)) return 3;
  if (std::holds_alternative<int64_t>(e)) return 4;
  if (std::holds_alternative<double>(e)) return 5;
  if (std::holds_alternative<bool>(e)) return 6;
  return 7;  // Uuid
}

}  // namespace

void AppendElement(const Element& e, std::string* out) {
  if (std::holds_alternative<Null>(e)) {
    out->push_back(static_cast<char>(kNullCode));
  } else if (const auto* b = std::get_if<Bytes>(&e)) {
    out->push_back(static_cast<char>(kBytesCode));
    EncodeRawWithEscaping(b->data, out);
  } else if (const auto* s = std::get_if<std::string>(&e)) {
    out->push_back(static_cast<char>(kStringCode));
    EncodeRawWithEscaping(*s, out);
  } else if (const auto* t = std::get_if<Tuple>(&e)) {
    EncodeNested(*t, out);
  } else if (const auto* i = std::get_if<int64_t>(&e)) {
    EncodeInt(*i, out);
  } else if (const auto* d = std::get_if<double>(&e)) {
    out->push_back(static_cast<char>(kDoubleCode));
    const uint64_t bits = DoubleToSortableBits(*d);
    for (int k = 7; k >= 0; --k) {
      out->push_back(static_cast<char>((bits >> (8 * k)) & 0xFF));
    }
  } else if (const auto* v = std::get_if<bool>(&e)) {
    out->push_back(static_cast<char>(*v ? kTrueCode : kFalseCode));
  } else if (const auto* u = std::get_if<Uuid>(&e)) {
    out->push_back(static_cast<char>(kUuidCode));
    for (uint8_t byte : u->data) out->push_back(static_cast<char>(byte));
  }
}

void AppendString(std::string_view s, std::string* out) {
  out->push_back(static_cast<char>(kStringCode));
  EncodeRawWithEscaping(s, out);
}

Status TupleReader::Read(Element* out) {
  if (done()) return Status::InvalidArgument("truncated tuple");
  const uint8_t code = Byte(pos_++);
  switch (code) {
    case kNullCode:
      *out = Null{};
      return Status::OK();
    case kBytesCode:
      return ReadEscaped(&out->emplace<Bytes>().data);
    case kStringCode:
      return ReadEscaped(&out->emplace<std::string>());
    case kNestedCode: {
      Tuple t;
      QUICK_RETURN_IF_ERROR(ReadNested(&t));
      *out = std::move(t);
      return Status::OK();
    }
    case kDoubleCode: {
      if (pos_ + 8 > in_.size()) {
        return Status::InvalidArgument("truncated double");
      }
      uint64_t bits = 0;
      for (int k = 0; k < 8; ++k) bits = (bits << 8) | Byte(pos_++);
      *out = SortableBitsToDouble(bits);
      return Status::OK();
    }
    case kFalseCode:
      *out = false;
      return Status::OK();
    case kTrueCode:
      *out = true;
      return Status::OK();
    case kUuidCode: {
      if (pos_ + 16 > in_.size()) {
        return Status::InvalidArgument("truncated uuid");
      }
      Uuid u;
      for (int k = 0; k < 16; ++k) u.data[k] = Byte(pos_++);
      *out = u;
      return Status::OK();
    }
    default:
      break;
  }
  if (code >= kIntZeroCode - 8 && code <= kIntZeroCode + 8) {
    QUICK_ASSIGN_OR_RETURN(int64_t v, ReadIntBody(code));
    *out = v;
    return Status::OK();
  }
  return Status::InvalidArgument("unknown tuple type code");
}

Result<int64_t> TupleReader::ReadInt() {
  if (done()) return Status::InvalidArgument("truncated tuple");
  const uint8_t code = Byte(pos_);
  if (code < kIntZeroCode - 8 || code > kIntZeroCode + 8) {
    return Status::InvalidArgument("element is not an int");
  }
  ++pos_;
  return ReadIntBody(code);
}

Status TupleReader::ReadString(std::string* out) {
  if (done()) return Status::InvalidArgument("truncated tuple");
  if (Byte(pos_) != kStringCode) {
    return Status::InvalidArgument("element is not a string");
  }
  ++pos_;
  out->clear();
  return ReadEscaped(out);
}

Status TupleReader::Skip() {
  if (done()) return Status::InvalidArgument("truncated tuple");
  const uint8_t code = Byte(pos_);
  size_t width;  // bytes after the type code
  switch (code) {
    case kStringCode:
    case kBytesCode:
      ++pos_;
      return ReadEscaped(nullptr);
    case kNullCode:
    case kFalseCode:
    case kTrueCode:
      width = 0;
      break;
    case kDoubleCode:
      width = 8;
      break;
    case kUuidCode:
      width = 16;
      break;
    default:
      if (code >= kIntZeroCode - 8 && code <= kIntZeroCode + 8) {
        ++pos_;
        return ReadIntBody(code).status();  // checks overflow, as Read does
      }
      Element ignored;  // nested tuples; unknown codes fail here
      return Read(&ignored);
  }
  if (pos_ + 1 + width > in_.size()) {
    pos_ = in_.size();
    return Status::InvalidArgument("truncated tuple");
  }
  pos_ += 1 + width;
  return Status::OK();
}

Status TupleReader::ReadNested(Tuple* out) {
  while (true) {
    if (done()) return Status::InvalidArgument("unterminated nested tuple");
    if (Byte(pos_) == 0x00) {
      if (pos_ + 1 < in_.size() && Byte(pos_ + 1) == kEscape) {
        out->AddNull();
        pos_ += 2;
        continue;
      }
      ++pos_;  // terminator
      return Status::OK();
    }
    Element e;
    QUICK_RETURN_IF_ERROR(Read(&e));
    out->Add(std::move(e));
  }
}

Result<int64_t> TupleReader::ReadIntBody(uint8_t code) {
  if (code == kIntZeroCode) return int64_t{0};
  const bool negative = code < kIntZeroCode;
  const int n = negative ? kIntZeroCode - code : code - kIntZeroCode;
  if (pos_ + static_cast<size_t>(n) > in_.size()) {
    return Status::InvalidArgument("truncated integer");
  }
  uint64_t raw = 0;
  for (int k = 0; k < n; ++k) raw = (raw << 8) | Byte(pos_++);
  if (!negative) {
    if (n == 8 && raw > static_cast<uint64_t>(INT64_MAX)) {
      return Status::InvalidArgument("integer overflow");
    }
    return static_cast<int64_t>(raw);
  }
  const uint64_t max_for_n =
      n == 8 ? ~uint64_t{0} : ((uint64_t{1} << (8 * n)) - 1);
  const uint64_t mag = max_for_n - raw;
  if (n == 8 && mag > static_cast<uint64_t>(INT64_MAX) + 1) {
    return Status::InvalidArgument("integer underflow");
  }
  return static_cast<int64_t>(~mag + 1);  // -mag without UB at INT64_MIN
}

Status TupleReader::ReadEscaped(std::string* out) {
  // One step per run between zero bytes: find the next 0x00, append the
  // run before it; a 0x00 0xFF pair is an escaped zero byte, a lone 0x00
  // the terminator.
  while (true) {
    const size_t zero = in_.find('\x00', pos_);
    if (zero == std::string_view::npos) {
      pos_ = in_.size();
      return Status::InvalidArgument("unterminated byte string");
    }
    const bool escaped = zero + 1 < in_.size() && Byte(zero + 1) == kEscape;
    if (out != nullptr) out->append(in_.data() + pos_, zero - pos_ + escaped);
    pos_ = zero + 1 + escaped;
    if (!escaped) return Status::OK();
  }
}

Result<Uuid> Uuid::FromHex(std::string_view hex) {
  if (hex.size() != 32) {
    return Status::InvalidArgument("uuid hex must be 32 chars");
  }
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  Uuid u;
  for (int i = 0; i < 16; ++i) {
    const int hi = nib(hex[2 * i]);
    const int lo = nib(hex[2 * i + 1]);
    if (hi < 0 || lo < 0) return Status::InvalidArgument("bad uuid hex");
    u.data[i] = static_cast<uint8_t>((hi << 4) | lo);
  }
  return u;
}

std::string Uuid::ToHex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[2 * i] = kHex[data[i] >> 4];
    out[2 * i + 1] = kHex[data[i] & 0xF];
  }
  return out;
}

Tuple& Tuple::AddNull() { return Add(Null{}); }
Tuple& Tuple::AddBytes(std::string bytes) {
  return Add(Bytes{std::move(bytes)});
}
Tuple& Tuple::AddString(std::string s) { return Add(Element(std::move(s))); }
Tuple& Tuple::AddInt(int64_t v) { return Add(Element(v)); }
Tuple& Tuple::AddDouble(double v) { return Add(Element(v)); }
Tuple& Tuple::AddBool(bool v) { return Add(Element(v)); }
Tuple& Tuple::AddUuid(const Uuid& u) { return Add(Element(u)); }
Tuple& Tuple::AddTuple(Tuple t) { return Add(Element(std::move(t))); }

Tuple& Tuple::Add(Element e) {
  elements_.push_back(std::move(e));
  return *this;
}

Tuple& Tuple::Concat(const Tuple& t) {
  for (const Element& e : t.elements_) elements_.push_back(e);
  return *this;
}

Result<int64_t> Tuple::GetInt(size_t i) const {
  if (i >= elements_.size()) return Status::InvalidArgument("index oob");
  if (const auto* v = std::get_if<int64_t>(&elements_[i])) return *v;
  return Status::InvalidArgument("element is not an int");
}

Result<std::string> Tuple::GetString(size_t i) const {
  if (i >= elements_.size()) return Status::InvalidArgument("index oob");
  if (const auto* v = std::get_if<std::string>(&elements_[i])) return *v;
  return Status::InvalidArgument("element is not a string");
}

Result<std::string> Tuple::GetBytes(size_t i) const {
  if (i >= elements_.size()) return Status::InvalidArgument("index oob");
  if (const auto* v = std::get_if<Bytes>(&elements_[i])) return v->data;
  return Status::InvalidArgument("element is not bytes");
}

Result<double> Tuple::GetDouble(size_t i) const {
  if (i >= elements_.size()) return Status::InvalidArgument("index oob");
  if (const auto* v = std::get_if<double>(&elements_[i])) return *v;
  return Status::InvalidArgument("element is not a double");
}

Result<bool> Tuple::GetBool(size_t i) const {
  if (i >= elements_.size()) return Status::InvalidArgument("index oob");
  if (const auto* v = std::get_if<bool>(&elements_[i])) return *v;
  return Status::InvalidArgument("element is not a bool");
}

Result<Uuid> Tuple::GetUuid(size_t i) const {
  if (i >= elements_.size()) return Status::InvalidArgument("index oob");
  if (const auto* v = std::get_if<Uuid>(&elements_[i])) return *v;
  return Status::InvalidArgument("element is not a uuid");
}

Result<Tuple> Tuple::GetTuple(size_t i) const {
  if (i >= elements_.size()) return Status::InvalidArgument("index oob");
  if (const auto* v = std::get_if<Tuple>(&elements_[i])) return *v;
  return Status::InvalidArgument("element is not a tuple");
}

bool Tuple::IsNull(size_t i) const {
  return i < elements_.size() && std::holds_alternative<Null>(elements_[i]);
}

std::string Tuple::Encode() const {
  std::string out;
  for (const Element& e : elements_) AppendElement(e, &out);
  return out;
}

Result<Tuple> Tuple::Decode(std::string_view encoded) {
  Tuple t;
  TupleReader reader(encoded);
  while (!reader.done()) {
    Element e;
    QUICK_RETURN_IF_ERROR(reader.Read(&e));
    t.Add(std::move(e));
  }
  return t;
}

Tuple Tuple::Prefix(size_t n) const {
  Tuple t;
  for (size_t i = 0; i < n && i < elements_.size(); ++i) {
    t.Add(elements_[i]);
  }
  return t;
}

std::string Tuple::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < elements_.size(); ++i) {
    if (i > 0) os << ", ";
    const Element& e = elements_[i];
    if (std::holds_alternative<Null>(e)) {
      os << "null";
    } else if (const auto* b = std::get_if<Bytes>(&e)) {
      os << "b\"" << b->data << "\"";
    } else if (const auto* s = std::get_if<std::string>(&e)) {
      os << '"' << *s << '"';
    } else if (const auto* t = std::get_if<Tuple>(&e)) {
      os << t->ToString();
    } else if (const auto* v = std::get_if<int64_t>(&e)) {
      os << *v;
    } else if (const auto* d = std::get_if<double>(&e)) {
      os << *d;
    } else if (const auto* v2 = std::get_if<bool>(&e)) {
      os << (*v2 ? "true" : "false");
    } else if (const auto* u = std::get_if<Uuid>(&e)) {
      os << u->ToHex();
    }
  }
  os << ")";
  return os.str();
}

bool Tuple::operator==(const Tuple& other) const {
  if (elements_.size() != other.elements_.size()) return false;
  for (size_t i = 0; i < elements_.size(); ++i) {
    if (CompareElements(elements_[i], other.elements_[i]) !=
        std::strong_ordering::equal) {
      return false;
    }
  }
  return true;
}

std::strong_ordering Tuple::operator<=>(const Tuple& other) const {
  const size_t n = std::min(elements_.size(), other.elements_.size());
  for (size_t i = 0; i < n; ++i) {
    const auto c = CompareElements(elements_[i], other.elements_[i]);
    if (c != std::strong_ordering::equal) return c;
  }
  return elements_.size() <=> other.elements_.size();
}

std::strong_ordering CompareElements(const Element& a, const Element& b) {
  const int ra = TypeRank(a);
  const int rb = TypeRank(b);
  if (ra != rb) return ra <=> rb;
  switch (ra) {
    case 0:
      return std::strong_ordering::equal;
    case 1:
      return std::get<Bytes>(a).data <=> std::get<Bytes>(b).data;
    case 2:
      return std::get<std::string>(a) <=> std::get<std::string>(b);
    case 3:
      return std::get<Tuple>(a) <=> std::get<Tuple>(b);
    case 4:
      return std::get<int64_t>(a) <=> std::get<int64_t>(b);
    case 5:
      // Compare through the sortable-bits transform so the comparison is a
      // total order consistent with the encoding (handles -0.0 and NaN).
      return DoubleToSortableBits(std::get<double>(a)) <=>
             DoubleToSortableBits(std::get<double>(b));
    case 6:
      return static_cast<int>(std::get<bool>(a)) <=>
             static_cast<int>(std::get<bool>(b));
    default:
      return std::get<Uuid>(a).data <=> std::get<Uuid>(b).data;
  }
}

}  // namespace quick::tup
