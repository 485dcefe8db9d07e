#ifndef QUICK_TUPLE_TUPLE_H_
#define QUICK_TUPLE_TUPLE_H_

#include <array>
#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace quick::tup {

/// FoundationDB tuple-layer encoding (the subset the Record Layer and
/// QuiCK need). The defining property — relied on by every index in this
/// repository and property-tested in tests/tuple — is order preservation:
/// for tuples a, b:  a < b (element-wise, by type then value)  <=>
/// Encode(a) < Encode(b) (lexicographic byte order).
///
/// Supported element types, in their cross-type sort order:
///   null < bytes < string < nested tuple < int64 < double < bool < uuid

struct Null {
  bool operator==(const Null&) const { return true; }
};

/// Distinguishes raw byte strings from UTF-8 strings (different type codes,
/// different sort classes).
struct Bytes {
  std::string data;
  bool operator==(const Bytes&) const = default;
};

struct Uuid {
  std::array<uint8_t, 16> data{};
  bool operator==(const Uuid&) const = default;

  /// Parses 32 hex chars (as produced by Random::NextUuid).
  static Result<Uuid> FromHex(std::string_view hex);
  std::string ToHex() const;
};

class Tuple;

using Element = std::variant<Null, Bytes, std::string, Tuple, int64_t, double,
                             bool, Uuid>;

class Tuple {
 public:
  Tuple() = default;

  /// Builder-style appends; return *this for chaining.
  Tuple& AddNull();
  Tuple& AddBytes(std::string bytes);
  Tuple& AddString(std::string s);
  Tuple& AddInt(int64_t v);
  Tuple& AddDouble(double v);
  Tuple& AddBool(bool v);
  Tuple& AddUuid(const Uuid& u);
  Tuple& AddTuple(Tuple t);
  Tuple& Add(Element e);

  /// Appends all elements of `t`.
  Tuple& Concat(const Tuple& t);

  size_t size() const { return elements_.size(); }
  bool empty() const { return elements_.empty(); }
  const Element& at(size_t i) const { return elements_.at(i); }
  const std::vector<Element>& elements() const { return elements_; }

  /// Typed accessors; return an error Status on index or type mismatch.
  Result<int64_t> GetInt(size_t i) const;
  Result<std::string> GetString(size_t i) const;
  Result<std::string> GetBytes(size_t i) const;
  Result<double> GetDouble(size_t i) const;
  Result<bool> GetBool(size_t i) const;
  Result<Uuid> GetUuid(size_t i) const;
  Result<Tuple> GetTuple(size_t i) const;
  bool IsNull(size_t i) const;

  /// Order-preserving serialization.
  std::string Encode() const;

  /// Inverse of Encode. Fails on malformed input.
  static Result<Tuple> Decode(std::string_view encoded);

  /// The prefix of this tuple of length `n` elements.
  Tuple Prefix(size_t n) const;

  /// Debug rendering, e.g. ("user1", 42, null).
  std::string ToString() const;

  bool operator==(const Tuple& other) const;

  /// Element-wise comparison consistent with encoded-byte comparison.
  std::strong_ordering operator<=>(const Tuple& other) const;

 private:
  std::vector<Element> elements_;
};

/// Compares single elements with the same order the encoding induces.
std::strong_ordering CompareElements(const Element& a, const Element& b);

/// Appends one element's encoding to `out`, as Tuple::Encode would write it
/// there: for callers that build a key or a record straight into one
/// buffer instead of through a Tuple of copied elements.
void AppendElement(const Element& e, std::string* out);
/// Appends the encoding of the string element `s` (no Element built).
void AppendString(std::string_view s, std::string* out);

/// The encoding of a string element fixed at compile time, as AppendString
/// writes it: the string type code 0x02, the bytes, 0x00. For the tags that
/// name the parts of a keyspace (a record store's "r", a database's "ck"),
/// so a key appends its tag's bytes with no encoding step:
///   static constexpr tup::StringTag kZoneTag{"z"};
/// A tag holds no zero byte (one would need escaping); the compiler
/// rejects one that does.
template <size_t N>
class StringTag {
 public:
  consteval StringTag(const char (&tag)[N]) {
    bytes_[0] = '\x02';
    for (size_t i = 0; i + 1 < N; ++i) {
      if (tag[i] == '\0') throw "a StringTag holds no zero byte";
      bytes_[i + 1] = tag[i];
    }
    bytes_[N] = '\x00';
  }

  constexpr size_t size() const { return N + 1; }
  constexpr operator std::string_view() const { return {bytes_, N + 1}; }

 private:
  char bytes_[N + 1];
};

/// Sequential decoder over an encoded tuple: reads one element at a time
/// without building a Tuple, so a hot scan decodes only the fields it uses
/// (QueueZone reads an index entry's priority, vesting time and item id
/// straight from the key bytes). Tuple::Decode is built on it. The reader
/// only views `encoded`, which must outlive it.
class TupleReader {
 public:
  explicit TupleReader(std::string_view encoded) : in_(encoded) {}

  /// True once every element has been read.
  bool done() const { return pos_ >= in_.size(); }

  /// Decodes the next element, whatever its type.
  Status Read(Element* out);
  /// Decodes the next element, which must be an int.
  Result<int64_t> ReadInt();
  /// Decodes the next element, which must be a string, into `out`
  /// (replacing its contents, reusing its buffer).
  Status ReadString(std::string* out);
  /// Steps over the next element.
  Status Skip();

 private:
  Status ReadNested(Tuple* out);
  Result<int64_t> ReadIntBody(uint8_t code);
  /// Reads an escaped byte string into `out`; skips it when out is null.
  Status ReadEscaped(std::string* out);
  uint8_t Byte(size_t i) const { return static_cast<uint8_t>(in_[i]); }

  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace quick::tup

#endif  // QUICK_TUPLE_TUPLE_H_
