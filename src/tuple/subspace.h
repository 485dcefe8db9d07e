#ifndef QUICK_TUPLE_SUBSPACE_H_
#define QUICK_TUPLE_SUBSPACE_H_

#include <string>
#include <string_view>

#include "common/bytes.h"
#include "tuple/tuple.h"

namespace quick::tup {

/// A keyspace region identified by a byte prefix, with tuple-encoded keys
/// inside it — the Record Layer's unit of data placement. Logical databases,
/// zones, record stores and indexes are all Subspaces in this repository.
class Subspace {
 public:
  Subspace() = default;
  explicit Subspace(std::string raw_prefix) : prefix_(std::move(raw_prefix)) {}
  explicit Subspace(const Tuple& t) : prefix_(t.Encode()) {}

  /// Child subspace: this prefix + Encode(t).
  Subspace Sub(const Tuple& t) const { return Subspace(prefix_ + t.Encode()); }

  /// Convenience single-element children, encoded straight onto a copy of
  /// this prefix (no Tuple built).
  Subspace Sub(int64_t v) const;
  Subspace Sub(std::string_view s) const;

  /// Key for tuple `t` within this subspace.
  std::string Pack(const Tuple& t) const { return prefix_ + t.Encode(); }

  /// Inverse of Pack: strips the prefix and decodes the remainder. Fails if
  /// `key` is not within this subspace.
  Result<Tuple> Unpack(std::string_view key) const;

  bool Contains(std::string_view key) const {
    return StartsWith(key, prefix_);
  }

  /// Range covering every key packed in this subspace.
  KeyRange Range() const { return KeyRange::Prefix(prefix_); }

  /// Range covering keys in this subspace whose tuple starts with `t`.
  KeyRange Range(const Tuple& t) const {
    return KeyRange::Prefix(prefix_ + t.Encode());
  }

  const std::string& prefix() const { return prefix_; }

  bool operator==(const Subspace& other) const = default;

 private:
  std::string prefix_;
};

}  // namespace quick::tup

#endif  // QUICK_TUPLE_SUBSPACE_H_
