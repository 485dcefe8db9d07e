#include "tuple/subspace.h"

namespace quick::tup {

Subspace Subspace::Sub(int64_t v) const {
  std::string prefix;
  prefix.reserve(prefix_.size() + 9);  // an int encodes in at most 9 bytes
  prefix.append(prefix_);
  AppendElement(Element(v), &prefix);
  return Subspace(std::move(prefix));
}

Subspace Subspace::Sub(std::string_view s) const {
  std::string prefix;
  prefix.reserve(prefix_.size() + s.size() + 2);
  prefix.append(prefix_);
  AppendString(s, &prefix);
  return Subspace(std::move(prefix));
}

Result<Tuple> Subspace::Unpack(std::string_view key) const {
  if (!Contains(key)) {
    return Status::InvalidArgument("key not in subspace");
  }
  return Tuple::Decode(key.substr(prefix_.size()));
}

}  // namespace quick::tup
