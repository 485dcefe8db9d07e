#ifndef QUICK_COMMON_BYTES_H_
#define QUICK_COMMON_BYTES_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace quick {

/// Keys and values throughout the library are byte strings ordered
/// lexicographically by unsigned byte value, exactly as in FoundationDB.
/// std::string's operator< already provides that ordering (char comparison
/// is done through unsigned char in the library's traits for the purposes
/// we rely on: we only ever compare encoded tuples, which never depend on
/// signedness because std::char_traits::compare uses memcmp semantics).

/// Half-open key interval [begin, end). Shared by the FDB simulator, the
/// tuple layer, and the Record Layer.
struct KeyRange {
  std::string begin;
  std::string end;

  bool Contains(std::string_view key) const {
    return key >= begin && key < end;
  }
  bool Intersects(const KeyRange& other) const {
    return begin < other.end && other.begin < end;
  }
  bool empty() const { return begin >= end; }

  /// The range covering exactly one key.
  static KeyRange Single(std::string_view key);
  /// All keys having `prefix` (empty range when prefix is all-0xFF).
  static KeyRange Prefix(std::string_view prefix);
  /// The whole keyspace.
  static KeyRange All() { return {std::string(), std::string(1, '\xFF')}; }
};

/// Returns the first key that is not prefixed by `key`: increments the last
/// byte that is not 0xFF and truncates after it (FoundationDB's `strinc`).
/// Returns nullopt when key is empty or all bytes are 0xFF (no such key).
std::optional<std::string> Strinc(std::string_view key);

/// Returns the immediate successor of `key` in lexicographic order:
/// key + '\x00'.
std::string KeyAfter(std::string_view key);

/// True when `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Renders a byte string with non-printable bytes escaped as \xNN — for
/// logs and test failure messages.
std::string EscapeBytes(std::string_view s);

/// Fixed-width big-endian encoding of an unsigned 64-bit value; preserves
/// numeric order under lexicographic byte comparison.
std::string EncodeBigEndian64(uint64_t v);
uint64_t DecodeBigEndian64(std::string_view s);

/// Little-endian 64-bit encodings used by FDB atomic ADD/MIN/MAX operands.
/// Decoding a string shorter than 8 bytes zero-fills the missing high bytes.
std::string EncodeLittleEndian64(uint64_t v);
uint64_t DecodeLittleEndian64(std::string_view s);

/// Fixed-width little-endian integers appended to `out`: the framing of the
/// WAL, checkpoint and fencing-manifest files. Inline, as the WAL frames
/// every mutation with them.
inline void PutLittleEndian(std::string* out, uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}
inline void PutU16(std::string* out, uint16_t v) { PutLittleEndian(out, v, 2); }
inline void PutU32(std::string* out, uint32_t v) { PutLittleEndian(out, v, 4); }
inline void PutU64(std::string* out, uint64_t v) { PutLittleEndian(out, v, 8); }

/// Reads the `width`-byte little-endian integer at `data[offset]`; the
/// caller guarantees the bytes exist.
inline uint64_t GetUint(std::string_view data, size_t offset, size_t width) {
  uint64_t v = 0;
  for (size_t i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data[offset + i]))
         << (8 * i);
  }
  return v;
}

}  // namespace quick

#endif  // QUICK_COMMON_BYTES_H_
