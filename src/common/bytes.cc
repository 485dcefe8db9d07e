#include "common/bytes.h"

#include <algorithm>
#include <cstdio>

namespace quick {

KeyRange KeyRange::Single(std::string_view key) {
  return {std::string(key), KeyAfter(key)};
}

KeyRange KeyRange::Prefix(std::string_view prefix) {
  std::optional<std::string> end = Strinc(prefix);
  if (!end.has_value()) return {std::string(prefix), std::string(prefix)};
  return {std::string(prefix), *std::move(end)};
}

std::optional<std::string> Strinc(std::string_view key) {
  // Strip trailing 0xFF bytes; the remaining suffix byte is incremented.
  size_t end = key.size();
  while (end > 0 && static_cast<unsigned char>(key[end - 1]) == 0xFF) {
    --end;
  }
  if (end == 0) return std::nullopt;
  std::string out(key.substr(0, end));
  out[end - 1] = static_cast<char>(static_cast<unsigned char>(out[end - 1]) + 1);
  return out;
}

std::string KeyAfter(std::string_view key) {
  std::string out(key);
  out.push_back('\x00');
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string EscapeBytes(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (unsigned char c : s) {
    if (c >= 0x20 && c < 0x7F && c != '\\') {
      out.push_back(static_cast<char>(c));
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\x%02X", c);
      out += buf;
    }
  }
  return out;
}

std::string EncodeBigEndian64(uint64_t v) {
  std::string out(8, '\0');
  for (int i = 7; i >= 0; --i) {
    out[i] = static_cast<char>(v & 0xFF);
    v >>= 8;
  }
  return out;
}

uint64_t DecodeBigEndian64(std::string_view s) {
  uint64_t v = 0;
  for (size_t i = 0; i < 8 && i < s.size(); ++i) {
    v = (v << 8) | static_cast<unsigned char>(s[i]);
  }
  return v;
}

std::string EncodeLittleEndian64(uint64_t v) {
  std::string out;
  PutU64(&out, v);
  return out;
}

uint64_t DecodeLittleEndian64(std::string_view s) {
  return GetUint(s, 0, std::min<size_t>(s.size(), 8));
}

}  // namespace quick
