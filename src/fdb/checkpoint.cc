#include "fdb/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/file_io.h"

namespace quick::fdb {

namespace {

constexpr size_t kHeaderSize = 24;
constexpr size_t kFooterSize = 4;

}  // namespace

std::string CheckpointFileName(Version version) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "CHECKPOINT-%016" PRIx64 ".ckpt",
                static_cast<uint64_t>(version));
  return buf;
}

bool ParseCheckpointFileName(const std::string& name, Version* version) {
  uint64_t parsed = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "CHECKPOINT-%16" SCNx64 ".ckpt%n", &parsed,
                  &consumed) != 1 ||
      static_cast<size_t>(consumed) != name.size()) {
    return false;
  }
  *version = static_cast<Version>(parsed);
  return true;
}

CheckpointBuilder::CheckpointBuilder(Version version) {
  // The header is assembled up front with a zero key count and patched in
  // Finish(), so Add() can stream without a second pass over the records.
  PutU32(&body_, kCheckpointMagic);
  PutU32(&body_, kCheckpointFormat);
  PutU64(&body_, static_cast<uint64_t>(version));
  PutU64(&body_, 0);  // key count, patched in Finish()
}

void CheckpointBuilder::Add(std::string_view key, std::string_view value) {
  PutU32(&body_, static_cast<uint32_t>(key.size()));
  PutU32(&body_, static_cast<uint32_t>(value.size()));
  body_.append(key);
  body_.append(value);
  ++key_count_;
}

std::string CheckpointBuilder::Finish() {
  body_.replace(16, 8,
                EncodeLittleEndian64(static_cast<uint64_t>(key_count_)));
  const uint32_t crc = Crc32c(body_);
  PutU32(&body_, crc);
  return std::move(body_);
}

Result<LoadedCheckpoint> ParseCheckpoint(std::string_view data) {
  if (data.size() < kHeaderSize + kFooterSize) {
    return Status::InvalidArgument("checkpoint too short");
  }
  if (GetUint(data, 0, 4) != kCheckpointMagic) {
    return Status::InvalidArgument("bad checkpoint magic");
  }
  if (GetUint(data, 4, 4) != kCheckpointFormat) {
    return Status::InvalidArgument("unknown checkpoint format");
  }
  const size_t body_size = data.size() - kFooterSize;
  const uint32_t crc =
      static_cast<uint32_t>(GetUint(data, body_size, 4));
  if (Crc32c(data.substr(0, body_size)) != crc) {
    return Status::InvalidArgument("checkpoint checksum mismatch");
  }

  LoadedCheckpoint out;
  out.version = static_cast<Version>(GetUint(data, 8, 8));
  const uint64_t keys = GetUint(data, 16, 8);
  out.entries.reserve(keys);
  size_t pos = kHeaderSize;
  for (uint64_t i = 0; i < keys; ++i) {
    if (pos + 8 > body_size) {
      return Status::InvalidArgument("checkpoint record overrun");
    }
    const uint64_t key_size = GetUint(data, pos, 4);
    const uint64_t value_size = GetUint(data, pos + 4, 4);
    pos += 8;
    if (pos + key_size + value_size > body_size) {
      return Status::InvalidArgument("checkpoint record overrun");
    }
    out.entries.push_back({std::string(data.substr(pos, key_size)),
                           std::string(data.substr(pos + key_size,
                                                   value_size))});
    pos += key_size + value_size;
  }
  if (pos != body_size) {
    return Status::InvalidArgument("checkpoint trailing bytes");
  }
  return out;
}

Result<LoadedCheckpoint> LoadCheckpointFile(const std::string& path) {
  Result<std::string> data = ReadFile(path);
  if (!data.ok()) return data.status();
  return ParseCheckpoint(*data);
}

Result<CheckpointScan> FindLatestValidCheckpoint(const std::string& dir) {
  CheckpointScan scan;
  Result<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) {
    if (names.status().IsNotFound()) return scan;
    return names.status();
  }
  std::vector<std::pair<Version, std::string>> candidates;
  for (const std::string& name : *names) {
    Version v = 0;
    if (ParseCheckpointFileName(name, &v)) candidates.emplace_back(v, name);
  }
  std::sort(candidates.rbegin(), candidates.rend());  // newest first
  for (const auto& [version, name] : candidates) {
    const std::string path = dir + "/" + name;
    Result<LoadedCheckpoint> loaded = LoadCheckpointFile(path);
    if (loaded.ok() && loaded->version == version) {
      scan.version = version;
      scan.path = path;
      return scan;
    }
    ++scan.invalid_skipped;
  }
  return scan;
}

void RetireOldCheckpoints(const std::string& dir, Version keep_version) {
  Result<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return;
  for (const std::string& name : *names) {
    Version v = 0;
    if (ParseCheckpointFileName(name, &v)) {
      if (v < keep_version) (void)RemoveFile(dir + "/" + name);
      continue;
    }
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      (void)RemoveFile(dir + "/" + name);
    }
  }
}

}  // namespace quick::fdb
