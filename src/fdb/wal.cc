#include "fdb/wal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/bytes.h"
#include "common/crc32.h"

namespace quick::fdb {

namespace {

void PutBytes(std::string* out, const std::string& bytes) {
  PutU32(out, static_cast<uint32_t>(bytes.size()));
  out->append(bytes);
}

/// Bounds-checked cursor over a record payload; any overrun flags `fail`.
struct Cursor {
  std::string_view data;
  size_t pos = 0;
  bool fail = false;

  uint64_t Uint(size_t width) {
    if (fail || pos + width > data.size()) {
      fail = true;
      return 0;
    }
    const uint64_t v = GetUint(data, pos, width);
    pos += width;
    return v;
  }

  std::string Bytes() {
    const uint64_t n = Uint(4);
    if (fail || pos + n > data.size()) {
      fail = true;
      return std::string();
    }
    std::string out(data.substr(pos, n));
    pos += n;
    return out;
  }
};

void EncodeMutation(std::string* out, const Mutation& m) {
  out->push_back(static_cast<char>(m.type));
  out->push_back(static_cast<char>(m.op));
  out->push_back(static_cast<char>(m.base_cleared ? 1 : 0));
  PutBytes(out, m.key);
  PutBytes(out, m.end_key);
  PutBytes(out, m.value);
}

bool DecodeMutation(Cursor* c, Mutation* m) {
  const uint64_t type = c->Uint(1);
  const uint64_t op = c->Uint(1);
  const uint64_t base_cleared = c->Uint(1);
  if (c->fail || type > static_cast<uint64_t>(
                            Mutation::Type::kSetVersionstampedValue) ||
      op > static_cast<uint64_t>(AtomicOp::kByteMax) || base_cleared > 1) {
    return false;
  }
  m->type = static_cast<Mutation::Type>(type);
  m->op = static_cast<AtomicOp>(op);
  m->base_cleared = base_cleared == 1;
  m->key = c->Bytes();
  m->end_key = c->Bytes();
  m->value = c->Bytes();
  return !c->fail;
}

bool IsClear(const Mutation& m) {
  return m.type == Mutation::Type::kClear ||
         m.type == Mutation::Type::kClearRange;
}

}  // namespace

std::string EncodeWalRecord(const WalBatchRef& batch, uint64_t prev_offset) {
  std::string payload;
  // The tombstone bit marks batches consisting purely of clears — a
  // delete-only record, per the kvslite header convention.
  bool tombstone_only = true;
  size_t mutation_count = 0;
  for (const auto& [order, mutations] : batch.members) {
    PutU16(&payload, order);
    PutU32(&payload, static_cast<uint32_t>(mutations->size()));
    for (const Mutation& m : *mutations) {
      EncodeMutation(&payload, m);
      ++mutation_count;
      tombstone_only = tombstone_only && IsClear(m);
    }
  }
  uint16_t flags = 0;
  if (mutation_count > 0 && tombstone_only) flags |= kWalFlagTombstoneOnly;

  std::string record;
  record.reserve(kWalHeaderSize + payload.size());
  PutU32(&record, kWalMagic);
  PutU32(&record, 0);  // crc placeholder
  PutU64(&record, prev_offset);
  PutU64(&record, static_cast<uint64_t>(batch.version));
  PutU32(&record, static_cast<uint32_t>(payload.size()));
  PutU16(&record, flags);
  PutU16(&record, static_cast<uint16_t>(batch.members.size()));
  record.append(payload);

  uint32_t crc = Crc32cInit();
  crc = Crc32cExtend(
      crc, std::string_view(record).substr(8, kWalHeaderSize - 8));
  crc = Crc32cExtend(crc, payload);
  crc = Crc32cFinish(crc);
  for (int i = 0; i < 4; ++i) {
    record[4 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  return record;
}

Result<WalBatch> DecodeWalRecord(std::string_view data, size_t* offset) {
  const size_t start = *offset;
  if (start + kWalHeaderSize > data.size()) {
    return Status::InvalidArgument("truncated record header");
  }
  if (GetUint(data, start, 4) != kWalMagic) {
    return Status::InvalidArgument("bad record magic");
  }
  const uint32_t crc = static_cast<uint32_t>(GetUint(data, start + 4, 4));
  const uint64_t version = GetUint(data, start + 16, 8);
  const uint32_t payload_size =
      static_cast<uint32_t>(GetUint(data, start + 24, 4));
  const uint16_t member_count =
      static_cast<uint16_t>(GetUint(data, start + 30, 2));
  if (start + kWalHeaderSize + payload_size > data.size()) {
    return Status::InvalidArgument("truncated record payload");
  }
  uint32_t actual = Crc32cInit();
  actual = Crc32cExtend(
      actual, data.substr(start + 8, kWalHeaderSize - 8));
  actual = Crc32cExtend(
      actual, data.substr(start + kWalHeaderSize, payload_size));
  actual = Crc32cFinish(actual);
  if (actual != crc) {
    return Status::InvalidArgument("record checksum mismatch");
  }

  WalBatch batch;
  batch.version = static_cast<Version>(version);
  Cursor c{data.substr(start + kWalHeaderSize, payload_size)};
  for (uint16_t i = 0; i < member_count; ++i) {
    WalBatch::Member member;
    member.batch_order = static_cast<uint16_t>(c.Uint(2));
    const uint64_t mutations = c.Uint(4);
    if (c.fail) return Status::InvalidArgument("malformed record payload");
    member.mutations.resize(mutations);
    for (uint64_t j = 0; j < mutations; ++j) {
      if (!DecodeMutation(&c, &member.mutations[j])) {
        return Status::InvalidArgument("malformed record mutation");
      }
    }
    batch.members.push_back(std::move(member));
  }
  if (c.pos != c.data.size()) {
    return Status::InvalidArgument("record payload overrun");
  }
  *offset = start + kWalHeaderSize + payload_size;
  return batch;
}

bool SegmentReader::Next(Record* out) {
  if (!status_.ok() || offset_ >= data_.size()) return false;
  const size_t start = offset_;
  size_t end = start;
  Result<WalBatch> batch = DecodeWalRecord(data_, &end);
  if (!batch.ok()) {
    status_ = batch.status();
    return false;
  }
  out->batch = *std::move(batch);
  out->offset = start;
  out->raw = data_.substr(start, end - start);
  offset_ = end;
  return true;
}

std::string WalSegmentName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "WAL-%016" PRIx64 ".log", seq);
  return buf;
}

bool ParseWalSegmentName(const std::string& name, uint64_t* seq) {
  uint64_t parsed = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "WAL-%16" SCNx64 ".log%n", &parsed,
                  &consumed) != 1 ||
      static_cast<size_t>(consumed) != name.size()) {
    return false;
  }
  *seq = parsed;
  return true;
}

Wal::Wal(std::string dir, uint64_t start_seq, FaultInjector* faults,
         Clock* clock,
         std::vector<std::pair<uint64_t, Version>> segment_max_versions)
    : dir_(std::move(dir)),
      faults_(faults),
      clock_(clock),
      coalesced_counter_(MetricsRegistry::Default()->GetCounter(
          "fdb.wal.fsyncs_coalesced")),
      seq_(start_seq) {
  for (const auto& [seq, max_version] : segment_max_versions) {
    closed_segments_[seq] = max_version;
  }
}

Status Wal::OpenSegmentLocked() {
  QUICK_RETURN_IF_ERROR(file_.Open(dir_ + "/" + WalSegmentName(seq_)));
  prev_offset_ = kNoPrevOffset;
  current_max_version_ = 0;
  current_segment_bytes_.store(0, std::memory_order_relaxed);
  stats_.segments_created.Increment();
  return Status::OK();
}

Status Wal::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  return OpenSegmentLocked();
}

Result<uint64_t> Wal::AppendBatch(const WalBatchRef& batch) {
  if (dead()) return Status::Unavailable("wal is dead (crashed)");
  std::lock_guard<std::mutex> lock(mu_);
  std::string record = EncodeWalRecord(batch, prev_offset_);
  const uint64_t header_offset = static_cast<uint64_t>(file_.Size());

  std::optional<DiskFault> fault;
  if (faults_ != nullptr) {
    fault = faults_->NextDiskFault(DiskFault::Op::kWalAppend);
  }
  if (fault.has_value() && fault->kind == DiskFault::Kind::kTornWrite) {
    // Only a prefix hits the platter, then the process dies: append the
    // prefix (and let the kernel flush what it will) so a later recovery
    // finds exactly the torn tail this fault models.
    const int64_t limit = static_cast<int64_t>(record.size()) - 1;
    const int64_t n = fault->torn_bytes < 0
                          ? static_cast<int64_t>(record.size()) / 2
                          : std::clamp<int64_t>(fault->torn_bytes, 0, limit);
    (void)file_.Append(
        std::string_view(record).substr(0, static_cast<size_t>(n)));
    (void)file_.Sync();
    dead_.store(true, std::memory_order_release);
    sync_cv_.notify_all();
    return Status::Unavailable("injected torn write; wal crashed mid-append");
  }
  if (fault.has_value() &&
      fault->kind == DiskFault::Kind::kChecksumCorruption) {
    const size_t off = static_cast<size_t>(std::clamp<int64_t>(
        fault->corrupt_offset, 0, static_cast<int64_t>(record.size()) - 1));
    record[off] = static_cast<char>(record[off] ^ 1);
    (void)file_.Append(record);
    (void)file_.Sync();
    dead_.store(true, std::memory_order_release);
    sync_cv_.notify_all();
    return Status::Unavailable(
        "injected checksum corruption; wal crashed on append");
  }
  if (fault.has_value() && fault->kind == DiskFault::Kind::kFsyncStall) {
    // The stall is keyed to this append's ordinal but is a property of
    // the device: the sync that covers this record pays it.
    pending_stall_millis_ += fault->stall_millis;
  }

  Status st = file_.Append(record);
  if (!st.ok()) {
    dead_.store(true, std::memory_order_release);
    sync_cv_.notify_all();
    return st;
  }

  prev_offset_ = header_offset;
  current_max_version_ = std::max(current_max_version_, batch.version);
  current_segment_bytes_.fetch_add(static_cast<int64_t>(record.size()),
                                   std::memory_order_relaxed);
  stats_.appends.Increment();
  stats_.appended_bytes.Increment(static_cast<int64_t>(record.size()));
  appended_end_ += record.size();
  return appended_end_;
}

Status Wal::SyncTo(uint64_t end) {
  std::unique_lock<std::mutex> lock(mu_);
  bool did_sync = false;
  for (;;) {
    if (dead_.load(std::memory_order_acquire)) {
      return Status::Unavailable("wal is dead (crashed)");
    }
    if (synced_end_ >= end) {
      if (!did_sync) {
        stats_.fsyncs_coalesced.Increment();
        coalesced_counter_->Increment();
      }
      return Status::OK();
    }
    if (syncing_) {
      sync_cv_.wait(lock);
      continue;
    }
    syncing_ = true;
    const int64_t stall = pending_stall_millis_;
    pending_stall_millis_ = 0;
    if (stall > 0 && clock_ != nullptr) {
      // Injected device hang, paid with the lock released: appends pile
      // in behind the stalled sync and ride along under it.
      lock.unlock();
      clock_->SleepMillis(stall);
      lock.lock();
    }
    // Grab the target AFTER any stall and immediately before the fsync:
    // everything appended so far is covered by this one syscall.
    const uint64_t target = appended_end_;
    lock.unlock();
    Status st = file_.Sync();
    lock.lock();
    syncing_ = false;
    sync_cv_.notify_all();
    if (!st.ok()) {
      dead_.store(true, std::memory_order_release);
      return st;
    }
    synced_end_ = std::max(synced_end_, target);
    stats_.syncs.Increment();
    did_sync = true;
  }
}

Status Wal::AppendBatchAndSync(const WalBatchRef& batch) {
  Result<uint64_t> end = AppendBatch(batch);
  if (!end.ok()) return end.status();
  return SyncTo(*end);
}

Status Wal::RollSegment(Version checkpoint_version) {
  if (dead()) return Status::Unavailable("wal is dead (crashed)");
  std::unique_lock<std::mutex> lock(mu_);
  // Wait out any fsync in flight, then cover the remaining appended bytes
  // ourselves: the segment must be fully durable before its fd closes,
  // and a SyncTo waiter must never fsync the next segment's fd expecting
  // it to cover bytes in this one.
  sync_cv_.wait(lock, [&] {
    return !syncing_ || dead_.load(std::memory_order_acquire);
  });
  if (dead_.load(std::memory_order_acquire)) {
    return Status::Unavailable("wal is dead (crashed)");
  }
  if (synced_end_ < appended_end_) {
    Status st = file_.Sync();
    if (!st.ok()) {
      dead_.store(true, std::memory_order_release);
      sync_cv_.notify_all();
      return st;
    }
    synced_end_ = appended_end_;
    stats_.syncs.Increment();
    sync_cv_.notify_all();
  }
  closed_segments_[seq_] = current_max_version_;
  QUICK_RETURN_IF_ERROR(file_.Close());
  ++seq_;
  QUICK_RETURN_IF_ERROR(OpenSegmentLocked());
  for (auto it = closed_segments_.begin(); it != closed_segments_.end();) {
    if (it->second <= checkpoint_version) {
      (void)RemoveFile(dir_ + "/" + WalSegmentName(it->first));
      stats_.segments_deleted.Increment();
      it = closed_segments_.erase(it);
    } else {
      ++it;
    }
  }
  (void)SyncDir(dir_);
  return Status::OK();
}

Result<WalReplayResult> ReplayWalDir(
    const std::string& dir, Version from_version,
    const std::function<Status(const WalBatch&)>& apply) {
  WalReplayResult result;
  Result<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) {
    if (names.status().IsNotFound()) return result;  // nothing to replay
    return names.status();
  }
  std::vector<std::pair<uint64_t, std::string>> segments;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseWalSegmentName(name, &seq)) segments.emplace_back(seq, name);
  }
  std::sort(segments.begin(), segments.end());

  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [seq, name] = segments[i];
    const std::string path = dir + "/" + name;
    result.max_segment_seq = std::max(result.max_segment_seq, seq);
    Result<std::string> data = ReadFile(path);
    if (!data.ok()) return data.status();
    ++result.segments_scanned;

    SegmentReader reader(*data);
    SegmentReader::Record record;
    Version segment_max = 0;
    while (reader.Next(&record)) {
      segment_max = std::max(segment_max, record.batch.version);
      if (record.batch.version <= from_version) {
        ++result.records_skipped;
      } else {
        QUICK_RETURN_IF_ERROR(apply(record.batch));
        ++result.records_applied;
        result.last_version =
            std::max(result.last_version, record.batch.version);
      }
    }
    if (!reader.status().ok()) {
      // Torn or corrupt suffix: chop it (and everything after it) so the
      // recovered prefix is exactly the durable prefix and a second
      // recovery converges to the same state.
      result.truncated = true;
      result.truncated_bytes +=
          static_cast<int64_t>(data->size() - reader.offset());
      QUICK_RETURN_IF_ERROR(
          TruncateFile(path, static_cast<int64_t>(reader.offset())));
      for (size_t j = i + 1; j < segments.size(); ++j) {
        const std::string later = dir + "/" + segments[j].second;
        result.max_segment_seq =
            std::max(result.max_segment_seq, segments[j].first);
        Result<int64_t> size = FileSize(later);
        if (size.ok()) result.truncated_bytes += *size;
        QUICK_RETURN_IF_ERROR(RemoveFile(later));
      }
    }
    result.segment_max_versions.emplace_back(seq, segment_max);
    if (result.truncated) break;
  }
  return result;
}

}  // namespace quick::fdb
