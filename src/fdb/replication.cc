#include "fdb/replication.h"

#include <algorithm>
#include <filesystem>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "fdb/checkpoint.h"
#include "fdb/wal.h"

namespace quick::fdb {

namespace {

constexpr uint32_t kManifestMagic = 0x51464E43u;  // 'QFNC'
constexpr uint32_t kManifestFormat = 1;

bool ReadU32(std::string_view data, size_t* off, uint32_t* v) {
  if (data.size() - *off < 4) return false;
  *v = static_cast<uint32_t>(GetUint(data, *off, 4));
  *off += 4;
  return true;
}

bool ReadU64(std::string_view data, size_t* off, uint64_t* v) {
  if (data.size() - *off < 8) return false;
  *v = GetUint(data, *off, 8);
  *off += 8;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// FencingService

Status FencingService::Load() {
  Result<std::string> data = ReadFile(path_);
  if (!data.ok()) {
    // A missing manifest is a fresh group; anything else is a real error.
    return data.status().IsNotFound() ? Status::OK() : data.status();
  }
  const std::string_view view = *data;
  const Status corrupt = Status::Internal("fencing manifest corrupt");
  if (view.size() < 4) return corrupt;
  const uint32_t crc = Crc32c(view.substr(0, view.size() - 4));
  size_t off = view.size() - 4;
  uint32_t stored_crc = 0;
  if (!ReadU32(view, &off, &stored_crc) || stored_crc != crc) return corrupt;

  off = 0;
  uint32_t magic = 0, format = 0, region_len = 0, sealed_count = 0;
  uint64_t epoch = 0, acked = 0;
  uint32_t sealed_flag = 0;
  if (!ReadU32(view, &off, &magic) || magic != kManifestMagic) return corrupt;
  if (!ReadU32(view, &off, &format) || format != kManifestFormat) {
    return corrupt;
  }
  if (!ReadU64(view, &off, &epoch)) return corrupt;
  if (!ReadU32(view, &off, &sealed_flag) || sealed_flag > 1) return corrupt;
  if (!ReadU32(view, &off, &region_len)) return corrupt;
  if (view.size() - off < region_len) return corrupt;
  std::string region(view.substr(off, region_len));
  off += region_len;
  if (!ReadU64(view, &off, &acked)) return corrupt;
  if (!ReadU32(view, &off, &sealed_count)) return corrupt;
  std::map<uint64_t, Version> sealed_acked;
  for (uint32_t i = 0; i < sealed_count; ++i) {
    uint64_t e = 0, a = 0;
    if (!ReadU64(view, &off, &e) || !ReadU64(view, &off, &a)) return corrupt;
    sealed_acked[e] = static_cast<Version>(a);
  }
  if (off != view.size() - 4) return corrupt;

  std::lock_guard<std::mutex> lock(mu_);
  current_epoch_ = epoch;
  sealed_ = sealed_flag == 1;
  primary_region_ = std::move(region);
  acked_ = static_cast<Version>(acked);
  sealed_acked_ = std::move(sealed_acked);
  return Status::OK();
}

Status FencingService::PersistLocked() {
  std::string out;
  PutU32(&out, kManifestMagic);
  PutU32(&out, kManifestFormat);
  PutU64(&out, current_epoch_);
  PutU32(&out, sealed_ ? 1 : 0);
  PutU32(&out, static_cast<uint32_t>(primary_region_.size()));
  out.append(primary_region_);
  PutU64(&out, static_cast<uint64_t>(acked_));
  PutU32(&out, static_cast<uint32_t>(sealed_acked_.size()));
  for (const auto& [epoch, acked] : sealed_acked_) {
    PutU64(&out, epoch);
    PutU64(&out, static_cast<uint64_t>(acked));
  }
  PutU32(&out, Crc32c(out));
  return AtomicWriteFile(path_, out);
}

uint64_t FencingService::current_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_epoch_;
}

std::string FencingService::primary_region() const {
  std::lock_guard<std::mutex> lock(mu_);
  return primary_region_;
}

bool FencingService::sealed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sealed_;
}

Version FencingService::acked_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acked_;
}

Version FencingService::SealedAckedVersion(uint64_t epoch) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sealed_acked_.find(epoch);
  return it == sealed_acked_.end() ? 0 : it->second;
}

Result<uint64_t> FencingService::BeginEpoch(const std::string& region) {
  std::lock_guard<std::mutex> lock(mu_);
  if (current_epoch_ != 0 && !sealed_) {
    return Status::FailedPrecondition(
        "cannot begin an epoch while the current one is unsealed");
  }
  ++current_epoch_;
  sealed_ = false;
  primary_region_ = region;
  // acked_ deliberately carries over (see header): the promotion guard
  // proved the new primary contains every version acked so far, so the
  // floor below which history is immutable never regresses.
  QUICK_RETURN_IF_ERROR(PersistLocked());
  return current_epoch_;
}

Status FencingService::SealEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  if (sealed_) return Status::OK();
  sealed_ = true;
  sealed_acked_[current_epoch_] = acked_;
  return PersistLocked();
}

Status FencingService::AckFence(uint64_t epoch, const std::string& region,
                                Version version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (partitioned_.count(region) != 0) {
    return Status::Unavailable("control plane unreachable from " + region);
  }
  if (epoch != current_epoch_ || sealed_ || region != primary_region_) {
    return Status::FailedPrecondition(
        "epoch " + std::to_string(epoch) + " is sealed; " + region +
        " no longer owns this group");
  }
  acked_ = std::max(acked_, version);
  return Status::OK();
}

void FencingService::SetPartitioned(const std::string& region,
                                    bool partitioned) {
  std::lock_guard<std::mutex> lock(mu_);
  if (partitioned) {
    partitioned_.insert(region);
  } else {
    partitioned_.erase(region);
  }
}

bool FencingService::IsPartitioned(const std::string& region) const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitioned_.count(region) != 0;
}

// ---------------------------------------------------------------------------
// ReplicationLink

int ReplicationLink::Transfer(size_t bytes) {
  (void)bytes;
  stats_.sends.Increment();
  if (partitioned()) {
    stats_.dropped.Increment();
    return 0;
  }
  if (faults_ != nullptr) {
    if (std::optional<LinkFault> fault = faults_->NextLinkFault()) {
      switch (fault->kind) {
        case LinkFault::Kind::kDrop:
          stats_.dropped.Increment();
          return 0;
        case LinkFault::Kind::kPartition:
          SetPartitioned(true);
          stats_.dropped.Increment();
          return 0;
        case LinkFault::Kind::kDelay:
          if (clock_ != nullptr) clock_->SleepMillis(fault->delay_millis);
          break;
        case LinkFault::Kind::kDuplicate:
          stats_.delivered.Increment(2);
          stats_.duplicated.Increment();
          return 2;
      }
    }
  }
  stats_.delivered.Increment();
  return 1;
}

// ---------------------------------------------------------------------------
// ReplicaApplier

Status ReplicaApplier::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  QUICK_RETURN_IF_ERROR(CreateDirs(options_.dir));
  // Recover the applied position exactly as primary recovery would: the
  // newest valid checkpoint plus the CRC-clean log tail above it, with
  // any torn suffix truncated (a replica restarting after its own crash).
  Result<CheckpointScan> scan = FindLatestValidCheckpoint(options_.dir);
  QUICK_RETURN_IF_ERROR(scan.status());
  Result<WalReplayResult> replay = ReplayWalDir(
      options_.dir, scan->version,
      [](const WalBatch&) { return Status::OK(); });
  QUICK_RETURN_IF_ERROR(replay.status());
  applied_.store(std::max(scan->version, replay->last_version),
                 std::memory_order_release);
  last_crc_ = 0;
  next_seq_ = replay->max_segment_seq + 1;
  return OpenSegmentLocked();
}

Status ReplicaApplier::OpenSegmentLocked() {
  return file_.Open(options_.dir + "/" + WalSegmentName(next_seq_++));
}

Status ReplicaApplier::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!file_.is_open()) return Status::OK();
  QUICK_RETURN_IF_ERROR(file_.Sync());
  return file_.Close();
}

Status ReplicaApplier::HaltLocked(Version version, const std::string& detail) {
  halted_.store(true, std::memory_order_release);
  if (options_.on_event) {
    ReplicationEvent event;
    event.kind = ReplicationEvent::Kind::kReplicaDivergence;
    event.region = options_.region;
    event.epoch = epoch_seen_;
    event.version = version;
    event.detail = detail;
    options_.on_event(event);
  }
  return Status::Internal("replica divergence on " + options_.region + ": " +
                          detail);
}

Status ReplicaApplier::ApplyFrame(uint64_t epoch, std::string_view frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (halted_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("replica " + options_.region +
                                      " is halted");
  }
  if (epoch < epoch_seen_) {
    // A zombie primary's shipment from before the failover; refuse but
    // stay healthy — the fence already withheld its acks.
    return Status::FailedPrecondition("stale epoch " + std::to_string(epoch));
  }
  epoch_seen_ = epoch;

  size_t off = 0;
  Result<WalBatch> decoded = DecodeWalRecord(frame, &off);
  if (!decoded.ok() || off != frame.size()) {
    return HaltLocked(0, "frame failed CRC/framing validation: " +
                             decoded.status().message());
  }
  const Version version = decoded->version;
  const Version applied = applied_.load(std::memory_order_relaxed);
  const uint32_t crc = Crc32c(frame);
  if (version <= applied) {
    // Duplicate delivery (or a re-ship after a dropped ack). Idempotent —
    // but the bytes must be identical to what we already hold: the same
    // version with different content is a forked history.
    if (version == applied && last_crc_ != 0 && crc != last_crc_) {
      return HaltLocked(version,
                        "version " + std::to_string(version) +
                            " re-shipped with different bytes");
    }
    stats_.frames_skipped.Increment();
    return Status::OK();
  }
  if (version != applied + 1) {
    // Commit versions are dense (one per applied batch), so a gap means
    // frames were lost or reordered past the link's in-order guarantee.
    return HaltLocked(version, "version gap: expected " +
                                   std::to_string(applied + 1) + ", got " +
                                   std::to_string(version));
  }
  const Status st = file_.Append(frame);
  if (!st.ok()) {
    halted_.store(true, std::memory_order_release);
    return st;
  }
  applied_.store(version, std::memory_order_release);
  last_crc_ = crc;
  stats_.frames_applied.Increment();
  return Status::OK();
}

Status ReplicaApplier::InstallCheckpoint(uint64_t epoch, Version version,
                                         std::string_view blob) {
  std::lock_guard<std::mutex> lock(mu_);
  if (halted_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("replica " + options_.region +
                                      " is halted");
  }
  if (epoch < epoch_seen_) {
    return Status::FailedPrecondition("stale epoch " + std::to_string(epoch));
  }
  epoch_seen_ = epoch;
  if (version <= applied_.load(std::memory_order_relaxed)) {
    return Status::OK();  // already caught up past it
  }
  // The checkpoint replaces everything: close and drop the current log,
  // install, and resume applying from the checkpoint version.
  if (file_.is_open()) QUICK_RETURN_IF_ERROR(file_.Close());
  Result<std::vector<std::string>> names = ListDir(options_.dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      (void)RemoveFile(options_.dir + "/" + name);
    }
  }
  QUICK_RETURN_IF_ERROR(
      AtomicWriteFile(options_.dir + "/" + CheckpointFileName(version), blob));
  next_seq_ = 1;
  QUICK_RETURN_IF_ERROR(OpenSegmentLocked());
  applied_.store(version, std::memory_order_release);
  last_crc_ = 0;
  stats_.checkpoints_installed.Increment();
  return Status::OK();
}

Status ReplicaApplier::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!file_.is_open()) return Status::OK();
  const Status st = file_.Sync();
  if (!st.ok()) halted_.store(true, std::memory_order_release);
  return st;
}

// ---------------------------------------------------------------------------
// LogShipper

Status LogShipper::PumpOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.pumps.Increment();
  if (follower_->halted()) {
    return Status::FailedPrecondition("follower halted");
  }
  if (primary_->DurabilityDead()) {
    return Status::Unavailable("primary dead");
  }
  // Ship only the published prefix: last_version_ advances after the
  // fsync AND the fence ack, so a zombie's withheld appends — durable on
  // its disk but never acknowledged — are never replicated.
  const Version cap = primary_->LastCommittedVersion();
  if (follower_->applied_version() >= cap) return Status::OK();
  const std::string& dir = primary_->options().durability.dir;

  // Catch-up: when the primary checkpointed past the follower (retiring
  // segments the follower still needed), ship the whole checkpoint and
  // resume from its version.
  Result<CheckpointScan> scan = FindLatestValidCheckpoint(dir);
  if (scan.ok() && scan->version > follower_->applied_version()) {
    Result<std::string> blob = ReadFile(scan->path);
    if (blob.ok()) {
      if (link_->Transfer(blob->size()) == 0) return Status::OK();  // stalled
      QUICK_RETURN_IF_ERROR(
          follower_->InstallCheckpoint(epoch_, scan->version, *blob));
      stats_.checkpoints_shipped.Increment();
      cur_seq_ = 0;
      cur_off_ = 0;
    }
  }

  Result<std::vector<std::string>> names = ListDir(dir);
  if (!names.ok()) return Status::OK();
  std::vector<uint64_t> seqs;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseWalSegmentName(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());

  bool shipped_any = false;
  for (const uint64_t seq : seqs) {
    if (seq < cur_seq_) continue;
    const uint64_t start_off = seq == cur_seq_ ? cur_off_ : 0;
    Result<std::string> data = ReadFile(dir + "/" + WalSegmentName(seq));
    if (!data.ok()) continue;  // retired between ListDir and here
    if (start_off > data->size()) continue;
    cur_seq_ = seq;
    cur_off_ = start_off;
    SegmentReader reader(std::string_view(*data).substr(start_off));
    SegmentReader::Record rec;
    bool stalled = false;
    while (reader.Next(&rec)) {
      if (rec.batch.version > cap) {
        // Not yet published (possibly a concurrent append racing the
        // fsync); stop here and re-read next pump.
        stalled = true;
        break;
      }
      if (rec.batch.version <= follower_->applied_version()) {
        cur_off_ = start_off + reader.offset();
        continue;  // already applied; no link traffic
      }
      const int copies = link_->Transfer(rec.raw.size());
      if (copies == 0) {
        // Dropped or partitioned: do NOT advance — re-shipping from the
        // same position preserves in-order delivery (invariant 16's
        // transport half).
        stalled = true;
        break;
      }
      for (int c = 0; c < copies; ++c) {
        const Status st = follower_->ApplyFrame(epoch_, rec.raw);
        if (!st.ok()) return st;
      }
      stats_.frames_shipped.Increment();
      shipped_any = true;
      cur_off_ = start_off + reader.offset();
    }
    if (stalled || !reader.status().ok()) break;
    // Clean end of this segment: move on if a later one exists; otherwise
    // stay, appends will extend it.
  }
  if (shipped_any) return follower_->Sync();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ReplicationGroup

ReplicationGroup::ReplicationGroup(std::string name,
                                   ReplicationGroupOptions options)
    : name_(std::move(name)),
      options_(std::move(options)),
      fencing_(options_.dir + "/MANIFEST") {}

ReplicationGroup::~ReplicationGroup() = default;

std::string ReplicationGroup::RegionName(int index) {
  return "region" + std::to_string(index);
}

std::string ReplicationGroup::RegionDir(int index) const {
  return options_.dir + "/" + RegionName(index);
}

int ReplicationGroup::RegionIndex(const std::string& region) const {
  for (int i = 0; i < num_regions(); ++i) {
    if (RegionName(i) == region) return i;
  }
  return -1;
}

void ReplicationGroup::Emit(ReplicationEvent::Kind kind,
                            const std::string& region, uint64_t epoch,
                            Version version, std::string detail) {
  if (!options_.on_event) return;
  ReplicationEvent event;
  event.kind = kind;
  event.region = region;
  event.epoch = epoch;
  event.version = version;
  event.detail = std::move(detail);
  options_.on_event(event);
}

std::unique_ptr<Database> ReplicationGroup::MakeRegionDatabase(
    int region, uint64_t epoch) {
  Database::Options db_options = options_.db_options;
  db_options.durability.enable_wal = true;
  db_options.durability.dir = RegionDir(region);
  const std::string region_name = RegionName(region);
  FencingService* fencing = &fencing_;
  db_options.durability.commit_fence = [fencing, epoch,
                                        region_name](Version version) {
    return fencing->AckFence(epoch, region_name, version);
  };
  // Every region's Database carries the CLUSTER name, not the region
  // name: zone subspaces derive their keyspace from the database name, so
  // a promoted region must resolve the exact keys its predecessor wrote.
  return std::make_unique<Database>(name_, db_options);
}

ReplicationGroup::Follower ReplicationGroup::MakeFollower(int region,
                                                          uint64_t epoch) {
  Follower f;
  ReplicaApplier::Options opts;
  opts.dir = RegionDir(region);
  opts.region = RegionName(region);
  opts.on_event = options_.on_event;
  f.applier = std::make_unique<ReplicaApplier>(std::move(opts));
  f.link = std::make_unique<ReplicationLink>(primary_db_->fault_injector(),
                                             options_.db_options.clock);
  f.shipper = std::make_unique<LogShipper>(primary_db_.get(), f.applier.get(),
                                           f.link.get(), epoch);
  return f;
}

Status ReplicationGroup::Start() {
  QUICK_RETURN_IF_ERROR(CreateDirs(options_.dir));
  QUICK_RETURN_IF_ERROR(fencing_.Load());
  std::lock_guard<std::mutex> lock(mu_);
  if (fencing_.current_epoch() == 0) {
    Result<uint64_t> epoch = fencing_.BeginEpoch(RegionName(0));
    QUICK_RETURN_IF_ERROR(epoch.status());
    epoch_ = *epoch;
    primary_index_ = 0;
  } else {
    primary_index_ = RegionIndex(fencing_.primary_region());
    if (primary_index_ < 0) {
      return Status::Internal("fencing manifest names unknown region " +
                              fencing_.primary_region());
    }
    if (fencing_.sealed()) {
      // A crash landed between seal and promotion; the sealed region's
      // disk still holds everything acked, so it re-takes the group under
      // a fresh epoch.
      Result<uint64_t> epoch = fencing_.BeginEpoch(fencing_.primary_region());
      QUICK_RETURN_IF_ERROR(epoch.status());
      epoch_ = *epoch;
    } else {
      epoch_ = fencing_.current_epoch();
    }
  }
  primary_db_ = MakeRegionDatabase(primary_index_, epoch_);
  if (primary_db_->DurabilityDead()) {
    return Status::Internal("primary region failed recovery");
  }
  for (int i = 0; i < num_regions(); ++i) {
    if (i == primary_index_) continue;
    Follower f = MakeFollower(i, epoch_);
    QUICK_RETURN_IF_ERROR(f.applier->Open());
    followers_.emplace(i, std::move(f));
  }
  return Status::OK();
}

Database* ReplicationGroup::primary() const {
  std::lock_guard<std::mutex> lock(mu_);
  return primary_db_.get();
}

std::string ReplicationGroup::primary_region() const {
  std::lock_guard<std::mutex> lock(mu_);
  return RegionName(primary_index_);
}

uint64_t ReplicationGroup::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

Status ReplicationGroup::PumpOnce() {
  std::lock_guard<std::mutex> lock(mu_);
  Status first_error = Status::OK();
  for (auto& [index, follower] : followers_) {
    const Status st = follower.shipper->PumpOnce();
    // kUnavailable (dead primary) and kFailedPrecondition (halted
    // follower / stale epoch) are expected mid-chaos; keep pumping the
    // other standbys and surface the first error.
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

void ReplicationGroup::KillPrimary() {
  std::lock_guard<std::mutex> lock(mu_);
  primary_db_->Halt();
}

Status ReplicationGroup::DrainRegionDir(const std::string& from_dir,
                                        uint64_t old_epoch, Version up_to,
                                        ReplicaApplier* target) {
  // The region's process is gone (or fenced) but its durable log store
  // outlives it: read the checkpoint + tail directly, capped at the
  // sealed epoch's acked version — appends beyond it were never
  // acknowledged and die with the region.
  Result<CheckpointScan> scan = FindLatestValidCheckpoint(from_dir);
  if (scan.ok() && scan->version > target->applied_version()) {
    Result<std::string> blob = ReadFile(scan->path);
    if (blob.ok()) {
      QUICK_RETURN_IF_ERROR(
          target->InstallCheckpoint(old_epoch, scan->version, *blob));
    }
  }
  Result<std::vector<std::string>> names = ListDir(from_dir);
  if (!names.ok()) return Status::OK();
  std::vector<uint64_t> seqs;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseWalSegmentName(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.begin(), seqs.end());
  for (const uint64_t seq : seqs) {
    Result<std::string> data = ReadFile(from_dir + "/" + WalSegmentName(seq));
    if (!data.ok()) continue;
    SegmentReader reader(*data);
    SegmentReader::Record rec;
    while (reader.Next(&rec)) {
      if (rec.batch.version > up_to) return target->Sync();
      if (rec.batch.version <= target->applied_version()) continue;
      QUICK_RETURN_IF_ERROR(target->ApplyFrame(old_epoch, rec.raw));
    }
    if (!reader.status().ok()) break;  // torn tail: durable prefix ends
  }
  return target->Sync();
}

Result<std::string> ReplicationGroup::Failover(const FailoverOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t old_epoch = epoch_;
  const int old_primary = primary_index_;
  QUICK_RETURN_IF_ERROR(fencing_.SealEpoch());
  const Version acked = fencing_.SealedAckedVersion(old_epoch);
  Emit(ReplicationEvent::Kind::kEpochSealed, RegionName(old_primary),
       old_epoch, acked, "epoch sealed for failover");

  int target = options.target_region;
  if (target == old_primary) {
    return Status::InvalidArgument("target is the current primary");
  }
  if (target < 0) {
    Version best = -1;
    for (const auto& [index, follower] : followers_) {
      if (follower.applier->halted()) continue;
      const Version applied = follower.applier->applied_version();
      if (applied > best) {
        best = applied;
        target = index;
      }
    }
    if (target < 0) {
      return Status::FailedPrecondition("no live standby to promote");
    }
  } else if (followers_.count(target) == 0) {
    return Status::InvalidArgument(RegionName(target) + " is not a standby");
  } else if (followers_[target].applier->halted()) {
    return Status::FailedPrecondition(RegionName(target) +
                                      " is halted (diverged)");
  }

  ReplicaApplier* applier = followers_[target].applier.get();
  if (options.drain_from_old_region &&
      applier->applied_version() < acked) {
    // Best-effort: a torn tail or missing file only leaves the target
    // where it was; the guard below still decides.
    (void)DrainRegionDir(RegionDir(old_primary), old_epoch, acked, applier);
  }
  if (applier->applied_version() < acked) {
    Emit(ReplicationEvent::Kind::kPromotionRefused, RegionName(target),
         old_epoch, applier->applied_version(),
         "standby behind sealed acked version " + std::to_string(acked));
    return Status::FailedPrecondition(
        RegionName(target) + " applied " +
        std::to_string(applier->applied_version()) +
        " < sealed acked version " + std::to_string(acked) +
        "; promotion would lose acknowledged commits");
  }

  Result<uint64_t> new_epoch = fencing_.BeginEpoch(RegionName(target));
  QUICK_RETURN_IF_ERROR(new_epoch.status());
  epoch_ = *new_epoch;

  // Retire the old primary but keep it alive: clients cache raw Database
  // pointers, and the zombie must keep answering (with kUnavailable or a
  // fence-refused kCommitUnknownResult) instead of dangling.
  retired_.emplace_back(old_primary, std::move(primary_db_));
  QUICK_RETURN_IF_ERROR(applier->Close());
  followers_.erase(target);
  primary_index_ = target;
  primary_db_ = MakeRegionDatabase(target, epoch_);
  if (primary_db_->DurabilityDead()) {
    return Status::Internal("promoted standby failed recovery");
  }
  // Re-point the remaining standbys at the new primary under the new
  // epoch; their applied history is a prefix of the new primary's (both
  // shipped byte-identical frames from the old one), so shipping resumes
  // where each left off.
  for (auto& [index, follower] : followers_) {
    follower.link = std::make_unique<ReplicationLink>(
        primary_db_->fault_injector(), options_.db_options.clock);
    follower.shipper = std::make_unique<LogShipper>(
        primary_db_.get(), follower.applier.get(), follower.link.get(),
        epoch_);
  }
  Emit(ReplicationEvent::Kind::kPromoted, RegionName(target), epoch_,
       primary_db_->LastCommittedVersion(), "promoted to primary");
  return RegionName(target);
}

Status ReplicationGroup::RejoinAsFollower(const std::string& region) {
  std::lock_guard<std::mutex> lock(mu_);
  const int index = RegionIndex(region);
  if (index < 0) return Status::InvalidArgument("unknown region " + region);
  if (index == primary_index_) {
    return Status::InvalidArgument(region + " is the current primary");
  }
  if (followers_.count(index) != 0) {
    return Status::FailedPrecondition(region + " is already a standby");
  }
  fencing_.SetPartitioned(region, false);
  // Any zombie still holding this directory must stop touching it.
  for (auto& [retired_index, db] : retired_) {
    if (retired_index == index) db->Halt();
  }
  std::error_code ec;
  std::filesystem::remove_all(RegionDir(index), ec);
  QUICK_RETURN_IF_ERROR(CreateDirs(RegionDir(index)));
  Follower f = MakeFollower(index, epoch_);
  QUICK_RETURN_IF_ERROR(f.applier->Open());
  followers_.emplace(index, std::move(f));
  return Status::OK();
}

void ReplicationGroup::SetLinkPartitioned(const std::string& region,
                                          bool partitioned) {
  std::lock_guard<std::mutex> lock(mu_);
  const int index = RegionIndex(region);
  auto it = followers_.find(index);
  if (it != followers_.end()) it->second.link->SetPartitioned(partitioned);
}

void ReplicationGroup::SetControlPartitioned(const std::string& region,
                                             bool partitioned) {
  fencing_.SetPartitioned(region, partitioned);
}

Version ReplicationGroup::ReplicaAppliedVersion(
    const std::string& region) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = followers_.find(RegionIndex(region));
  return it == followers_.end() ? 0 : it->second.applier->applied_version();
}

bool ReplicationGroup::ReplicaHalted(const std::string& region) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = followers_.find(RegionIndex(region));
  return it != followers_.end() && it->second.applier->halted();
}

LogShipper::Stats ReplicationGroup::ShipperStats(
    const std::string& region) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = followers_.find(RegionIndex(region));
  return it == followers_.end() ? LogShipper::Stats{}
                                : it->second.shipper->stats();
}

ReplicaApplier::Stats ReplicationGroup::ApplierStats(
    const std::string& region) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = followers_.find(RegionIndex(region));
  return it == followers_.end() ? ReplicaApplier::Stats{}
                                : it->second.applier->stats();
}

}  // namespace quick::fdb
