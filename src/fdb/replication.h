#ifndef QUICK_FDB_REPLICATION_H_
#define QUICK_FDB_REPLICATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/file_io.h"
#include "common/result.h"
#include "common/status.h"
#include "fdb/database.h"
#include "fdb/fault_injector.h"
#include "fdb/types.h"

// Counters of the replication components, each named once (common/
// metrics.h's declare-once lists).
#define QUICK_FDB_REPLICATION_LINK_COUNTERS(X) \
  X(sends)                                     \
  X(delivered)                                 \
  X(dropped)                                   \
  X(duplicated)
#define QUICK_FDB_REPLICA_APPLIER_COUNTERS(X)                        \
  X(frames_applied)                                                  \
  /* Frames at or below the applied version (duplicates / re-ships), \
     verified and skipped. */                                        \
  X(frames_skipped)                                                  \
  X(checkpoints_installed)
#define QUICK_FDB_LOG_SHIPPER_COUNTERS(X) \
  X(pumps)                                \
  X(frames_shipped)                       \
  X(checkpoints_shipped)

namespace quick::fdb {

/// Warm-standby replication and fenced region failover (DESIGN.md §10).
///
/// Each simulated cluster becomes a replication group: one primary region
/// (a full Database, the only region taking traffic) plus N standby
/// regions that hold byte-identical copies of the primary's WAL. A
/// LogShipper tails the primary's segments and forwards each framed
/// record verbatim over a fault-injectable ReplicationLink; the standby's
/// ReplicaApplier re-validates the CRC and appends the frame to its own
/// log in strict version order, so a promoted standby recovers through
/// the exact same checkpoint-plus-tail path as a restarted primary.
///
/// Failover is fenced by a durably-stored, monotonically increasing
/// replication epoch (FencingService). Every commit the primary
/// acknowledges first passes a commit fence carrying the epoch it was
/// started under; promotion seals the old epoch, so a zombie primary —
/// partitioned but still taking traffic — has every late acknowledgement
/// refused (its clients see kCommitUnknownResult, never success) and the
/// refusal halts it for good. Invariants:
///
///  16. A standby applies version v only after applying v-1 (dense,
///      CRC-checked); any gap, reorder, or byte divergence halts the
///      replica with a kReplicaDivergence alert rather than serving a
///      forked history.
///  17. No commit is acknowledged under a sealed epoch: promotion seals
///      epoch e at acked version A, the new primary provably contains
///      every version <= A, and any post-seal ack attempt from the old
///      primary is refused and fences it.

/// Observable replication state change, surfaced to the workload harness
/// as operator alerts.
struct ReplicationEvent {
  enum class Kind {
    /// A standby detected a version gap, reorder, or CRC divergence and
    /// halted itself (invariant 16).
    kReplicaDivergence,
    /// An epoch was sealed at the start of a failover.
    kEpochSealed,
    /// A standby was promoted to primary under a new epoch.
    kPromoted,
    /// Promotion was refused: the candidate had not applied everything
    /// acknowledged under the sealed epoch (invariant 17's guard).
    kPromotionRefused,
  };
  Kind kind = Kind::kReplicaDivergence;
  std::string region;
  uint64_t epoch = 0;
  Version version = 0;
  std::string detail;
};

/// Invoked inline by replication components; must not call back into the
/// emitting ReplicationGroup (the group's lock may be held).
using ReplicationEventCallback = std::function<void(const ReplicationEvent&)>;

/// The control plane's fencing authority for one replication group: owns
/// the durable MANIFEST recording the current epoch, its primary region,
/// the highest version acknowledged under it, and the final acked version
/// of every sealed epoch. Thread-safe; modelled as always-available
/// (highly-available control plane) except for regions explicitly
/// partitioned from it.
///
/// MANIFEST format (binary, CRC-sealed, written atomically):
///   u32 magic 'QFNC' | u32 format | u64 current_epoch | u8 sealed |
///   u32 region_len | region | u64 acked |
///   u32 sealed_count | (u64 epoch, u64 acked)* | u32 crc
class FencingService {
 public:
  explicit FencingService(std::string manifest_path)
      : path_(std::move(manifest_path)) {}

  /// Loads the manifest; a missing file is a fresh group (epoch 0).
  Status Load();

  uint64_t current_epoch() const;
  std::string primary_region() const;
  bool sealed() const;
  /// Highest version acknowledged under the current epoch.
  Version acked_version() const;
  /// Final acked version of a sealed epoch (0 when unknown).
  Version SealedAckedVersion(uint64_t epoch) const;

  /// Opens epoch current+1 with `region` as primary and persists the
  /// manifest. The acked floor carries over: the promotion precondition
  /// guarantees the new primary contains every version acked so far.
  /// Requires the previous epoch to be sealed (or this to be the first).
  Result<uint64_t> BeginEpoch(const std::string& region);

  /// Seals the current epoch at its acked version and persists; further
  /// AckFence calls under it are refused. Idempotent.
  Status SealEpoch();

  /// The primary's commit fence: confirms `region` still owns `epoch`
  /// before the batch at `version` may be acknowledged. kUnavailable when
  /// the region is partitioned from the control plane (the batch is
  /// demoted but the region keeps serving); kFailedPrecondition when the
  /// epoch is sealed or not the region's (the caller must halt — it has
  /// been failed away from). Acks are recorded in memory and persisted at
  /// seal time.
  Status AckFence(uint64_t epoch, const std::string& region, Version version);

  /// Partitions `region` from the control plane (its fence calls fail
  /// kUnavailable) or heals it.
  void SetPartitioned(const std::string& region, bool partitioned);
  bool IsPartitioned(const std::string& region) const;

 private:
  Status PersistLocked();

  const std::string path_;
  mutable std::mutex mu_;
  uint64_t current_epoch_ = 0;
  bool sealed_ = false;
  std::string primary_region_;
  Version acked_ = 0;
  std::map<uint64_t, Version> sealed_acked_;
  std::set<std::string> partitioned_;
};

/// The network path from a primary to one standby. Scheduled LinkFaults
/// (fault_plan.h) fire per send ordinal; a partition is sticky until
/// healed. Thread-safe.
class ReplicationLink {
 public:
  struct Stats {
    QUICK_FDB_REPLICATION_LINK_COUNTERS(QUICK_STAT_FIELD)
  };

  ReplicationLink(FaultInjector* faults, Clock* clock)
      : faults_(faults), clock_(clock) {}

  /// Attempts one send of `bytes`. Returns how many copies arrive: 0
  /// (dropped, or the link is partitioned), 1 (delivered, possibly after
  /// an injected delay paid on the cluster Clock), or 2 (duplicated).
  int Transfer(size_t bytes);

  void SetPartitioned(bool partitioned) {
    partitioned_.store(partitioned, std::memory_order_release);
  }
  bool partitioned() const {
    return partitioned_.load(std::memory_order_acquire);
  }

  Stats stats() const { return stats_.Read(); }

 private:
  FaultInjector* const faults_;
  Clock* const clock_;
  std::atomic<bool> partitioned_{false};
  QUICK_LIVE_COUNTERS(QUICK_FDB_REPLICATION_LINK_COUNTERS, Stats) stats_;
};

/// A standby region's apply loop: receives framed WAL records (and whole
/// checkpoints for catch-up), re-validates them, and appends them to the
/// region's own log directory in strict version order. Purely disk-backed
/// — promotion constructs a Database over the directory and runs ordinary
/// recovery. Thread-safe.
class ReplicaApplier {
 public:
  struct Options {
    std::string dir;
    std::string region;
    ReplicationEventCallback on_event;
  };

  struct Stats {
    QUICK_FDB_REPLICA_APPLIER_COUNTERS(QUICK_STAT_FIELD)
  };

  explicit ReplicaApplier(Options options) : options_(std::move(options)) {}

  /// Creates the directory and recovers the applied version from any
  /// existing checkpoint + log tail (a replica restart resumes; torn
  /// tails are truncated exactly as primary recovery does).
  Status Open();

  /// Closes the open segment file (called before promotion hands the
  /// directory to Database recovery).
  Status Close();

  /// Applies one framed WAL record shipped under `epoch`. Strictly
  /// ordered: the frame must decode CRC-clean and carry version
  /// applied+1; an already-applied version is verified byte-identical
  /// and skipped (idempotence under duplication). Any gap, stale bytes
  /// at a known version, or decode failure halts the replica and emits
  /// kReplicaDivergence (invariant 16). Frames from an epoch older than
  /// the newest seen are refused without halting (a zombie's shipments).
  Status ApplyFrame(uint64_t epoch, std::string_view frame);

  /// Replaces the replica's entire state with a checkpoint at `version`
  /// (catch-up when the primary retired the segments the replica still
  /// needed): wipes the directory, installs the checkpoint file, and
  /// resumes applying from `version`.
  Status InstallCheckpoint(uint64_t epoch, Version version,
                           std::string_view blob);

  /// Fsyncs the replica's open segment (once per shipper pump, not per
  /// frame).
  Status Sync();

  Version applied_version() const {
    return applied_.load(std::memory_order_acquire);
  }
  bool halted() const { return halted_.load(std::memory_order_acquire); }
  const std::string& dir() const { return options_.dir; }
  const std::string& region() const { return options_.region; }
  Stats stats() const { return stats_.Read(); }

 private:
  Status OpenSegmentLocked();
  /// Divergence halt: the replica refuses to extend a forked history.
  Status HaltLocked(Version version, const std::string& detail);

  const Options options_;
  mutable std::mutex mu_;
  AppendFile file_;
  uint64_t next_seq_ = 1;
  uint64_t epoch_seen_ = 0;
  /// CRC-32C of the frame at applied_version (0 = unknown, e.g. right
  /// after open or checkpoint install) — the byte-divergence check for
  /// re-shipped duplicates.
  uint32_t last_crc_ = 0;
  std::atomic<Version> applied_{0};
  std::atomic<bool> halted_{false};
  QUICK_LIVE_COUNTERS(QUICK_FDB_REPLICA_APPLIER_COUNTERS, Stats) stats_;
};

/// Tails the primary's WAL directory and ships each published record to
/// one standby over a ReplicationLink. Pull-based and resumable: the
/// shipper remembers its (segment, offset) position, never advances past
/// an undelivered frame (a drop stalls the stream, preserving order), and
/// ships nothing above the primary's published version — unacknowledged
/// appends, in particular a fenced zombie's, never reach a standby. When
/// the primary has retired segments the standby still needs, the shipper
/// sends the newest checkpoint instead and resumes from its version.
/// Thread-safe; one pump runs at a time.
class LogShipper {
 public:
  struct Stats {
    QUICK_FDB_LOG_SHIPPER_COUNTERS(QUICK_STAT_FIELD)
  };

  LogShipper(Database* primary, ReplicaApplier* follower,
             ReplicationLink* link, uint64_t epoch)
      : primary_(primary),
        follower_(follower),
        link_(link),
        epoch_(epoch) {}

  /// Ships as much of the primary's published log as the link allows.
  /// kUnavailable when the primary is dead; kFailedPrecondition when the
  /// follower halted or refused the epoch; OK otherwise (including a
  /// stalled link — the next pump retries from the same position).
  Status PumpOnce();

  Stats stats() const { return stats_.Read(); }

 private:
  Database* const primary_;
  ReplicaApplier* const follower_;
  ReplicationLink* const link_;
  const uint64_t epoch_;

  std::mutex mu_;
  /// Resume position: first segment to (re)read and the offset within
  /// it; seq 0 = rescan from the lowest existing segment.
  uint64_t cur_seq_ = 0;
  uint64_t cur_off_ = 0;

  QUICK_LIVE_COUNTERS(QUICK_FDB_LOG_SHIPPER_COUNTERS, Stats) stats_;
};

struct ReplicationGroupOptions {
  /// Warm standbys per group (regions = 1 primary + num_replicas).
  int num_replicas = 1;
  /// Template for every region's Database (clock, latency, faults,
  /// durability tuning); enable_wal, dir, and commit_fence are overridden
  /// per region.
  Database::Options db_options;
  /// Group root; region i lives in <dir>/region<i>, the fencing MANIFEST
  /// at <dir>/MANIFEST.
  std::string dir;
  ReplicationEventCallback on_event;
};

/// One replicated cluster: primary Database + standby appliers + the
/// shippers and fencing that tie them together. Owns every region's
/// objects; a Database retired by failover (the zombie) is kept alive —
/// clients hold raw pointers and must keep observing kUnavailable /
/// kCommitUnknownResult from it, never use-after-free. Thread-safe.
class ReplicationGroup {
 public:
  struct FailoverOptions {
    /// Read the failed region's durable log store directly (checkpoint +
    /// tail, capped at the sealed epoch's acked version) to catch the
    /// target up before promoting — the disk outlives the region. With
    /// this off, a target behind the sealed acked version refuses
    /// promotion instead.
    bool drain_from_old_region = true;
    /// Region index to promote; -1 picks the most-caught-up live standby.
    int target_region = -1;
  };

  ReplicationGroup(std::string name, ReplicationGroupOptions options);
  ~ReplicationGroup();

  ReplicationGroup(const ReplicationGroup&) = delete;
  ReplicationGroup& operator=(const ReplicationGroup&) = delete;

  /// Loads the fencing manifest (resuming a prior epoch after a restart,
  /// or opening epoch 1 on region0), recovers the primary Database, and
  /// opens every standby.
  Status Start();

  static std::string RegionName(int index);
  std::string RegionDir(int index) const;
  int num_regions() const { return options_.num_replicas + 1; }

  /// The current primary. Stable until the next Failover; after one, the
  /// old pointer stays valid but halted/fenced.
  Database* primary() const;
  std::string primary_region() const;
  uint64_t epoch() const;

  /// Ships every standby one pump's worth of log. Safe to call
  /// concurrently with traffic and with Failover.
  Status PumpOnce();

  /// Fails the group over: seals the current epoch at its acked version,
  /// picks the target standby, optionally drains the old region's
  /// durable log into it, refuses (kFailedPrecondition, with a
  /// kPromotionRefused event) if the target still lacks acked history,
  /// then begins the new epoch and recovers a fresh primary Database
  /// over the target's directory. The old primary is retired but kept
  /// alive; its next fence ack refuses and halts it.
  Result<std::string> Failover(const FailoverOptions& options);
  Result<std::string> Failover() { return Failover(FailoverOptions{}); }

  /// Kills the primary region's process (it stops serving immediately);
  /// its disk survives for Failover's drain.
  void KillPrimary();

  /// Wipes a failed region (typically the old primary) and re-enrols it
  /// as an empty standby of the current primary; catch-up arrives via
  /// checkpoint + tail on the next pumps. Heals its control partition.
  Status RejoinAsFollower(const std::string& region);

  /// Partitions the shipping link to one standby region (or heals it).
  void SetLinkPartitioned(const std::string& region, bool partitioned);
  /// Partitions a region from the control plane: a primary so
  /// partitioned keeps serving but every ack is withheld (the zombie
  /// scenario's first half).
  void SetControlPartitioned(const std::string& region, bool partitioned);

  Version ReplicaAppliedVersion(const std::string& region) const;
  bool ReplicaHalted(const std::string& region) const;
  FencingService* fencing() { return &fencing_; }
  LogShipper::Stats ShipperStats(const std::string& region) const;
  ReplicaApplier::Stats ApplierStats(const std::string& region) const;

 private:
  struct Follower {
    std::unique_ptr<ReplicaApplier> applier;
    std::unique_ptr<ReplicationLink> link;
    std::unique_ptr<LogShipper> shipper;
  };

  int RegionIndex(const std::string& region) const;
  std::unique_ptr<Database> MakeRegionDatabase(int region, uint64_t epoch);
  Follower MakeFollower(int region, uint64_t epoch);
  /// Reads the failed region's directory (its durable log store) and
  /// applies everything up to `up_to` into `target` directly — the
  /// out-of-band catch-up path that bypasses the (possibly partitioned)
  /// link.
  Status DrainRegionDir(const std::string& from_dir, uint64_t old_epoch,
                        Version up_to, ReplicaApplier* target);
  void Emit(ReplicationEvent::Kind kind, const std::string& region,
            uint64_t epoch, Version version, std::string detail);

  const std::string name_;
  const ReplicationGroupOptions options_;
  FencingService fencing_;

  mutable std::mutex mu_;
  uint64_t epoch_ = 0;
  int primary_index_ = 0;
  std::unique_ptr<Database> primary_db_;
  std::map<int, Follower> followers_;
  /// Zombie primaries from past epochs, kept alive for stale client
  /// pointers; halted (or about to halt on their next fence refusal).
  std::vector<std::pair<int, std::unique_ptr<Database>>> retired_;
};

}  // namespace quick::fdb

#endif  // QUICK_FDB_REPLICATION_H_
