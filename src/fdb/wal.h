#ifndef QUICK_FDB_WAL_H_
#define QUICK_FDB_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/file_io.h"
#include "common/metrics.h"
#include "common/result.h"
#include "fdb/fault_injector.h"
#include "fdb/types.h"
#include "fdb/versioned_store.h"

namespace quick::fdb {

/// Write-ahead log behind the group-commit pipeline (DESIGN.md §9).
///
/// The baton-passing commit leader already serializes each batch, so the
/// WAL's unit of durability is one batch: all accepted members of a commit
/// batch — their mutations and intra-batch orders — are framed as a single
/// log record at the batch's commit version, appended and fsynced before
/// any member's commit is acknowledged (invariant 15: no ack before
/// fsync).
///
/// Record framing (kvslite-style: prev-pointer, sizes, tombstone bit, plus
/// CRC32C and the commit version; fixed 32-byte header):
///
///   u32 magic        'QWAL'
///   u32 crc          CRC-32C of header-after-this-field + payload
///   u64 prev_offset  file offset of the previous record's header in this
///                    segment (kNoPrevOffset for the segment's first)
///   u64 version      the batch's commit version
///   u32 payload_size
///   u16 flags        bit 0: the batch contains only clears (tombstone-only)
///   u16 member_count accepted members framed in the payload
///
/// The log is segmented: one `WAL-<seq>.log` per checkpoint epoch. A
/// checkpoint rolls to a fresh segment and deletes every closed segment
/// whose last record is at or below the checkpoint version; recovery
/// replays the surviving segments in sequence order.
///
/// Scheduled disk faults (fdb::DiskFault, threaded through the cluster's
/// FaultInjector) fire inside Append: a torn write persists only a prefix
/// of the record, a checksum corruption flips a byte on the way down, an
/// fsync stall sleeps on the cluster Clock. Torn writes and corruptions
/// are fatal — the WAL goes dead, modelling the process dying mid-write;
/// the Database turns a dead WAL into kUnavailable everywhere until a new
/// Database recovers from the directory.

inline constexpr uint32_t kWalMagic = 0x5157414Cu;  // 'QWAL'
inline constexpr uint64_t kNoPrevOffset = ~0ull;
inline constexpr size_t kWalHeaderSize = 32;
inline constexpr uint16_t kWalFlagTombstoneOnly = 1u << 0;

/// One commit batch as framed in (or decoded from) a WAL record.
struct WalBatch {
  struct Member {
    uint16_t batch_order = 0;
    std::vector<Mutation> mutations;
  };
  Version version = 0;
  std::vector<Member> members;
};

/// Zero-copy view of a batch being appended: mutation vectors stay owned
/// by the pending commits while the leader frames the record.
struct WalBatchRef {
  Version version = 0;
  std::vector<std::pair<uint16_t, const std::vector<Mutation>*>> members;
};

/// Serializes `batch` into one framed record (header + payload), with
/// `prev_offset` stitched into the header.
std::string EncodeWalRecord(const WalBatchRef& batch, uint64_t prev_offset);

/// Decodes the record starting at `data[offset]`. Returns the decoded
/// batch and advances `*offset` past it; kInvalidArgument when the bytes
/// at `offset` do not form a complete, CRC-valid record (the torn/corrupt
/// suffix signal recovery truncates on).
Result<WalBatch> DecodeWalRecord(std::string_view data, size_t* offset);

/// Segment file name for `seq` ("WAL-%016llx.log"); parse is the inverse.
std::string WalSegmentName(uint64_t seq);
bool ParseWalSegmentName(const std::string& name, uint64_t* seq);

/// Sequential decoder over one WAL segment's bytes: the single framing
/// reader shared by recovery replay (ReplayWalDir) and the replication
/// log shipper. Next() yields each CRC-valid record together with its raw
/// framed bytes (what the shipper forwards verbatim) and header offset;
/// decoding stops at the first invalid record — a torn tail, checksum
/// mismatch, or bad magic — which status() reports and offset() locates.
class SegmentReader {
 public:
  struct Record {
    WalBatch batch;
    /// Header offset within the segment bytes.
    uint64_t offset = 0;
    /// The complete framed record (header + payload), CRC-valid as-is.
    std::string_view raw;
  };

  explicit SegmentReader(std::string_view data) : data_(data) {}

  /// Decodes the next record into `out`. False at a clean end of data or
  /// at the first invalid record; status() distinguishes the two.
  bool Next(Record* out);

  /// OK while every byte so far framed cleanly (including a clean end);
  /// otherwise the decode error of the record that stopped the reader.
  const Status& status() const { return status_; }

  /// Offset of the first undecoded byte (the invalid record's start after
  /// a failed Next — the truncation point recovery chops at).
  size_t offset() const { return offset_; }

 private:
  std::string_view data_;
  size_t offset_ = 0;
  Status status_ = Status::OK();
};

/// The WAL's counters, named once (common/metrics.h's declare-once lists);
/// Database::Stats carries each as wal_<name>.
#define QUICK_FDB_WAL_COUNTERS(X)                                     \
  X(appends)                                                          \
  X(appended_bytes)                                                   \
  X(syncs)                                                            \
  /* SyncTo calls satisfied by another caller's fsync (group fsync    \
     coalescing: one fsync covers every batch appended behind it). */ \
  X(fsyncs_coalesced)                                                 \
  X(segments_created)                                                 \
  X(segments_deleted)

class Wal {
 public:
  struct Stats {
    QUICK_FDB_WAL_COUNTERS(QUICK_STAT_FIELD)
  };

  /// `dir` must exist. `start_seq` must exceed every existing segment's
  /// sequence number (recovery reports the max it saw).
  /// `segment_max_versions` carries the last version in each surviving
  /// pre-existing segment, so checkpoints can retire them.
  Wal(std::string dir, uint64_t start_seq, FaultInjector* faults,
      Clock* clock,
      std::vector<std::pair<uint64_t, Version>> segment_max_versions = {});

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Opens the initial segment.
  Status Open();

  /// Appends `batch` as one framed record WITHOUT forcing it to stable
  /// storage; returns the log end position to hand to SyncTo. Callers are
  /// serialized by the group-commit baton, so records land in version
  /// order. Fatal injected faults (torn write, corruption) fire here and
  /// mark the WAL dead; an injected fsync stall is stashed for the sync
  /// that covers this append.
  Result<uint64_t> AppendBatch(const WalBatchRef& batch);

  /// Blocks until every byte appended at or below `end` is fsynced — the
  /// durability point of the batch. One fsync covers all batches queued
  /// behind it: the syncing caller grabs the log end immediately before
  /// the fsync, so concurrent appends ride along, and a caller whose
  /// `end` is already covered returns without issuing its own fsync
  /// (counted in Stats::fsyncs_coalesced and the
  /// `fdb.wal.fsyncs_coalesced` metric). Non-OK means the WAL died; the
  /// batch must NOT be acknowledged.
  Status SyncTo(uint64_t end);

  /// AppendBatch + SyncTo in one call (the unpipelined path; tests and
  /// single-writer callers).
  Status AppendBatchAndSync(const WalBatchRef& batch);

  /// Starts a new segment and deletes every closed segment whose records
  /// all sit at or below `checkpoint_version` (their state is covered by
  /// the checkpoint). Called by Database::Checkpoint after the checkpoint
  /// file is durable.
  Status RollSegment(Version checkpoint_version);

  /// True after a fatal disk fault or I/O error: the simulated process
  /// died mid-write. No further appends are accepted.
  bool dead() const { return dead_.load(std::memory_order_acquire); }

  /// Bytes appended to the current segment since the last roll (the
  /// checkpoint auto-trigger reads this).
  int64_t CurrentSegmentBytes() const {
    return current_segment_bytes_.load(std::memory_order_relaxed);
  }

  Stats GetStats() const { return stats_.Read(); }

 private:
  Status OpenSegmentLocked();

  const std::string dir_;
  FaultInjector* const faults_;
  Clock* const clock_;
  Counter* const coalesced_counter_;

  mutable std::mutex mu_;
  AppendFile file_;
  uint64_t seq_;
  uint64_t prev_offset_ = kNoPrevOffset;
  Version current_max_version_ = 0;
  /// Closed segments (seq -> last version framed in them).
  std::map<uint64_t, Version> closed_segments_;

  /// Group-fsync coordination (guarded by mu_): appended/synced ends are
  /// cumulative over the WAL's lifetime so they stay monotonic across
  /// segment rolls; `syncing_` marks the one fsync in flight (issued with
  /// mu_ released so appends pipeline behind it).
  std::condition_variable sync_cv_;
  bool syncing_ = false;
  uint64_t appended_end_ = 0;
  uint64_t synced_end_ = 0;
  /// Injected fsync-stall milliseconds consumed at append time, paid by
  /// the next sync (so stalled batches coalesce deterministically).
  int64_t pending_stall_millis_ = 0;

  std::atomic<bool> dead_{false};
  std::atomic<int64_t> current_segment_bytes_{0};

  QUICK_LIVE_COUNTERS(QUICK_FDB_WAL_COUNTERS, Stats) stats_;
};

/// Per-segment outcome of a replay pass (diagnostics + Wal seeding).
struct WalReplayResult {
  /// Highest version applied (0 when nothing was replayed; callers max
  /// this with the checkpoint version for the exact durable version).
  Version last_version = 0;
  int64_t records_applied = 0;
  int64_t records_skipped = 0;  // at or below from_version (already in ckpt)
  int64_t segments_scanned = 0;
  /// Bytes chopped off the first invalid record onward (torn/corrupt
  /// suffix), plus whole later segments deleted with it.
  int64_t truncated_bytes = 0;
  bool truncated = false;
  uint64_t max_segment_seq = 0;
  /// Last version per surviving segment, for Wal retirement bookkeeping.
  std::vector<std::pair<uint64_t, Version>> segment_max_versions;
};

/// Replays every WAL segment under `dir` in sequence order, invoking
/// `apply` for each CRC-valid record with version > `from_version`
/// (records at or below it are already covered by the checkpoint and are
/// skipped — replay is idempotent across repeated recoveries).
///
/// The first invalid record — torn tail, checksum mismatch, bad magic —
/// ends the replay: the segment is truncated at that offset and any later
/// segments are deleted, so the recovered prefix is exactly the durable
/// prefix and a re-recovery sees the same state. A missing directory
/// replays nothing.
Result<WalReplayResult> ReplayWalDir(
    const std::string& dir, Version from_version,
    const std::function<Status(const WalBatch&)>& apply);

}  // namespace quick::fdb

#endif  // QUICK_FDB_WAL_H_
