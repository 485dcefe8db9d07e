#ifndef QUICK_FDB_TRANSACTION_H_
#define QUICK_FDB_TRANSACTION_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/status.h"
#include "fdb/future.h"
#include "fdb/types.h"
#include "fdb/versioned_store.h"

namespace quick::fdb {

class Database;

/// What a commit submits to the cluster's group-commit pipeline: the
/// resolver inputs plus the mutations to apply. Built by the transaction
/// layer (shared by the blocking and async commit paths).
struct CommitRequest {
  Version read_version = kInvalidVersion;
  std::vector<KeyRange> read_conflicts;
  std::vector<KeyRange> write_conflicts;
  std::vector<Mutation> mutations;
};

/// What a successful commit learns: the storage version shared by the whole
/// commit batch plus this transaction's order within it — together the
/// transaction's versionstamp.
struct CommitOutcome {
  Version version = kInvalidVersion;
  uint16_t batch_order = 0;
};

/// Backoff schedule for transaction retries, shared by the blocking
/// Transaction::OnError sleep and the async runner's scheduled re-arm
/// (RunTransactionAsync), so both paths pace identically.
inline constexpr int64_t kTxnBackoffInitialMillis = 2;
inline constexpr int64_t kTxnBackoffMaxMillis = 1000;

/// A FoundationDB-style transaction: reads observe a snapshot at the
/// transaction's read version (with read-your-writes over the local write
/// buffer); writes are buffered and submitted atomically at Commit(), where
/// the cluster's resolver checks the accumulated read conflict ranges
/// against writes committed after the read version — strict serializability
/// via optimistic concurrency (§4 of the paper).
///
/// Not thread-safe; a transaction belongs to one thread. Movable.
class Transaction {
 public:
  explicit Transaction(Database* db, TransactionOptions options = {});

  Transaction(Transaction&&) = default;
  Transaction& operator=(Transaction&&) = default;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  /// Point read. `snapshot` reads skip the read conflict range
  /// (FoundationDB snapshot isolation reads — never cause this transaction
  /// to abort on behalf of this key).
  Result<std::optional<std::string>> Get(const std::string& key,
                                         bool snapshot = false);

  /// Streaming range read over [range.begin, range.end), merged with the
  /// write buffer in one ordered pass over the cluster's version chains:
  /// `sink` receives each live pair in scan order (reverse order when
  /// options.reverse) and returns false to stop; options.limit stops it
  /// too. The views are valid only during the call, and the sink must not
  /// use this transaction. Unless `snapshot`, the read conflict covers the
  /// keys the scan read: a scan that a limit or the sink ended early
  /// conflicts on [range.begin, KeyAfter(last key)) forward and
  /// [last key, range.end) in reverse, one that reached the end of its
  /// range on the whole range (FoundationDB's rule).
  Status ScanRange(const KeyRange& range, const RangeOptions& options,
                   bool snapshot, const RangeSink& sink);

  /// Range read collecting ScanRange's pairs (same conflict rule).
  Result<std::vector<KeyValue>> GetRange(const KeyRange& range,
                                         const RangeOptions& options = {},
                                         bool snapshot = false);

  /// Resolves a key selector against the snapshot (merged with the write
  /// buffer); nullopt when no key satisfies it. Adds a read conflict on
  /// the keys inspected unless `snapshot` (a limited GetRange).
  Result<std::optional<std::string>> GetKey(const KeySelector& selector,
                                            bool snapshot = false);

  /// Range read with selector endpoints, as in the FoundationDB API.
  Result<std::vector<KeyValue>> GetRangeSelector(const KeySelector& begin,
                                                 const KeySelector& end,
                                                 const RangeOptions& options = {},
                                                 bool snapshot = false);

  void Set(const std::string& key, const std::string& value);
  void Clear(const std::string& key);
  void ClearRange(const KeyRange& range);

  /// Atomic read-modify-write: adds a write conflict but no read conflict,
  /// so concurrent atomics on one key never abort each other.
  void Atomic(AtomicOp op, const std::string& key, const std::string& operand);

  /// Writes `value` under key = prefix + <10-byte versionstamp> + suffix,
  /// where the stamp is the commit version (FoundationDB's
  /// SET_VERSIONSTAMPED_KEY). Keys written this way sort in commit order —
  /// the mechanism behind Record Layer VERSION indexes and the paper's §5
  /// suggestion for strict-FIFO queue ordering. The final key is unknown
  /// until commit, so these writes are invisible to read-your-writes.
  void SetVersionstampedKey(const std::string& prefix,
                            const std::string& suffix,
                            const std::string& value);

  /// Writes value = prefix + <10-byte versionstamp> under `key`.
  void SetVersionstampedValue(const std::string& key,
                              const std::string& value_prefix);

  /// The versionstamp assigned to this transaction's writes (commit
  /// version + group-commit batch order); only valid after a successful
  /// Commit of a transaction that wrote data.
  Result<std::string> GetVersionstamp() const;

  /// Explicit conflict ranges. AddWriteConflictKey on an index key is the
  /// §6.1 technique: it makes an otherwise read-only transaction behave as
  /// a writer at resolution time without writing any data.
  void AddReadConflictRange(const KeyRange& range);
  void AddReadConflictKey(const std::string& key);
  void AddWriteConflictRange(const KeyRange& range);
  void AddWriteConflictKey(const std::string& key);

  /// Submits the transaction. OK, or kNotCommitted on conflict,
  /// kTransactionTooOld / kTransactionTooLarge / kCommitUnknownResult /
  /// kUnavailable as applicable. After a failed Commit the transaction must
  /// be Reset (normally via OnError) before reuse: the submitted request
  /// took its write buffer and conflict ranges, so until a Reset, reads
  /// (Get, ScanRange, GetKey, GetReadVersion and the calls built on them)
  /// and a second commit fail kFailedPrecondition.
  Status Commit();

  /// Non-blocking commit: builds the same request as Commit() and enqueues
  /// it into the cluster's group-commit pipeline without parking this
  /// thread for the replication round. The future completes — possibly on
  /// the cluster's commit-pump thread — with OK or the same error codes
  /// Commit() returns; continuations that do real work should re-post onto
  /// an Executor. The transaction must outlive the future's completion.
  /// Validation errors (too large, already committed or submitted)
  /// complete the future immediately.
  Future<Status> CommitAsync();

  /// Version assigned by a successful Commit; kInvalidVersion otherwise.
  Version GetCommittedVersion() const { return committed_version_; }

  /// The snapshot version reads run at; acquired lazily on first read (or
  /// taken from the cluster's cache per TransactionOptions).
  Result<Version> GetReadVersion();

  /// Pins the read version explicitly (FoundationDB's setReadVersion);
  /// used to reuse a version across transactions within the 5s window.
  void SetReadVersion(Version v) { read_version_ = v; }

  /// Standard FDB retry helper: for retryable errors, backs off and resets
  /// the transaction, returning OK so the caller loops; otherwise returns
  /// the error.
  Status OnError(const Status& error);

  /// Non-blocking half of OnError for async retry loops: classifies
  /// `error` and, when retryable, resets the transaction and returns the
  /// jittered backoff delay (millis) the caller should wait — by
  /// scheduling a re-arm, never by sleeping — before re-executing.
  /// nullopt means not retryable (surface the error).
  std::optional<int64_t> PrepareRetry(const Status& error);

  /// Clears all buffered state; the transaction can be reused.
  void Reset();

  /// Approximate byte footprint of buffered mutations (size-limit input).
  int64_t Size() const { return approx_size_; }

  Database* database() const { return db_; }
  const TransactionOptions& options() const { return options_; }

 private:
  struct WriteEntry {
    enum class Kind { kSet, kClear, kAtomicChain };
    Kind kind = Kind::kSet;
    std::string set_value;
    std::vector<std::pair<AtomicOp, std::string>> atomics;
    bool base_cleared = false;
  };

  /// Returns the transaction-local view of `key` if the write buffer fully
  /// determines it (set or cleared); nullptr when storage must be
  /// consulted.
  enum class LocalView { kUnknown, kSet, kCleared, kAtomic };
  LocalView ClassifyLocal(const std::string& key,
                          const WriteEntry** entry) const;

  bool CoveredByClearedRange(std::string_view key) const;
  Status CheckUsable();
  Result<Version> EnsureReadVersion();

  /// Shared by Commit and CommitAsync: validation plus mutation assembly.
  /// Returns false for a read-only no-op commit (the transaction is marked
  /// committed and `out` is untouched); true when `out` must be submitted,
  /// with the conflict lists and the buffered writes moved into it (the
  /// transaction is then marked submitted until Reset).
  Result<bool> BuildCommitRequest(CommitRequest* out);
  /// Records a successful submission's versionstamp.
  void ApplyCommitOutcome(const CommitOutcome& outcome);

  Database* db_;
  TransactionOptions options_;
  int64_t start_millis_;
  Version read_version_ = kInvalidVersion;
  Version committed_version_ = kInvalidVersion;
  uint16_t committed_batch_order_ = 0;
  bool committed_ = false;
  bool submitted_ = false;  // a request was built since the last Reset

  std::map<std::string, WriteEntry> writes_;
  std::vector<Mutation> versionstamped_;
  std::vector<KeyRange> cleared_ranges_;
  std::vector<KeyRange> read_conflicts_;
  std::vector<KeyRange> write_conflicts_;
  int64_t approx_size_ = 0;
  int retry_attempt_ = 0;
};

}  // namespace quick::fdb

#endif  // QUICK_FDB_TRANSACTION_H_
