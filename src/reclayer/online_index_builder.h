#ifndef QUICK_RECLAYER_ONLINE_INDEX_BUILDER_H_
#define QUICK_RECLAYER_ONLINE_INDEX_BUILDER_H_

#include <string>

#include "fdb/database.h"
#include "reclayer/record_store.h"

namespace quick::rl {

/// Lifecycle state of an index within one record store. Indexes absent
/// from the state table are readable (the common, fully-built case).
enum class IndexState : int64_t {
  kReadable = 0,
  /// Maintained by writes but not yet backfilled: scans are rejected.
  kWriteOnly = 1,
};

/// Backfills a newly added index over a store's existing records — the
/// Record Layer's online indexer, and the very job the paper's first
/// motivating example defers to QuiCK ("Create or drop indexes ... when an
/// app's schema is updated", §1; "failing to build a FoundationDB Record
/// Layer index may cause client requests requiring the index to fail",
/// §2).
///
/// Protocol:
///   1. Add the IndexDef to the store's metadata and call MarkWriteOnly —
///      from now on every SaveRecord/DeleteRecord maintains the index, but
///      scans are rejected.
///   2. Call Build: scans existing records in batches (each batch its own
///      transaction with a resume cursor), writing the missing entries.
///      Concurrent record updates are safe: a batch conflicts on the
///      records it indexes, so a racing update aborts the batch, which
///      retries with a smaller page.
///   3. Build finishes by marking the index readable.
///
/// Build is resumable and idempotent — exactly what at-least-once QuiCK
/// work items need (§2).
class OnlineIndexBuilder {
 public:
  struct Options {
    /// Records per batch; a retried batch halves it, down to one.
    int batch_size = 64;
  };

  OnlineIndexBuilder(fdb::Database* db, tup::Subspace store_subspace,
                     const RecordMetadata* metadata, std::string index_name);
  OnlineIndexBuilder(fdb::Database* db, tup::Subspace store_subspace,
                     const RecordMetadata* metadata, std::string index_name,
                     Options options);

  /// Step 1: declares the index write-only.
  Status MarkWriteOnly();

  /// Steps 2+3: backfills all existing records and marks the index
  /// readable. Safe to re-run after interruption.
  Status Build();

  /// Reads the current state of any index in a store.
  static Result<IndexState> GetIndexState(fdb::Transaction* txn,
                                          const tup::Subspace& store_subspace,
                                          const std::string& index_name);

 private:
  Status SetState(IndexState state);

  fdb::Database* db_;
  tup::Subspace store_subspace_;
  const RecordMetadata* metadata_;
  std::string index_name_;
  Options options_;
};

}  // namespace quick::rl

#endif  // QUICK_RECLAYER_ONLINE_INDEX_BUILDER_H_
