#include "reclayer/online_index_builder.h"

#include <algorithm>

#include "common/bytes.h"
#include "fdb/retry.h"

namespace quick::rl {

namespace {
// Resume cursor for an interrupted build, stored next to the state record.
std::string CursorKey(const RecordStore& store, const std::string& index) {
  return store.IndexStateKey(index) + "\x00cursor";
}
}  // namespace

OnlineIndexBuilder::OnlineIndexBuilder(fdb::Database* db,
                                       tup::Subspace store_subspace,
                                       const RecordMetadata* metadata,
                                       std::string index_name)
    : OnlineIndexBuilder(db, std::move(store_subspace), metadata,
                         std::move(index_name), Options{}) {}

OnlineIndexBuilder::OnlineIndexBuilder(fdb::Database* db,
                                       tup::Subspace store_subspace,
                                       const RecordMetadata* metadata,
                                       std::string index_name, Options options)
    : db_(db),
      store_subspace_(std::move(store_subspace)),
      metadata_(metadata),
      index_name_(std::move(index_name)),
      options_(options) {}

Status OnlineIndexBuilder::SetState(IndexState state) {
  return fdb::RunTransaction(db_, [&](fdb::Transaction& txn) {
    RecordStore store(&txn, store_subspace_, metadata_);
    if (state == IndexState::kReadable) {
      txn.Clear(store.IndexStateKey(index_name_));
      txn.Clear(CursorKey(store, index_name_));
    } else {
      txn.Set(store.IndexStateKey(index_name_),
              EncodeLittleEndian64(static_cast<uint64_t>(state)));
    }
    return Status::OK();
  });
}

Status OnlineIndexBuilder::MarkWriteOnly() {
  const IndexDef* index = metadata_->FindIndex(index_name_);
  if (index == nullptr) {
    return Status::InvalidArgument("unknown index " + index_name_);
  }
  if (index->kind != IndexKind::kValue) {
    return Status::InvalidArgument(
        "online build supports value indexes only");
  }
  return SetState(IndexState::kWriteOnly);
}

Status OnlineIndexBuilder::Build() {
  const IndexDef* index = metadata_->FindIndex(index_name_);
  if (index == nullptr) {
    return Status::InvalidArgument("unknown index " + index_name_);
  }
  if (index->kind != IndexKind::kValue) {
    return Status::InvalidArgument(
        "online build supports value indexes only");
  }

  // Batched backfill with a persisted resume cursor. Every batch is its
  // own transaction: it conflicts on the page of records it reads (so
  // concurrent updates to them abort and retry the batch) and writes their
  // entries. The page adapts to contention, as the Record Layer's online
  // indexer does: a batch retried after losing to concurrent writers reads
  // half as many records (down to one), and each committed batch lets the
  // next grow back toward options_.batch_size.
  int limit = std::max(options_.batch_size, 1);
  while (true) {
    bool done = false;
    bool retried = false;
    Status st = fdb::RunTransaction(db_, [&](fdb::Transaction& txn) {
      if (retried) limit = std::max(limit / 2, 1);
      retried = true;
      RecordStore store(&txn, store_subspace_, metadata_);
      QUICK_ASSIGN_OR_RETURN(std::optional<std::string> cursor_bytes,
                             txn.Get(CursorKey(store, index_name_)));
      std::optional<tup::Tuple> cursor;
      if (cursor_bytes.has_value()) {
        QUICK_ASSIGN_OR_RETURN(tup::Tuple t,
                               tup::Tuple::Decode(*cursor_bytes));
        cursor = std::move(t);
      }
      QUICK_ASSIGN_OR_RETURN(std::vector<StoredRecord> page,
                             store.ScanRecordsPage(cursor, limit));
      for (const StoredRecord& row : page) {
        QUICK_RETURN_IF_ERROR(
            store.BackfillIndexEntry(index_name_, row.record));
      }
      done = static_cast<int>(page.size()) < limit;
      if (!page.empty()) {
        txn.Set(CursorKey(store, index_name_),
                page.back().primary_key.Encode());
      }
      return Status::OK();
    });
    QUICK_RETURN_IF_ERROR(st);
    if (done) break;
    limit = std::min(limit * 2, std::max(options_.batch_size, 1));
  }
  return SetState(IndexState::kReadable);
}

Result<IndexState> OnlineIndexBuilder::GetIndexState(
    fdb::Transaction* txn, const tup::Subspace& store_subspace,
    const std::string& index_name) {
  // The state key needs no metadata, so a store opened without it names
  // it.
  const RecordStore store(txn, store_subspace, /*metadata=*/nullptr);
  QUICK_ASSIGN_OR_RETURN(
      std::optional<std::string> state,
      txn->Get(store.IndexStateKey(index_name), /*snapshot=*/true));
  if (!state.has_value()) return IndexState::kReadable;
  return static_cast<IndexState>(DecodeLittleEndian64(*state));
}

}  // namespace quick::rl
