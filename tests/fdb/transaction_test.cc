#include "fdb/transaction.h"

#include <gtest/gtest.h>

#include "common/clock.h"
#include "fdb/database.h"
#include "fdb/retry.h"

namespace quick::fdb {
namespace {

class TransactionTest : public ::testing::Test {
 protected:
  TransactionTest() {
    Database::Options opts;
    opts.clock = &clock_;
    db_ = std::make_unique<Database>("test", opts);
  }

  void Put(const std::string& key, const std::string& value) {
    Transaction txn = db_->CreateTransaction();
    txn.Set(key, value);
    ASSERT_TRUE(txn.Commit().ok());
  }

  std::optional<std::string> ReadBack(const std::string& key) {
    Transaction txn = db_->CreateTransaction();
    auto r = txn.Get(key);
    EXPECT_TRUE(r.ok());
    return r.ok() ? *r : std::nullopt;
  }

  ManualClock clock_;
  std::unique_ptr<Database> db_;
};

TEST_F(TransactionTest, SetThenGetAfterCommit) {
  Put("k", "v");
  EXPECT_EQ(ReadBack("k").value(), "v");
}

TEST_F(TransactionTest, GetMissingKey) {
  EXPECT_FALSE(ReadBack("missing").has_value());
}

TEST_F(TransactionTest, ReadYourWrites) {
  Transaction txn = db_->CreateTransaction();
  txn.Set("k", "v");
  EXPECT_EQ(txn.Get("k").value().value(), "v");
  txn.Clear("k");
  EXPECT_FALSE(txn.Get("k").value().has_value());
}

TEST_F(TransactionTest, UncommittedWritesInvisibleToOthers) {
  Transaction writer = db_->CreateTransaction();
  writer.Set("k", "v");
  EXPECT_FALSE(ReadBack("k").has_value());
}

TEST_F(TransactionTest, SnapshotIsolationWithinTransaction) {
  Put("k", "v1");
  Transaction reader = db_->CreateTransaction();
  EXPECT_EQ(reader.Get("k").value().value(), "v1");
  Put("k", "v2");
  // Still sees the snapshot.
  EXPECT_EQ(reader.Get("k").value().value(), "v1");
}

TEST_F(TransactionTest, WriteWriteNoReadNoConflict) {
  // Blind writes never conflict: neither transaction read anything.
  Transaction t1 = db_->CreateTransaction();
  Transaction t2 = db_->CreateTransaction();
  t1.Set("k", "a");
  t2.Set("k", "b");
  EXPECT_TRUE(t1.Commit().ok());
  EXPECT_TRUE(t2.Commit().ok());
  EXPECT_EQ(ReadBack("k").value(), "b");
}

TEST_F(TransactionTest, ReadWriteConflictAborts) {
  Put("k", "v0");
  Transaction t1 = db_->CreateTransaction();
  ASSERT_TRUE(t1.Get("k").ok());  // read at old version
  t1.Set("out", "1");

  Put("k", "v1");  // concurrent commit overwrites what t1 read

  Status st = t1.Commit();
  EXPECT_TRUE(st.IsNotCommitted()) << st;
}

TEST_F(TransactionTest, SnapshotReadDoesNotConflict) {
  Put("k", "v0");
  Transaction t1 = db_->CreateTransaction();
  ASSERT_TRUE(t1.Get("k", /*snapshot=*/true).ok());
  t1.Set("out", "1");

  Put("k", "v1");

  EXPECT_TRUE(t1.Commit().ok());
}

TEST_F(TransactionTest, ConflictOnlyWhenRangesIntersect) {
  Put("a", "0");
  Put("b", "0");
  Transaction t1 = db_->CreateTransaction();
  ASSERT_TRUE(t1.Get("a").ok());
  t1.Set("a2", "x");

  Put("b", "1");  // writes a key t1 did not read

  EXPECT_TRUE(t1.Commit().ok());
}

TEST_F(TransactionTest, RangeReadConflictsWithInsertInRange) {
  Put("m1", "x");
  Transaction t1 = db_->CreateTransaction();
  ASSERT_TRUE(t1.GetRange(KeyRange{"m", "n"}).ok());
  t1.Set("out", "1");

  Put("m2", "new");  // insert into the scanned range

  EXPECT_TRUE(t1.Commit().IsNotCommitted());
}

TEST_F(TransactionTest, CommittedTransactionRejectsFurtherUse) {
  Transaction txn = db_->CreateTransaction();
  txn.Set("k", "v");
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(txn.Get("k").ok());
  EXPECT_FALSE(txn.Commit().ok());
}

TEST_F(TransactionTest, SecondCommitWithoutResetIsRejected) {
  Put("k", "v0");
  Transaction t1 = db_->CreateTransaction();
  ASSERT_TRUE(t1.Get("k").ok());
  t1.Set("out", "1");
  Put("k", "v1");
  ASSERT_TRUE(t1.Commit().IsNotCommitted());
  // The failed request took t1's conflict ranges with it: committing again
  // would resend none, so both commit paths refuse until a reset.
  EXPECT_EQ(t1.Commit().code(), StatusCode::kFailedPrecondition);
  Future<Status> again = t1.CommitAsync();
  EXPECT_EQ(again.Get().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(ReadBack("out").has_value());

  ASSERT_TRUE(t1.OnError(Status::NotCommitted()).ok());
  ASSERT_TRUE(t1.Get("k").ok());
  t1.Set("out", "2");
  EXPECT_TRUE(t1.Commit().ok());
  EXPECT_EQ(ReadBack("out").value(), "2");
}

TEST_F(TransactionTest, ReadAfterSubmitIsRejected) {
  Put("k", "v0");
  Transaction t1 = db_->CreateTransaction();
  ASSERT_TRUE(t1.Get("k").ok());
  t1.Set("out", "1");
  Put("k", "v1");
  ASSERT_TRUE(t1.Commit().IsNotCommitted());
  // The failed request took t1's write buffer with it, so a read could not
  // see t1's own writes: every read refuses until a reset.
  EXPECT_EQ(t1.Get("out").status().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(t1.Get("k", /*snapshot=*/true).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t1.GetRange(KeyRange::All()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t1.ScanRange(KeyRange::All(), RangeOptions{}, /*snapshot=*/false,
                         [](std::string_view, std::string_view) {
                           return true;
                         })
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t1.GetKey(KeySelector::FirstGreaterOrEqual("k")).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(t1.GetReadVersion().status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_TRUE(t1.OnError(Status::NotCommitted()).ok());
  EXPECT_EQ(t1.Get("k").value(), std::optional<std::string>("v1"));
  EXPECT_FALSE(t1.Get("out").value().has_value());
  t1.Set("out", "2");
  EXPECT_EQ(t1.Get("out").value(), std::optional<std::string>("2"));
  EXPECT_TRUE(t1.Commit().ok());
  EXPECT_EQ(ReadBack("out").value(), "2");
}

TEST_F(TransactionTest, RunTransactionRetriesAfterAConflict) {
  Put("k", "v0");
  int attempts = 0;
  Status st = RunTransaction(db_.get(), [&](Transaction& txn) -> Status {
    ++attempts;
    Result<std::optional<std::string>> read = txn.Get("k");
    if (!read.ok()) return read.status();
    // The first attempt's read is overwritten before it commits.
    if (attempts == 1) Put("k", "v1");
    txn.Set("out", read->value());
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st;
  EXPECT_EQ(attempts, 2);
  EXPECT_EQ(ReadBack("out").value(), "v1");
}

TEST_F(TransactionTest, ReadOnlyCommitIsNoOp) {
  Put("k", "v");
  Transaction txn = db_->CreateTransaction();
  ASSERT_TRUE(txn.Get("k").ok());
  const Version before = db_->LastCommittedVersion();
  EXPECT_TRUE(txn.Commit().ok());
  EXPECT_EQ(db_->LastCommittedVersion(), before);
}

TEST_F(TransactionTest, GetCommittedVersionAdvances) {
  Transaction t1 = db_->CreateTransaction();
  t1.Set("a", "1");
  ASSERT_TRUE(t1.Commit().ok());
  Transaction t2 = db_->CreateTransaction();
  t2.Set("b", "2");
  ASSERT_TRUE(t2.Commit().ok());
  EXPECT_GT(t2.GetCommittedVersion(), t1.GetCommittedVersion());
}

TEST_F(TransactionTest, ClearRangeRemovesCommittedKeys) {
  Put("a1", "1");
  Put("a2", "2");
  Put("b1", "3");
  Transaction txn = db_->CreateTransaction();
  txn.ClearRange(KeyRange::Prefix("a"));
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(ReadBack("a1").has_value());
  EXPECT_FALSE(ReadBack("a2").has_value());
  EXPECT_EQ(ReadBack("b1").value(), "3");
}

TEST_F(TransactionTest, ClearRangeThenSetWithinTransaction) {
  Put("a1", "old");
  Transaction txn = db_->CreateTransaction();
  txn.ClearRange(KeyRange::Prefix("a"));
  txn.Set("a1", "new");
  EXPECT_EQ(txn.Get("a1").value().value(), "new");
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(ReadBack("a1").value(), "new");
}

TEST_F(TransactionTest, SetThenClearRangeWithinTransaction) {
  Transaction txn = db_->CreateTransaction();
  txn.Set("a1", "v");
  txn.ClearRange(KeyRange::Prefix("a"));
  EXPECT_FALSE(txn.Get("a1").value().has_value());
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_FALSE(ReadBack("a1").has_value());
}

TEST_F(TransactionTest, GetRangeMergesWriteBuffer) {
  Put("b", "stored");
  Put("d", "stored");
  Transaction txn = db_->CreateTransaction();
  txn.Set("a", "buffered");
  txn.Set("d", "overridden");
  txn.Clear("b");
  auto kvs = txn.GetRange(KeyRange::All()).value();
  ASSERT_EQ(kvs.size(), 2u);
  EXPECT_EQ(kvs[0].key, "a");
  EXPECT_EQ(kvs[0].value, "buffered");
  EXPECT_EQ(kvs[1].key, "d");
  EXPECT_EQ(kvs[1].value, "overridden");
}

TEST_F(TransactionTest, GetRangeLimitWithWriteOverlay) {
  Put("a", "1");
  Put("c", "3");
  Transaction txn = db_->CreateTransaction();
  txn.Set("b", "2");
  RangeOptions opts;
  opts.limit = 2;
  auto kvs = txn.GetRange(KeyRange::All(), opts).value();
  ASSERT_EQ(kvs.size(), 2u);
  EXPECT_EQ(kvs[0].key, "a");
  EXPECT_EQ(kvs[1].key, "b");
}

TEST_F(TransactionTest, GetRangeReverseWithWriteOverlay) {
  Put("a", "1");
  Transaction txn = db_->CreateTransaction();
  txn.Set("z", "26");
  RangeOptions opts;
  opts.reverse = true;
  opts.limit = 1;
  auto kvs = txn.GetRange(KeyRange::All(), opts).value();
  ASSERT_EQ(kvs.size(), 1u);
  EXPECT_EQ(kvs[0].key, "z");
}

TEST_F(TransactionTest, AtomicAddNoConflictBetweenConcurrent) {
  Transaction t1 = db_->CreateTransaction();
  Transaction t2 = db_->CreateTransaction();
  t1.Atomic(AtomicOp::kAdd, "n", EncodeLittleEndian64(1));
  t2.Atomic(AtomicOp::kAdd, "n", EncodeLittleEndian64(2));
  EXPECT_TRUE(t1.Commit().ok());
  EXPECT_TRUE(t2.Commit().ok());
  EXPECT_EQ(DecodeLittleEndian64(ReadBack("n").value()), 3u);
}

TEST_F(TransactionTest, AtomicReadYourWritesComputesValue) {
  Put("n", EncodeLittleEndian64(10));
  Transaction txn = db_->CreateTransaction();
  txn.Atomic(AtomicOp::kAdd, "n", EncodeLittleEndian64(5));
  EXPECT_EQ(DecodeLittleEndian64(txn.Get("n").value().value()), 15u);
}

TEST_F(TransactionTest, AtomicAfterSetFoldsLocally) {
  Transaction txn = db_->CreateTransaction();
  txn.Set("n", EncodeLittleEndian64(10));
  txn.Atomic(AtomicOp::kAdd, "n", EncodeLittleEndian64(5));
  EXPECT_EQ(DecodeLittleEndian64(txn.Get("n").value().value()), 15u);
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(DecodeLittleEndian64(ReadBack("n").value()), 15u);
}

TEST_F(TransactionTest, AtomicAfterClearUsesEmptyBase) {
  Put("n", EncodeLittleEndian64(100));
  Transaction txn = db_->CreateTransaction();
  txn.Clear("n");
  txn.Atomic(AtomicOp::kAdd, "n", EncodeLittleEndian64(5));
  ASSERT_TRUE(txn.Commit().ok());
  EXPECT_EQ(DecodeLittleEndian64(ReadBack("n").value()), 5u);
}

TEST_F(TransactionTest, ExplicitWriteConflictMakesReaderAbort) {
  // The §6.1 pattern: a "read-only" enqueue declares a write conflict on an
  // index key; a concurrent consumer that read that key must abort.
  Put("idx", "pointer");

  Transaction consumer = db_->CreateTransaction();
  ASSERT_TRUE(consumer.Get("idx").ok());
  consumer.Set("consumer_out", "x");

  Transaction enqueue = db_->CreateTransaction();
  ASSERT_TRUE(enqueue.Get("idx", /*snapshot=*/true).ok());
  enqueue.AddWriteConflictKey("idx");
  ASSERT_TRUE(enqueue.Commit().ok());  // declared-write commit

  EXPECT_TRUE(consumer.Commit().IsNotCommitted());
}

TEST_F(TransactionTest, ExplicitWriteConflictCommitChecksOwnReads) {
  Put("idx", "pointer");
  Transaction enqueue = db_->CreateTransaction();
  ASSERT_TRUE(enqueue.Get("idx").ok());  // real read conflict
  enqueue.AddWriteConflictKey("idx");

  Put("idx", "changed");  // someone else wins

  EXPECT_TRUE(enqueue.Commit().IsNotCommitted());
}

TEST_F(TransactionTest, ExplicitReadConflictRange) {
  Transaction t1 = db_->CreateTransaction();
  ASSERT_TRUE(t1.GetReadVersion().ok());
  t1.AddReadConflictRange(KeyRange::Prefix("p"));
  t1.Set("out", "1");

  Put("p5", "x");

  EXPECT_TRUE(t1.Commit().IsNotCommitted());
}

TEST_F(TransactionTest, TransactionTooOldAfterTimeout) {
  Transaction txn = db_->CreateTransaction();
  ASSERT_TRUE(txn.Get("k").ok());
  clock_.AdvanceMillis(6000);  // beyond the 5s lifetime
  auto r = txn.Get("k2");
  EXPECT_EQ(r.status().code(), StatusCode::kTransactionTooOld);
  txn.Set("k3", "v");
  EXPECT_EQ(txn.Commit().code(), StatusCode::kTransactionTooOld);
}

TEST_F(TransactionTest, ResetRestoresUsability) {
  Transaction txn = db_->CreateTransaction();
  txn.Set("k", "v1");
  clock_.AdvanceMillis(6000);
  ASSERT_EQ(txn.Commit().code(), StatusCode::kTransactionTooOld);
  txn.Reset();
  txn.Set("k", "v2");
  EXPECT_TRUE(txn.Commit().ok());
  EXPECT_EQ(ReadBack("k").value(), "v2");
}

TEST_F(TransactionTest, TransactionTooLarge) {
  Database::Options opts;
  opts.clock = &clock_;
  opts.max_transaction_bytes = 100;
  Database small("small", opts);
  Transaction txn = small.CreateTransaction();
  txn.Set("k", std::string(200, 'x'));
  EXPECT_EQ(txn.Commit().code(), StatusCode::kTransactionTooLarge);
}

TEST_F(TransactionTest, PerTransactionSizeLimitOverride) {
  TransactionOptions topts;
  topts.size_limit_bytes = 10;
  Transaction txn = db_->CreateTransaction(topts);
  txn.Set("key", "a-longer-value");
  EXPECT_EQ(txn.Commit().code(), StatusCode::kTransactionTooLarge);
}

TEST_F(TransactionTest, SetReadVersionPinsSnapshot) {
  Put("k", "v1");
  const Version pinned = db_->LastCommittedVersion();
  Put("k", "v2");
  Transaction txn = db_->CreateTransaction();
  txn.SetReadVersion(pinned);
  EXPECT_EQ(txn.Get("k").value().value(), "v1");
}

TEST_F(TransactionTest, CachedReadVersionMayBeStale) {
  Put("k", "v1");
  // Seed the GRV cache.
  {
    Transaction txn = db_->CreateTransaction();
    ASSERT_TRUE(txn.GetReadVersion().ok());
  }
  Put("k", "v2");
  TransactionOptions topts;
  topts.use_cached_read_version = true;
  Transaction stale = db_->CreateTransaction(topts);
  EXPECT_EQ(stale.Get("k").value().value(), "v1");

  // After the staleness window expires, a fresh version is fetched.
  clock_.AdvanceMillis(db_->options().grv_cache_staleness_millis + 1);
  Transaction fresh = db_->CreateTransaction(topts);
  EXPECT_EQ(fresh.Get("k").value().value(), "v2");
}

TEST_F(TransactionTest, CachedVersionReadWriteStillSerializable) {
  Put("k", "v1");
  {
    Transaction txn = db_->CreateTransaction();
    ASSERT_TRUE(txn.GetReadVersion().ok());
  }
  Put("k", "v2");
  TransactionOptions topts;
  topts.use_cached_read_version = true;
  Transaction rw = db_->CreateTransaction(topts);
  ASSERT_TRUE(rw.Get("k").ok());  // stale read of v1
  rw.Set("out", "derived");
  // Must abort: the value it read was overwritten after its read version.
  EXPECT_TRUE(rw.Commit().IsNotCommitted());
}

TEST_F(TransactionTest, OnErrorRetryableResets) {
  Transaction txn = db_->CreateTransaction();
  txn.Set("k", "v");
  Status st = txn.OnError(Status::NotCommitted());
  EXPECT_TRUE(st.ok());
  // After reset the buffered write is gone.
  EXPECT_TRUE(txn.Commit().ok());  // no-op commit
  EXPECT_FALSE(ReadBack("k").has_value());
}

TEST_F(TransactionTest, OnErrorNonRetryableSurfaces) {
  Transaction txn = db_->CreateTransaction();
  Status st = txn.OnError(Status::InvalidArgument("bad"));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace quick::fdb
