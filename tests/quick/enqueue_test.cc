#include <gtest/gtest.h>

#include "fdb/retry.h"
#include "quick/quick.h"

namespace quick::core {
namespace {

class EnqueueTest : public ::testing::Test {
 protected:
  EnqueueTest() {
    fdb::Database::Options opts;
    opts.clock = &clock_;
    clusters_ = std::make_unique<fdb::ClusterSet>(opts);
    clusters_->AddCluster("c1");
    ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(), &clock_);
    quick_ = std::make_unique<Quick>(ck_.get());
  }

  /// Loads the pointer for `db_id`'s queue zone, if any.
  std::optional<ck::QueuedItem> LoadPointer(const ck::DatabaseId& db_id) {
    const ck::DatabaseRef db = ck_->OpenDatabase(db_id);
    const ck::DatabaseRef cluster_db = ck_->OpenClusterDb(db.cluster->name());
    std::optional<ck::QueuedItem> out;
    Status st = fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
      ck::QueueZone top = quick_->OpenTopZone(cluster_db, &txn);
      Pointer p{db_id, quick_->config().queue_zone_name};
      QUICK_ASSIGN_OR_RETURN(out, top.Load(p.Key()));
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st;
    return out;
  }

  ManualClock clock_{100000};
  std::unique_ptr<fdb::ClusterSet> clusters_;
  std::unique_ptr<ck::CloudKitService> ck_;
  std::unique_ptr<Quick> quick_;
};

TEST_F(EnqueueTest, EnqueueStoresItemAndCreatesPointer) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "push";
  item.payload = "hello";
  auto id = quick_->Enqueue(db, item, /*delay=*/0);
  ASSERT_TRUE(id.ok()) << id.status();

  EXPECT_EQ(quick_->PendingCount(db).value(), 1);
  std::optional<ck::QueuedItem> pointer = LoadPointer(db);
  ASSERT_TRUE(pointer.has_value());
  EXPECT_EQ(pointer->job_type, ck::kPointerJobType);
  EXPECT_EQ(pointer->vesting_time, clock_.NowMillis());
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);
}

TEST_F(EnqueueTest, SecondEnqueueReusesPointer) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "push";
  ASSERT_TRUE(quick_->Enqueue(db, item, 0).ok());
  ASSERT_TRUE(quick_->Enqueue(db, item, 0).ok());
  EXPECT_EQ(quick_->PendingCount(db).value(), 2);
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);  // still one pointer
}

TEST_F(EnqueueTest, DistinctTenantsGetDistinctPointers) {
  WorkItem item;
  item.job_type = "push";
  ASSERT_TRUE(quick_->Enqueue(ck::DatabaseId::Private("app", "u1"), item, 0).ok());
  ASSERT_TRUE(quick_->Enqueue(ck::DatabaseId::Private("app", "u2"), item, 0).ok());
  ASSERT_TRUE(quick_->Enqueue(ck::DatabaseId::Public("app"), item, 0).ok());
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 3);
}

TEST_F(EnqueueTest, DelayedItemDelaysNewPointer) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "push";
  ASSERT_TRUE(quick_->Enqueue(db, item, /*delay=*/5000).ok());
  std::optional<ck::QueuedItem> pointer = LoadPointer(db);
  ASSERT_TRUE(pointer.has_value());
  EXPECT_EQ(pointer->vesting_time, clock_.NowMillis() + 5000);
}

TEST_F(EnqueueTest, FollowUpLowersPointerVesting) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "push";
  // Pointer created vesting far in the future.
  ASSERT_TRUE(quick_->Enqueue(db, item, /*delay=*/60000).ok());
  ASSERT_EQ(LoadPointer(db)->vesting_time, clock_.NowMillis() + 60000);

  // A sooner item triggers part two: the pointer's vesting drops.
  ASSERT_TRUE(quick_->Enqueue(db, item, /*delay=*/1000).ok());
  EXPECT_EQ(LoadPointer(db)->vesting_time, clock_.NowMillis() + 1000);
}

TEST_F(EnqueueTest, FollowUpSkippedWithinSlack) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "push";
  ASSERT_TRUE(quick_->Enqueue(db, item, /*delay=*/1500).ok());
  const int64_t vesting_before = LoadPointer(db)->vesting_time;
  // New item vests 500ms sooner — within the 1s slack, not worth a write.
  ASSERT_TRUE(quick_->Enqueue(db, item, /*delay=*/1000).ok());
  EXPECT_EQ(LoadPointer(db)->vesting_time, vesting_before);
}

TEST_F(EnqueueTest, FollowUpSkippedWhenPointerLeased) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "push";
  ASSERT_TRUE(quick_->Enqueue(db, item, /*delay=*/60000).ok());

  // A consumer leases the pointer.
  const ck::DatabaseRef ref = ck_->OpenDatabase(db);
  const ck::DatabaseRef cluster_db = ck_->OpenClusterDb("c1");
  Pointer p{db, quick_->config().queue_zone_name};
  // First make the pointer vested so a lease is possible.
  ASSERT_TRUE(fdb::RunTransaction(ref.cluster, [&](fdb::Transaction& txn) {
                ck::QueueZone top = quick_->OpenTopZone(cluster_db, &txn);
                return top.Requeue(p.Key(), 0, false);
              }).ok());
  std::string lease;
  ASSERT_TRUE(fdb::RunTransaction(ref.cluster, [&](fdb::Transaction& txn) {
                ck::QueueZone top = quick_->OpenTopZone(cluster_db, &txn);
                auto l = top.ObtainLease(p.Key(), 10000);
                QUICK_RETURN_IF_ERROR(l.status());
                lease = *l;
                return Status::OK();
              }).ok());
  const int64_t leased_vesting = LoadPointer(db)->vesting_time;

  // The follow-up must not clobber the lease.
  ASSERT_TRUE(quick_->Enqueue(db, item, /*delay=*/0).ok());
  EXPECT_EQ(LoadPointer(db)->vesting_time, leased_vesting);
  EXPECT_EQ(LoadPointer(db)->lease_id, lease);
}

TEST_F(EnqueueTest, EnqueueAtomicWithClientWrites) {
  const ck::DatabaseId db_id = ck::DatabaseId::Private("app", "u1");
  const ck::DatabaseRef db = ck_->OpenDatabase(db_id);
  // Client transaction: write user data + enqueue, atomically.
  Status st = fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
    txn.Set(db.subspace.Pack(tup::Tuple().AddString("doc1")), "contents");
    WorkItem item;
    item.job_type = "index_update";
    EnqueueFollowUp follow_up;
    return quick_->EnqueueInTransaction(&txn, db, item, 0, &follow_up)
        .status();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(quick_->PendingCount(db_id).value(), 1);

  // An aborted client transaction leaves no queued item behind.
  fdb::Transaction txn = db.cluster->CreateTransaction();
  {
    // Read a key another transaction will clobber -> guaranteed conflict.
    ASSERT_TRUE(txn.Get("conflict_key").ok());
    WorkItem item;
    item.job_type = "index_update";
    EnqueueFollowUp follow_up;
    ASSERT_TRUE(
        quick_->EnqueueInTransaction(&txn, db, item, 0, &follow_up).ok());
  }
  ASSERT_TRUE(fdb::RunTransaction(db.cluster, [&](fdb::Transaction& t2) {
                t2.Set("conflict_key", "x");
                return Status::OK();
              }).ok());
  ASSERT_TRUE(txn.Commit().IsNotCommitted());
  EXPECT_EQ(quick_->PendingCount(db_id).value(), 1);  // unchanged
}

TEST_F(EnqueueTest, ConcurrentEnqueuesSameTenantBothCommitWhenPointerExists) {
  const ck::DatabaseId db_id = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "push";
  ASSERT_TRUE(quick_->Enqueue(db_id, item, 0).ok());  // pointer now exists

  // Two interleaved enqueues: both read the (existing) pointer-index entry
  // and write distinct item keys — no conflict.
  const ck::DatabaseRef db = ck_->OpenDatabase(db_id);
  fdb::Transaction t1 = db.cluster->CreateTransaction();
  fdb::Transaction t2 = db.cluster->CreateTransaction();
  EnqueueFollowUp f1, f2;
  ASSERT_TRUE(quick_->EnqueueInTransaction(&t1, db, item, 0, &f1).ok());
  ASSERT_TRUE(quick_->EnqueueInTransaction(&t2, db, item, 0, &f2).ok());
  EXPECT_TRUE(t1.Commit().ok());
  EXPECT_TRUE(t2.Commit().ok());
  EXPECT_TRUE(f1.pointer_existed);
  EXPECT_TRUE(f2.pointer_existed);
  EXPECT_EQ(quick_->PendingCount(db_id).value(), 3);
}

TEST_F(EnqueueTest, ConcurrentPointerCreationsConflict) {
  // Both transactions see no pointer and try to create it; the pointer
  // index forces one to abort (§6 "Correctness").
  const ck::DatabaseId db_id = ck::DatabaseId::Private("app", "fresh");
  const ck::DatabaseRef db = ck_->OpenDatabase(db_id);
  WorkItem item;
  item.job_type = "push";
  fdb::Transaction t1 = db.cluster->CreateTransaction();
  fdb::Transaction t2 = db.cluster->CreateTransaction();
  EnqueueFollowUp f1, f2;
  ASSERT_TRUE(quick_->EnqueueInTransaction(&t1, db, item, 0, &f1).ok());
  ASSERT_TRUE(quick_->EnqueueInTransaction(&t2, db, item, 0, &f2).ok());
  EXPECT_FALSE(f1.pointer_existed);
  EXPECT_FALSE(f2.pointer_existed);
  const bool c1 = t1.Commit().ok();
  const bool c2 = t2.Commit().ok();
  EXPECT_TRUE(c1 != c2) << "exactly one pointer creation must win";
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);
}

TEST_F(EnqueueTest, LocalItemGoesStraightToTopQueue) {
  WorkItem item;
  item.job_type = "reindex_all";
  item.payload = "shard-7";
  auto id = quick_->EnqueueLocal("c1", item, 0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);
  EXPECT_EQ(quick_->EnqueueLocal("ghost", item, 0).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(quick_->Enqueue(ck::DatabaseId::Cluster("ghost"), item)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(EnqueueTest, ClientProvidedIdIsRespected) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "push";
  item.id = "idempotent-123";
  auto id = quick_->Enqueue(db, item, 0);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, "idempotent-123");
  // Same id again: overwrites, not duplicates.
  ASSERT_TRUE(quick_->Enqueue(db, item, 0).ok());
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);
}

}  // namespace
}  // namespace quick::core
