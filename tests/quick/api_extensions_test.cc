// Tests for Quick's API extensions: atomic batch enqueue and the §5
// front-of-queue notification hook.

#include <gtest/gtest.h>

#include "fdb/retry.h"
#include "quick/consumer.h"
#include "quick/quick.h"

namespace quick::core {
namespace {

class ApiExtensionsTest : public ::testing::Test {
 protected:
  ApiExtensionsTest() {
    fdb::Database::Options opts;
    opts.clock = &clock_;
    clusters_ = std::make_unique<fdb::ClusterSet>(opts);
    clusters_->AddCluster("c1");
    ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(), &clock_);
    quick_ = std::make_unique<Quick>(ck_.get());
  }

  ManualClock clock_{9000};
  std::unique_ptr<fdb::ClusterSet> clusters_;
  std::unique_ptr<ck::CloudKitService> ck_;
  std::unique_ptr<Quick> quick_;
};

TEST_F(ApiExtensionsTest, BatchEnqueueIsAtomic) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  std::vector<WorkItem> items(4);
  for (int i = 0; i < 4; ++i) {
    items[i].job_type = "t";
    items[i].payload = std::to_string(i);
  }
  auto ids = quick_->EnqueueBatch(db, items, 0);
  ASSERT_TRUE(ids.ok()) << ids.status();
  EXPECT_EQ(ids->size(), 4u);
  EXPECT_EQ(quick_->PendingCount(db).value(), 4);
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);  // one pointer
}

TEST_F(ApiExtensionsTest, BatchEnqueueAllOrNothing) {
  // Make every commit fail: no partial batch may remain.
  fdb::Database::Options opts;
  opts.clock = &clock_;
  opts.faults.commit_unavailable = 1.0;
  fdb::ClusterSet flaky(opts);
  flaky.AddCluster("c1");
  ck::CloudKitService flaky_ck(&flaky, &clock_);
  Quick q(&flaky_ck);

  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  std::vector<WorkItem> items(3);
  for (auto& item : items) item.job_type = "t";
  EXPECT_FALSE(q.EnqueueBatch(db, items, 0).ok());
  // Nothing landed (check through a healthy view of the same cluster).
  fdb::Database* c1 = flaky.Get("c1");
  EXPECT_EQ(c1->LiveKeyCount(), 0u);
}

TEST_F(ApiExtensionsTest, EmptyBatchIsNoOp) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  auto ids = quick_->EnqueueBatch(db, {}, 0);
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(ids->empty());
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 0);
}

TEST_F(ApiExtensionsTest, FrontOfQueueNotifierFiresForFirstItem) {
  std::vector<std::pair<std::string, int64_t>> notifications;
  quick_->SetFrontOfQueueNotifier(
      [&](const ck::DatabaseId& db, const std::string& item_id,
          int64_t vesting) {
        notifications.emplace_back(db.ToString() + "/" + item_id, vesting);
      });
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "t";
  auto id = quick_->Enqueue(db, item, /*delay=*/1000);
  ASSERT_TRUE(id.ok());
  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_NE(notifications[0].first.find(*id), std::string::npos);
  EXPECT_EQ(notifications[0].second, clock_.NowMillis() + 1000);
}

TEST_F(ApiExtensionsTest, NotifierSkipsItemsBehindTheFront) {
  int notified = 0;
  quick_->SetFrontOfQueueNotifier(
      [&](const ck::DatabaseId&, const std::string&, int64_t) { ++notified; });
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "t";
  ASSERT_TRUE(quick_->Enqueue(db, item, 0).ok());  // front: notify
  EXPECT_EQ(notified, 1);
  clock_.AdvanceMillis(10);
  ASSERT_TRUE(quick_->Enqueue(db, item, 0).ok());  // behind: silent
  EXPECT_EQ(notified, 1);
}

TEST_F(ApiExtensionsTest, NotifierFiresForEarlierVestingItem) {
  int notified = 0;
  quick_->SetFrontOfQueueNotifier(
      [&](const ck::DatabaseId&, const std::string&, int64_t) { ++notified; });
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "t";
  ASSERT_TRUE(quick_->Enqueue(db, item, /*delay=*/60000).ok());  // front
  ASSERT_TRUE(quick_->Enqueue(db, item, /*delay=*/1000).ok());   // new front
  EXPECT_EQ(notified, 2);
}

TEST_F(ApiExtensionsTest, NotifierFiresForHigherPriorityItem) {
  int notified = 0;
  quick_->SetFrontOfQueueNotifier(
      [&](const ck::DatabaseId&, const std::string&, int64_t) { ++notified; });
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem low;
  low.job_type = "t";
  low.priority = 5;
  ASSERT_TRUE(quick_->Enqueue(db, low, 0).ok());  // front
  clock_.AdvanceMillis(10);
  WorkItem high;
  high.job_type = "t";
  high.priority = 0;  // jumps the line
  ASSERT_TRUE(quick_->Enqueue(db, high, 0).ok());
  EXPECT_EQ(notified, 2);
}

// One front-of-queue rule for every way into a queue: a request notifies
// once, for the item at the front after commit. A (priority 0) then B
// (priority -1) into an empty zone: B is the front.
TEST_F(ApiExtensionsTest, BatchNotifiesOnceForTheFrontAfterCommit) {
  std::vector<std::string> notified;
  quick_->SetFrontOfQueueNotifier(
      [&](const ck::DatabaseId&, const std::string& item_id, int64_t) {
        notified.push_back(item_id);
      });
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem a;
  a.job_type = "t";
  a.id = "A";
  WorkItem b = a;
  b.id = "B";
  b.priority = -1;
  ASSERT_TRUE(quick_->EnqueueBatch(db, {a, b}).ok());
  EXPECT_EQ(notified, std::vector<std::string>{"B"});
}

TEST_F(ApiExtensionsTest, ContinuationsNotifyOnceForTheFrontAfterCommit) {
  JobRegistry registry;
  registry.RegisterWork("fan", [](WorkContext&) {
    WorkResult r;
    DelayedItem a;
    a.job_type = "t";
    a.id = "A";
    DelayedItem b = a;
    b.id = "B";
    b.priority = -1;
    r.continuations = {a, b};
    return r;
  });
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem start;
  start.job_type = "fan";
  ASSERT_TRUE(quick_->Enqueue(db, start).ok());
  // The finish completes the zone's only item, then enqueues A and B.
  std::vector<std::string> notified;
  quick_->SetFrontOfQueueNotifier(
      [&](const ck::DatabaseId&, const std::string& item_id, int64_t) {
        notified.push_back(item_id);
      });
  ConsumerConfig config;
  config.sequential = true;
  config.relaxed_reads_for_peek = false;
  Consumer consumer(quick_.get(), {"c1"}, &registry, config, "consumer");
  ASSERT_EQ(consumer.RunOnePass("c1").value_or(-1), 1);
  EXPECT_EQ(notified, std::vector<std::string>{"B"});
}

TEST_F(ApiExtensionsTest, NoNotifierNoOverhead) {
  // Without a registered notifier, enqueue performs no head peek and no
  // notification bookkeeping (covered implicitly: this must just work).
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "t";
  EnqueueFollowUp follow_up;
  const ck::DatabaseRef ref = ck_->OpenDatabase(db);
  Status st = fdb::RunTransaction(ref.cluster, [&](fdb::Transaction& txn) {
    return quick_->EnqueueInTransaction(&txn, ref, item, 0, &follow_up)
        .status();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_FALSE(follow_up.notify_front);
}

}  // namespace
}  // namespace quick::core
