// The user-move cases of DESIGN.md §6, driven through the one code that
// moves a tenant, control::TenantBalancer::MoveTenant.
#include <gtest/gtest.h>

#include <mutex>

#include "control/balancer.h"
#include "fdb/retry.h"
#include "quick/consumer.h"
#include "quick/quick.h"

namespace quick::core {
namespace {

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() {
    fdb::Database::Options opts;
    opts.clock = &clock_;
    clusters_ = std::make_unique<fdb::ClusterSet>(opts);
    clusters_->AddCluster("east");
    clusters_->AddCluster("west");
    ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(), &clock_);
    quick_ = std::make_unique<Quick>(ck_.get());
    balancer_ = std::make_unique<control::TenantBalancer>(
        quick_.get(), control::BalancerConfig{}, &metrics_);
    registry_.Register("job", [this](WorkContext& ctx) {
      std::lock_guard<std::mutex> lock(mu_);
      processed_.push_back(ctx.item.payload);
      return Status::OK();
    });
  }

  ManualClock clock_{1000};
  MetricsRegistry metrics_;
  std::unique_ptr<fdb::ClusterSet> clusters_;
  std::unique_ptr<ck::CloudKitService> ck_;
  std::unique_ptr<Quick> quick_;
  std::unique_ptr<control::TenantBalancer> balancer_;
  JobRegistry registry_;
  std::mutex mu_;
  std::vector<std::string> processed_;
};

TEST_F(MigrationTest, MoveTenantCarriesQueuedWork) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "mover");
  WorkItem item;
  item.job_type = "job";
  item.payload = "queued-before-move";
  ASSERT_TRUE(quick_->Enqueue(db, item, 0).ok());

  const std::string src = ck_->placement()->Get(db).value();
  const std::string dst = src == "east" ? "west" : "east";
  ASSERT_TRUE(balancer_->MoveTenant(db, dst).ok());

  // Placement flipped; pending work visible at the destination.
  EXPECT_EQ(ck_->placement()->Get(db).value(), dst);
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);
  EXPECT_EQ(quick_->TopLevelCount(dst).value(), 1);
  EXPECT_EQ(quick_->TopLevelCount(src).value(), 0);

  // Source keyspace is clean.
  fdb::Database* src_db = clusters_->Get(src);
  Status st = fdb::RunTransaction(src_db, [&](fdb::Transaction& txn) {
    auto kvs = txn.GetRange(ck::CloudKitService::DatabaseSubspace(db).Range());
    EXPECT_TRUE(kvs->empty());
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());

  // A consumer at the destination executes the carried item.
  ConsumerConfig config;
  config.sequential = true;
  config.relaxed_reads_for_peek = false;
  Consumer consumer(quick_.get(), {dst}, &registry_, config, "dest-consumer");
  ASSERT_TRUE(consumer.RunOnePass(dst).ok());
  EXPECT_EQ(processed_, std::vector<std::string>{"queued-before-move"});
  EXPECT_EQ(quick_->PendingCount(db).value(), 0);
}

TEST_F(MigrationTest, MoveTenantWithoutPointerStillMovesData) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "quiet");
  const ck::DatabaseRef ref = ck_->OpenDatabase(db);
  // Plain user data, no queued work.
  ASSERT_TRUE(fdb::RunTransaction(ref.cluster, [&](fdb::Transaction& txn) {
                txn.Set(ref.subspace.Pack(tup::Tuple().AddString("doc")),
                        "contents");
                return Status::OK();
              }).ok());
  const std::string src = ref.cluster->name();
  const std::string dst = src == "east" ? "west" : "east";
  ASSERT_TRUE(balancer_->MoveTenant(db, dst).ok());
  fdb::Database* dst_db = clusters_->Get(dst);
  Status st = fdb::RunTransaction(dst_db, [&](fdb::Transaction& txn) {
    auto v = txn.Get(ref.subspace.Pack(tup::Tuple().AddString("doc")));
    EXPECT_EQ(v.value().value(), "contents");
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(quick_->TopLevelCount(dst).value(), 0);
}

TEST_F(MigrationTest, MoveRejectsClusterDbAndUnknowns) {
  EXPECT_FALSE(
      balancer_->MoveTenant(ck::DatabaseId::Cluster("east"), "west").ok());
  EXPECT_TRUE(balancer_
                  ->MoveTenant(ck::DatabaseId::Private("app", "ghost"), "west")
                  .IsNotFound());
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u");
  ck_->OpenDatabase(db);
  EXPECT_FALSE(balancer_->MoveTenant(db, "mars").ok());
}

}  // namespace
}  // namespace quick::core
