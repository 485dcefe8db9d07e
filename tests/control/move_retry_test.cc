// The producer's migration-fence retry, driven by a live move: a producer
// that meets a sealed tenant sleeps Quick::kMoveRetryDelayMillis and
// re-resolves placement. Here the sleep itself steps a TenantBalancer from
// kSealed to kFlipped, so the retry must land the request at the
// destination — the item (and the workflow record) there, none at the
// source.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "cloudkit/workflow_record.h"
#include "control/balancer.h"
#include "fdb/retry.h"
#include "quick/quick.h"
#include "workflow/workflow.h"

namespace quick::control {
namespace {

/// A ManualClock whose sleeps drive a tenant move: while armed, each sleep
/// steps the balancer until the move reaches kFlipped.
class MovingClock : public ManualClock {
 public:
  using ManualClock::ManualClock;

  void Arm(TenantBalancer* balancer, const ck::DatabaseId& db,
           const std::string& dest) {
    balancer_ = balancer;
    db_ = db;
    dest_ = dest;
    steps_ = 0;
  }
  int steps() const { return steps_; }

  void SleepMillis(int64_t millis) override {
    ManualClock::SleepMillis(millis);
    // The balancer's drain polls and retry backoffs sleep on this clock
    // too; they must not step the move they are part of.
    if (balancer_ == nullptr || stepping_) return;
    stepping_ = true;
    Result<MovePhase> phase = balancer_->Step(db_, dest_);
    stepping_ = false;
    ++steps_;
    if (!phase.ok() || *phase != MovePhase::kSealed) balancer_ = nullptr;
  }

 private:
  TenantBalancer* balancer_ = nullptr;
  ck::DatabaseId db_;
  std::string dest_;
  bool stepping_ = false;
  int steps_ = 0;
};

class MoveRetryTest : public ::testing::Test {
 protected:
  MoveRetryTest() {
    fdb::Database::Options opts;
    opts.clock = &clock_;
    clusters_ = std::make_unique<fdb::ClusterSet>(opts);
    clusters_->AddCluster("east");
    clusters_->AddCluster("west");
    ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(), &clock_);
    quick_ = std::make_unique<core::Quick>(ck_.get());
    engine_ = std::make_unique<wf::WorkflowEngine>(quick_.get(), &jobs_);
    wf::SagaSpec saga;
    saga.name = "saga";
    wf::StepSpec step;
    step.name = "only";
    step.run = [](core::WorkContext&, wf::StepContext&) {
      return Status::OK();
    };
    saga.steps.push_back(step);
    EXPECT_TRUE(engine_->RegisterSaga(saga).ok());
    BalancerConfig config;
    config.catchup_rounds = 0;
    balancer_ = std::make_unique<TenantBalancer>(quick_.get(), config);
  }

  static core::WorkItem Item(const std::string& id) {
    core::WorkItem item;
    item.id = id;
    item.job_type = "job";
    return item;
  }

  /// Seals `db` for a move to the other cluster, with one item queued
  /// before the move; returns {source, destination}.
  std::pair<std::string, std::string> SealForMove(const ck::DatabaseId& db) {
    EXPECT_TRUE(quick_->Enqueue(db, Item("before-move")).ok());
    const std::string src = ck_->placement()->Get(db).value();
    const std::string dst = src == "east" ? "west" : "east";
    EXPECT_EQ(balancer_->Step(db, dst).value(), MovePhase::kCopying);
    EXPECT_EQ(balancer_->Step(db, dst).value(), MovePhase::kSealed);
    return {src, dst};
  }

  /// Whether `key` exists on cluster `cluster` (bypassing placement).
  bool KeyOn(const std::string& cluster, const std::string& key) {
    bool found = false;
    fdb::Database* db = clusters_->Get(cluster);
    Status st = fdb::RunTransaction(db, [&](fdb::Transaction& txn) {
      QUICK_ASSIGN_OR_RETURN(std::optional<std::string> v, txn.Get(key));
      found = v.has_value();
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st;
    return found;
  }

  /// Whether item `id` is queued in `db`'s zone on cluster `cluster`.
  bool ItemOn(const std::string& cluster, const ck::DatabaseId& db,
              const std::string& id) {
    const tup::Subspace zone_subspace =
        ck::CloudKitService::DatabaseSubspace(db).Sub("z").Sub(
            quick_->config().queue_zone_name);
    bool found = false;
    fdb::Database* cluster_db = clusters_->Get(cluster);
    Status st = fdb::RunTransaction(cluster_db, [&](fdb::Transaction& txn) {
      ck::QueueZone zone(&txn, zone_subspace, &clock_);
      QUICK_ASSIGN_OR_RETURN(std::optional<ck::QueuedItem> item,
                             zone.Load(id));
      found = item.has_value();
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st;
    return found;
  }

  MovingClock clock_{1000};
  std::unique_ptr<fdb::ClusterSet> clusters_;
  std::unique_ptr<ck::CloudKitService> ck_;
  std::unique_ptr<core::Quick> quick_;
  core::JobRegistry jobs_;
  std::unique_ptr<wf::WorkflowEngine> engine_;
  std::unique_ptr<TenantBalancer> balancer_;
};

TEST_F(MoveRetryTest, EnqueueOnASealedTenantLandsAtTheDestination) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "mover");
  const auto [src, dst] = SealForMove(db);

  clock_.Arm(balancer_.get(), db, dst);
  Result<std::string> id = quick_->Enqueue(db, Item("during-seal"));
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(clock_.steps(), 1) << "one fence retry covers seal -> flip";
  EXPECT_EQ(ck_->placement()->Get(db).value(), dst);

  // The source still holds its pre-flip copy until the move finishes, but
  // never the item enqueued behind the fence.
  EXPECT_TRUE(ItemOn(dst, db, "during-seal"));
  EXPECT_TRUE(ItemOn(dst, db, "before-move"));
  EXPECT_FALSE(ItemOn(src, db, "during-seal"));

  ASSERT_EQ(balancer_->Step(db, dst).value(), MovePhase::kDone);
  EXPECT_FALSE(ItemOn(src, db, "before-move"));
  EXPECT_EQ(quick_->PendingCount(db).value(), 2);
  EXPECT_EQ(quick_->TopLevelCount(dst).value(), 1);
  EXPECT_EQ(quick_->TopLevelCount(src).value(), 0);
}

TEST_F(MoveRetryTest, StartOnASealedTenantLandsAtTheDestination) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "saga-mover");
  const auto [src, dst] = SealForMove(db);

  clock_.Arm(balancer_.get(), db, dst);
  Result<std::string> wf_id = engine_->Start(db, "saga", "p", "wf-moved");
  ASSERT_TRUE(wf_id.ok()) << wf_id.status();
  EXPECT_EQ(clock_.steps(), 1);

  const std::string record = ck::WorkflowRecord::Key(db, "wf-moved");
  const std::string step0 = wf::WorkflowEngine::ForwardItemId("wf-moved", 0);
  EXPECT_TRUE(KeyOn(dst, record));
  EXPECT_TRUE(ItemOn(dst, db, step0));
  EXPECT_FALSE(KeyOn(src, record));
  EXPECT_FALSE(ItemOn(src, db, step0));

  ASSERT_EQ(balancer_->Step(db, dst).value(), MovePhase::kDone);
  Result<std::optional<ck::WorkflowRecord>> loaded =
      engine_->Load(db, "wf-moved");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_TRUE(loaded->has_value());
  EXPECT_EQ((*loaded)->state, ck::WorkflowRecord::State::kRunning);
  EXPECT_EQ(quick_->PendingCount(db).value(), 2);
}

}  // namespace
}  // namespace quick::control
