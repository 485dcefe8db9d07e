#include "control/balancer.h"

#include <gtest/gtest.h>

#include "fdb/retry.h"
#include "quick/consumer.h"
#include "quick/quick.h"
#include "quick/tenant_metrics.h"

namespace quick::control {
namespace {

class BalancerTest : public ::testing::Test {
 protected:
  BalancerTest() {
    fdb::Database::Options opts;
    opts.clock = &clock_;
    clusters_ = std::make_unique<fdb::ClusterSet>(opts);
    clusters_->AddCluster("east");
    clusters_->AddCluster("west");
    ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(), &clock_);
    quick_ = std::make_unique<core::Quick>(ck_.get());
    jobs_.Register("job", [this](core::WorkContext& ctx) {
      processed_.push_back(ctx.item.payload);
      return Status::OK();
    });
  }

  TenantBalancer Make(BalancerConfig config = {}) {
    return TenantBalancer(quick_.get(), config, &registry_);
  }

  Result<std::string> Enqueue(const ck::DatabaseId& db,
                              const std::string& payload,
                              int64_t delay_millis = 0) {
    core::WorkItem item;
    item.job_type = "job";
    item.payload = payload;
    return quick_->Enqueue(db, item, delay_millis);
  }

  std::string OtherCluster(const std::string& c) {
    return c == "east" ? "west" : "east";
  }

  bool SourceKeyspaceEmpty(const ck::DatabaseId& db, const std::string& src) {
    bool empty = false;
    Status st = fdb::RunTransaction(
        clusters_->Get(src), [&](fdb::Transaction& txn) {
          auto kvs =
              txn.GetRange(ck::CloudKitService::DatabaseSubspace(db).Range());
          empty = kvs->empty();
          return Status::OK();
        });
    EXPECT_TRUE(st.ok());
    return empty;
  }

  int64_t Count(const std::string& name) {
    return registry_.GetCounter(name)->Value();
  }

  ManualClock clock_{1000};
  MetricsRegistry registry_;
  std::unique_ptr<fdb::ClusterSet> clusters_;
  std::unique_ptr<ck::CloudKitService> ck_;
  std::unique_ptr<core::Quick> quick_;
  core::JobRegistry jobs_;
  std::vector<std::string> processed_;
};

TEST_F(BalancerTest, MoveCarriesQueuedWorkEndToEnd) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "mover");
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(Enqueue(db, "task-" + std::to_string(i)).ok());
  }
  const std::string src = ck_->placement()->Get(db).value();
  const std::string dst = OtherCluster(src);

  TenantBalancer balancer = Make();
  ASSERT_TRUE(balancer.MoveTenant(db, dst).ok());

  EXPECT_EQ(ck_->placement()->Get(db).value(), dst);
  EXPECT_EQ(quick_->PendingCount(db).value(), 3);
  EXPECT_EQ(quick_->TopLevelCount(dst).value(), 1);
  EXPECT_EQ(quick_->TopLevelCount(src).value(), 0);
  EXPECT_TRUE(SourceKeyspaceEmpty(db, src));
  EXPECT_EQ(balancer.Phase(db).value(), MovePhase::kIdle);
  EXPECT_EQ(Count("quick.balancer.moves_started"), 1);
  EXPECT_EQ(Count("quick.balancer.moves_completed"), 1);

  core::ConsumerConfig config;
  config.sequential = true;
  config.relaxed_reads_for_peek = false;
  config.dequeue_max = 8;
  core::Consumer consumer(quick_.get(), {dst}, &jobs_, config, "dst");
  ASSERT_TRUE(consumer.RunOnePass(dst).ok());
  EXPECT_EQ(processed_.size(), 3u);
  EXPECT_EQ(quick_->PendingCount(db).value(), 0);
}

TEST_F(BalancerTest, EmptyTenantMovesWithoutPointer) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "quiet");
  const ck::DatabaseRef ref = ck_->OpenDatabase(db);
  ASSERT_TRUE(fdb::RunTransaction(ref.cluster, [&](fdb::Transaction& txn) {
                txn.Set(ref.subspace.Pack(tup::Tuple().AddString("doc")),
                        "contents");
                return Status::OK();
              }).ok());
  const std::string src = ref.cluster->name();
  const std::string dst = OtherCluster(src);
  TenantBalancer balancer = Make();
  ASSERT_TRUE(balancer.MoveTenant(db, dst).ok());
  EXPECT_EQ(quick_->TopLevelCount(dst).value(), 0);
  Status st = fdb::RunTransaction(
      clusters_->Get(dst), [&](fdb::Transaction& txn) {
        auto v = txn.Get(ref.subspace.Pack(tup::Tuple().AddString("doc")));
        EXPECT_EQ(v.value().value(), "contents");
        return Status::OK();
      });
  ASSERT_TRUE(st.ok());
}

TEST_F(BalancerTest, StepWalksTheStateMachine) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "stepper");
  ASSERT_TRUE(Enqueue(db, "before-copy").ok());
  const std::string src = ck_->placement()->Get(db).value();
  const std::string dst = OtherCluster(src);

  BalancerConfig config;
  config.catchup_rounds = 1;
  TenantBalancer balancer = Make(config);

  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kCopying);
  EXPECT_EQ(balancer.Phase(db).value(), MovePhase::kCopying);
  // Traffic still flows while copying; the catch-up round carries it.
  ASSERT_TRUE(Enqueue(db, "during-copy").ok());
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kCopying);
  EXPECT_EQ(Count("quick.balancer.catchup_rounds"), 1);

  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kSealed);
  EXPECT_EQ(balancer.Phase(db).value(), MovePhase::kSealed);
  // Sealed: enqueues are fenced (the client retry loop gives up against
  // a fence that stays up) and the source pointer is gone.
  EXPECT_TRUE(Enqueue(db, "while-sealed").status().IsTenantMoving());
  EXPECT_EQ(quick_->TopLevelCount(src).value(), 0);

  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kFlipped);
  EXPECT_EQ(ck_->placement()->Get(db).value(), dst);
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kDone);
  EXPECT_TRUE(SourceKeyspaceEmpty(db, src));

  // Nothing lost: both pre-seal items are at the destination, and new
  // traffic lands there.
  EXPECT_EQ(quick_->PendingCount(db).value(), 2);
  ASSERT_TRUE(Enqueue(db, "after-move").ok());
  EXPECT_EQ(quick_->PendingCount(db).value(), 3);
  EXPECT_EQ(quick_->TopLevelCount(dst).value(), 1);
}

TEST_F(BalancerTest, ResumeCompletesACrashedMoveAtEveryPhase) {
  struct Scenario {
    std::string user;
    int steps_before_crash;
  };
  // Crash after: the initial copy; the seal; the flip.
  for (const Scenario& s : {Scenario{"crash-copy", 1}, Scenario{"crash-seal", 2},
                            Scenario{"crash-flip", 3}}) {
    const ck::DatabaseId db = ck::DatabaseId::Private("app", s.user);
    ASSERT_TRUE(Enqueue(db, s.user + "-item").ok());
    const std::string src = ck_->placement()->Get(db).value();
    const std::string dst = OtherCluster(src);
    // Earlier scenarios may have left their own pointer on this cluster.
    const int64_t dst_pointers_before = quick_->TopLevelCount(dst).value();

    BalancerConfig config;
    config.catchup_rounds = 0;
    {
      TenantBalancer crashed = Make(config);
      for (int i = 0; i < s.steps_before_crash; ++i) {
        ASSERT_TRUE(crashed.Step(db, dst).ok()) << s.user;
      }
    }  // "crash": the orchestrator process dies; MoveState persists

    TenantBalancer fresh = Make(config);
    // Resume needs no destination argument — the persisted state has it.
    ASSERT_TRUE(fresh.Resume(db).ok()) << s.user;
    EXPECT_EQ(ck_->placement()->Get(db).value(), dst) << s.user;
    EXPECT_EQ(quick_->PendingCount(db).value(), 1) << s.user;
    EXPECT_EQ(quick_->TopLevelCount(dst).value(), dst_pointers_before + 1)
        << s.user;
    EXPECT_TRUE(SourceKeyspaceEmpty(db, src)) << s.user;
    EXPECT_EQ(fresh.Phase(db).value(), MovePhase::kIdle) << s.user;
  }
  EXPECT_EQ(Count("quick.balancer.moves_resumed"), 3);
  EXPECT_TRUE(
      Make().Resume(ck::DatabaseId::Private("app", "nobody")).IsNotFound());
}

TEST_F(BalancerTest, ResumeDetectsTheFlipStateCrashWindow) {
  // Crash between CommitMove's placement flip and the kFlipped state
  // write: placement already names the destination while the persisted
  // state still says kSealed. Resume must run forward WITHOUT touching
  // the (live) destination data again.
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "window");
  ASSERT_TRUE(Enqueue(db, "carried").ok());
  const std::string src = ck_->placement()->Get(db).value();
  const std::string dst = OtherCluster(src);

  BalancerConfig config;
  config.catchup_rounds = 0;
  {
    TenantBalancer crashed = Make(config);
    ASSERT_EQ(crashed.Step(db, dst).value(), MovePhase::kCopying);
    ASSERT_EQ(crashed.Step(db, dst).value(), MovePhase::kSealed);
    ASSERT_EQ(crashed.Step(db, dst).value(), MovePhase::kFlipped);
    // Rewind the persisted record to kSealed, emulating the lost write.
    ck::MoveState stale;
    stale.phase = ck::MoveState::kSealed;
    stale.dest_cluster = dst;
    ASSERT_TRUE(fdb::RunTransaction(clusters_->Get(src),
                                    [&](fdb::Transaction& txn) {
                                      txn.Set(ck::MoveState::Key(db),
                                              stale.Encode());
                                      return Status::OK();
                                    })
                    .ok());
  }

  // The destination is live: new traffic may land before the resume.
  ASSERT_TRUE(Enqueue(db, "after-flip").ok());

  TenantBalancer fresh = Make(config);
  ASSERT_TRUE(fresh.Resume(db).ok());
  EXPECT_EQ(quick_->PendingCount(db).value(), 2);  // nothing clobbered
  EXPECT_TRUE(SourceKeyspaceEmpty(db, src));
  EXPECT_EQ(fresh.Phase(db).value(), MovePhase::kIdle);
}

TEST_F(BalancerTest, AbortBeforeFlipRestoresTheSource) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "aborter");
  ASSERT_TRUE(Enqueue(db, "stays-home").ok());
  const std::string src = ck_->placement()->Get(db).value();
  const std::string dst = OtherCluster(src);

  BalancerConfig config;
  config.catchup_rounds = 0;
  TenantBalancer balancer = Make(config);
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kCopying);
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kSealed);

  ASSERT_TRUE(balancer.Abort(db).ok());
  EXPECT_EQ(balancer.Phase(db).value(), MovePhase::kIdle);
  EXPECT_EQ(ck_->placement()->Get(db).value(), src);
  // Fence down, pointer restored: traffic and consumption work again.
  ASSERT_TRUE(Enqueue(db, "post-abort").ok());
  EXPECT_EQ(quick_->TopLevelCount(src).value(), 1);
  EXPECT_EQ(quick_->PendingCount(db).value(), 2);
  // The partial destination copy is gone.
  EXPECT_TRUE(SourceKeyspaceEmpty(db, dst));

  core::ConsumerConfig cc;
  cc.sequential = true;
  cc.relaxed_reads_for_peek = false;
  cc.dequeue_max = 8;
  core::Consumer consumer(quick_.get(), {src}, &jobs_, cc, "src");
  ASSERT_TRUE(consumer.RunOnePass(src).ok());
  EXPECT_EQ(processed_.size(), 2u);
  EXPECT_EQ(Count("quick.balancer.moves_aborted"), 1);

  EXPECT_TRUE(balancer.Abort(db).IsNotFound());  // nothing in flight now
}

TEST_F(BalancerTest, AbortAfterFlipRefuses) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "committed");
  ASSERT_TRUE(Enqueue(db, "x").ok());
  const std::string dst =
      OtherCluster(ck_->placement()->Get(db).value());
  BalancerConfig config;
  config.catchup_rounds = 0;
  TenantBalancer balancer = Make(config);
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kCopying);
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kSealed);
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kFlipped);
  EXPECT_EQ(balancer.Abort(db).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(balancer.Resume(db).ok());  // forward is the only way out
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);
}

TEST_F(BalancerTest, DrainWaitsOutLiveLeasesAndSupersedesZombies) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "leased");
  Result<std::string> id = Enqueue(db, "in-flight");
  ASSERT_TRUE(id.ok());
  const std::string src = ck_->placement()->Get(db).value();
  const std::string dst = OtherCluster(src);

  // A consumer holds a live lease on the item (100ms).
  const ck::DatabaseRef ref = ck_->OpenDatabase(db);
  ASSERT_TRUE(fdb::RunTransaction(ref.cluster, [&](fdb::Transaction& txn) {
                ck::QueueZone zone = quick_->OpenTenantZone(ref, &txn);
                return zone.ObtainLease(*id, 100).status();
              }).ok());

  BalancerConfig config;
  config.catchup_rounds = 0;
  TenantBalancer balancer = Make(config);
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kCopying);
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kSealed);

  // Live lease: the drain holds the move at kSealed.
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kSealed);
  EXPECT_GE(Count("quick.balancer.drain_waits"), 1);

  // The lease expires without its holder completing — a zombie. The next
  // step supersedes it (unfenced requeue), then the move proceeds.
  clock_.AdvanceMillis(150);
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kSealed);
  EXPECT_EQ(Count("quick.balancer.zombie_requeues"), 1);
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kFlipped);
  ASSERT_EQ(balancer.Step(db, dst).value(), MovePhase::kDone);

  // The item crossed unleased and executable.
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);
  core::ConsumerConfig cc;
  cc.sequential = true;
  cc.relaxed_reads_for_peek = false;
  core::Consumer consumer(quick_.get(), {dst}, &jobs_, cc, "dst");
  ASSERT_TRUE(consumer.RunOnePass(dst).ok());
  EXPECT_EQ(processed_, std::vector<std::string>{"in-flight"});
}

TEST_F(BalancerTest, MoveTenantPollsThroughALiveLease) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "patient");
  Result<std::string> id = Enqueue(db, "held");
  ASSERT_TRUE(id.ok());
  const std::string dst =
      OtherCluster(ck_->placement()->Get(db).value());
  const ck::DatabaseRef ref = ck_->OpenDatabase(db);
  ASSERT_TRUE(fdb::RunTransaction(ref.cluster, [&](fdb::Transaction& txn) {
                ck::QueueZone zone = quick_->OpenTenantZone(ref, &txn);
                return zone.ObtainLease(*id, 200).status();
              }).ok());
  // Under ManualClock the drain polls advance time past the lease expiry;
  // the zombie is superseded and the move completes unattended.
  TenantBalancer balancer = Make();
  ASSERT_TRUE(balancer.MoveTenant(db, dst).ok());
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);
}

TEST_F(BalancerTest, DrainTimeoutAbortsTheMove) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "stuck");
  Result<std::string> id = Enqueue(db, "pinned");
  ASSERT_TRUE(id.ok());
  const std::string src = ck_->placement()->Get(db).value();
  const std::string dst = OtherCluster(src);
  const ck::DatabaseRef ref = ck_->OpenDatabase(db);
  // A lease far longer than the drain budget.
  ASSERT_TRUE(fdb::RunTransaction(ref.cluster, [&](fdb::Transaction& txn) {
                ck::QueueZone zone = quick_->OpenTenantZone(ref, &txn);
                return zone.ObtainLease(*id, 60000).status();
              }).ok());
  BalancerConfig config;
  config.catchup_rounds = 0;
  config.drain_timeout_millis = 200;
  config.drain_poll_millis = 50;
  TenantBalancer balancer = Make(config);
  EXPECT_EQ(balancer.MoveTenant(db, dst).code(), StatusCode::kTimedOut);
  // The abort restored the source; the tenant never moved.
  EXPECT_EQ(ck_->placement()->Get(db).value(), src);
  EXPECT_EQ(balancer.Phase(db).value(), MovePhase::kIdle);
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);
}

TEST_F(BalancerTest, RejectsClusterDbUnknownDestAndUnplaced) {
  TenantBalancer balancer = Make();
  EXPECT_EQ(balancer.MoveTenant(ck::DatabaseId::Cluster("east"), "west")
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(balancer.MoveTenant(ck::DatabaseId::Private("app", "ghost"),
                                  "west")
                  .IsNotFound());
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u");
  ck_->OpenDatabase(db);
  EXPECT_EQ(balancer.MoveTenant(db, "mars").code(),
            StatusCode::kInvalidArgument);
  // Same-cluster move is a no-op.
  EXPECT_TRUE(
      balancer.MoveTenant(db, ck_->placement()->Get(db).value()).ok());
}

TEST_F(BalancerTest, MoveToSameClusterIsNoOp) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "stay");
  ASSERT_TRUE(Enqueue(db, "stays").ok());
  const std::string cluster = ck_->placement()->Get(db).value();
  TenantBalancer balancer = Make();
  ASSERT_TRUE(balancer.MoveTenant(db, cluster).ok());
  EXPECT_EQ(ck_->placement()->Get(db).value(), cluster);
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);
  EXPECT_EQ(quick_->TopLevelCount(cluster).value(), 1);
  EXPECT_EQ(balancer.Phase(db).value(), MovePhase::kIdle);
  EXPECT_EQ(Count("quick.balancer.moves_started"), 0);
}

TEST_F(BalancerTest, EnqueueAfterMoveLandsAtDestination) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "mover");
  ASSERT_TRUE(Enqueue(db, "before").ok());
  const std::string src = ck_->placement()->Get(db).value();
  const std::string dst = OtherCluster(src);
  ASSERT_TRUE(Make().MoveTenant(db, dst).ok());

  ASSERT_TRUE(Enqueue(db, "after").ok());
  EXPECT_EQ(quick_->PendingCount(db).value(), 2);
  EXPECT_EQ(quick_->TopLevelCount(dst).value(), 1);  // pointer reused
  EXPECT_EQ(quick_->TopLevelCount(src).value(), 0);
}

TEST_F(BalancerTest, InFlightMoveRefusesAnotherDestination) {
  // A third cluster; the tenant is pinned so the test does not depend on
  // the placement hash.
  clusters_->AddCluster("north");
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "redirected");
  ck_->placement()->Set(db, "east");
  ASSERT_TRUE(Enqueue(db, "item").ok());

  TenantBalancer balancer = Make();
  ASSERT_EQ(balancer.Step(db, "west").value(), MovePhase::kCopying);

  // Another destination is refused, naming the one in flight, and the
  // move's persisted state is untouched.
  const Status moved = balancer.MoveTenant(db, "north");
  EXPECT_EQ(moved.code(), StatusCode::kFailedPrecondition) << moved;
  EXPECT_NE(moved.message().find("west"), std::string::npos) << moved;
  EXPECT_EQ(balancer.Step(db, "north").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ck_->placement()->Get(db).value(), "east");
  EXPECT_EQ(balancer.Phase(db).value(), MovePhase::kCopying);

  // Resume runs forward to the persisted destination ...
  ASSERT_TRUE(balancer.Resume(db).ok());
  EXPECT_EQ(ck_->placement()->Get(db).value(), "west");
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);
  EXPECT_EQ(quick_->TopLevelCount("north").value(), 0);

  // ... after which a move to the third cluster is a new move.
  ASSERT_TRUE(balancer.MoveTenant(db, "north").ok());
  EXPECT_EQ(ck_->placement()->Get(db).value(), "north");
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);
  EXPECT_EQ(quick_->TopLevelCount("north").value(), 1);
  EXPECT_TRUE(SourceKeyspaceEmpty(db, "west"));
}

TEST_F(BalancerTest, RunPolicyOnceExecutesTheMonitorsPlan) {
  const ck::DatabaseId noisy = ck::DatabaseId::Private("app", "noisy");
  ASSERT_TRUE(Enqueue(noisy, "n").ok());
  const std::string src = ck_->placement()->Get(noisy).value();
  const std::string dst = OtherCluster(src);

  core::TenantMetrics metrics(&registry_);
  LoadMonitorConfig mconfig;
  mconfig.ewma_alpha = 1.0;
  mconfig.rebalance_min_gap = 50.0;
  LoadMonitor monitor(ck_.get(), mconfig, &clock_, &registry_);
  TenantBalancer balancer = Make();

  monitor.Tick();
  ASSERT_FALSE(balancer.RunPolicyOnce(&monitor).value());  // no plan yet

  metrics.OnEnqueued(noisy, 500);
  clock_.AdvanceMillis(1000);
  monitor.Tick();
  ASSERT_TRUE(balancer.RunPolicyOnce(&monitor).value());
  EXPECT_EQ(ck_->placement()->Get(noisy).value(), dst);
  EXPECT_EQ(quick_->PendingCount(noisy).value(), 1);
}

}  // namespace
}  // namespace quick::control
