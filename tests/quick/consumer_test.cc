#include "quick/consumer.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "fdb/retry.h"
#include "quick/admin.h"

namespace quick::core {
namespace {

/// Fixture driving a consumer synchronously (RunOnePass) against a manual
/// clock — deterministic versions of Algorithms 1–3.
class ConsumerTest : public ::testing::Test {
 protected:
  ConsumerTest() {
    fdb::Database::Options opts;
    opts.clock = &clock_;
    clusters_ = std::make_unique<fdb::ClusterSet>(opts);
    clusters_->AddCluster("c1");
    ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(), &clock_);
    quick_ = std::make_unique<Quick>(ck_.get());

    processed_payloads_.clear();
    registry_.Register("ok_job", [this](WorkContext& ctx) {
      std::lock_guard<std::mutex> lock(mu_);
      processed_payloads_.push_back(ctx.item.payload);
      return Status::OK();
    });
  }

  Consumer MakeConsumer(ConsumerConfig config = {}) {
    config.sequential = true;  // deterministic order by default
    // The manual clock never moves on its own, so a cached read version
    // would never expire; use real GRVs for determinism.
    config.relaxed_reads_for_peek = false;
    return Consumer(quick_.get(), {"c1"}, &registry_, config, "test-consumer");
  }

  std::string MustEnqueue(const ck::DatabaseId& db, const std::string& type,
                          const std::string& payload, int64_t delay = 0) {
    WorkItem item;
    item.job_type = type;
    item.payload = payload;
    auto id = quick_->Enqueue(db, item, delay);
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value_or("");
  }

  std::vector<std::string> Processed() {
    std::lock_guard<std::mutex> lock(mu_);
    return processed_payloads_;
  }

  ManualClock clock_{1000000};
  std::unique_ptr<fdb::ClusterSet> clusters_;
  std::unique_ptr<ck::CloudKitService> ck_;
  std::unique_ptr<Quick> quick_;
  JobRegistry registry_;
  std::mutex mu_;
  std::vector<std::string> processed_payloads_;
};

TEST_F(ConsumerTest, ProcessesEnqueuedItemEndToEnd) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "ok_job", "payload-1");

  Consumer consumer = MakeConsumer();
  Result<int> n = consumer.RunOnePass("c1");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1);
  EXPECT_EQ(Processed(), std::vector<std::string>{"payload-1"});
  EXPECT_EQ(quick_->PendingCount(db).value(), 0);
  EXPECT_EQ(consumer.stats().items_processed.Value(), 1);
  EXPECT_EQ(consumer.stats().pointer_leases_acquired.Value(), 1);
}

TEST_F(ConsumerTest, ProcessesItemsAcrossTenantsFairly) {
  ConsumerConfig config;
  config.dequeue_max = 1;
  Consumer consumer = MakeConsumer(config);
  // u1 has 5 items, u2 has 1. With dequeue_max=1, one pass serves each
  // pointer once: u2 is not starved behind u1.
  const ck::DatabaseId u1 = ck::DatabaseId::Private("app", "u1");
  const ck::DatabaseId u2 = ck::DatabaseId::Private("app", "u2");
  for (int i = 0; i < 5; ++i) {
    MustEnqueue(u1, "ok_job", "u1-" + std::to_string(i));
  }
  MustEnqueue(u2, "ok_job", "u2-0");

  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(Processed().size(), 2u);  // one from each tenant
  EXPECT_EQ(quick_->PendingCount(u2).value(), 0);
  EXPECT_EQ(quick_->PendingCount(u1).value(), 4);

  // Subsequent passes drain u1 one item per visit (pointer requeued with
  // delay 0 because vested items remain).
  for (int pass = 0; pass < 4; ++pass) {
    ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  }
  EXPECT_EQ(quick_->PendingCount(u1).value(), 0);
  EXPECT_EQ(Processed().size(), 6u);
}

TEST_F(ConsumerTest, DequeueMaxBatchesAmortizePointerWork) {
  ConsumerConfig config;
  config.dequeue_max = 4;
  Consumer consumer = MakeConsumer(config);
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  for (int i = 0; i < 4; ++i) MustEnqueue(db, "ok_job", std::to_string(i));
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(Processed().size(), 4u);
  EXPECT_EQ(consumer.stats().pointer_leases_acquired.Value(), 1);
}

TEST_F(ConsumerTest, DelayedItemsWaitForVesting) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "ok_job", "later", /*delay=*/5000);

  Consumer consumer = MakeConsumer();
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_TRUE(Processed().empty());  // pointer not vested yet

  clock_.AdvanceMillis(5001);
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(Processed(), std::vector<std::string>{"later"});
}

TEST_F(ConsumerTest, PointerRequeuedWhileQueueActive) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "ok_job", "a");
  MustEnqueue(db, "ok_job", "b", /*delay=*/10000);

  ConsumerConfig config;
  config.dequeue_max = 1;
  Consumer consumer = MakeConsumer(config);
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(Processed().size(), 1u);
  EXPECT_EQ(consumer.stats().pointers_requeued.Value(), 1);
  EXPECT_EQ(consumer.stats().pointers_deleted.Value(), 0);
  // Pointer still present, vesting at the delayed item's time.
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);
}

TEST_F(ConsumerTest, PointerGcAfterGracePeriod) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "ok_job", "only");

  ConsumerConfig config;
  config.min_inactive_millis = 60000;
  config.pointer_lease_millis = 1000;
  Consumer consumer = MakeConsumer(config);

  // Pass 1: drains the item; queue now empty but pointer stays (grace).
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(Processed().size(), 1u);
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);
  EXPECT_EQ(consumer.stats().pointers_deleted.Value(), 0);

  // Within the grace period: pointer re-vests after lease expiry, gets
  // visited, still not deleted.
  clock_.AdvanceMillis(2000);
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);

  // Beyond min_inactive: the pointer is garbage-collected.
  clock_.AdvanceMillis(60001);
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(consumer.stats().pointers_deleted.Value(), 1);
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 0);
}

TEST_F(ConsumerTest, GraceReuseAvoidsPointerRecreation) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "ok_job", "one");
  Consumer consumer = MakeConsumer();
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);  // pointer kept

  // New item during the grace period reuses the pointer (no create).
  MustEnqueue(db, "ok_job", "two");
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);
  clock_.AdvanceMillis(1001);  // pointer lease from the previous visit
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(Processed().size(), 2u);
}

TEST_F(ConsumerTest, GcAbortsWhenEnqueueRaces) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "ok_job", "only");
  ConsumerConfig config;
  config.min_inactive_millis = 100;
  Consumer consumer = MakeConsumer(config);
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());

  // Let the grace expire; enqueue a fresh item just before the GC pass so
  // the emptiness check sees it and keeps the pointer.
  clock_.AdvanceMillis(5000);
  MustEnqueue(db, "ok_job", "again");
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);
  EXPECT_EQ(Processed().size(), 2u);
}

TEST_F(ConsumerTest, TransientFailureRequeuedWithBackoff) {
  int failures = 2;
  RetryPolicy policy;
  policy.max_inline_retries = 0;
  policy.backoff_initial_millis = 1000;
  registry_.Register(
      "flaky",
      [&](WorkContext&) {
        if (failures > 0) {
          --failures;
          return Status::Unavailable("downstream busy");
        }
        return Status::OK();
      },
      policy);

  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "flaky", "x");
  Consumer consumer = MakeConsumer();

  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(consumer.stats().items_requeued.Value(), 1);
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);

  // The pointer re-vests after the item-lease window captured at dequeue
  // time (the item itself re-vested sooner, at its 1s backoff).
  clock_.AdvanceMillis(5001);
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(consumer.stats().items_requeued.Value(), 2);

  clock_.AdvanceMillis(5001);
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(consumer.stats().items_processed.Value(), 1);
  EXPECT_EQ(quick_->PendingCount(db).value(), 0);
}

TEST_F(ConsumerTest, InlineRetriesHappenBeforeRequeue) {
  int calls = 0;
  RetryPolicy policy;
  policy.max_inline_retries = 2;
  registry_.Register(
      "flaky_inline",
      [&](WorkContext&) {
        ++calls;
        return calls < 3 ? Status::Unavailable("x") : Status::OK();
      },
      policy);
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "flaky_inline", "x");
  Consumer consumer = MakeConsumer();
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(consumer.stats().items_processed.Value(), 1);
  EXPECT_EQ(consumer.stats().items_requeued.Value(), 0);
  EXPECT_EQ(consumer.stats().items_failed_attempts.Value(), 2);
}

TEST_F(ConsumerTest, PermanentFailureDeletesImmediately) {
  RetryPolicy policy;
  policy.quarantine_on_failure = false;  // legacy delete path
  registry_.Register(
      "doomed",
      [](WorkContext&) { return Status::Permanent("user was deleted"); },
      policy);
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "doomed", "x");
  Consumer consumer = MakeConsumer();
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(consumer.stats().items_dropped_permanent.Value(), 1);
  EXPECT_EQ(consumer.stats().items_quarantined.Value(), 0);
  EXPECT_EQ(consumer.stats().items_requeued.Value(), 0);
  EXPECT_EQ(quick_->PendingCount(db).value(), 0);
}

TEST_F(ConsumerTest, PermanentFailureQuarantinesByDefault) {
  registry_.Register("doomed", [](WorkContext&) {
    return Status::Permanent("user was deleted");
  });
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "doomed", "x");
  Consumer consumer = MakeConsumer();
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(consumer.stats().items_quarantined.Value(), 1);
  EXPECT_EQ(consumer.stats().items_dropped_permanent.Value(), 0);
  EXPECT_EQ(quick_->PendingCount(db).value(), 0);
  QuickAdmin admin(quick_.get());
  ASSERT_EQ(admin.DeadLetterCount(db).value(), 1);
  auto dls = admin.ListDeadLetters(db).value();
  ASSERT_EQ(dls.size(), 1u);
  EXPECT_EQ(dls[0].job_type, "doomed");
  EXPECT_EQ(dls[0].reason, "permanent");
  EXPECT_EQ(dls[0].attempts, 1);
}

TEST_F(ConsumerTest, AttemptBudgetExhaustionDrops) {
  RetryPolicy policy;
  policy.max_inline_retries = 0;
  policy.max_attempts = 2;
  policy.drop_on_exhaust = true;
  policy.backoff_initial_millis = 10;
  policy.quarantine_on_failure = false;  // legacy delete path
  registry_.Register(
      "always_fails", [](WorkContext&) { return Status::Unavailable("x"); },
      policy);
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "always_fails", "x");
  Consumer consumer = MakeConsumer();

  ASSERT_TRUE(consumer.RunOnePass("c1").ok());  // error_count -> 1, requeued
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);
  clock_.AdvanceMillis(6000);  // past the pointer's lease-derived re-vest
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());  // budget hit -> dropped
  EXPECT_EQ(quick_->PendingCount(db).value(), 0);
  EXPECT_EQ(consumer.stats().items_dropped_permanent.Value(), 1);
}

TEST_F(ConsumerTest, UnknownJobTypeQuarantined) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "no_such_handler", "x");
  Consumer consumer = MakeConsumer();
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  // Unknown types have no registered policy, so the default (quarantine)
  // applies: the payload is preserved for the operator, not deleted.
  EXPECT_EQ(consumer.stats().items_quarantined.Value(), 1);
  EXPECT_EQ(consumer.stats().items_dropped_permanent.Value(), 0);
  EXPECT_EQ(quick_->PendingCount(db).value(), 0);
  QuickAdmin admin(quick_.get());
  auto dls = admin.ListDeadLetters(db).value();
  ASSERT_EQ(dls.size(), 1u);
  EXPECT_EQ(dls[0].reason, "unknown_job_type");
  EXPECT_EQ(dls[0].payload, "x");
}

TEST_F(ConsumerTest, ThrottleBoundsConcurrentItemsOfType) {
  RetryPolicy policy;
  policy.max_concurrent = 1;
  registry_.Register(
      "throttled",
      [this](WorkContext& ctx) {
        std::lock_guard<std::mutex> lock(mu_);
        processed_payloads_.push_back(ctx.item.payload);
        return Status::OK();
      },
      policy);
  // In synchronous mode items process one at a time, so exercise the
  // throttle bookkeeping directly.
  Consumer consumer = MakeConsumer();
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "throttled", "a");
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(Processed().size(), 1u);
  EXPECT_EQ(consumer.stats().items_throttled.Value(), 0);
}

TEST_F(ConsumerTest, LocalWorkItemsProcessed) {
  WorkItem item;
  item.job_type = "ok_job";
  item.payload = "local-payload";
  ASSERT_TRUE(quick_->EnqueueLocal("c1", item, 0).ok());
  Consumer consumer = MakeConsumer();
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(Processed(), std::vector<std::string>{"local-payload"});
  EXPECT_EQ(consumer.stats().local_items_processed.Value(), 1);
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 0);
}

TEST_F(ConsumerTest, SecondConsumerSeesLeaseCollision) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "ok_job", "x");

  // Lease the pointer out-of-band, simulating another consumer mid-visit.
  const ck::DatabaseRef cluster_db = ck_->OpenClusterDb("c1");
  Pointer p{db, quick_->config().queue_zone_name};
  ASSERT_TRUE(fdb::RunTransaction(cluster_db.cluster,
                                  [&](fdb::Transaction& txn) {
                                    ck::QueueZone top =
                                        quick_->OpenTopZone(cluster_db, &txn);
                                    return top.ObtainLease(p.Key(), 5000)
                                        .status();
                                  })
                  .ok());

  Consumer consumer = MakeConsumer();
  ASSERT_TRUE(consumer.ProcessTopItem("c1", p.Key()).ok());
  EXPECT_EQ(consumer.stats().lease_collisions_read.Value(), 1);
  EXPECT_EQ(consumer.stats().pointer_leases_acquired.Value(), 0);
  EXPECT_TRUE(Processed().empty());
}

TEST_F(ConsumerTest, RandomizedSelectionRespectsSelectionMax) {
  ConsumerConfig config;
  config.sequential = false;
  config.relaxed_reads_for_peek = false;
  config.selection_frac = 1.0;
  config.selection_max = 3;
  Consumer consumer(quick_.get(), {"c1"}, &registry_, config, "rand");
  for (int i = 0; i < 10; ++i) {
    MustEnqueue(ck::DatabaseId::Private("app", "u" + std::to_string(i)),
                "ok_job", std::to_string(i));
  }
  Result<int> n = consumer.RunOnePass("c1");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3);
  EXPECT_EQ(Processed().size(), 3u);
}

TEST_F(ConsumerTest, SelectionFracControlsBatchSize) {
  ConsumerConfig config;
  config.sequential = false;
  config.relaxed_reads_for_peek = false;
  config.selection_frac = 0.2;
  config.selection_max = 100;
  Consumer consumer(quick_.get(), {"c1"}, &registry_, config, "rand");
  for (int i = 0; i < 10; ++i) {
    MustEnqueue(ck::DatabaseId::Private("app", "u" + std::to_string(i)),
                "ok_job", std::to_string(i));
  }
  Result<int> n = consumer.RunOnePass("c1");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2);  // ceil(10 * 0.2)
}

TEST_F(ConsumerTest, SequentialElectionViaLeaseCache) {
  LeaseCache cache(&clock_);
  ConsumerConfig config;
  config.relaxed_reads_for_peek = false;
  config.sequential = false;  // ignored when a cache is provided
  Consumer a(quick_.get(), {"c1"}, &registry_, config, "consumer-a", &cache);
  Consumer b(quick_.get(), {"c1"}, &registry_, config, "consumer-b", &cache);
  MustEnqueue(ck::DatabaseId::Private("app", "u1"), "ok_job", "x");

  // First scanner to run wins the election.
  ASSERT_TRUE(a.RunOnePass("c1").ok());
  EXPECT_EQ(cache.Holder("quick-seq|c1"), "consumer-a");
  // The other stays randomized (still works, just not elected).
  MustEnqueue(ck::DatabaseId::Private("app", "u2"), "ok_job", "y");
  ASSERT_TRUE(b.RunOnePass("c1").ok());
  EXPECT_EQ(cache.Holder("quick-seq|c1"), "consumer-a");
  EXPECT_EQ(Processed().size(), 2u);
}

TEST_F(ConsumerTest, ItemLevelLeaseModeStillProcesses) {
  ConsumerConfig config;
  config.item_level_leases_only = true;
  Consumer consumer = MakeConsumer(config);
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "ok_job", "x");
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(Processed(), std::vector<std::string>{"x"});
  EXPECT_EQ(quick_->PendingCount(db).value(), 0);
}

TEST_F(ConsumerTest, PointerLatencyRecorded) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "ok_job", "x");
  clock_.AdvanceMillis(250);  // pointer sits vested for 250ms
  Consumer consumer = MakeConsumer();
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  ASSERT_EQ(consumer.stats().pointer_latency_micros.Count(), 1);
  EXPECT_NEAR(consumer.stats().pointer_latency_micros.Max(), 250000, 25000);
  ASSERT_EQ(consumer.stats().item_latency_micros.Count(), 1);
}

TEST_F(ConsumerTest, ProcessTopItemOnMissingIdIsOk) {
  Consumer consumer = MakeConsumer();
  EXPECT_TRUE(consumer.ProcessTopItem("c1", "no-such-pointer").ok());
  EXPECT_FALSE(consumer.ProcessTopItem("ghost-cluster", "x").ok());
}

// Stop() wakes the lease extender instead of waiting out its interval: on
// the system clock, a started consumer with a 10 s extension interval
// stops in well under a second, in both threaded and pipelined mode.
// The fdb work of one call, from the cluster's counters.
struct FdbCost {
  int64_t grvs = 0;
  int64_t reads = 0;
  int64_t commits = 0;
};

template <typename Fn>
FdbCost CostOf(fdb::Database* db, Fn fn) {
  const fdb::Database::Stats before = db->GetStats();
  fn();
  const fdb::Database::Stats after = db->GetStats();
  FdbCost cost;
  cost.grvs = after.grv_calls - before.grv_calls;
  cost.reads = after.reads - before.reads;
  cost.commits = after.commits_attempted - before.commits_attempted;
  return cost;
}

// Each measurement gets a fresh cluster, so all of them start from the
// same state; everything they enqueue vests a minute out.
class ContinuationFanOutTest : public ConsumerTest {
 protected:
  void FreshCluster() {
    quick_.reset();
    ck_.reset();
    fdb::Database::Options opts;
    opts.clock = &clock_;
    clusters_ = std::make_unique<fdb::ClusterSet>(opts);
    clusters_->AddCluster("c1");
    ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(), &clock_);
    quick_ = std::make_unique<Quick>(ck_.get());
  }

  // One RunOnePass in which the tenant's only item finishes with
  // `fan_out` continuations.
  FdbCost FinishWithContinuations(int fan_out) {
    FreshCluster();
    registry_.RegisterWork("fan", [fan_out](WorkContext&) {
      WorkResult r;
      for (int i = 0; i < fan_out; ++i) {
        DelayedItem c;
        c.job_type = "ok_job";
        c.vesting_delay_millis = 60000;
        r.continuations.push_back(c);
      }
      return r;
    });
    MustEnqueue(kTenant, "fan", "");
    Consumer consumer = MakeConsumer();
    const FdbCost cost = CostOf(clusters_->Get("c1"), [&] {
      EXPECT_EQ(consumer.RunOnePass("c1").value_or(-1), 1);
    });
    EXPECT_EQ(consumer.stats().continuations_enqueued.Value(), fan_out);
    return cost;
  }

  // An EnqueueBatch of `n` items into a zone whose pointer exists.
  FdbCost BatchIntoLiveZone(int n) {
    FreshCluster();
    MustEnqueue(kTenant, "ok_job", "", 60000);
    std::vector<WorkItem> items(static_cast<size_t>(n));
    for (WorkItem& item : items) item.job_type = "ok_job";
    return CostOf(clusters_->Get("c1"), [&] {
      EXPECT_TRUE(quick_->EnqueueBatch(kTenant, items, 60000).ok());
    });
  }

  ck::QueuedItem LoadPointer() {
    const Pointer pointer{kTenant, quick_->config().queue_zone_name};
    const ck::DatabaseRef cluster_db = ck_->OpenClusterDb("c1");
    fdb::Transaction txn = cluster_db.cluster->CreateTransaction();
    ck::QueueZone top = quick_->OpenTopZoneFor(cluster_db, pointer.Key(), &txn);
    return top.Load(pointer.Key()).value().value();
  }

  const ck::DatabaseId kTenant = ck::DatabaseId::Private("app", "u1");
};

// Every continuation of one finish lands in the finishing tenant's zone
// under its one pointer, so they share one part one and one part-two
// transaction. A finish with 3 or 8 continuations takes the GRVs and
// commits of a finish with one, and each extra item costs exactly one
// read, its record's previous image: part one reads the migration fence
// and the pointer index once per request. An EnqueueBatch into a live
// zone pays the same.
TEST_F(ContinuationFanOutTest, OnePartTwoPerFinish) {
  const FdbCost one = FinishWithContinuations(1);
  const FdbCost batch_one = BatchIntoLiveZone(1);
  for (int k : {3, 8}) {
    SCOPED_TRACE("items=" + std::to_string(k));
    const FdbCost many = FinishWithContinuations(k);
    const FdbCost batch = BatchIntoLiveZone(k);
    EXPECT_EQ(many.grvs, one.grvs);
    EXPECT_EQ(many.commits, one.commits);
    EXPECT_EQ(many.reads - one.reads, k - 1);
    EXPECT_EQ(batch.grvs, batch_one.grvs);
    EXPECT_EQ(batch.commits, batch_one.commits);
    EXPECT_EQ(batch.reads - batch_one.reads, k - 1);
  }
}

// The shared part two lowers the pointer to the earliest continuation's
// vesting time, not the first continuation's. The handler releases the
// pointer and parks it ten minutes out, as a pipelined chain's pointer
// requeue can before the finish commits; the second continuation vests
// first.
TEST_F(ContinuationFanOutTest, LaterContinuationThatVestsFirstLowersPointer) {
  const Pointer pointer{kTenant, quick_->config().queue_zone_name};
  const ck::DatabaseRef cluster_db = ck_->OpenClusterDb("c1");
  auto park_pointer = [&](fdb::Transaction& txn) -> Status {
    ck::QueueZone top = quick_->OpenTopZoneFor(cluster_db, pointer.Key(), &txn);
    QUICK_ASSIGN_OR_RETURN(std::optional<ck::QueuedItem> p,
                           top.Load(pointer.Key()));
    if (!p.has_value()) return Status::NotFound("pointer");
    p->lease_id.clear();
    p->vesting_time = clock_.NowMillis() + 600000;
    return top.SaveItem(*p);
  };
  registry_.RegisterWork("fan", [&](WorkContext&) {
    EXPECT_TRUE(fdb::RunTransaction(cluster_db.cluster, park_pointer).ok());
    WorkResult r;
    for (int64_t delay : {30000, 0}) {
      DelayedItem c;
      c.job_type = "ok_job";
      c.vesting_delay_millis = delay;
      r.continuations.push_back(c);
    }
    return r;
  });
  MustEnqueue(kTenant, "fan", "");
  Consumer consumer = MakeConsumer();
  ASSERT_EQ(consumer.RunOnePass("c1").value_or(-1), 1);
  EXPECT_EQ(LoadPointer().vesting_time, clock_.NowMillis());
}

TEST(ConsumerStopTest, StopDoesNotWaitOutTheLeaseExtensionInterval) {
  fdb::ClusterSet clusters;
  clusters.AddCluster("c1");
  ck::CloudKitService ck(&clusters, SystemClock::Default());
  Quick quick(&ck);
  JobRegistry registry;
  ConsumerConfig config;
  config.lease_extension_interval_millis = 10000;
  for (const bool pipelined : {false, true}) {
    config.async_pipeline = pipelined;
    Consumer consumer(&quick, {"c1"}, &registry, config, "stopper");
    consumer.Start();
    // Let the extender enter its first interval before stopping.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const auto start = std::chrono::steady_clock::now();
    consumer.Stop();
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(500))
        << (pipelined ? "pipelined" : "threaded");
  }
}

}  // namespace
}  // namespace quick::core
