// Dead-letter quarantine: terminally-failed items move into a per-zone
// quarantine subspace in the same transaction as the queue removal ("no
// item is ever silently lost"), and leave it only through an explicit
// operator requeue or purge via QuickAdmin. Also covers the FIFO-zone
// exhaustion regression: every terminal transition must use the zone's
// actual schema, or sticky arrival stamps survive the delete.

#include <gtest/gtest.h>

#include "fdb/retry.h"
#include "quick/admin.h"
#include "quick/consumer.h"

namespace quick::core {
namespace {

class QuarantineTest : public ::testing::Test {
 protected:
  QuarantineTest() { Init(QuickConfig{}); }

  void Init(QuickConfig qconfig) {
    fdb::Database::Options opts;
    opts.clock = &clock_;
    clusters_ = std::make_unique<fdb::ClusterSet>(opts);
    clusters_->AddCluster("c1");
    ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(), &clock_);
    quick_ = std::make_unique<Quick>(ck_.get(), qconfig);
    admin_ = std::make_unique<QuickAdmin>(quick_.get());
  }

  ConsumerConfig TestConfig() {
    ConsumerConfig config;
    config.sequential = true;
    config.relaxed_reads_for_peek = false;
    return config;
  }

  std::string MustEnqueue(const ck::DatabaseId& db, const std::string& type,
                          const std::string& payload, int64_t priority = 0) {
    WorkItem item;
    item.job_type = type;
    item.payload = payload;
    item.priority = priority;
    auto id = quick_->Enqueue(db, item, 0);
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value_or("");
  }

  /// Runs `fn` inside one transaction over the tenant's queue zone.
  Status WithZone(const ck::DatabaseId& db_id,
                  const std::function<Status(ck::QueueZone&)>& fn) {
    const ck::DatabaseRef db = ck_->OpenDatabase(db_id);
    return fdb::RunTransaction(db.cluster, [&](fdb::Transaction& txn) {
      ck::QueueZone zone = quick_->OpenTenantZone(db, &txn);
      return fn(zone);
    });
  }

  ManualClock clock_{50000};
  std::unique_ptr<fdb::ClusterSet> clusters_;
  std::unique_ptr<ck::CloudKitService> ck_;
  std::unique_ptr<Quick> quick_;
  std::unique_ptr<QuickAdmin> admin_;
  JobRegistry registry_;
};

// --- Zone-level semantics ---------------------------------------------------

TEST_F(QuarantineTest, QuarantinePreservesItemAndAccounting) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  const std::string id = MustEnqueue(db, "jt", "precious-payload", 7);

  std::string lease;
  ASSERT_TRUE(WithZone(db, [&](ck::QueueZone& zone) {
                QUICK_ASSIGN_OR_RETURN(lease, zone.ObtainLease(id, 5000));
                return Status::OK();
              }).ok());
  clock_.AdvanceMillis(123);
  ASSERT_TRUE(WithZone(db, [&](ck::QueueZone& zone) {
                return zone.Quarantine(id, lease, "permanent", "disk on fire");
              }).ok());

  // Gone from the queue (count, emptiness — i.e. pointer GC proceeds)...
  EXPECT_EQ(quick_->PendingCount(db).value(), 0);
  ASSERT_TRUE(WithZone(db, [&](ck::QueueZone& zone) {
                QUICK_ASSIGN_OR_RETURN(bool empty, zone.IsEmpty());
                EXPECT_TRUE(empty);
                return Status::OK();
              }).ok());

  // ...but fully preserved in the quarantine.
  EXPECT_EQ(admin_->DeadLetterCount(db).value(), 1);
  auto dls = admin_->ListDeadLetters(db).value();
  ASSERT_EQ(dls.size(), 1u);
  EXPECT_EQ(dls[0].id, id);
  EXPECT_EQ(dls[0].job_type, "jt");
  EXPECT_EQ(dls[0].payload, "precious-payload");
  EXPECT_EQ(dls[0].priority, 7);
  EXPECT_EQ(dls[0].attempts, 1);  // error_count 0 + the failing attempt
  EXPECT_EQ(dls[0].reason, "permanent");
  EXPECT_EQ(dls[0].final_error, "disk on fire");
  EXPECT_EQ(dls[0].quarantine_time, clock_.NowMillis());
  EXPECT_GT(dls[0].enqueue_time, 0);
}

TEST_F(QuarantineTest, QuarantineIsFencedByLeaseId) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  const std::string id = MustEnqueue(db, "jt", "x");

  std::string stale;
  ASSERT_TRUE(WithZone(db, [&](ck::QueueZone& zone) {
                QUICK_ASSIGN_OR_RETURN(stale, zone.ObtainLease(id, 1000));
                return Status::OK();
              }).ok());
  clock_.AdvanceMillis(1500);  // lease expires
  std::string fresh;
  ASSERT_TRUE(WithZone(db, [&](ck::QueueZone& zone) {
                QUICK_ASSIGN_OR_RETURN(fresh, zone.ObtainLease(id, 5000));
                return Status::OK();
              }).ok());

  // The zombie's quarantine is rejected; the live lease's succeeds.
  Status z = WithZone(db, [&](ck::QueueZone& zone) {
    return zone.Quarantine(id, stale, "permanent", "zombie says so");
  });
  EXPECT_TRUE(z.IsLeaseLost()) << z;
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);
  EXPECT_EQ(admin_->DeadLetterCount(db).value(), 0);
  EXPECT_TRUE(WithZone(db, [&](ck::QueueZone& zone) {
                return zone.Quarantine(id, fresh, "permanent", "for real");
              }).ok());
  EXPECT_EQ(admin_->DeadLetterCount(db).value(), 1);
}

TEST_F(QuarantineTest, ListOrdersByQuarantineTimeAndHonorsLimit) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    ids.push_back(MustEnqueue(db, "jt", "p" + std::to_string(i)));
  }
  for (const std::string& id : ids) {
    clock_.AdvanceMillis(10);
    ASSERT_TRUE(WithZone(db, [&](ck::QueueZone& zone) {
                  return zone.Quarantine(id, std::nullopt, "permanent", "e");
                }).ok());
  }
  auto all = admin_->ListDeadLetters(db).value();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].id, ids[0]);  // oldest quarantine first
  EXPECT_EQ(all[2].id, ids[2]);
  EXPECT_EQ(admin_->ListDeadLetters(db, /*limit=*/2).value().size(), 2u);
}

// --- Consumer end-to-end + admin drain --------------------------------------

TEST_F(QuarantineTest, RequeueDeadLetterRoundTripsThroughFullPipeline) {
  // A handler that fails permanently until "healed", then succeeds: the
  // operator-fixes-the-bug-then-requeues story.
  bool healed = false;
  std::vector<std::string> processed;
  registry_.Register("flappy", [&](WorkContext& ctx) {
    if (!healed) return Status::Permanent("bug #123");
    processed.push_back(ctx.item.payload);
    return Status::OK();
  });
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  const std::string id = MustEnqueue(db, "flappy", "the-work");

  ConsumerConfig config = TestConfig();
  config.min_inactive_millis = 500;  // GC cold pointers quickly
  Consumer consumer(quick_.get(), {"c1"}, &registry_, config, "a");
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(consumer.stats().items_quarantined.Value(), 1);
  EXPECT_EQ(admin_->DeadLetterCount(db).value(), 1);

  // Let the (now empty) pointer re-vest (it was requeued to the dequeued
  // item's lease horizon) and get GCed, so the requeue must recreate it.
  clock_.AdvanceMillis(6000);
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  ASSERT_EQ(quick_->TopLevelCount("c1").value(), 0);

  const int64_t requeued_before =
      MetricsRegistry::Default()->GetCounter("quick.deadletter.requeued")
          ->Value();
  healed = true;
  ASSERT_TRUE(admin_->RequeueDeadLetter(db, id).ok());
  EXPECT_EQ(MetricsRegistry::Default()
                ->GetCounter("quick.deadletter.requeued")
                ->Value(),
            requeued_before + 1);
  // Quarantine emptied, pointer recreated, item findable again.
  EXPECT_EQ(admin_->DeadLetterCount(db).value(), 0);
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);
  EXPECT_EQ(quick_->PendingCount(db).value(), 1);

  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(processed, std::vector<std::string>{"the-work"});
  EXPECT_EQ(quick_->PendingCount(db).value(), 0);
}

TEST_F(QuarantineTest, RequeueResetsErrorCount) {
  RetryPolicy policy;
  policy.max_inline_retries = 0;
  policy.max_attempts = 2;
  policy.drop_on_exhaust = true;
  policy.backoff_initial_millis = 10;
  int failures = 0;
  registry_.Register(
      "sick",
      [&](WorkContext& ctx) {
        ++failures;
        EXPECT_LE(ctx.item.error_count, 1);  // never resumes an old budget
        return Status::Unavailable("down");
      },
      policy);
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  const std::string id = MustEnqueue(db, "sick", "x");
  Consumer consumer(quick_.get(), {"c1"}, &registry_, TestConfig(), "a");

  for (int pass = 0; pass < 4 && failures < 2; ++pass) {
    ASSERT_TRUE(consumer.RunOnePass("c1").ok());
    clock_.AdvanceMillis(6000);
  }
  ASSERT_EQ(admin_->DeadLetterCount(db).value(), 1);
  EXPECT_EQ(admin_->ListDeadLetters(db).value()[0].attempts, 2);

  // After requeue the attempt budget restarts: two more attempts happen
  // before the item is quarantined again, not zero.
  ASSERT_TRUE(admin_->RequeueDeadLetter(db, id).ok());
  for (int pass = 0; pass < 4 && failures < 4; ++pass) {
    ASSERT_TRUE(consumer.RunOnePass("c1").ok());
    clock_.AdvanceMillis(6000);
  }
  EXPECT_EQ(failures, 4);
  EXPECT_EQ(admin_->DeadLetterCount(db).value(), 1);
}

TEST_F(QuarantineTest, RequeueAllAndPurge) {
  registry_.Register("doomed",
                     [](WorkContext&) { return Status::Permanent("no"); });
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  MustEnqueue(db, "doomed", "a");
  MustEnqueue(db, "doomed", "b");
  const std::string purge_id = MustEnqueue(db, "doomed", "c");
  Consumer consumer(quick_.get(), {"c1"}, &registry_, TestConfig(), "a");
  for (int pass = 0; pass < 3 && admin_->DeadLetterCount(db).value() < 3;
       ++pass) {
    ASSERT_TRUE(consumer.RunOnePass("c1").ok());
    clock_.AdvanceMillis(2000);
  }
  ASSERT_EQ(admin_->DeadLetterCount(db).value(), 3);

  const int64_t purged_before =
      MetricsRegistry::Default()->GetCounter("quick.deadletter.purged")
          ->Value();
  ASSERT_TRUE(admin_->PurgeDeadLetter(db, purge_id).ok());
  EXPECT_EQ(MetricsRegistry::Default()
                ->GetCounter("quick.deadletter.purged")
                ->Value(),
            purged_before + 1);
  EXPECT_TRUE(admin_->PurgeDeadLetter(db, purge_id).IsNotFound());

  EXPECT_EQ(admin_->RequeueAllDeadLetters(db).value(), 2);
  EXPECT_EQ(admin_->DeadLetterCount(db).value(), 0);
  EXPECT_EQ(quick_->PendingCount(db).value(), 2);
  // InspectTenant surfaces the quarantine depth.
  EXPECT_EQ(admin_->InspectTenant(db).value().dead_letters, 0);
}

TEST_F(QuarantineTest, CorruptPointerQuarantinedInClusterShard) {
  // Plant a pointer whose db_key does not parse; the consumer must move it
  // into the top-level zone's quarantine instead of deleting it.
  const ck::DatabaseRef cluster_db = ck_->OpenClusterDb("c1");
  std::string bad_id;
  ASSERT_TRUE(fdb::RunTransaction(cluster_db.cluster,
                                  [&](fdb::Transaction& txn) {
                                    ck::QueueZone top =
                                        quick_->OpenTopZone(cluster_db, &txn);
                                    ck::QueuedItem item;
                                    item.job_type = ck::kPointerJobType;
                                    item.db_key = "not|a|valid|pointer";
                                    item.payload = "junk";
                                    QUICK_ASSIGN_OR_RETURN(
                                        bad_id, top.Enqueue(std::move(item), 0));
                                    return Status::OK();
                                  })
                  .ok());
  Consumer consumer(quick_.get(), {"c1"}, &registry_, TestConfig(), "a");
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(consumer.stats().items_quarantined.Value(), 1);
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 0);

  auto dls = admin_->ListClusterDeadLetters("c1").value();
  ASSERT_EQ(dls.size(), 1u);
  EXPECT_EQ(dls[0].id, bad_id);
  EXPECT_EQ(dls[0].reason, "corrupt_pointer");

  // Operator decision: purge it (requeueing junk would just loop).
  ASSERT_TRUE(admin_->PurgeClusterDeadLetter("c1", bad_id).ok());
  EXPECT_EQ(admin_->ListClusterDeadLetters("c1").value().size(), 0u);
}

TEST_F(QuarantineTest, RequeueClusterDeadLetterRestoresLocalItem) {
  // A local work item with no handler quarantines in its top-level shard;
  // a cluster-level requeue makes it runnable again.
  WorkItem item;
  item.job_type = "local_fix";
  item.payload = "local-payload";
  auto id = quick_->EnqueueLocal("c1", item, 0);
  ASSERT_TRUE(id.ok());

  Consumer consumer(quick_.get(), {"c1"}, &registry_, TestConfig(), "a");
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());  // unknown type -> quarantined
  ASSERT_EQ(admin_->ListClusterDeadLetters("c1").value().size(), 1u);
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 0);

  std::vector<std::string> processed;
  registry_.Register("local_fix", [&](WorkContext& ctx) {
    processed.push_back(ctx.item.payload);
    return Status::OK();
  });
  ASSERT_TRUE(admin_->RequeueClusterDeadLetter("c1", id.value()).ok());
  EXPECT_EQ(quick_->TopLevelCount("c1").value(), 1);
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(processed, std::vector<std::string>{"local-payload"});
  EXPECT_EQ(admin_->ListClusterDeadLetters("c1").value().size(), 0u);
}

// --- FIFO-zone regression ---------------------------------------------------

TEST_F(QuarantineTest, FifoZoneExhaustionKeepsArrivalOrderConsistent) {
  // Regression: the exhaustion-drop path used to open the tenant zone
  // without the FIFO schema, so the delete left the sticky arrival stamp
  // behind; re-enqueueing the same id then resurrected the OLD stamp and
  // the item jumped the line. Every terminal transition must honour the
  // zone's schema.
  QuickConfig qconfig;
  qconfig.fifo_tenant_zones = true;
  Init(qconfig);

  RetryPolicy policy;
  policy.max_inline_retries = 0;
  policy.max_attempts = 1;
  policy.drop_on_exhaust = true;
  policy.quarantine_on_failure = false;  // the legacy delete had the bug
  bool fail = true;
  std::vector<std::string> order;
  registry_.Register(
      "t",
      [&](WorkContext& ctx) {
        if (fail) return Status::Unavailable("down");
        order.push_back(ctx.item.payload);
        return Status::OK();
      },
      policy);

  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem first;
  first.job_type = "t";
  first.payload = "old-x";
  first.id = "x";  // fixed id so the re-enqueue collides with the stamp
  ASSERT_TRUE(quick_->Enqueue(db, first, 0).ok());

  ConsumerConfig config = TestConfig();
  Consumer consumer(quick_.get(), {"c1"}, &registry_, config, "fifo");
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());  // exhausted -> legacy drop
  ASSERT_EQ(quick_->PendingCount(db).value(), 0);

  // The drop must have cleared the arrival stamp with the record.
  const ck::DatabaseRef dbref = ck_->OpenDatabase(db);
  ASSERT_TRUE(fdb::RunTransaction(dbref.cluster,
                                  [&](fdb::Transaction& txn) {
                                    ck::QueueZone zone =
                                        quick_->OpenTenantZone(dbref, &txn);
                                    QUICK_ASSIGN_OR_RETURN(
                                        std::optional<std::string> stamp,
                                        zone.ArrivalStamp("x"));
                                    EXPECT_FALSE(stamp.has_value());
                                    return Status::OK();
                                  })
                  .ok());

  // "y" enqueued before "x" returns must process before it.
  fail = false;
  WorkItem second;
  second.job_type = "t";
  second.payload = "y";
  ASSERT_TRUE(quick_->Enqueue(db, second, 0).ok());
  WorkItem again;
  again.job_type = "t";
  again.payload = "new-x";
  again.id = "x";
  ASSERT_TRUE(quick_->Enqueue(db, again, 0).ok());

  clock_.AdvanceMillis(6000);
  for (int pass = 0; pass < 3; ++pass) {
    ASSERT_TRUE(consumer.RunOnePass("c1").ok());
    clock_.AdvanceMillis(2000);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"y", "new-x"}));
}

TEST_F(QuarantineTest, FifoZoneQuarantineClearsArrivalStampToo) {
  QuickConfig qconfig;
  qconfig.fifo_tenant_zones = true;
  Init(qconfig);

  registry_.Register("doomed",
                     [](WorkContext&) { return Status::Permanent("no"); });
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "u1");
  WorkItem item;
  item.job_type = "doomed";
  item.payload = "p";
  item.id = "x";
  ASSERT_TRUE(quick_->Enqueue(db, item, 0).ok());

  ConsumerConfig config = TestConfig();
  Consumer consumer(quick_.get(), {"c1"}, &registry_, config, "fifo");
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  EXPECT_EQ(consumer.stats().items_quarantined.Value(), 1);

  const ck::DatabaseRef dbref = ck_->OpenDatabase(db);
  ASSERT_TRUE(fdb::RunTransaction(dbref.cluster,
                                  [&](fdb::Transaction& txn) {
                                    ck::QueueZone zone =
                                        quick_->OpenTenantZone(dbref, &txn);
                                    QUICK_ASSIGN_OR_RETURN(
                                        std::optional<std::string> stamp,
                                        zone.ArrivalStamp("x"));
                                    EXPECT_FALSE(stamp.has_value());
                                    return Status::OK();
                                  })
                  .ok());
  EXPECT_EQ(admin_->DeadLetterCount(db).value(), 1);
}

}  // namespace
}  // namespace quick::core
