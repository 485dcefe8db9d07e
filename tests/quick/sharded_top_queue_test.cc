// Tests for sharded top-level queues (§6: "While currently a single
// top-level queue per cluster is sufficient for our use-cases, more queues
// can be created for scalability by sharding the key-space").

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "cloudkit/queue_zone.h"
#include "common/metrics.h"
#include "control/balancer.h"
#include "fdb/retry.h"
#include "quick/admin.h"
#include "quick/consumer.h"
#include "quick/lease_cache.h"

namespace quick::core {
namespace {

class ShardedTopQueueTest : public ::testing::Test {
 protected:
  ShardedTopQueueTest() {
    fdb::Database::Options opts;
    opts.clock = &clock_;
    clusters_ = std::make_unique<fdb::ClusterSet>(opts);
    clusters_->AddCluster("c1");
    clusters_->AddCluster("c2");
    ck_ = std::make_unique<ck::CloudKitService>(clusters_.get(), &clock_);
    QuickConfig config;
    config.top_zone_shards = 4;
    quick_ = std::make_unique<Quick>(ck_.get(), config);
    registry_.Register("t", [this](WorkContext& ctx) {
      processed_.insert(ctx.item.id);
      return Status::OK();
    });
  }

  ConsumerConfig TestConfig() {
    ConsumerConfig config;
    config.sequential = true;
    config.relaxed_reads_for_peek = false;
    config.dequeue_max = 4;
    return config;
  }

  std::string MustEnqueue(const ck::DatabaseId& db) {
    WorkItem item;
    item.job_type = "t";
    auto id = quick_->Enqueue(db, item, 0);
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value_or("");
  }

  std::string MustEnqueueLocal(const std::string& cluster) {
    WorkItem item;
    item.job_type = "t";
    auto id = quick_->EnqueueLocal(cluster, item, 0);
    EXPECT_TRUE(id.ok()) << id.status();
    return id.value_or("");
  }

  /// Distinct shard zones the given item ids hash to on `cluster`.
  std::set<std::string> ShardsOf(const std::string& cluster,
                                 const std::set<std::string>& ids) {
    std::set<std::string> shards;
    for (const std::string& id : ids) {
      shards.insert(quick_->TopZoneNameFor(cluster, id));
    }
    return shards;
  }

  ManualClock clock_{60000};
  std::unique_ptr<fdb::ClusterSet> clusters_;
  std::unique_ptr<ck::CloudKitService> ck_;
  std::unique_ptr<Quick> quick_;
  JobRegistry registry_;
  std::set<std::string> processed_;
};

TEST_F(ShardedTopQueueTest, ShardNamesStableAndComplete) {
  EXPECT_EQ(quick_->TopZoneNames("c1").size(), 4u);
  // Assignment is deterministic and within the shard set.
  const std::string name = quick_->TopZoneNameFor("c1", "some-pointer-key");
  EXPECT_EQ(name, quick_->TopZoneNameFor("c1", "some-pointer-key"));
  bool found = false;
  for (const std::string& shard : quick_->TopZoneNames("c1")) {
    if (shard == name) found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ShardedTopQueueTest, PointersSpreadAcrossShards) {
  std::set<std::string> used_shards;
  for (int i = 0; i < 40; ++i) {
    const ck::DatabaseId db =
        ck::DatabaseId::Private("app", "user" + std::to_string(i));
    MustEnqueue(db);
    Pointer p{db, quick_->config().queue_zone_name};
    used_shards.insert(quick_->TopZoneNameFor(
        ck_->OpenDatabase(db).cluster->name(), p.Key()));
  }
  // 40 hashed keys into 4 shards: all shards essentially surely hit.
  EXPECT_GE(used_shards.size(), 3u);
  // TopLevelCount sums across shards.
  int64_t total = 0;
  for (const char* cluster : {"c1", "c2"}) {
    total += quick_->TopLevelCount(cluster).value_or(0);
  }
  EXPECT_EQ(total, 40);
}

TEST_F(ShardedTopQueueTest, ConsumerDrainsAllShards) {
  std::set<std::string> expected;
  for (int i = 0; i < 25; ++i) {
    expected.insert(MustEnqueue(
        ck::DatabaseId::Private("app", "user" + std::to_string(i))));
  }
  Consumer consumer(quick_.get(), {"c1", "c2"}, &registry_, TestConfig(),
                    "shard-consumer");
  for (int pass = 0; pass < 4; ++pass) {
    ASSERT_TRUE(consumer.RunOnePass("c1").ok());
    ASSERT_TRUE(consumer.RunOnePass("c2").ok());
  }
  EXPECT_EQ(processed_, expected);
}

TEST_F(ShardedTopQueueTest, LocalItemsShardedAndProcessed) {
  std::set<std::string> expected;
  for (int i = 0; i < 12; ++i) {
    WorkItem item;
    item.job_type = "t";
    auto id = quick_->EnqueueLocal("c1", item, 0);
    ASSERT_TRUE(id.ok());
    expected.insert(*id);
  }
  EXPECT_EQ(quick_->TopLevelCount("c1").value_or(-1), 12);
  Consumer consumer(quick_.get(), {"c1"}, &registry_, TestConfig(), "local");
  for (int pass = 0; pass < 4; ++pass) {
    ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  }
  EXPECT_EQ(processed_, expected);
  EXPECT_EQ(consumer.stats().local_items_processed.Value(), 12);
}

TEST_F(ShardedTopQueueTest, AdminSeesAllShards) {
  for (int i = 0; i < 10; ++i) {
    MustEnqueue(ck::DatabaseId::Private("app", "user" + std::to_string(i)));
  }
  QuickAdmin admin(quick_.get());
  int64_t pointers = 0;
  for (const char* cluster : {"c1", "c2"}) {
    auto info = admin.InspectCluster(cluster);
    ASSERT_TRUE(info.ok());
    pointers += info->pointers;
  }
  EXPECT_EQ(pointers, 10);
}

TEST_F(ShardedTopQueueTest, MigrationPreservesShardAssignment) {
  const ck::DatabaseId db = ck::DatabaseId::Private("app", "mover");
  const std::string id = MustEnqueue(db);
  const std::string src = ck_->placement()->Get(db).value();
  const std::string dst = src == "c1" ? "c2" : "c1";
  control::TenantBalancer balancer(quick_.get());
  ASSERT_TRUE(balancer.MoveTenant(db, dst).ok());
  EXPECT_EQ(quick_->TopLevelCount(dst).value_or(-1), 1);
  EXPECT_EQ(quick_->TopLevelCount(src).value_or(-1), 0);

  Consumer consumer(quick_.get(), {dst}, &registry_, TestConfig(), "m");
  for (int pass = 0; pass < 2; ++pass) {
    ASSERT_TRUE(consumer.RunOnePass(dst).ok());
  }
  EXPECT_TRUE(processed_.count(id));
}

TEST_F(ShardedTopQueueTest, GcWorksPerShard) {
  ConsumerConfig config = TestConfig();
  config.min_inactive_millis = 100;
  config.pointer_lease_millis = 50;
  Consumer consumer(quick_.get(), {"c1", "c2"}, &registry_, config, "gc");
  for (int i = 0; i < 10; ++i) {
    MustEnqueue(ck::DatabaseId::Private("app", "user" + std::to_string(i)));
  }
  // Drain, then let leases and grace expire, then GC everything.
  for (int round = 0; round < 30; ++round) {
    clock_.AdvanceMillis(3000);
    ASSERT_TRUE(consumer.RunOnePass("c1").ok());
    ASSERT_TRUE(consumer.RunOnePass("c2").ok());
  }
  EXPECT_EQ(processed_.size(), 10u);
  EXPECT_EQ(quick_->TopLevelCount("c1").value_or(-1), 0);
  EXPECT_EQ(quick_->TopLevelCount("c2").value_or(-1), 0);
}

// Regression for the first-shard peek bias: with peek_max split evenly
// across shards (peek_max / n_shards, min 1) and a rotated starting shard,
// one pass under a tight peek budget must draw from many shards instead of
// exhausting the budget on whichever shard happened to be scanned first.
TEST_F(ShardedTopQueueTest, PeekBudgetSpansShards) {
  for (int i = 0; i < 40; ++i) MustEnqueueLocal("c1");
  ConsumerConfig config = TestConfig();
  config.peek_max = 8;  // 2 per shard across 4 shards
  config.selection_max = 100;
  config.dequeue_max = 8;
  Consumer consumer(quick_.get(), {"c1"}, &registry_, config, "budget");
  ASSERT_TRUE(consumer.RunOnePass("c1").ok());
  // The old code let the first shard consume the whole budget; now every
  // shard contributes at most peek_max / n_shards = 2 ids per pass.
  EXPECT_LE(processed_.size(), 8u);
  EXPECT_GE(processed_.size(), 6u);
  EXPECT_GE(ShardsOf("c1", processed_).size(), 3u);
}

// Satellite: per-(cluster, shard) sequential-scanner election. Exactly one
// scanner holds each shard's election key; a non-elected scanner still
// makes progress by random sampling; when the holder crashes, every shard
// fails over to a survivor after the election TTL.
TEST_F(ShardedTopQueueTest, PerShardElectionAndFailover) {
  LeaseCache cache(&clock_);
  ConsumerConfig config = TestConfig();
  config.dequeue_max = 8;
  Consumer a(quick_.get(), {"c1"}, &registry_, config, "seq-a", &cache);
  Consumer b(quick_.get(), {"c1"}, &registry_, config, "seq-b", &cache);
  for (int i = 0; i < 40; ++i) MustEnqueueLocal("c1");

  // a's pass visits every (non-empty) shard and wins each shard's election.
  ASSERT_TRUE(a.RunOnePass("c1").ok());
  for (const std::string& shard : quick_->TopZoneNames("c1")) {
    EXPECT_EQ(cache.Holder("quick-seq|c1|" + shard), "seq-a") << shard;
  }
  // The legacy per-cluster key is not used when the cluster is sharded.
  EXPECT_EQ(cache.Holder("quick-seq|c1"), "");

  // b is elected nowhere, yet still progresses via random sampling.
  for (int i = 0; i < 12; ++i) MustEnqueueLocal("c1");
  const size_t after_a = processed_.size();
  ASSERT_TRUE(b.RunOnePass("c1").ok());
  EXPECT_GT(processed_.size(), after_a);
  for (const std::string& shard : quick_->TopZoneNames("c1")) {
    EXPECT_EQ(cache.Holder("quick-seq|c1|" + shard), "seq-a") << shard;
  }

  // Crash the holder; past the election TTL every shard fails over to b.
  a.SimulateCrash();
  clock_.AdvanceMillis(1500);
  for (int i = 0; i < 40; ++i) MustEnqueueLocal("c1");
  ASSERT_TRUE(b.RunOnePass("c1").ok());
  for (const std::string& shard : quick_->TopZoneNames("c1")) {
    EXPECT_EQ(cache.Holder("quick-seq|c1|" + shard), "seq-b") << shard;
  }
}

// Satellite: migration across clusters with *different* shard counts. The
// destination pointer must land in the shard derived at the destination
// (TopZoneShards(dst)), not the source's — and be gone from every source
// shard.
TEST_F(ShardedTopQueueTest, MigrationAcrossDifferentShardCounts) {
  QuickConfig config;
  config.top_zone_shards = 4;
  config.cluster_top_zone_shards["c1"] = 4;
  config.cluster_top_zone_shards["c2"] = 8;
  Quick q(ck_.get(), config);
  ASSERT_EQ(q.TopZoneNames("c1").size(), 4u);
  ASSERT_EQ(q.TopZoneNames("c2").size(), 8u);

  const ck::DatabaseId db = ck::DatabaseId::Private("app", "cross-mover");
  WorkItem item;
  item.job_type = "t";
  auto id = q.Enqueue(db, item, 0);
  ASSERT_TRUE(id.ok()) << id.status();
  const std::string src = ck_->placement()->Get(db).value();
  const std::string dst = src == "c1" ? "c2" : "c1";
  const Pointer p{db, q.config().queue_zone_name};

  // Exactly one shard of `cluster` holds the pointer record; returns it.
  auto pointer_shard = [&](const std::string& cluster) {
    const ck::DatabaseRef cluster_db = ck_->OpenClusterDb(cluster);
    std::string found;
    int hits = 0;
    Status st = fdb::RunTransaction(cluster_db.cluster,
                                    [&](fdb::Transaction& txn) {
      found.clear();
      hits = 0;
      for (const std::string& shard : q.TopZoneNames(cluster)) {
        ck::QueueZone zone = ck_->OpenQueueZone(cluster_db, shard, &txn);
        auto loaded = zone.Load(p.Key());
        QUICK_RETURN_IF_ERROR(loaded.status());
        if (loaded->has_value()) {
          ++hits;
          found = shard;
        }
      }
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st;
    EXPECT_EQ(hits, 1) << cluster;
    return found;
  };
  EXPECT_EQ(pointer_shard(src), q.TopZoneNameFor(src, p.Key()));

  control::TenantBalancer balancer(&q);
  ASSERT_TRUE(balancer.MoveTenant(db, dst).ok());
  EXPECT_EQ(q.TopLevelCount(src).value_or(-1), 0);
  EXPECT_EQ(q.TopLevelCount(dst).value_or(-1), 1);
  EXPECT_EQ(pointer_shard(dst), q.TopZoneNameFor(dst, p.Key()));

  // And back: the 8-shard -> 4-shard direction re-derives again.
  ASSERT_TRUE(balancer.MoveTenant(db, src).ok());
  EXPECT_EQ(q.TopLevelCount(dst).value_or(-1), 0);
  EXPECT_EQ(pointer_shard(src), q.TopZoneNameFor(src, p.Key()));

  // The migrated tenant's work is still consumable where it landed — via a
  // consumer over the same per-cluster shard config.
  Consumer consumer(&q, {src}, &registry_, TestConfig(), "xm");
  for (int pass = 0; pass < 3; ++pass) {
    ASSERT_TRUE(consumer.RunOnePass(src).ok());
  }
  EXPECT_TRUE(processed_.count(*id));
}

// Tentpole: a striped scanner that is the only member of the cluster's
// membership group owns every shard and drains them all.
TEST_F(ShardedTopQueueTest, StripedSoloConsumerOwnsAllShards) {
  LeaseCache cache(&clock_);
  ConsumerConfig config = TestConfig();
  config.striped_scanners = true;
  config.steal_probability = 0.0;
  Consumer solo(quick_.get(), {"c1"}, &registry_, config, "solo", &cache);
  std::set<std::string> expected;
  for (int i = 0; i < 20; ++i) expected.insert(MustEnqueueLocal("c1"));
  for (int pass = 0; pass < 6 && processed_ != expected; ++pass) {
    ASSERT_TRUE(solo.RunOnePass("c1").ok());
  }
  EXPECT_EQ(processed_, expected);
  EXPECT_EQ(solo.stats().shards_owned.load(), 4);
  EXPECT_EQ(solo.stats().steals.Value(), 0);
  // The per-consumer ownership gauge is exported process-wide.
  EXPECT_EQ(MetricsRegistry::Default()
                ->GetGauge("quick.scanner.shards_owned.solo")
                ->Value(),
            4);
}

// Tentpole: two striped scanners rendezvous-partition the shard set (the
// stripe sizes sum to the shard count, no shard owned twice) and together
// drain the cluster with stealing disabled.
TEST_F(ShardedTopQueueTest, StripedPairPartitionsAndDrains) {
  LeaseCache cache(&clock_);
  ConsumerConfig config = TestConfig();
  config.striped_scanners = true;
  config.steal_probability = 0.0;
  Consumer a(quick_.get(), {"c1"}, &registry_, config, "stripe-a", &cache);
  Consumer b(quick_.get(), {"c1"}, &registry_, config, "stripe-b", &cache);

  // First passes populate the membership group; subsequent passes compute
  // the stripe split from the full member list.
  ASSERT_TRUE(a.RunOnePass("c1").ok());
  ASSERT_TRUE(b.RunOnePass("c1").ok());
  ASSERT_TRUE(a.RunOnePass("c1").ok());
  ASSERT_TRUE(b.RunOnePass("c1").ok());
  EXPECT_EQ(a.stats().shards_owned.load() + b.stats().shards_owned.load(), 4);

  std::set<std::string> expected;
  for (int i = 0; i < 25; ++i) expected.insert(MustEnqueueLocal("c1"));
  for (int pass = 0; pass < 40 && processed_ != expected; ++pass) {
    ASSERT_TRUE(a.RunOnePass("c1").ok());
    ASSERT_TRUE(b.RunOnePass("c1").ok());
  }
  EXPECT_EQ(processed_, expected);
}

// Tentpole: work-stealing rescues a dead owner's stripe before membership
// expiry, and the stripe re-rendezvouses to the survivor once the dead
// member's announcement lapses.
TEST_F(ShardedTopQueueTest, WorkStealingCoversDeadOwnersShards) {
  LeaseCache cache(&clock_);
  ConsumerConfig config = TestConfig();
  config.striped_scanners = true;
  config.steal_probability = 1.0;
  Consumer a(quick_.get(), {"c1"}, &registry_, config, "steal-a", &cache);
  Consumer b(quick_.get(), {"c1"}, &registry_, config, "steal-b", &cache);
  ASSERT_TRUE(a.RunOnePass("c1").ok());
  ASSERT_TRUE(b.RunOnePass("c1").ok());
  a.SimulateCrash();  // a stops scanning and stops announcing

  std::set<std::string> expected;
  for (int i = 0; i < 20; ++i) expected.insert(MustEnqueueLocal("c1"));
  // The clock never advances here, so a stays in the membership view and
  // keeps "owning" its stripe — only stealing lets b reach those shards.
  for (int pass = 0; pass < 80 && processed_ != expected; ++pass) {
    ASSERT_TRUE(b.RunOnePass("c1").ok());
  }
  EXPECT_EQ(processed_, expected);
  if (b.stats().shards_owned.load() < 4) {
    EXPECT_GT(b.stats().steals.Value(), 0);
    EXPECT_GT(MetricsRegistry::Default()
                  ->GetCounter("quick.scanner.steals")
                  ->Value(),
              0);
  }

  // Past the membership TTL the dead member is pruned and the survivor's
  // stripe grows to the full shard set.
  clock_.AdvanceMillis(1500);
  ASSERT_TRUE(b.RunOnePass("c1").ok());
  EXPECT_EQ(b.stats().shards_owned.load(), 4);
}

}  // namespace
}  // namespace quick::core
