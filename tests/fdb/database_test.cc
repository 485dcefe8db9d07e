#include "fdb/database.h"

#include <gtest/gtest.h>

#include <thread>

#include "fdb/cluster_set.h"

namespace quick::fdb {
namespace {

TEST(DatabaseTest, StatsTrackCommitsAndConflicts) {
  ManualClock clock;
  Database::Options opts;
  opts.clock = &clock;
  Database db("stats", opts);

  {
    Transaction t = db.CreateTransaction();
    t.Set("k", "v0");
    ASSERT_TRUE(t.Commit().ok());
  }
  // Force one conflict.
  Transaction loser = db.CreateTransaction();
  ASSERT_TRUE(loser.Get("k").ok());
  loser.Set("out", "x");
  {
    Transaction winner = db.CreateTransaction();
    winner.Set("k", "v1");
    ASSERT_TRUE(winner.Commit().ok());
  }
  ASSERT_TRUE(loser.Commit().IsNotCommitted());

  Database::Stats stats = db.GetStats();
  EXPECT_EQ(stats.commits_succeeded, 2);
  EXPECT_EQ(stats.conflicts, 1);
  EXPECT_EQ(stats.commits_attempted, 3);
  EXPECT_GE(stats.grv_calls, 1);
}

TEST(DatabaseTest, GrvCacheHitCounted) {
  ManualClock clock;
  Database::Options opts;
  opts.clock = &clock;
  Database db("cache", opts);
  {
    Transaction t = db.CreateTransaction();
    ASSERT_TRUE(t.GetReadVersion().ok());
  }
  TransactionOptions topts;
  topts.use_cached_read_version = true;
  Transaction t2 = db.CreateTransaction(topts);
  ASSERT_TRUE(t2.GetReadVersion().ok());
  EXPECT_EQ(db.GetStats().grv_cache_hits, 1);
}

TEST(DatabaseTest, MvccPruningRaisesReadFloor) {
  ManualClock clock;
  Database::Options opts;
  opts.clock = &clock;
  opts.mvcc_window_millis = 1000;
  Database db("prune", opts);

  Transaction old_reader = db.CreateTransaction();
  ASSERT_TRUE(old_reader.GetReadVersion().ok());

  // 300 commits over 3 simulated seconds so the window-driven prune pass
  // runs with old versions out of the window.
  for (int i = 0; i < 300; ++i) {
    Transaction t = db.CreateTransaction();
    t.Set("k" + std::to_string(i % 10), "v");
    ASSERT_TRUE(t.Commit().ok());
    if (i % 10 == 0) clock.AdvanceMillis(100);
  }

  // The old reader's version fell out of the MVCC window.
  auto r = old_reader.Get("k1");
  // Either the lifetime check or the prune floor rejects it.
  EXPECT_EQ(r.status().code(), StatusCode::kTransactionTooOld);
}

TEST(DatabaseTest, InjectedCommitUnavailable) {
  Database::Options opts;
  opts.faults.commit_unavailable = 1.0;
  Database db("flaky", opts);
  Transaction t = db.CreateTransaction();
  t.Set("k", "v");
  EXPECT_EQ(t.Commit().code(), StatusCode::kUnavailable);
}

TEST(DatabaseTest, InjectedUnknownResultApplied) {
  Database::Options opts;
  opts.faults.unknown_result_applied = 1.0;
  Database db("flaky", opts);
  Transaction t = db.CreateTransaction();
  t.Set("k", "v");
  EXPECT_TRUE(t.Commit().IsCommitUnknownResult());
  // The write actually landed.
  Transaction probe = db.CreateTransaction();
  EXPECT_EQ(probe.Get("k").value().value(), "v");
}

TEST(DatabaseTest, InjectedUnknownResultDropped) {
  Database::Options opts;
  opts.faults.unknown_result_dropped = 1.0;
  Database db("flaky", opts);
  Transaction t = db.CreateTransaction();
  t.Set("k", "v");
  EXPECT_TRUE(t.Commit().IsCommitUnknownResult());
  Database::Options clean;
  Transaction probe = db.CreateTransaction();
  EXPECT_FALSE(probe.Get("k").value().has_value());
}

TEST(DatabaseTest, InjectedGrvFault) {
  Database::Options opts;
  opts.faults.grv_unavailable = 1.0;
  Database db("flaky", opts);
  Transaction t = db.CreateTransaction();
  EXPECT_EQ(t.GetReadVersion().status().code(), StatusCode::kUnavailable);
}

TEST(DatabaseTest, ConcurrentBlindWritesAllSucceed) {
  Database db("conc");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&db, i] {
      for (int j = 0; j < kPerThread; ++j) {
        Transaction t = db.CreateTransaction();
        t.Set("t" + std::to_string(i) + "_" + std::to_string(j), "v");
        ASSERT_TRUE(t.Commit().ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(db.LiveKeyCount(), static_cast<size_t>(kThreads * kPerThread));
  EXPECT_EQ(db.GetStats().commits_succeeded, kThreads * kPerThread);
}

// Pruning is driven by the MVCC window, not a commit count: a handful of
// commits spread across simulated time must still raise the read floor
// (the old implementation waited for 256 commits regardless of age).
TEST(DatabaseTest, PruningIsWindowDrivenNotCommitCountDriven) {
  ManualClock clock;
  Database::Options opts;
  opts.clock = &clock;
  opts.mvcc_window_millis = 1000;
  Database db("window", opts);

  Transaction old_reader = db.CreateTransaction();
  ASSERT_TRUE(old_reader.GetReadVersion().ok());
  {
    Transaction t = db.CreateTransaction();
    t.Set("k", "v1");
    ASSERT_TRUE(t.Commit().ok());
  }
  clock.AdvanceMillis(3000);
  // Far fewer than 256 commits — the stale window alone must arm the prune.
  for (int i = 0; i < 3; ++i) {
    Transaction t = db.CreateTransaction();
    t.Set("k", "v" + std::to_string(i + 2));
    ASSERT_TRUE(t.Commit().ok());
    clock.AdvanceMillis(500);
  }
  EXPECT_EQ(old_reader.Get("k").status().code(),
            StatusCode::kTransactionTooOld);
}

// Regression: sustained enqueue/dequeue-style churn (write then clear) must
// converge — dead chains are erased once the window passes, so the key map
// does not grow without bound under a queue workload.
TEST(DatabaseTest, ChurnConvergesUnderWindowDrivenPruning) {
  ManualClock clock;
  Database::Options opts;
  opts.clock = &clock;
  opts.mvcc_window_millis = 1000;
  Database db("churn", opts);

  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 10; ++i) {
      Transaction t = db.CreateTransaction();
      t.Set("item" + std::to_string(round * 10 + i), "payload");
      ASSERT_TRUE(t.Commit().ok());
    }
    for (int i = 0; i < 10; ++i) {
      Transaction t = db.CreateTransaction();
      t.Clear("item" + std::to_string(round * 10 + i));
      ASSERT_TRUE(t.Commit().ok());
    }
    clock.AdvanceMillis(300);
  }

  // Let every churn version fall out of the window; the next commit's
  // batch prunes them (pruning piggybacks on the commit path).
  for (int i = 0; i < 3; ++i) {
    clock.AdvanceMillis(2000);
    Transaction t = db.CreateTransaction();
    t.Set("tick", std::to_string(i));
    ASSERT_TRUE(t.Commit().ok());
  }

  EXPECT_EQ(db.LiveKeyCount(), 1u);  // just "tick"
  // All 200 churned chains were erased; only "tick"'s short chain remains.
  EXPECT_LE(db.TotalEntryCount(), 3u);
}

// The cluster's interval resolver decides a read-write conflict the way
// the legacy linear ConflictTracker did; resolver_differential_test checks
// the two against each other over random histories.
TEST(DatabaseTest, ResolverKindLegacyGivesSameOutcomes) {
  Database db("res");
  {
    Transaction t = db.CreateTransaction();
    t.Set("k", "v0");
    ASSERT_TRUE(t.Commit().ok());
  }
  Transaction loser = db.CreateTransaction();
  ASSERT_TRUE(loser.Get("k").ok());
  loser.Set("out", "x");
  {
    Transaction winner = db.CreateTransaction();
    winner.Set("k", "v1");
    ASSERT_TRUE(winner.Commit().ok());
  }
  EXPECT_TRUE(loser.Commit().IsNotCommitted());
  EXPECT_GE(db.ResolverTrackedCount(), 1u);
}

TEST(ClusterSetTest, AddAndGet) {
  ClusterSet clusters;
  Database* a = clusters.AddCluster("east");
  Database* b = clusters.AddCluster("west");
  EXPECT_NE(a, b);
  EXPECT_EQ(clusters.Get("east"), a);
  EXPECT_EQ(clusters.Get("missing"), nullptr);
  EXPECT_EQ(clusters.size(), 2u);
}

TEST(ClusterSetTest, AddExistingReturnsSame) {
  ClusterSet clusters;
  Database* a = clusters.AddCluster("east");
  EXPECT_EQ(clusters.AddCluster("east"), a);
  EXPECT_EQ(clusters.size(), 1u);
}

TEST(ClusterSetTest, ClustersAreIndependent) {
  ClusterSet clusters;
  Database* a = clusters.AddCluster("east");
  Database* b = clusters.AddCluster("west");
  {
    Transaction t = a->CreateTransaction();
    t.Set("k", "east-value");
    ASSERT_TRUE(t.Commit().ok());
  }
  Transaction t = b->CreateTransaction();
  EXPECT_FALSE(t.Get("k").value().has_value());
}

TEST(ClusterSetTest, NamesPreserveInsertionOrder) {
  ClusterSet clusters;
  clusters.AddCluster("c");
  clusters.AddCluster("a");
  clusters.AddCluster("b");
  ASSERT_EQ(clusters.names().size(), 3u);
  EXPECT_EQ(clusters.names()[0], "c");
  EXPECT_EQ(clusters.names()[1], "a");
}

}  // namespace
}  // namespace quick::fdb
