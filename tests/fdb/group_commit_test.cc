// Group-commit semantics: concurrently arriving commits are resolved and
// applied as one batch at a single storage version, with distinct
// versionstamp batch-order bytes, and the result must be indistinguishable
// from some serial order (the batch order).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/random.h"
#include "fdb/database.h"
#include "fdb/retry.h"

namespace quick::fdb {
namespace {

uint16_t BatchOrderOf(const std::string& stamp) {
  EXPECT_EQ(stamp.size(), 10u);
  return static_cast<uint16_t>(
      (static_cast<uint8_t>(stamp[8]) << 8) | static_cast<uint8_t>(stamp[9]));
}

Version VersionOf(const std::string& stamp) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v = (v << 8) | static_cast<uint8_t>(stamp[i]);
  }
  return static_cast<Version>(v);
}

TEST(GroupCommitTest, SingleCommitsAreBatchesOfOne) {
  Database db("single");
  for (int i = 0; i < 5; ++i) {
    Transaction t = db.CreateTransaction();
    t.Set("k" + std::to_string(i), "v");
    ASSERT_TRUE(t.Commit().ok());
    auto stamp = t.GetVersionstamp();
    ASSERT_TRUE(stamp.ok());
    EXPECT_EQ(BatchOrderOf(*stamp), 0u);
    EXPECT_EQ(VersionOf(*stamp), t.GetCommittedVersion());
  }
  const Database::Stats stats = db.GetStats();
  EXPECT_EQ(stats.commits_succeeded, 5);
  EXPECT_EQ(stats.commit_batches, 5);
}

TEST(GroupCommitTest, DisabledMatchesLegacyVersionPerCommit) {
  Database::Options opts;
  opts.max_commit_batch = 1;
  Database db("nogroup", opts);
  for (int i = 0; i < 3; ++i) {
    Transaction t = db.CreateTransaction();
    t.Set("k", std::to_string(i));
    ASSERT_TRUE(t.Commit().ok());
    EXPECT_EQ(t.GetCommittedVersion(), i + 1);
  }
}

// Concurrent disjoint writers: every successful transaction gets a unique
// versionstamp; transactions sharing a storage version carry contiguous
// batch orders starting at 0; and at least one real multi-member batch
// forms under simultaneous release (commit latency widens the pile-up
// window).
TEST(GroupCommitTest, ConcurrentCommitsShareVersionWithDistinctOrders) {
  Database::Options opts;
  opts.latency.commit_micros = 2000;
  Database db("batching", opts);

  constexpr int kThreads = 8;
  constexpr int kRounds = 60;
  std::mutex mu;
  std::vector<std::string> stamps;

  for (int round = 0; round < kRounds; ++round) {
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t, round] {
        ready.fetch_add(1);
        while (!go.load()) {
        }
        Transaction txn = db.CreateTransaction();
        txn.Set("r" + std::to_string(round) + "t" + std::to_string(t), "v");
        ASSERT_TRUE(txn.Commit().ok());
        auto stamp = txn.GetVersionstamp();
        ASSERT_TRUE(stamp.ok());
        std::lock_guard<std::mutex> lock(mu);
        stamps.push_back(*stamp);
      });
    }
    while (ready.load() < kThreads) {
    }
    go.store(true);
    for (auto& th : threads) th.join();
  }

  ASSERT_EQ(stamps.size(), static_cast<size_t>(kThreads * kRounds));

  // Uniqueness: versionstamps are a total order over commits.
  std::sort(stamps.begin(), stamps.end());
  EXPECT_EQ(std::adjacent_find(stamps.begin(), stamps.end()), stamps.end())
      << "duplicate versionstamp";

  // Per shared version: contiguous batch orders 0..k-1.
  std::map<Version, std::vector<uint16_t>> by_version;
  for (const std::string& s : stamps) {
    by_version[VersionOf(s)].push_back(BatchOrderOf(s));
  }
  size_t multi_member_batches = 0;
  for (auto& [version, orders] : by_version) {
    std::sort(orders.begin(), orders.end());
    for (size_t i = 0; i < orders.size(); ++i) {
      EXPECT_EQ(orders[i], i) << "non-contiguous batch orders at version "
                              << version;
    }
    if (orders.size() > 1) ++multi_member_batches;
  }
  EXPECT_GT(multi_member_batches, 0u)
      << "no multi-member batch formed across " << kThreads * kRounds
      << " simultaneous commits";

  const Database::Stats stats = db.GetStats();
  EXPECT_EQ(stats.commits_succeeded, kThreads * kRounds);
  EXPECT_EQ(stats.commit_batches, static_cast<int64_t>(by_version.size()));
}

// Model replay: record every committed transaction's writes with its
// (version, batch order); replaying them in versionstamp order into a
// plain map must reproduce the database contents exactly. This pins the
// intra-batch apply order to the advertised batch orders.
TEST(GroupCommitTest, ReplayInBatchOrderMatchesDatabase) {
  Database::Options opts;
  opts.latency.commit_micros = 1000;
  Database db("replay", opts);

  struct Committed {
    std::string stamp;
    std::vector<std::pair<std::string, std::string>> writes;
  };
  std::mutex mu;
  std::vector<Committed> log;

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 100;
  constexpr int kKeys = 12;  // heavy overlap → real intra-batch conflicts
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      Random rng(7000 + tid);
      for (int i = 0; i < kTxnsPerThread; ++i) {
        std::vector<std::pair<std::string, std::string>> writes;
        const int n = 1 + static_cast<int>(rng.Uniform(3));
        for (int w = 0; w < n; ++w) {
          writes.emplace_back(
              "key" + std::to_string(rng.Uniform(kKeys)),
              "t" + std::to_string(tid) + "i" + std::to_string(i) + "w" +
                  std::to_string(w));
        }
        Transaction txn = db.CreateTransaction();
        for (const auto& [k, v] : writes) txn.Set(k, v);
        // Blind writes: no reads, so commits never conflict and the log
        // records exactly the applied transactions.
        Status st = txn.Commit();
        ASSERT_TRUE(st.ok()) << st;
        auto stamp = txn.GetVersionstamp();
        ASSERT_TRUE(stamp.ok());
        std::lock_guard<std::mutex> lock(mu);
        log.push_back({*stamp, std::move(writes)});
      }
    });
  }
  for (auto& th : threads) th.join();

  std::sort(log.begin(), log.end(),
            [](const Committed& a, const Committed& b) {
              return a.stamp < b.stamp;
            });
  std::map<std::string, std::string> model;
  for (const Committed& c : log) {
    for (const auto& [k, v] : c.writes) model[k] = v;
  }

  Transaction probe = db.CreateTransaction();
  auto rows = probe.GetRange(KeyRange{"key", "key\xFF"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), model.size());
  for (const KeyValue& kv : *rows) {
    EXPECT_EQ(kv.value, model[kv.key]) << "divergence at " << kv.key;
  }
}

// Versionstamped keys written by concurrent enqueuers: every commit gets a
// unique, commit-ordered key even when commits share a storage version.
TEST(GroupCommitTest, VersionstampedKeysUniqueAcrossBatchMembers) {
  Database::Options opts;
  opts.latency.commit_micros = 1000;
  Database db("stamps", opts);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < kPerThread; ++i) {
        Transaction txn = db.CreateTransaction();
        txn.SetVersionstampedKey("fifo/", "",
                                 "t" + std::to_string(tid) + "i" +
                                     std::to_string(i));
        ASSERT_TRUE(txn.Commit().ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  Transaction probe = db.CreateTransaction();
  auto rows = probe.GetRange(KeyRange::Prefix("fifo/"));
  ASSERT_TRUE(rows.ok());
  // No two commits may collide on a stamp: all entries survive.
  EXPECT_EQ(rows->size(), static_cast<size_t>(kThreads * kPerThread));
}

// Read-version floor fast path + batch members: a reader pinned at the
// batch version sees the whole batch; one pinned just before sees none of
// it (batch atomicity at the version granularity).
TEST(GroupCommitTest, BatchIsAtomicAtVersionGranularity) {
  Database db("atomicity");
  {
    Transaction t = db.CreateTransaction();
    t.Set("seed", "s");
    ASSERT_TRUE(t.Commit().ok());
  }
  const Version before = db.LastCommittedVersion();

  // Sequential commits are batches of one, but the invariant is the same
  // one group commit must preserve: nothing at version v is partially
  // visible at v-1.
  Transaction t = db.CreateTransaction();
  t.Set("a", "1");
  t.Set("b", "2");
  ASSERT_TRUE(t.Commit().ok());
  const Version after = t.GetCommittedVersion();

  Transaction old_reader = db.CreateTransaction();
  old_reader.SetReadVersion(before);
  EXPECT_FALSE(old_reader.Get("a").value().has_value());
  EXPECT_FALSE(old_reader.Get("b").value().has_value());

  Transaction new_reader = db.CreateTransaction();
  new_reader.SetReadVersion(after);
  EXPECT_EQ(new_reader.Get("a").value().value(), "1");
  EXPECT_EQ(new_reader.Get("b").value().value(), "2");
}

}  // namespace
}  // namespace quick::fdb
