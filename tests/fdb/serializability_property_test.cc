// Randomized strict-serializability checks for the FDB simulator. These
// validate the exact property QuiCK's correctness argument leans on (§6
// "Isolation level"): committed read-write transactions behave as if
// executed sequentially in commit-version order.
//
// The whole suite runs twice — with group commit on and off — because the
// batched commit pipeline must be observationally identical to one-at-a-
// time commits (same serializable outcomes, only cheaper).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/random.h"
#include "fdb/database.h"
#include "fdb/retry.h"

namespace quick::fdb {
namespace {

class SerializabilityTest : public ::testing::TestWithParam<bool> {
 protected:
  Database::Options Opts() const {
    Database::Options opts;
    if (!GetParam()) opts.max_commit_batch = 1;  // batches of one
    return opts;
  }
};

// Bank-transfer invariant: the sum across accounts is conserved by
// concurrent randomized transfers.
TEST_P(SerializabilityTest, BankTransfersConserveTotal) {
  Database db("bank", Opts());
  constexpr int kAccounts = 10;
  constexpr int64_t kInitial = 1000;
  {
    Transaction t = db.CreateTransaction();
    for (int i = 0; i < kAccounts; ++i) {
      t.Set("acct" + std::to_string(i), std::to_string(kInitial));
    }
    ASSERT_TRUE(t.Commit().ok());
  }

  constexpr int kThreads = 4;
  constexpr int kTransfers = 100;
  std::vector<std::thread> threads;
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&db, tid] {
      Random rng(1000 + tid);
      for (int i = 0; i < kTransfers; ++i) {
        const int from = static_cast<int>(rng.Uniform(kAccounts));
        int to = static_cast<int>(rng.Uniform(kAccounts));
        if (to == from) to = (to + 1) % kAccounts;
        const int64_t amount = 1 + static_cast<int64_t>(rng.Uniform(50));
        Status st = RunTransaction(
            &db,
            [&](Transaction& txn) {
              auto fv = txn.Get("acct" + std::to_string(from));
              QUICK_RETURN_IF_ERROR(fv.status());
              auto tv = txn.Get("acct" + std::to_string(to));
              QUICK_RETURN_IF_ERROR(tv.status());
              int64_t fb = std::stoll(fv.value().value());
              int64_t tb = std::stoll(tv.value().value());
              if (fb < amount) return Status::OK();  // skip, still commits
              txn.Set("acct" + std::to_string(from),
                      std::to_string(fb - amount));
              txn.Set("acct" + std::to_string(to),
                      std::to_string(tb + amount));
              return Status::OK();
            },
            /*max_attempts=*/1000);
        ASSERT_TRUE(st.ok());
      }
    });
  }
  for (auto& t : threads) t.join();

  Transaction probe = db.CreateTransaction();
  int64_t total = 0;
  for (int i = 0; i < kAccounts; ++i) {
    total += std::stoll(probe.Get("acct" + std::to_string(i)).value().value());
  }
  EXPECT_EQ(total, kAccounts * kInitial);
}

// Write-skew detection: two transactions each read both keys and write one.
// Under strict serializability at most one of two overlapping ones commits;
// the invariant x + y >= 1 must hold if every writer preserves it.
TEST_P(SerializabilityTest, NoWriteSkew) {
  Database db("skew", Opts());
  {
    Transaction t = db.CreateTransaction();
    t.Set("x", "1");
    t.Set("y", "1");
    ASSERT_TRUE(t.Commit().ok());
  }

  // Two concurrent transactions, each zeroing a different key if the sum
  // allows. Snapshot isolation would let both commit (classic write skew);
  // serializability must abort one. With group commit the two may land in
  // one batch — intra-batch resolution must still abort the later one.
  Transaction t1 = db.CreateTransaction();
  Transaction t2 = db.CreateTransaction();
  auto sum = [](Transaction& t) {
    return std::stoi(t.Get("x").value().value()) +
           std::stoi(t.Get("y").value().value());
  };
  ASSERT_GE(sum(t1), 2);
  ASSERT_GE(sum(t2), 2);
  t1.Set("x", "0");
  t2.Set("y", "0");
  const bool c1 = t1.Commit().ok();
  const bool c2 = t2.Commit().ok();
  EXPECT_TRUE(c1 != c2) << "write skew: both or neither committed";

  Transaction probe = db.CreateTransaction();
  const int x = std::stoi(probe.Get("x").value().value());
  const int y = std::stoi(probe.Get("y").value().value());
  EXPECT_GE(x + y, 1);
}

// Snapshot consistency across keys: a writer keeps x == y in every
// commit; concurrent readers must never observe x != y at any read
// version, proving reads are instantaneous snapshots rather than
// key-by-key latest values.
TEST_P(SerializabilityTest, SnapshotReadsSeeConsistentPairs) {
  Database db("pairs", Opts());
  {
    Transaction t = db.CreateTransaction();
    t.Set("x", "0");
    t.Set("y", "0");
    ASSERT_TRUE(t.Commit().ok());
  }

  std::atomic<bool> stop{false};
  std::thread writer([&db, &stop] {
    int n = 1;
    while (!stop.load()) {
      Transaction t = db.CreateTransaction();
      t.Set("x", std::to_string(n));
      t.Set("y", std::to_string(n));
      ASSERT_TRUE(t.Commit().ok());
      ++n;
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&db] {
      for (int i = 0; i < 500; ++i) {
        Transaction t = db.CreateTransaction();
        auto x = t.Get("x");
        auto y = t.Get("y");
        ASSERT_TRUE(x.ok());
        ASSERT_TRUE(y.ok());
        ASSERT_EQ(x.value().value(), y.value().value())
            << "torn snapshot at iteration " << i;
      }
    });
  }
  for (auto& t : readers) t.join();
  stop.store(true);
  writer.join();
}

// Atomic increments from many threads: no lost updates without any retries
// beyond transient faults (atomics never conflict). Under group commit,
// increments sharing one batch fold into one version chain — the total
// must still be exact.
TEST_P(SerializabilityTest, AtomicIncrementsNeverLost) {
  Database db("atomic", Opts());
  constexpr int kThreads = 8;
  constexpr int kIncrements = 500;
  std::atomic<int> conflicts{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &conflicts] {
      for (int i = 0; i < kIncrements; ++i) {
        Transaction txn = db.CreateTransaction();
        txn.Atomic(AtomicOp::kAdd, "n", EncodeLittleEndian64(1));
        Status st = txn.Commit();
        if (!st.ok()) conflicts.fetch_add(1);
        ASSERT_TRUE(st.ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(conflicts.load(), 0);
  Transaction probe = db.CreateTransaction();
  EXPECT_EQ(DecodeLittleEndian64(probe.Get("n").value().value()),
            static_cast<uint64_t>(kThreads * kIncrements));
}

// Limited strong reads conflict only on the keys they read (the clip at
// the last returned key). Consumers that pop the head of a queue with a
// limit-1 strong read, while producers append behind it, must still take
// every item exactly once.
TEST_P(SerializabilityTest, LimitedHeadReadsPopEachItemOnce) {
  Database db("queue", Opts());
  constexpr int kProducers = 2;
  constexpr int kPerProducer = 150;
  constexpr int kConsumers = 3;
  const KeyRange queue = KeyRange::Prefix("q/");
  std::atomic<int> producers_left{kProducers};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&db, &producers_left, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        char key[32];
        std::snprintf(key, sizeof(key), "q/%05d/%d", i, p);
        Status st = RunTransaction(&db, [&](Transaction& txn) {
          txn.Set(key, "v");
          return Status::OK();
        });
        ASSERT_TRUE(st.ok()) << st;
      }
      producers_left.fetch_sub(1);
    });
  }
  std::vector<std::vector<std::string>> popped(kConsumers);
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&, c] {
      while (true) {
        const bool producing = producers_left.load() > 0;
        std::optional<std::string> head;
        Status st = RunTransaction(&db, [&](Transaction& txn) {
          head.reset();
          QUICK_ASSIGN_OR_RETURN(std::vector<KeyValue> kvs,
                                 txn.GetRange(queue, RangeOptions{.limit = 1}));
          if (kvs.empty()) return Status::OK();
          head = kvs.front().key;
          txn.Clear(*head);
          return Status::OK();
        });
        ASSERT_TRUE(st.ok()) << st;
        if (head.has_value()) {
          popped[c].push_back(*head);
        } else if (!producing) {
          return;  // drained after every append committed
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::map<std::string, int> times;
  for (const auto& keys : popped) {
    for (const std::string& key : keys) ++times[key];
  }
  EXPECT_EQ(times.size(), static_cast<size_t>(kProducers * kPerProducer));
  for (const auto& [key, n] : times) EXPECT_EQ(n, 1) << key;
}

INSTANTIATE_TEST_SUITE_P(GroupCommit, SerializabilityTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "batched" : "single";
                         });

}  // namespace
}  // namespace quick::fdb
