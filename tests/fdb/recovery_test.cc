// Cold-start recovery edge cases (DESIGN.md §9, invariant 14): empty log,
// checkpoint-only, checkpoint + log tail, torn tail truncation, corrupt-
// checkpoint fallback, duplicate-replay idempotence, and the checkpoint /
// prune floor interaction.

#include "fdb/recovery.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "fdb/checkpoint.h"
#include "fdb/cluster_set.h"
#include "fdb/database.h"
#include "fdb/wal.h"

namespace quick::fdb {
namespace {

std::string MakeTempDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "quick_recovery_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Database::Options WalOptions(Clock* clock, const std::string& dir) {
  Database::Options opts;
  opts.clock = clock;
  opts.durability.enable_wal = true;
  opts.durability.dir = dir;
  // Manual checkpoints only, unless a test opts in.
  opts.durability.checkpoint_interval_bytes = 0;
  return opts;
}

Status Put(Database& db, const std::string& key, const std::string& value) {
  Transaction t = db.CreateTransaction();
  t.Set(key, value);
  return t.Commit();
}

Result<std::optional<std::string>> Get(Database& db, const std::string& key) {
  Transaction t = db.CreateTransaction();
  return t.Get(key);
}

TEST(RecoveryTest, EmptyDirectoryIsAFreshStore) {
  const std::string dir = MakeTempDir("empty");
  ManualClock clock;
  Database db("r", WalOptions(&clock, dir));
  EXPECT_FALSE(db.GetRecoveryInfo().recovered);
  EXPECT_EQ(db.LastCommittedVersion(), 0);
  ASSERT_TRUE(Put(db, "k", "v").ok());
  EXPECT_EQ(db.LastCommittedVersion(), 1);
}

TEST(RecoveryTest, RestartRecoversToExactDurableVersion) {
  const std::string dir = MakeTempDir("exact");
  ManualClock clock;
  Version before;
  {
    Database db("r", WalOptions(&clock, dir));
    for (int i = 0; i < 25; ++i) {
      ASSERT_TRUE(Put(db, "k" + std::to_string(i % 7),
                      "v" + std::to_string(i))
                      .ok());
    }
    before = db.LastCommittedVersion();
    ASSERT_EQ(before, 25);
  }
  Database db("r", WalOptions(&clock, dir));
  EXPECT_TRUE(db.GetRecoveryInfo().recovered);
  EXPECT_EQ(db.GetRecoveryInfo().last_durable_version, before);
  EXPECT_EQ(db.GetRecoveryInfo().replayed_records, 25);
  EXPECT_EQ(db.LastCommittedVersion(), before);
  auto v = Get(db, "k3");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->value_or(""), "v24");
  // Version allocation resumes above the recovered prefix.
  ASSERT_TRUE(Put(db, "after", "restart").ok());
  EXPECT_EQ(db.LastCommittedVersion(), before + 1);
}

TEST(RecoveryTest, CheckpointOnlyRecoveryReplaysNothing) {
  const std::string dir = MakeTempDir("ckpt_only");
  ManualClock clock;
  Version before;
  {
    Database db("r", WalOptions(&clock, dir));
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(Put(db, "k" + std::to_string(i), "v").ok());
    }
    before = db.LastCommittedVersion();
    Result<Version> ckpt = db.Checkpoint();
    ASSERT_TRUE(ckpt.ok()) << ckpt.status();
    EXPECT_EQ(*ckpt, before);
    EXPECT_EQ(db.DurableCheckpointVersion(), before);
  }
  Database db("r", WalOptions(&clock, dir));
  const RecoveryInfo& info = db.GetRecoveryInfo();
  EXPECT_TRUE(info.recovered);
  EXPECT_EQ(info.checkpoint_version, before);
  EXPECT_EQ(info.replayed_records, 0);
  EXPECT_EQ(info.last_durable_version, before);
  EXPECT_EQ(db.LastCommittedVersion(), before);
  auto v = Get(db, "k7");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->value_or(""), "v");
}

TEST(RecoveryTest, CheckpointPlusTailReplay) {
  const std::string dir = MakeTempDir("ckpt_tail");
  ManualClock clock;
  Version before;
  {
    Database db("r", WalOptions(&clock, dir));
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(Put(db, "base" + std::to_string(i), "b").ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(Put(db, "tail" + std::to_string(i), "t").ok());
    }
    // Overwrite a checkpointed key from the tail: replay must supersede.
    ASSERT_TRUE(Put(db, "base0", "newer").ok());
    before = db.LastCommittedVersion();
  }
  Database db("r", WalOptions(&clock, dir));
  const RecoveryInfo& info = db.GetRecoveryInfo();
  EXPECT_EQ(info.checkpoint_version, 5);
  EXPECT_EQ(info.replayed_records, 5);
  EXPECT_EQ(info.last_durable_version, before);
  EXPECT_EQ(Get(db, "base0")->value_or(""), "newer");
  EXPECT_EQ(Get(db, "tail3")->value_or(""), "t");
  EXPECT_EQ(Get(db, "base4")->value_or(""), "b");
}

TEST(RecoveryTest, TornAppendTruncatesToLastAcknowledgedCommit) {
  const std::string dir = MakeTempDir("torn_tail");
  ManualClock clock;
  Database::Options opts = WalOptions(&clock, dir);
  opts.fault_plan.AddDisk(DiskFault::TornWrite(/*at_op=*/4));
  Version durable;
  {
    Database db("r", opts);
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(Put(db, "k" + std::to_string(i), "v").ok());
    }
    durable = db.LastCommittedVersion();
    // The 4th append tears mid-record: the commit comes back unknown and
    // the published version must NOT advance.
    Transaction t = db.CreateTransaction();
    t.Set("k4", "lost");
    Status st = t.Commit();
    EXPECT_TRUE(st.IsCommitUnknownResult()) << st;
    EXPECT_TRUE(db.DurabilityDead());
    EXPECT_EQ(db.LastCommittedVersion(), durable);
    // The dead process rejects everything.
    EXPECT_EQ(Put(db, "k5", "v").code(), StatusCode::kUnavailable);
    EXPECT_EQ(Get(db, "k1").status().code(), StatusCode::kUnavailable);
  }
  Database db("r", WalOptions(&clock, dir));
  const RecoveryInfo& info = db.GetRecoveryInfo();
  EXPECT_TRUE(info.truncated);
  EXPECT_EQ(info.last_durable_version, durable);
  EXPECT_EQ(db.LastCommittedVersion(), durable);
  EXPECT_EQ(Get(db, "k3")->value_or(""), "v");
  EXPECT_FALSE(Get(db, "k4")->has_value()) << "torn write resurfaced";
}

TEST(RecoveryTest, TornCheckpointFallsBackToWalReplay) {
  const std::string dir = MakeTempDir("torn_ckpt");
  ManualClock clock;
  Database::Options opts = WalOptions(&clock, dir);
  opts.fault_plan.AddDisk(DiskFault::TornWrite(/*at_op=*/1).OnCheckpoint());
  Version durable;
  {
    Database db("r", opts);
    for (int i = 1; i <= 6; ++i) {
      ASSERT_TRUE(Put(db, "k" + std::to_string(i), "v").ok());
    }
    durable = db.LastCommittedVersion();
    // The checkpoint write tears: the process dies mid-checkpoint, having
    // rolled nothing and retired nothing.
    Result<Version> ckpt = db.Checkpoint();
    EXPECT_EQ(ckpt.status().code(), StatusCode::kUnavailable);
    EXPECT_TRUE(db.DurabilityDead());
    EXPECT_EQ(Put(db, "k7", "v").code(), StatusCode::kUnavailable);
  }
  Database db("r", WalOptions(&clock, dir));
  const RecoveryInfo& info = db.GetRecoveryInfo();
  EXPECT_EQ(info.invalid_checkpoints, 1);
  EXPECT_EQ(info.checkpoint_version, 0);
  EXPECT_EQ(info.replayed_records, 6);
  EXPECT_EQ(info.last_durable_version, durable);
  EXPECT_EQ(Get(db, "k6")->value_or(""), "v");
}

TEST(RecoveryTest, CorruptCheckpointFallsBackToOlderCheckpoint) {
  // Assembled at the module level so the older checkpoint still exists:
  // checkpoint at v2, full log to v4, newest checkpoint (v4) corrupted.
  const std::string dir = MakeTempDir("ckpt_fallback");
  ManualClock clock;
  FaultInjector faults;
  {
    Wal wal(dir, 1, &faults, &clock);
    ASSERT_TRUE(wal.Open().ok());
    for (Version v = 1; v <= 4; ++v) {
      std::vector<Mutation> muts;
      Mutation set;
      set.type = Mutation::Type::kSet;
      set.key = "k" + std::to_string(v);
      set.value = "v";
      muts.push_back(set);
      WalBatchRef ref;
      ref.version = v;
      ref.members.emplace_back(0, &muts);
      ASSERT_TRUE(wal.AppendBatchAndSync(ref).ok());
    }
  }
  {
    CheckpointBuilder older(2);
    older.Add("k1", "v");
    older.Add("k2", "v");
    ASSERT_TRUE(
        AtomicWriteFile(dir + "/" + CheckpointFileName(2), older.Finish())
            .ok());
    CheckpointBuilder newer(4);
    newer.Add("k1", "v");
    newer.Add("k2", "v");
    newer.Add("k3", "v");
    newer.Add("k4", "v");
    std::string blob = newer.Finish();
    blob[10] = static_cast<char>(blob[10] ^ 0x40);  // bit rot
    ASSERT_TRUE(
        AtomicWriteFile(dir + "/" + CheckpointFileName(4), blob).ok());
  }
  VersionedStore store;
  Result<RecoveryInfo> info = RecoverVersionedStore(dir, &store);
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->invalid_checkpoints, 1);
  EXPECT_EQ(info->checkpoint_version, 2);
  EXPECT_EQ(info->skipped_records, 2);   // v1, v2 covered by the checkpoint
  EXPECT_EQ(info->replayed_records, 2);  // v3, v4 from the log
  EXPECT_EQ(info->last_durable_version, 4);
  EXPECT_EQ(store.Get("k4", 4).value_or(""), "v");
  EXPECT_EQ(store.Get("k1", 4).value_or(""), "v");
}

TEST(RecoveryTest, DuplicateRecoveryIsIdempotent) {
  const std::string dir = MakeTempDir("idempotent");
  ManualClock clock;
  {
    Database db("r", WalOptions(&clock, dir));
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(Put(db, "k" + std::to_string(i % 3), std::to_string(i)).ok());
    }
    ASSERT_TRUE(db.Checkpoint().ok());
    for (int i = 8; i < 12; ++i) {
      ASSERT_TRUE(Put(db, "k" + std::to_string(i % 3), std::to_string(i)).ok());
    }
  }
  VersionedStore first;
  Result<RecoveryInfo> info1 = RecoverVersionedStore(dir, &first);
  ASSERT_TRUE(info1.ok());
  VersionedStore second;
  Result<RecoveryInfo> info2 = RecoverVersionedStore(dir, &second);
  ASSERT_TRUE(info2.ok());
  EXPECT_EQ(info1->last_durable_version, info2->last_durable_version);
  EXPECT_EQ(info1->checkpoint_version, info2->checkpoint_version);
  EXPECT_EQ(info1->replayed_records, info2->replayed_records);
  const Version v = info1->last_durable_version;
  for (int i = 0; i < 3; ++i) {
    const std::string key = "k" + std::to_string(i);
    EXPECT_EQ(first.Get(key, v), second.Get(key, v)) << key;
  }
  EXPECT_EQ(first.LiveKeyCount(), second.LiveKeyCount());
}

TEST(RecoveryTest, PruneFloorNeverPassesDurableCheckpoint) {
  const std::string dir = MakeTempDir("prune_floor");
  ManualClock clock;
  Database::Options opts = WalOptions(&clock, dir);
  opts.mvcc_window_millis = 1000;
  Database db("r", opts);

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(Put(db, "k" + std::to_string(i), "v").ok());
  }
  Transaction old_reader = db.CreateTransaction();
  ASSERT_TRUE(old_reader.GetReadVersion().ok());  // version 10

  // Age everything far past the MVCC window. Without the checkpoint
  // clamp the prune would advance the floor past the old reader; with no
  // checkpoint yet the floor must stay pinned at 0.
  for (int round = 0; round < 6; ++round) {
    clock.AdvanceMillis(400);
    ASSERT_TRUE(Put(db, "churn", "r" + std::to_string(round)).ok());
  }
  auto read = old_reader.Get("k1");
  ASSERT_TRUE(read.ok()) << "pruned past the durable-checkpoint floor: "
                         << read.status();
  EXPECT_EQ(read->value_or(""), "v");

  // After a checkpoint the floor may advance up to it — and does, once
  // the window expires again: the old reader's version predates the
  // checkpoint and is now legitimately pruned.
  Result<Version> ckpt = db.Checkpoint();
  ASSERT_TRUE(ckpt.ok());
  ASSERT_GT(*ckpt, 10);
  Transaction young_reader = db.CreateTransaction();
  ASSERT_TRUE(young_reader.GetReadVersion().ok());
  for (int round = 0; round < 6; ++round) {
    clock.AdvanceMillis(400);
    ASSERT_TRUE(Put(db, "churn", "s" + std::to_string(round)).ok());
  }
  EXPECT_EQ(old_reader.Get("k1").status().code(),
            StatusCode::kTransactionTooOld)
      << "floor failed to advance after the checkpoint";
  // Readers at or above the checkpoint stay valid (floor <= checkpoint),
  // modulo the transaction lifetime — which this reader is inside.
  auto young = young_reader.Get("k1");
  ASSERT_TRUE(young.ok()) << young.status();
  EXPECT_EQ(young->value_or(""), "v");
}

TEST(RecoveryTest, RecheckpointingADurableVersionIsANoOp) {
  // Regression (found by the chaos suite, seed 42): a checkpoint at a
  // version already durably checkpointed targets the same
  // CHECKPOINT-<version> file whose WAL coverage was retired — a write
  // fault there would destroy the only copy of the state. It must be a
  // no-op that never touches disk, so the scheduled torn write here
  // cannot fire on it.
  const std::string dir = MakeTempDir("reckpt");
  ManualClock clock;
  Version durable;
  {
    Database::Options opts = WalOptions(&clock, dir);
    opts.fault_plan.AddDisk(DiskFault::TornWrite(2).OnCheckpoint());
    Database db("r", opts);
    ASSERT_TRUE(Put(db, "a", "1").ok());
    ASSERT_TRUE(Put(db, "b", "2").ok());
    auto first = db.Checkpoint();
    ASSERT_TRUE(first.ok()) << first.status();
    durable = *first;
    // No commits since: the re-checkpoint short-circuits instead of
    // consuming checkpoint-write ordinal 2 (the scheduled kill).
    auto again = db.Checkpoint();
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_EQ(*again, durable);
    EXPECT_FALSE(db.DurabilityDead());
  }
  Database db("r", WalOptions(&clock, dir));
  EXPECT_EQ(db.LastCommittedVersion(), durable);
  EXPECT_EQ(db.GetRecoveryInfo().checkpoint_version, durable);
  EXPECT_EQ(Get(db, "a").value().value_or(""), "1");
  EXPECT_EQ(Get(db, "b").value().value_or(""), "2");
}

TEST(RecoveryTest, WalOffBehavesExactlyAsBefore) {
  ManualClock clock;
  Database::Options opts;
  opts.clock = &clock;
  Database db("plain", opts);
  ASSERT_TRUE(Put(db, "k", "v").ok());
  const Database::Stats stats = db.GetStats();
  EXPECT_EQ(stats.wal_appends, 0);
  EXPECT_EQ(stats.wal_syncs, 0);
  EXPECT_EQ(stats.checkpoints_written, 0);
  EXPECT_FALSE(db.DurabilityDead());
  EXPECT_FALSE(db.GetRecoveryInfo().recovered);
  EXPECT_EQ(db.Checkpoint().status().code(), StatusCode::kFailedPrecondition);
}

TEST(RecoveryTest, AutoCheckpointTriggersOnSegmentGrowth) {
  const std::string dir = MakeTempDir("auto_ckpt");
  ManualClock clock;
  Database::Options opts = WalOptions(&clock, dir);
  opts.durability.checkpoint_interval_bytes = 2048;
  Database db("r", opts);
  for (int i = 0; i < 200 && db.GetStats().checkpoints_written == 0; ++i) {
    ASSERT_TRUE(
        Put(db, "k" + std::to_string(i % 17), std::string(64, 'x')).ok());
  }
  const Database::Stats stats = db.GetStats();
  EXPECT_GE(stats.checkpoints_written, 1);
  EXPECT_GE(stats.wal_segments_created, 2);
  EXPECT_GT(db.DurableCheckpointVersion(), 0);
}

}  // namespace
}  // namespace quick::fdb
