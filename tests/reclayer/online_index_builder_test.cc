#include "reclayer/online_index_builder.h"

#include <gtest/gtest.h>

#include <thread>

#include "fdb/retry.h"

namespace quick::rl {
namespace {

RecordMetadata BaseMetadata() {
  RecordMetadata meta(1);
  RecordTypeDef doc;
  doc.name = "Doc";
  doc.fields = {{"id", FieldType::kInt64},
                {"title", FieldType::kString},
                {"rank", FieldType::kInt64}};
  doc.primary_key_fields = {"id"};
  EXPECT_TRUE(meta.AddRecordType(std::move(doc)).ok());
  return meta;
}

/// The evolved schema: BaseMetadata plus the index being built.
RecordMetadata EvolvedMetadata() {
  RecordMetadata meta = BaseMetadata();
  IndexDef by_title;
  by_title.name = "by_title";
  by_title.record_types = {"Doc"};
  by_title.fields = {"title"};
  EXPECT_TRUE(meta.AddIndex(std::move(by_title)).ok());
  return meta;
}

class OnlineIndexBuilderTest : public ::testing::Test {
 protected:
  OnlineIndexBuilderTest()
      : base_(BaseMetadata()),
        evolved_(EvolvedMetadata()),
        db_("oib"),
        subspace_(tup::Tuple().AddString("s")) {}

  /// Seeds `n` docs under the ORIGINAL schema (no by_title index).
  void Seed(int n) {
    Status st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
      RecordStore store(&txn, subspace_, &base_);
      for (int i = 0; i < n; ++i) {
        Record r("Doc");
        r.SetInt("id", i)
            .SetString("title", "t" + std::to_string(i % 7))
            .SetInt("rank", i);
        QUICK_RETURN_IF_ERROR(store.SaveRecord(r));
      }
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st;
  }

  Result<size_t> CountIndexEntries() {
    return fdb::RunTransactionResult<size_t>(
        &db_, fdb::TransactionOptions{},
        [&](fdb::Transaction& txn, size_t* out) {
          RecordStore store(&txn, subspace_, &evolved_);
          auto entries = store.ScanIndex("by_title", tup::Tuple());
          QUICK_RETURN_IF_ERROR(entries.status());
          *out = entries->size();
          return Status::OK();
        });
  }

  RecordMetadata base_;
  RecordMetadata evolved_;
  fdb::Database db_;
  tup::Subspace subspace_;
};

TEST_F(OnlineIndexBuilderTest, BuildBackfillsExistingRecords) {
  Seed(200);  // several batches at batch_size 64
  OnlineIndexBuilder builder(&db_, subspace_, &evolved_, "by_title");
  ASSERT_TRUE(builder.MarkWriteOnly().ok());
  ASSERT_TRUE(builder.Build().ok());
  EXPECT_EQ(CountIndexEntries().value(), 200u);
}

TEST_F(OnlineIndexBuilderTest, WriteOnlyIndexRejectsScans) {
  Seed(5);
  OnlineIndexBuilder builder(&db_, subspace_, &evolved_, "by_title");
  ASSERT_TRUE(builder.MarkWriteOnly().ok());
  Status st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
    RecordStore store(&txn, subspace_, &evolved_);
    return store.ScanIndex("by_title", tup::Tuple()).status();
  });
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  // The query planner's executor hits the same wall.
  ASSERT_TRUE(builder.Build().ok());
  st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
    RecordStore store(&txn, subspace_, &evolved_);
    return store.ScanIndex("by_title", tup::Tuple()).status();
  });
  EXPECT_TRUE(st.ok());
}

TEST_F(OnlineIndexBuilderTest, WritesDuringBuildAreIndexedOnce) {
  Seed(100);
  OnlineIndexBuilder::Options options;
  options.batch_size = 16;
  OnlineIndexBuilder builder(&db_, subspace_, &evolved_, "by_title", options);
  ASSERT_TRUE(builder.MarkWriteOnly().ok());

  // Writer mutates existing and new records (under the EVOLVED schema, as
  // deployed application servers would) while the backfill runs.
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int i = 0;
    while (!stop.load()) {
      Status st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
        RecordStore store(&txn, subspace_, &evolved_);
        Record r("Doc");
        const int64_t id = (i * 13) % 120;  // overwrites + some new ids
        r.SetInt("id", id)
            .SetString("title", "updated" + std::to_string(i % 3))
            .SetInt("rank", i);
        return store.SaveRecord(r);
      });
      ASSERT_TRUE(st.ok());
      ++i;
    }
  });
  // Stop the writer before asserting: returning with it still joinable
  // would terminate the process instead of reporting the failure.
  const Status build = builder.Build();
  stop.store(true);
  writer.join();
  ASSERT_TRUE(build.ok()) << build;

  // Invariant: exactly one index entry per record, pointing at the
  // record's current title.
  Status st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
    RecordStore store(&txn, subspace_, &evolved_);
    auto entries = store.ScanIndex("by_title", tup::Tuple());
    QUICK_RETURN_IF_ERROR(entries.status());
    auto records = store.ScanRecords();
    QUICK_RETURN_IF_ERROR(records.status());
    EXPECT_EQ(entries->size(), records->size());
    std::map<int64_t, std::string> by_id;
    for (const Record& r : *records) {
      by_id[r.GetInt("id").value()] = r.GetString("title").value();
    }
    for (const IndexEntry& e : *entries) {
      const int64_t id = e.primary_key.GetInt(1).value();
      EXPECT_EQ(e.indexed_values.GetString(0).value(), by_id[id])
          << "stale entry for id " << id;
    }
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st;
}

TEST_F(OnlineIndexBuilderTest, BuildIsIdempotent) {
  Seed(50);
  OnlineIndexBuilder builder(&db_, subspace_, &evolved_, "by_title");
  ASSERT_TRUE(builder.MarkWriteOnly().ok());
  ASSERT_TRUE(builder.Build().ok());
  ASSERT_TRUE(builder.Build().ok());  // re-run: at-least-once safe
  EXPECT_EQ(CountIndexEntries().value(), 50u);
}

TEST_F(OnlineIndexBuilderTest, RejectsNonValueIndexes) {
  RecordMetadata meta = BaseMetadata();
  IndexDef count;
  count.name = "total";
  count.kind = IndexKind::kCount;
  ASSERT_TRUE(meta.AddIndex(std::move(count)).ok());
  OnlineIndexBuilder builder(&db_, subspace_, &meta, "total");
  EXPECT_FALSE(builder.MarkWriteOnly().ok());
  EXPECT_FALSE(builder.Build().ok());
  OnlineIndexBuilder ghost(&db_, subspace_, &meta, "ghost");
  EXPECT_FALSE(ghost.Build().ok());
}

TEST_F(OnlineIndexBuilderTest, GetIndexStateReflectsLifecycle) {
  OnlineIndexBuilder builder(&db_, subspace_, &evolved_, "by_title");
  auto state_now = [&] {
    fdb::Transaction txn = db_.CreateTransaction();
    return OnlineIndexBuilder::GetIndexState(&txn, subspace_, "by_title")
        .value();
  };
  EXPECT_EQ(state_now(), IndexState::kReadable);  // absent = readable
  ASSERT_TRUE(builder.MarkWriteOnly().ok());
  EXPECT_EQ(state_now(), IndexState::kWriteOnly);
  ASSERT_TRUE(builder.Build().ok());
  EXPECT_EQ(state_now(), IndexState::kReadable);
}

}  // namespace
}  // namespace quick::rl
