#include <gtest/gtest.h>

#include "fdb/database.h"
#include "fdb/retry.h"
#include "reclayer/record_store.h"

namespace quick::rl {
namespace {

/// The encoded primary key of the document whose "id" is `id`.
std::string IdPk(const std::string& id) {
  return tup::Tuple().AddString(id).Encode();
}

RecordMetadata VersionedMetadata() {
  RecordMetadata meta;
  RecordTypeDef doc;
  doc.name = "Doc";
  doc.fields = {{"id", FieldType::kString}, {"body", FieldType::kString}};
  doc.primary_key_fields = {"id"};
  EXPECT_TRUE(meta.AddRecordType(std::move(doc)).ok());

  IndexDef changes;
  changes.name = "changes";  // last-modified order (CloudKit-sync style)
  changes.kind = IndexKind::kVersion;
  EXPECT_TRUE(meta.AddIndex(std::move(changes)).ok());

  IndexDef arrival;
  arrival.name = "arrival";  // insertion order (sticky)
  arrival.kind = IndexKind::kVersion;
  arrival.sticky_version = true;
  EXPECT_TRUE(meta.AddIndex(std::move(arrival)).ok());
  return meta;
}

class VersionIndexTest : public ::testing::Test {
 protected:
  VersionIndexTest() : meta_(VersionedMetadata()), db_("vtest") {}

  Status Save(const std::string& id, const std::string& body) {
    return fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
      RecordStore store(&txn, tup::Subspace(tup::Tuple().AddString("s")),
                        &meta_);
      Record r("Doc");
      r.SetString("id", id).SetString("body", body);
      return store.SaveRecord(r);
    });
  }

  Status Delete(const std::string& id) {
    return fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
      RecordStore store(&txn, tup::Subspace(tup::Tuple().AddString("s")),
                        &meta_);
      return store.DeleteRecord("Doc", IdPk(id)).status();
    });
  }

  std::vector<std::string> ScanIds(const std::string& index,
                                   std::optional<std::string> after = {}) {
    std::vector<std::string> ids;
    Status st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
      RecordStore store(&txn, tup::Subspace(tup::Tuple().AddString("s")),
                        &meta_);
      auto entries = store.ScanVersionIndex(index, after);
      QUICK_RETURN_IF_ERROR(entries.status());
      ids.clear();
      for (const VersionIndexEntry& e : *entries) {
        ids.push_back(e.primary_key.GetString(1).value());
      }
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st;
    return ids;
  }

  std::optional<std::string> Stamp(const std::string& index,
                                   const std::string& id) {
    std::optional<std::string> out;
    Status st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
      RecordStore store(&txn, tup::Subspace(tup::Tuple().AddString("s")),
                        &meta_);
      QUICK_ASSIGN_OR_RETURN(
          out, store.GetRecordVersion(index, "Doc", IdPk(id)));
      return Status::OK();
    });
    EXPECT_TRUE(st.ok()) << st;
    return out;
  }

  RecordMetadata meta_;
  fdb::Database db_;
};

TEST_F(VersionIndexTest, EntriesInCommitOrder) {
  ASSERT_TRUE(Save("a", "1").ok());
  ASSERT_TRUE(Save("b", "1").ok());
  ASSERT_TRUE(Save("c", "1").ok());
  EXPECT_EQ(ScanIds("changes"), (std::vector<std::string>{"a", "b", "c"}));
}

TEST_F(VersionIndexTest, UpdateMovesChangeEntryToEnd) {
  ASSERT_TRUE(Save("a", "1").ok());
  ASSERT_TRUE(Save("b", "1").ok());
  ASSERT_TRUE(Save("a", "2").ok());  // re-modified
  EXPECT_EQ(ScanIds("changes"), (std::vector<std::string>{"b", "a"}));
  // Exactly one entry per record, at the latest write.
  EXPECT_EQ(ScanIds("changes").size(), 2u);
}

TEST_F(VersionIndexTest, StickyIndexKeepsInsertionOrder) {
  ASSERT_TRUE(Save("a", "1").ok());
  ASSERT_TRUE(Save("b", "1").ok());
  ASSERT_TRUE(Save("a", "2").ok());  // update must NOT reorder arrival
  EXPECT_EQ(ScanIds("arrival"), (std::vector<std::string>{"a", "b"}));
}

TEST_F(VersionIndexTest, DeleteRemovesBothKinds) {
  ASSERT_TRUE(Save("a", "1").ok());
  ASSERT_TRUE(Save("b", "1").ok());
  ASSERT_TRUE(Delete("a").ok());
  EXPECT_EQ(ScanIds("changes"), (std::vector<std::string>{"b"}));
  EXPECT_EQ(ScanIds("arrival"), (std::vector<std::string>{"b"}));
  EXPECT_FALSE(Stamp("changes", "a").has_value());
  EXPECT_FALSE(Stamp("arrival", "a").has_value());
}

TEST_F(VersionIndexTest, DeleteAfterUpdateLeavesNothingBehind) {
  ASSERT_TRUE(Save("a", "1").ok());
  ASSERT_TRUE(Save("a", "2").ok());
  ASSERT_TRUE(Delete("a").ok());
  EXPECT_TRUE(ScanIds("changes").empty());
  EXPECT_TRUE(ScanIds("arrival").empty());
}

TEST_F(VersionIndexTest, ReinsertGetsFreshArrivalPosition) {
  ASSERT_TRUE(Save("a", "1").ok());
  ASSERT_TRUE(Save("b", "1").ok());
  ASSERT_TRUE(Delete("a").ok());
  ASSERT_TRUE(Save("a", "again").ok());
  EXPECT_EQ(ScanIds("arrival"), (std::vector<std::string>{"b", "a"}));
}

TEST_F(VersionIndexTest, GetRecordVersionMatchesScanOrder) {
  ASSERT_TRUE(Save("a", "1").ok());
  ASSERT_TRUE(Save("b", "1").ok());
  auto sa = Stamp("changes", "a");
  auto sb = Stamp("changes", "b");
  ASSERT_TRUE(sa.has_value());
  ASSERT_TRUE(sb.has_value());
  EXPECT_LT(*sa, *sb);

  ASSERT_TRUE(Save("a", "2").ok());
  auto sa2 = Stamp("changes", "a");
  EXPECT_GT(*sa2, *sb);
  // Sticky stamp never moved.
  EXPECT_EQ(Stamp("arrival", "a"), sa);
}

TEST_F(VersionIndexTest, ChangesSinceToken) {
  // The CloudKit-sync pattern: remember a sync token (versionstamp) and ask
  // for everything committed after it.
  ASSERT_TRUE(Save("a", "1").ok());
  ASSERT_TRUE(Save("b", "1").ok());
  const std::string token = Stamp("changes", "b").value();

  ASSERT_TRUE(Save("c", "1").ok());
  ASSERT_TRUE(Save("a", "2").ok());  // modified after the token

  EXPECT_EQ(ScanIds("changes", token),
            (std::vector<std::string>{"c", "a"}));
  // Nothing after the newest stamp.
  const std::string newest = Stamp("changes", "a").value();
  EXPECT_TRUE(ScanIds("changes", newest).empty());
}

TEST_F(VersionIndexTest, SameTransactionDoubleWriteSingleEntry) {
  Status st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
    RecordStore store(&txn, tup::Subspace(tup::Tuple().AddString("s")),
                      &meta_);
    Record r("Doc");
    r.SetString("id", "x").SetString("body", "1");
    QUICK_RETURN_IF_ERROR(store.SaveRecord(r));
    r.SetString("body", "2");
    return store.SaveRecord(r);
  });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(ScanIds("changes"), (std::vector<std::string>{"x"}));
  EXPECT_EQ(ScanIds("arrival"), (std::vector<std::string>{"x"}));
}

TEST_F(VersionIndexTest, MetadataRejectsVersionIndexWithFields) {
  RecordMetadata meta;
  RecordTypeDef doc;
  doc.name = "D";
  doc.fields = {{"id", FieldType::kInt64}};
  doc.primary_key_fields = {"id"};
  ASSERT_TRUE(meta.AddRecordType(std::move(doc)).ok());
  IndexDef bad;
  bad.name = "bad";
  bad.kind = IndexKind::kVersion;
  bad.fields = {"id"};
  EXPECT_FALSE(meta.AddIndex(bad).ok());
}

TEST_F(VersionIndexTest, ScanRejectsWrongKind) {
  Status st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
    RecordStore store(&txn, tup::Subspace(tup::Tuple().AddString("s")),
                      &meta_);
    EXPECT_FALSE(store.ScanVersionIndex("nonexistent").ok());
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
}

}  // namespace
}  // namespace quick::rl
