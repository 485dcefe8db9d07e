#include "reclayer/record_store.h"

#include <gtest/gtest.h>

#include "fdb/database.h"
#include "fdb/retry.h"

namespace quick::rl {
namespace {

/// The encoded primary key of the record whose "id" is `id`.
std::string IdPk(const std::string& id) {
  return tup::Tuple().AddString(id).Encode();
}

RecordMetadata MakeMetadata() {
  RecordMetadata meta;
  RecordTypeDef user;
  user.name = "User";
  user.fields = {{"id", FieldType::kString},
                 {"age", FieldType::kInt64},
                 {"city", FieldType::kString}};
  user.primary_key_fields = {"id"};
  EXPECT_TRUE(meta.AddRecordType(std::move(user)).ok());

  RecordTypeDef event;
  event.name = "Event";
  event.fields = {{"seq", FieldType::kInt64}, {"kind", FieldType::kString}};
  event.primary_key_fields = {"seq"};
  EXPECT_TRUE(meta.AddRecordType(std::move(event)).ok());

  IndexDef by_age;
  by_age.name = "by_age";
  by_age.record_types = {"User"};
  by_age.fields = {"age"};
  EXPECT_TRUE(meta.AddIndex(std::move(by_age)).ok());

  IndexDef by_city_age;
  by_city_age.name = "by_city_age";
  by_city_age.record_types = {"User"};
  by_city_age.fields = {"city", "age"};
  EXPECT_TRUE(meta.AddIndex(std::move(by_city_age)).ok());

  IndexDef count_by_city;
  count_by_city.name = "count_by_city";
  count_by_city.kind = IndexKind::kCount;
  count_by_city.record_types = {"User"};
  count_by_city.fields = {"city"};
  EXPECT_TRUE(meta.AddIndex(std::move(count_by_city)).ok());

  IndexDef total;
  total.name = "total";
  total.kind = IndexKind::kCount;
  EXPECT_TRUE(meta.AddIndex(std::move(total)).ok());
  return meta;
}

class RecordStoreTest : public ::testing::Test {
 protected:
  RecordStoreTest() : meta_(MakeMetadata()), db_("store-test") {}

  Record User(const std::string& id, int64_t age, const std::string& city) {
    Record r("User");
    r.SetString("id", id).SetInt("age", age).SetString("city", city);
    return r;
  }

  /// Runs `body` with a RecordStore in a committed transaction.
  void WithStore(const std::function<Status(RecordStore&)>& body) {
    Status st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
      RecordStore store(&txn, tup::Subspace(tup::Tuple().AddString("s")),
                        &meta_);
      return body(store);
    });
    ASSERT_TRUE(st.ok()) << st;
  }

  RecordMetadata meta_;
  fdb::Database db_;
};

TEST_F(RecordStoreTest, SaveAndLoad) {
  WithStore([&](RecordStore& store) {
    return store.SaveRecord(User("u1", 30, "sf"));
  });
  WithStore([&](RecordStore& store) {
    auto loaded = store.LoadRecord("User", IdPk("u1"));
    QUICK_RETURN_IF_ERROR(loaded.status());
    EXPECT_TRUE(loaded->has_value());
    EXPECT_EQ((*loaded)->GetInt("age").value(), 30);
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, LoadMissingReturnsNullopt) {
  WithStore([&](RecordStore& store) {
    auto loaded = store.LoadRecord("User", IdPk("ghost"));
    QUICK_RETURN_IF_ERROR(loaded.status());
    EXPECT_FALSE(loaded->has_value());
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, SaveRejectsUnknownTypeAndBadRecord) {
  WithStore([&](RecordStore& store) {
    Record bad("Ghost");
    bad.SetString("id", "x");
    EXPECT_FALSE(store.SaveRecord(bad).ok());

    Record missing_pk("User");
    missing_pk.SetInt("age", 3);
    EXPECT_FALSE(store.SaveRecord(missing_pk).ok());
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, OverwriteReplacesAndReindexes) {
  WithStore([&](RecordStore& store) {
    QUICK_RETURN_IF_ERROR(store.SaveRecord(User("u1", 30, "sf")));
    return store.SaveRecord(User("u1", 31, "nyc"));
  });
  WithStore([&](RecordStore& store) {
    auto loaded = store.LoadRecord("User", IdPk("u1"));
    EXPECT_EQ((*loaded)->GetInt("age").value(), 31);
    // Old index entry gone, new present.
    auto old_entries =
        store.ScanIndex("by_age", tup::Tuple().AddInt(30));
    EXPECT_TRUE(old_entries->empty());
    auto new_entries =
        store.ScanIndex("by_age", tup::Tuple().AddInt(31));
    EXPECT_EQ(new_entries->size(), 1u);
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, DeleteRemovesRecordAndIndexEntries) {
  WithStore([&](RecordStore& store) {
    return store.SaveRecord(User("u1", 30, "sf"));
  });
  WithStore([&](RecordStore& store) {
    auto deleted = store.DeleteRecord("User", IdPk("u1"));
    EXPECT_TRUE(deleted.value());
    return Status::OK();
  });
  WithStore([&](RecordStore& store) {
    auto loaded = store.LoadRecord("User", IdPk("u1"));
    EXPECT_FALSE(loaded->has_value());
    auto entries = store.ScanIndex("by_age", tup::Tuple());
    EXPECT_TRUE(entries->empty());
    auto count = store.GetCount("count_by_city", tup::Tuple().AddString("sf"));
    EXPECT_EQ(count.value(), 0);
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, DeleteMissingReturnsFalse) {
  WithStore([&](RecordStore& store) {
    EXPECT_FALSE(store.DeleteRecord("User", IdPk("x")).value());
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, IndexScanOrdersByValue) {
  WithStore([&](RecordStore& store) {
    QUICK_RETURN_IF_ERROR(store.SaveRecord(User("a", 40, "sf")));
    QUICK_RETURN_IF_ERROR(store.SaveRecord(User("b", 20, "sf")));
    QUICK_RETURN_IF_ERROR(store.SaveRecord(User("c", 30, "sf")));
    return Status::OK();
  });
  WithStore([&](RecordStore& store) {
    auto entries = store.ScanIndex("by_age", tup::Tuple());
    QUICK_RETURN_IF_ERROR(entries.status());
    EXPECT_EQ(entries->size(), 3u);
    if (entries->size() != 3u) return Status::Internal("unexpected size");
    EXPECT_EQ((*entries)[0].indexed_values.GetInt(0).value(), 20);
    EXPECT_EQ((*entries)[1].indexed_values.GetInt(0).value(), 30);
    EXPECT_EQ((*entries)[2].indexed_values.GetInt(0).value(), 40);
    // Primary keys round-trip.
    EXPECT_EQ((*entries)[0].primary_key.GetString(1).value(), "b");
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, IndexScanReverseAndLimit) {
  WithStore([&](RecordStore& store) {
    for (int i = 0; i < 5; ++i) {
      QUICK_RETURN_IF_ERROR(
          store.SaveRecord(User("u" + std::to_string(i), 20 + i, "sf")));
    }
    return Status::OK();
  });
  WithStore([&](RecordStore& store) {
    IndexScanOptions opts;
    opts.reverse = true;
    opts.limit = 2;
    auto entries = store.ScanIndex("by_age", tup::Tuple(), opts);
    QUICK_RETURN_IF_ERROR(entries.status());
    EXPECT_EQ(entries->size(), 2u);
    if (entries->size() != 2u) return Status::Internal("unexpected size");
    EXPECT_EQ((*entries)[0].indexed_values.GetInt(0).value(), 24);
    EXPECT_EQ((*entries)[1].indexed_values.GetInt(0).value(), 23);
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, CompositeIndexPrefixScan) {
  WithStore([&](RecordStore& store) {
    QUICK_RETURN_IF_ERROR(store.SaveRecord(User("a", 40, "sf")));
    QUICK_RETURN_IF_ERROR(store.SaveRecord(User("b", 20, "nyc")));
    QUICK_RETURN_IF_ERROR(store.SaveRecord(User("c", 30, "sf")));
    return Status::OK();
  });
  WithStore([&](RecordStore& store) {
    auto sf = store.ScanIndex("by_city_age", tup::Tuple().AddString("sf"));
    QUICK_RETURN_IF_ERROR(sf.status());
    EXPECT_EQ(sf->size(), 2u);
    if (sf->size() != 2u) return Status::Internal("unexpected size");
    EXPECT_EQ((*sf)[0].indexed_values.GetInt(1).value(), 30);
    EXPECT_EQ((*sf)[1].indexed_values.GetInt(1).value(), 40);
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, ScanIndexRangeBounds) {
  WithStore([&](RecordStore& store) {
    for (int i = 0; i < 10; ++i) {
      QUICK_RETURN_IF_ERROR(
          store.SaveRecord(User("u" + std::to_string(i), i, "sf")));
    }
    return Status::OK();
  });
  WithStore([&](RecordStore& store) {
    auto entries = store.ScanIndexRange(
        "by_age", tup::Tuple().AddInt(3), tup::Tuple().AddInt(7));
    QUICK_RETURN_IF_ERROR(entries.status());
    EXPECT_EQ(entries->size(), 4u);
    if (entries->size() != 4u) return Status::Internal("unexpected size");  // 3,4,5,6
    EXPECT_EQ((*entries)[0].indexed_values.GetInt(0).value(), 3);
    EXPECT_EQ((*entries)[3].indexed_values.GetInt(0).value(), 6);
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, CountIndexTracksGroups) {
  WithStore([&](RecordStore& store) {
    QUICK_RETURN_IF_ERROR(store.SaveRecord(User("a", 40, "sf")));
    QUICK_RETURN_IF_ERROR(store.SaveRecord(User("b", 20, "sf")));
    QUICK_RETURN_IF_ERROR(store.SaveRecord(User("c", 30, "nyc")));
    return Status::OK();
  });
  WithStore([&](RecordStore& store) {
    EXPECT_EQ(store.GetCount("count_by_city", tup::Tuple().AddString("sf"))
                  .value(),
              2);
    EXPECT_EQ(store.GetCount("count_by_city", tup::Tuple().AddString("nyc"))
                  .value(),
              1);
    EXPECT_EQ(store.GetCount("total", tup::Tuple()).value(), 3);
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, CountIndexFollowsGroupChange) {
  WithStore([&](RecordStore& store) {
    return store.SaveRecord(User("a", 40, "sf"));
  });
  WithStore([&](RecordStore& store) {
    return store.SaveRecord(User("a", 40, "nyc"));  // moved city
  });
  WithStore([&](RecordStore& store) {
    EXPECT_EQ(store.GetCount("count_by_city", tup::Tuple().AddString("sf"))
                  .value(),
              0);
    EXPECT_EQ(store.GetCount("count_by_city", tup::Tuple().AddString("nyc"))
                  .value(),
              1);
    EXPECT_EQ(store.GetCount("total", tup::Tuple()).value(), 1);
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, UpdateNotTouchingIndexedFieldsWritesNoIndexKeys) {
  // The load-bearing behaviour for QuiCK's pointer index: saving a record
  // whose indexed values are unchanged must not write the index key, so a
  // concurrent reader of that index key does not conflict.
  WithStore([&](RecordStore& store) {
    return store.SaveRecord(User("u1", 30, "sf"));
  });

  // Reader transaction: reads the index entry key range for age=30.
  fdb::Transaction reader = db_.CreateTransaction();
  {
    RecordStore store(&reader, tup::Subspace(tup::Tuple().AddString("s")),
                      &meta_);
    ASSERT_EQ(store.ScanIndex("by_age", tup::Tuple().AddInt(30))->size(), 1u);
    reader.Set("reader_out", "1");
  }

  // Concurrent update that does not move any indexed value (same age, same
  // city) — must not conflict with the index reader.
  WithStore([&](RecordStore& store) {
    return store.SaveRecord(User("u1", 30, "sf"));
  });
  EXPECT_TRUE(reader.Commit().ok());

  // Whereas an update that moves the indexed value does conflict.
  fdb::Transaction reader2 = db_.CreateTransaction();
  {
    RecordStore store(&reader2, tup::Subspace(tup::Tuple().AddString("s")),
                      &meta_);
    ASSERT_EQ(store.ScanIndex("by_age", tup::Tuple().AddInt(30))->size(), 1u);
    reader2.Set("reader_out", "2");
  }
  WithStore([&](RecordStore& store) {
    return store.SaveRecord(User("u1", 31, "sf"));
  });
  EXPECT_TRUE(reader2.Commit().IsNotCommitted());
}

TEST_F(RecordStoreTest, ScanRecordsMixedTypes) {
  WithStore([&](RecordStore& store) {
    QUICK_RETURN_IF_ERROR(store.SaveRecord(User("u1", 30, "sf")));
    Record e("Event");
    e.SetInt("seq", 1).SetString("kind", "login");
    return store.SaveRecord(e);
  });
  WithStore([&](RecordStore& store) {
    auto records = store.ScanRecords();
    QUICK_RETURN_IF_ERROR(records.status());
    EXPECT_EQ(records->size(), 2u);
    if (records->size() != 2u) return Status::Internal("unexpected size");
    // Primary-key order: ("Event", 1) < ("User", "u1").
    EXPECT_EQ((*records)[0].type(), "Event");
    EXPECT_EQ((*records)[1].type(), "User");
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, QueryWithPredicateAndLimit) {
  WithStore([&](RecordStore& store) {
    for (int i = 0; i < 10; ++i) {
      QUICK_RETURN_IF_ERROR(store.SaveRecord(
          User("u" + std::to_string(i), i, i % 2 == 0 ? "sf" : "nyc")));
    }
    return Status::OK();
  });
  WithStore([&](RecordStore& store) {
    Query q;
    q.index_name = "by_age";
    q.begin = tup::Tuple().AddInt(2);
    q.limit = 3;
    q.predicate = [](const Record& r) {
      return r.GetString("city").value() == "sf";
    };
    auto records = store.Execute(q);
    QUICK_RETURN_IF_ERROR(records.status());
    EXPECT_EQ(records->size(), 3u);
    if (records->size() != 3u) return Status::Internal("unexpected size");  // ages 2, 4, 6
    EXPECT_EQ((*records)[0].GetInt("age").value(), 2);
    EXPECT_EQ((*records)[2].GetInt("age").value(), 6);
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, IsEmptyAndDeleteAll) {
  WithStore([&](RecordStore& store) {
    EXPECT_TRUE(store.IsEmpty().value());
    return store.SaveRecord(User("u1", 30, "sf"));
  });
  WithStore([&](RecordStore& store) {
    EXPECT_FALSE(store.IsEmpty().value());
    return store.DeleteAllRecords();
  });
  WithStore([&](RecordStore& store) {
    EXPECT_TRUE(store.IsEmpty().value());
    EXPECT_EQ(store.CountRecords().value(), 0);
    return Status::OK();
  });
}

TEST_F(RecordStoreTest, IsEmptyCheckConflictsWithConcurrentInsert) {
  // Pointer-GC safety: a transaction that verified emptiness must abort if
  // an insert commits first.
  fdb::Transaction gc = db_.CreateTransaction();
  {
    RecordStore store(&gc, tup::Subspace(tup::Tuple().AddString("s")), &meta_);
    ASSERT_TRUE(store.IsEmpty().value());
    gc.Set("gc_decision", "delete");
  }
  WithStore([&](RecordStore& store) {
    return store.SaveRecord(User("u1", 30, "sf"));
  });
  EXPECT_TRUE(gc.Commit().IsNotCommitted());
}

TEST_F(RecordStoreTest, StoresInDistinctSubspacesAreIsolated) {
  Status st = fdb::RunTransaction(&db_, [&](fdb::Transaction& txn) {
    RecordStore a(&txn, tup::Subspace(tup::Tuple().AddString("A")), &meta_);
    RecordStore b(&txn, tup::Subspace(tup::Tuple().AddString("B")), &meta_);
    QUICK_RETURN_IF_ERROR(a.SaveRecord(User("u1", 30, "sf")));
    auto in_b = b.LoadRecord("User", IdPk("u1"));
    QUICK_RETURN_IF_ERROR(in_b.status());
    EXPECT_FALSE(in_b->has_value());
    EXPECT_TRUE(b.IsEmpty().value());
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
}

}  // namespace
}  // namespace quick::rl
