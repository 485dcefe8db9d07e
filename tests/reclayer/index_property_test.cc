// Property tests: after an arbitrary random sequence of saves and deletes,
// every value index contains exactly one entry per live record (at the
// record's current indexed values) and every count index equals the number
// of live records per group — the index-consistency invariant transactional
// maintenance must provide; and every key the store holds is the key a
// tup::Tuple spells for the same elements, so keys appended in place are
// byte for byte the reference encoding.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <set>

#include "common/bytes.h"
#include "common/random.h"
#include "fdb/database.h"
#include "fdb/retry.h"
#include "reclayer/record_store.h"

namespace quick::rl {
namespace {

/// The encoded primary key of the document whose "id" is `id`.
std::string IdPk(int64_t id) { return tup::Tuple().AddInt(id).Encode(); }

class IndexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexPropertyTest, IndexesMatchRecordsAfterRandomOps) {
  RecordMetadata meta;
  RecordTypeDef doc;
  doc.name = "Doc";
  doc.fields = {{"id", FieldType::kInt64},
                {"bucket", FieldType::kInt64},
                {"rank", FieldType::kInt64}};
  doc.primary_key_fields = {"id"};
  ASSERT_TRUE(meta.AddRecordType(std::move(doc)).ok());
  IndexDef by_rank;
  by_rank.name = "by_rank";
  by_rank.fields = {"rank"};
  ASSERT_TRUE(meta.AddIndex(std::move(by_rank)).ok());
  IndexDef per_bucket;
  per_bucket.name = "per_bucket";
  per_bucket.kind = IndexKind::kCount;
  per_bucket.fields = {"bucket"};
  ASSERT_TRUE(meta.AddIndex(std::move(per_bucket)).ok());

  fdb::Database db("prop");
  const tup::Subspace subspace(tup::Tuple().AddString("p"));
  Random rng(GetParam());

  // Reference model: id -> (bucket, rank).
  std::map<int64_t, std::pair<int64_t, int64_t>> model;

  for (int step = 0; step < 300; ++step) {
    const int64_t id = static_cast<int64_t>(rng.Uniform(40));
    const bool do_delete = rng.Bernoulli(0.3);
    Status st = fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
      RecordStore store(&txn, subspace, &meta);
      if (do_delete) {
        return store.DeleteRecord("Doc", IdPk(id)).status();
      }
      Record r("Doc");
      r.SetInt("id", id)
          .SetInt("bucket", static_cast<int64_t>(rng.Uniform(4)))
          .SetInt("rank", static_cast<int64_t>(rng.Uniform(100)));
      QUICK_RETURN_IF_ERROR(store.SaveRecord(r));
      return Status::OK();
    });
    ASSERT_TRUE(st.ok());
    // Mirror into the model (rng consumed identically inside/outside is
    // fragile; re-read the stored record instead).
    Status st2 = fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
      RecordStore store(&txn, subspace, &meta);
      auto rec = store.LoadRecord("Doc", IdPk(id));
      QUICK_RETURN_IF_ERROR(rec.status());
      if (rec->has_value()) {
        model[id] = {(*rec)->GetInt("bucket").value(),
                     (*rec)->GetInt("rank").value()};
      } else {
        model.erase(id);
      }
      return Status::OK();
    });
    ASSERT_TRUE(st2.ok());
  }

  // Verify value index: one entry per live record at its rank.
  Status st = fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
    RecordStore store(&txn, subspace, &meta);
    auto entries = store.ScanIndex("by_rank", tup::Tuple());
    QUICK_RETURN_IF_ERROR(entries.status());
    EXPECT_EQ(entries->size(), model.size());
    std::map<int64_t, int64_t> index_view;  // id -> rank
    int64_t prev_rank = INT64_MIN;
    for (const IndexEntry& e : *entries) {
      const int64_t rank = e.indexed_values.GetInt(0).value();
      EXPECT_GE(rank, prev_rank) << "index not ordered";
      prev_rank = rank;
      index_view[e.primary_key.GetInt(1).value()] = rank;
    }
    EXPECT_EQ(index_view.size(), model.size());
    for (const auto& [id, br] : model) {
      EXPECT_TRUE(index_view.count(id)) << "missing index entry for " << id;
      if (!index_view.count(id)) return Status::Internal("missing entry");
      EXPECT_EQ(index_view[id], br.second) << "stale index entry for " << id;
    }

    // Verify count index per bucket.
    std::map<int64_t, int64_t> expected_counts;
    for (const auto& [id, br] : model) ++expected_counts[br.first];
    for (int64_t bucket = 0; bucket < 4; ++bucket) {
      auto count = store.GetCount("per_bucket", tup::Tuple().AddInt(bucket));
      QUICK_RETURN_IF_ERROR(count.status());
      EXPECT_EQ(*count, expected_counts[bucket]) << "bucket " << bucket;
    }
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 42, 99, 123,
                                           20260705));

// --- Stored keys against tup::Tuple packs. ---

/// A random value of `type`, drawn from edge cases (zero bytes, 0xFF bytes,
/// integer and double extremes, -0.0, NaN) and small pools, so records
/// collide on primary keys and index values.
tup::Element RandomValue(FieldType type, Random& rng) {
  auto random_bytes = [&] {
    static const char kAlphabet[] = {'\x00', '\xff', 'a', 'b', '\x01'};
    std::string out;
    for (uint64_t n = rng.Uniform(5); n > 0; --n) {
      out.push_back(kAlphabet[rng.Uniform(sizeof(kAlphabet))]);
    }
    return out;
  };
  switch (type) {
    case FieldType::kInt64: {
      static const int64_t kInts[] = {0,
                                      1,
                                      -1,
                                      255,
                                      -256,
                                      1 << 20,
                                      std::numeric_limits<int64_t>::min(),
                                      std::numeric_limits<int64_t>::max()};
      return kInts[rng.Uniform(std::size(kInts))];
    }
    case FieldType::kString:
      return random_bytes();
    case FieldType::kDouble: {
      static const double kDoubles[] = {
          0.0, -0.0, 1.5, -2.5, std::numeric_limits<double>::infinity(),
          std::nan("")};
      return kDoubles[rng.Uniform(std::size(kDoubles))];
    }
    case FieldType::kBool:
      return rng.Bernoulli(0.5);
    case FieldType::kBytes:
      return tup::Bytes{random_bytes()};
  }
  return tup::Null{};
}

void SetValue(const std::string& field, const tup::Element& value,
              Record* record) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    record->SetInt(field, *i);
  } else if (const auto* str = std::get_if<std::string>(&value)) {
    record->SetString(field, *str);
  } else if (const auto* d = std::get_if<double>(&value)) {
    record->SetDouble(field, *d);
  } else if (const auto* b = std::get_if<bool>(&value)) {
    record->SetBool(field, *b);
  } else if (const auto* bytes = std::get_if<tup::Bytes>(&value)) {
    record->SetBytes(field, bytes->data);
  }
}

/// The tuple of `record`'s values of `fields` (Null when absent).
tup::Tuple ValuesOf(const Record& record,
                    const std::vector<std::string>& fields) {
  tup::Tuple t;
  for (const std::string& field : fields) t.Add(record.ElementOrNull(field));
  return t;
}

class KeyEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KeyEquivalenceTest, StoredKeysEqualTuplePacks) {
  Random rng(GetParam());
  constexpr FieldType kTypes[] = {FieldType::kInt64, FieldType::kString,
                                  FieldType::kDouble, FieldType::kBool,
                                  FieldType::kBytes};
  // Two record types of random fields and one- or two-field primary keys;
  // names carry a zero byte, so name encodings escape too.
  RecordMetadata meta;
  std::vector<RecordTypeDef> types;
  for (const std::string& name :
       {std::string("A"), std::string("B\x00" "b", 3)}) {
    RecordTypeDef type;
    type.name = name;
    for (int f = 0; f < 5; ++f) {
      type.fields.push_back(
          {"f" + std::to_string(f), kTypes[rng.Uniform(std::size(kTypes))]});
    }
    type.primary_key_fields = {"f0"};
    if (rng.Bernoulli(0.5)) type.primary_key_fields.push_back("f1");
    ASSERT_TRUE(meta.AddRecordType(type).ok());
    types.push_back(type);
  }
  // Random value and count indexes over the shared field names, each over
  // both types or one, and one version index.
  const int value_indexes = 1 + static_cast<int>(rng.Uniform(4));
  const int count_indexes = static_cast<int>(rng.Uniform(3));
  for (int i = 0; i < value_indexes + count_indexes; ++i) {
    IndexDef index;
    index.kind = i < value_indexes ? IndexKind::kValue : IndexKind::kCount;
    index.name = std::string(i < value_indexes ? "v" : "c") +
                 std::to_string(i) + std::string(1, '\x00');
    const uint64_t fields = (index.kind == IndexKind::kValue ? 1 : 0) +
                            rng.Uniform(3);
    for (uint64_t f = 0; f < fields; ++f) {
      index.fields.push_back("f" + std::to_string(rng.Uniform(5)));
    }
    if (rng.Bernoulli(0.3)) index.record_types = {types[rng.Uniform(2)].name};
    ASSERT_TRUE(meta.AddIndex(std::move(index)).ok());
  }
  IndexDef changes;
  changes.name = "changes";
  changes.kind = IndexKind::kVersion;
  changes.sticky_version = rng.Bernoulli(0.5);
  ASSERT_TRUE(meta.AddIndex(changes).ok());

  fdb::Database db("keys");
  const tup::Subspace subspace(tup::Tuple().AddString("k").AddInt(7));
  // The live records by their packed reference record key, and every count
  // group a save touched (the store keeps a group's key at zero).
  std::map<std::string, Record> live;
  std::set<std::string> count_groups;
  auto full_pk = [&](const Record& record) {
    const RecordTypeDef* type = meta.FindRecordType(record.type());
    tup::Tuple pk = tup::Tuple().AddString(record.type());
    pk.Concat(ValuesOf(record, type->primary_key_fields));
    return pk;
  };
  auto record_key = [&](const Record& record) {
    return subspace.Pack(tup::Tuple().AddString("r").Concat(full_pk(record)));
  };
  auto count_key = [&](const IndexDef& index, const Record& record) {
    return subspace.Pack(tup::Tuple()
                             .AddString("i")
                             .AddString(index.name)
                             .Concat(ValuesOf(record, index.fields)));
  };

  for (int step = 0; step < 40; ++step) {
    const RecordTypeDef& type = types[rng.Uniform(2)];
    Record record(type.name);
    for (const FieldDef& field : type.fields) {
      const bool pk_field =
          std::find(type.primary_key_fields.begin(),
                    type.primary_key_fields.end(),
                    field.name) != type.primary_key_fields.end();
      if (pk_field || rng.Bernoulli(0.8)) {
        SetValue(field.name, RandomValue(field.type, rng), &record);
      }
    }
    const bool do_delete = rng.Bernoulli(0.25);
    Status st = fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
      RecordStore store(&txn, subspace, &meta);
      if (do_delete) {
        const tup::Tuple pk = ValuesOf(record, type.primary_key_fields);
        return store.DeleteRecord(type.name, pk.Encode()).status();
      }
      return store.SaveRecord(record);
    });
    ASSERT_TRUE(st.ok()) << st;
    if (do_delete) {
      live.erase(record_key(record));
      continue;
    }
    live.insert_or_assign(record_key(record), record);
    for (const IndexDef& index : meta.indexes()) {
      if (index.kind == IndexKind::kCount && index.Covers(record.type())) {
        count_groups.insert(count_key(index, record));
      }
    }
  }

  // Read every stored key with its value.
  std::map<std::string, std::string> stored;
  ASSERT_TRUE(fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
                QUICK_ASSIGN_OR_RETURN(std::vector<fdb::KeyValue> kvs,
                                       txn.GetRange(subspace.Range()));
                stored.clear();
                for (fdb::KeyValue& kv : kvs) {
                  stored.emplace(std::move(kv.key), std::move(kv.value));
                }
                return Status::OK();
              }).ok());

  // The keys Tuple packs spell for the live records.
  std::set<std::string> expected(count_groups.begin(), count_groups.end());
  for (const auto& [key, record] : live) {
    expected.insert(key);
    for (const IndexDef& index : meta.indexes()) {
      if (!index.Covers(record.type())) continue;
      if (index.kind == IndexKind::kValue) {
        tup::Tuple entry = tup::Tuple().AddString("i").AddString(index.name);
        entry.Concat(ValuesOf(record, index.fields)).Concat(full_pk(record));
        expected.insert(subspace.Pack(entry));
      } else if (index.kind == IndexKind::kVersion) {
        const std::string header = subspace.Pack(tup::Tuple()
                                                     .AddString("h")
                                                     .AddString(index.name)
                                                     .Concat(full_pk(record)));
        expected.insert(header);
        auto it = stored.find(header);
        ASSERT_NE(it, stored.end()) << "missing version header";
        expected.insert(
            subspace.Pack(tup::Tuple().AddString("i").AddString(index.name)) +
            it->second + full_pk(record).Encode());
      }
    }
  }
  std::set<std::string> keys;
  for (const auto& [key, value] : stored) keys.insert(key);
  EXPECT_EQ(keys, expected);

  // Each count group holds the number of live records in it.
  for (const std::string& group : count_groups) {
    int64_t count = 0;
    for (const auto& [key, record] : live) {
      for (const IndexDef& index : meta.indexes()) {
        if (index.kind == IndexKind::kCount && index.Covers(record.type()) &&
            count_key(index, record) == group) {
          ++count;
        }
      }
    }
    auto it = stored.find(group);
    ASSERT_NE(it, stored.end());
    EXPECT_EQ(static_cast<int64_t>(DecodeLittleEndian64(it->second)), count);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KeyEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 17, 42, 99,
                                           123, 2024, 31337, 20260705));

}  // namespace
}  // namespace quick::rl
