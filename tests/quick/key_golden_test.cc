// Golden bytes of the keys the Record Layer, the queue zone and the CloudKit
// layouts build, and of a Q_C pointer's payload, captured from the
// Tuple-based builders that the in-place appenders replaced. The WAL,
// checkpoints, standbys, tenant moves and every index order read these
// bytes, so they must not change.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cloudkit/migration_state.h"
#include "cloudkit/queue_zone.h"
#include "cloudkit/service.h"
#include "common/clock.h"
#include "fdb/database.h"
#include "fdb/retry.h"
#include "quick/pointer.h"
#include "reclayer/record_store.h"

namespace quick {
namespace {

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

/// Every key in `range`, in key order, as hex, with the bytes of `stamp`
/// (a commit versionstamp, when not empty) shown as "<stamp>".
std::vector<std::string> KeysIn(fdb::Database* db, const KeyRange& range,
                                const std::string& stamp = "") {
  std::vector<std::string> keys;
  Status st = fdb::RunTransaction(db, [&](fdb::Transaction& txn) {
    QUICK_ASSIGN_OR_RETURN(std::vector<fdb::KeyValue> kvs,
                           txn.GetRange(range));
    keys.clear();
    for (const fdb::KeyValue& kv : kvs) {
      const std::string_view key = kv.key;
      const size_t at = stamp.empty() ? key.npos : key.find(stamp);
      keys.push_back(at == key.npos
                         ? Hex(key)
                         : Hex(key.substr(0, at)) + "<stamp>" +
                               Hex(key.substr(at + stamp.size())));
    }
    return Status::OK();
  });
  EXPECT_TRUE(st.ok()) << st;
  return keys;
}

// A record type with each field type a key can hold, a composite primary
// key and bytes that need escaping, under a value, a count and a version
// index.
rl::RecordMetadata DocMetadata() {
  rl::RecordMetadata meta;
  rl::RecordTypeDef doc;
  doc.name = "Doc";
  doc.fields = {{"id", rl::FieldType::kString},
                {"part", rl::FieldType::kInt64},
                {"score", rl::FieldType::kDouble},
                {"blob", rl::FieldType::kBytes},
                {"flag", rl::FieldType::kBool}};
  doc.primary_key_fields = {"part", "id"};
  EXPECT_TRUE(meta.AddRecordType(std::move(doc)).ok());
  rl::IndexDef by_score;
  by_score.name = "by_score";
  by_score.fields = {"score", "blob"};
  EXPECT_TRUE(meta.AddIndex(std::move(by_score)).ok());
  rl::IndexDef per_flag;
  per_flag.name = "per_flag";
  per_flag.kind = rl::IndexKind::kCount;
  per_flag.fields = {"flag"};
  EXPECT_TRUE(meta.AddIndex(std::move(per_flag)).ok());
  rl::IndexDef changes;
  changes.name = "changes";
  changes.kind = rl::IndexKind::kVersion;
  EXPECT_TRUE(meta.AddIndex(std::move(changes)).ok());
  return meta;
}

const std::string kDocId("d\x00" "1", 3);
const std::string kDocBlob("\x00\xff", 2);

// Under the store prefix ("gold"): the version header ("h", "changes",
// pk), the value entry ("i", "by_score", score, blob, pk), the version
// entry ("i", "changes") + stamp + pk, the count group ("i", "per_flag",
// true) and the record ("r", pk), where pk is ("Doc", -7, "d\0" "1").
constexpr const char* kHeaderKeyHex =
    "02676f6c6400026800026368616e6765730002446f630013f8026400ff3100";
constexpr const char* kValueEntryHex =
    "02676f6c64000269000262795f73636f726500213ffbffffffffffff0100ffff0002446f"
    "630013f8026400ff3100";
constexpr const char* kVersionEntryHex =
    "02676f6c6400026900026368616e67657300<stamp>02446f630013f8026400ff3100";
constexpr const char* kCountKeyHex =
    "02676f6c6400026900027065725f666c61670027";
constexpr const char* kRecordKeyHex =
    "02676f6c640002720002446f630013f8026400ff3100";
constexpr const char* kIndexStateKeyHex =
    "02676f6c6400027374000262795f73636f726500";

TEST(KeyGoldenTest, RecordStoreKeys) {
  const rl::RecordMetadata meta = DocMetadata();
  fdb::Database db("gold");
  const tup::Subspace subspace(tup::Tuple().AddString("gold"));
  ASSERT_TRUE(fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
                rl::RecordStore store(&txn, subspace, &meta);
                rl::Record r("Doc");
                r.SetString("id", kDocId)
                    .SetInt("part", -7)
                    .SetDouble("score", -2.5)
                    .SetBytes("blob", kDocBlob)
                    .SetBool("flag", true);
                return store.SaveRecord(r);
              }).ok());

  const std::string pk = tup::Tuple().AddInt(-7).AddString(kDocId).Encode();
  const std::string full_pk = tup::Tuple().AddString("Doc").Encode() + pk;
  const std::string values =
      tup::Tuple().AddDouble(-2.5).AddBytes(kDocBlob).Encode();
  std::string stamp;
  ASSERT_TRUE(fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
                rl::RecordStore store(&txn, subspace, &meta);
                EXPECT_EQ(Hex(store.IndexStateKey("by_score")),
                          kIndexStateKeyHex);
                EXPECT_EQ(Hex(store.ValueIndexEntryKey("by_score", values,
                                                       full_pk)),
                          kValueEntryHex);
                QUICK_ASSIGN_OR_RETURN(std::optional<std::string> version,
                                       store.GetRecordVersion("changes", "Doc",
                                                              pk));
                EXPECT_TRUE(version.has_value());
                stamp = version.value_or("");
                QUICK_ASSIGN_OR_RETURN(std::optional<rl::Record> loaded,
                                       store.LoadRecord("Doc", pk));
                EXPECT_TRUE(loaded.has_value());
                return Status::OK();
              }).ok());
  ASSERT_EQ(stamp.size(), rl::kVersionstampBytes);
  EXPECT_EQ(KeysIn(&db, subspace.Range(), stamp),
            (std::vector<std::string>{kHeaderKeyHex, kValueEntryHex,
                                      kVersionEntryHex, kCountKeyHex,
                                      kRecordKeyHex}));

  // Deleting clears each entry at the same bytes; the count group stays,
  // at zero.
  ASSERT_TRUE(fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
                rl::RecordStore store(&txn, subspace, &meta);
                QUICK_ASSIGN_OR_RETURN(bool deleted,
                                       store.DeleteRecord("Doc", pk));
                EXPECT_TRUE(deleted);
                return Status::OK();
              }).ok());
  EXPECT_EQ(KeysIn(&db, subspace.Range()),
            std::vector<std::string>{kCountKeyHex});
}

// One item in a FIFO queue zone of ("app", "u1") named "_queue", prefix
// ("ck", "app", "u1", 0, "z", "_queue"): the arrival header, the arrival
// entry, the db_key entry, the count group, the vesting entry (2,
// 1700000000250) and the record, each keyed by ("QueuedItem", id).
constexpr const char* kZoneHex =
    "02636b0002617070000275310014027a00025f717565756500";
// The item id "0123456789abcdef0123456789abcdef" as a string element.
const std::string kIdHex =
    "02" "30313233343536373839616263646566" "30313233343536373839616263646566"
    "00";
const std::string kItemPkHex = "025175657565644974656d00" + kIdHex;
const std::string kDeadLetterPkHex =
    "02446561644c65747465724974656d00" + kIdHex;

std::string ZoneKey(const std::string& tail) { return kZoneHex + tail; }

TEST(KeyGoldenTest, QueueZoneKeys) {
  fdb::Database db("gold");
  ManualClock clock(1700000000000);
  const ck::DatabaseId tenant = ck::DatabaseId::Private("app", "u1");
  const tup::Subspace zone_space =
      ck::CloudKitService::ZoneSubspace(tenant, "_queue");
  ASSERT_EQ(Hex(zone_space.prefix()), kZoneHex);
  const std::string id = "0123456789abcdef0123456789abcdef";
  const std::string db_key = "app\x1fu1\x1f" "0\x1f_queue";
  ASSERT_TRUE(fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
                ck::QueueZone zone(&txn, zone_space, &clock, /*fifo=*/true);
                ck::QueuedItem item;
                item.id = id;
                item.job_type = "email.send";
                item.priority = 2;
                item.db_key = db_key;
                item.payload = "x";
                return zone.Enqueue(item, 250).status();
              }).ok());

  std::string stamp;
  // ("i", "by_db_key", db_key) + pk.
  const std::string db_key_entry =
      ZoneKey("026900" "0262795f64625f6b657900"
              "026170701f75311f301f5f717565756500") +
      kItemPkHex;
  ASSERT_TRUE(fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
                ck::QueueZone zone(&txn, zone_space, &clock, /*fifo=*/true);
                EXPECT_EQ(Hex(zone.DbKeyIndexEntryKey(db_key, id)),
                          db_key_entry);
                QUICK_ASSIGN_OR_RETURN(std::optional<std::string> arrival,
                                       zone.ArrivalStamp(id));
                stamp = arrival.value_or("");
                return Status::OK();
              }).ok());
  ASSERT_EQ(stamp.size(), rl::kVersionstampBytes);
  EXPECT_EQ(
      KeysIn(&db, zone_space.Range(), stamp),
      (std::vector<std::string>{
          ZoneKey("026800026172726976616c00") + kItemPkHex,
          ZoneKey("026900026172726976616c00<stamp>") + kItemPkHex,
          db_key_entry,
          ZoneKey("02690002636e7400"),
          ZoneKey("0269000276657374696e670015021a018bcfe568fa") + kItemPkHex,
          ZoneKey("027200") + kItemPkHex,
      }));

  // Quarantine deletes the item through its id and files it in the
  // dead-letter store ("dl"): quarantine-time entry, count group, record.
  ASSERT_TRUE(fdb::RunTransaction(&db, [&](fdb::Transaction& txn) {
                ck::QueueZone zone(&txn, zone_space, &clock, /*fifo=*/true);
                QUICK_RETURN_IF_ERROR(
                    zone.Quarantine(id, std::nullopt, "exhausted", "boom"));
                QUICK_ASSIGN_OR_RETURN(std::optional<ck::DeadLetterItem> dl,
                                       zone.LoadDeadLetter(id));
                EXPECT_TRUE(dl.has_value());
                return Status::OK();
              }).ok());
  EXPECT_EQ(KeysIn(&db, zone_space.Range()),
            (std::vector<std::string>{
                ZoneKey("02646c000269000262795f7174696d65001a018bcfe56800") +
                    kDeadLetterPkHex,
                ZoneKey("02646c0002690002646c5f636e7400"),
                ZoneKey("02646c00027200") + kDeadLetterPkHex,
                ZoneKey("02690002636e7400"),
            }));
}

struct DatabaseCase {
  ck::DatabaseId id;
  const char* database_hex;  // ("ck", app, user, kind)
  const char* move_hex;      // ("ckmv", app, user, kind)
  const char* payload_hex;   // (app, user, kind, "_queue")
};

const DatabaseCase kDatabaseCases[] = {
    {ck::DatabaseId::Private("app", "user"),
     "02636b00026170700002757365720014",
     "02636b6d7600026170700002757365720014",
     "026170700002757365720014025f717565756500"},
    {ck::DatabaseId::Public("app"), "02636b00026170700002001501",
     "02636b6d7600026170700002001501",
     "026170700002001501025f717565756500"},
    {ck::DatabaseId::Cluster("c1"), "02636b00025f717569636b00026331001502",
     "02636b6d7600025f717569636b00026331001502",
     "025f717569636b00026331001502025f717565756500"},
};

// ("z", "_queue") below a database prefix.
constexpr const char* kQueueZoneTailHex = "027a00025f717565756500";

TEST(KeyGoldenTest, DatabaseZoneAndMovePrefixes) {
  for (const DatabaseCase& c : kDatabaseCases) {
    SCOPED_TRACE(c.id.ToString());
    const tup::Subspace database =
        ck::CloudKitService::DatabaseSubspace(c.id);
    EXPECT_EQ(Hex(database.prefix()), c.database_hex);
    const std::string zone_hex =
        std::string(c.database_hex) + kQueueZoneTailHex;
    EXPECT_EQ(Hex(ck::CloudKitService::ZoneSubspace(c.id, "_queue").prefix()),
              zone_hex);
    EXPECT_EQ(
        Hex(ck::CloudKitService::ZoneSubspace(database, "_queue").prefix()),
        zone_hex);
    EXPECT_EQ(Hex(ck::MoveState::Key(c.id)), c.move_hex);
  }
}

TEST(KeyGoldenTest, PointerPayload) {
  for (const DatabaseCase& c : kDatabaseCases) {
    SCOPED_TRACE(c.id.ToString());
    const core::Pointer pointer{c.id, "_queue"};
    const ck::QueuedItem item = pointer.ToItem();
    EXPECT_EQ(Hex(item.payload), c.payload_hex);
    Result<core::Pointer> back = core::Pointer::FromItem(item);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_EQ(back->db_id, c.id);
    EXPECT_EQ(back->zone, "_queue");
  }
}

}  // namespace
}  // namespace quick
