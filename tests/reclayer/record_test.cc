#include "reclayer/record.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "cloudkit/queued_item.h"
#include "common/random.h"

namespace quick::rl {
namespace {

RecordTypeDef ItemType() {
  RecordTypeDef t;
  t.name = "Item";
  t.fields = {{"id", FieldType::kString},
              {"count", FieldType::kInt64},
              {"score", FieldType::kDouble},
              {"active", FieldType::kBool},
              {"blob", FieldType::kBytes}};
  t.primary_key_fields = {"id"};
  return t;
}

TEST(RecordTest, SettersAndGetters) {
  Record r("Item");
  r.SetString("id", "a1").SetInt("count", 5).SetDouble("score", 2.5);
  r.SetBool("active", true).SetBytes("blob", std::string("\x00\x01", 2));
  EXPECT_EQ(r.GetString("id").value(), "a1");
  EXPECT_EQ(r.GetInt("count").value(), 5);
  EXPECT_DOUBLE_EQ(r.GetDouble("score").value(), 2.5);
  EXPECT_TRUE(r.GetBool("active").value());
  EXPECT_EQ(r.GetBytes("blob").value(), std::string("\x00\x01", 2));
}

TEST(RecordTest, MissingFieldIsNotFound) {
  Record r("Item");
  EXPECT_TRUE(r.GetInt("count").status().IsNotFound());
  EXPECT_FALSE(r.HasField("count"));
}

TEST(RecordTest, WrongTypeIsInvalidArgument) {
  Record r("Item");
  r.SetString("id", "a1");
  EXPECT_EQ(r.GetInt("id").status().code(), StatusCode::kInvalidArgument);
}

TEST(RecordTest, ClearFieldRemoves) {
  Record r("Item");
  r.SetInt("count", 1);
  r.ClearField("count");
  EXPECT_FALSE(r.HasField("count"));
}

TEST(RecordTest, SerializeRoundTrip) {
  Record r("Item");
  r.SetString("id", "a1").SetInt("count", -42).SetDouble("score", 1.5);
  r.SetBool("active", false).SetBytes("blob", "xyz");
  auto back = Record::Deserialize(r.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == r);
}

TEST(RecordTest, DeserializeRejectsJunk) {
  EXPECT_FALSE(Record::Deserialize("").ok());
  EXPECT_FALSE(Record::Deserialize("garbage\xFF").ok());
}

TEST(RecordTest, ValidateAcceptsConformingRecord) {
  Record r("Item");
  r.SetString("id", "a1").SetInt("count", 1);
  EXPECT_TRUE(r.Validate(ItemType()).ok());
}

TEST(RecordTest, ValidateRejectsUnknownField) {
  Record r("Item");
  r.SetString("id", "a1").SetInt("mystery", 1);
  EXPECT_FALSE(r.Validate(ItemType()).ok());
}

TEST(RecordTest, ValidateRejectsWrongFieldType) {
  Record r("Item");
  r.SetString("id", "a1").SetString("count", "not-an-int");
  EXPECT_FALSE(r.Validate(ItemType()).ok());
}

TEST(RecordTest, ValidateRejectsMissingPrimaryKey) {
  Record r("Item");
  r.SetInt("count", 1);
  EXPECT_FALSE(r.Validate(ItemType()).ok());
}

TEST(RecordTest, ValidateRejectsTypeMismatch) {
  Record r("Other");
  r.SetString("id", "a1");
  EXPECT_FALSE(r.Validate(ItemType()).ok());
}

TEST(RecordTest, PrimaryKeyIncludesTypePrefix) {
  Record r("Item");
  r.SetString("id", "a1");
  std::string encoded;
  ASSERT_TRUE(r.AppendPrimaryKey(ItemType(), &encoded).ok());
  tup::Tuple pk = tup::Tuple::Decode(encoded).value();
  ASSERT_EQ(pk.size(), 2u);
  EXPECT_EQ(pk.GetString(0).value(), "Item");
  EXPECT_EQ(pk.GetString(1).value(), "a1");
}

TEST(RecordTest, ElementOrNullForMissing) {
  Record r("Item");
  tup::Element e = r.ElementOrNull("count");
  EXPECT_TRUE(std::holds_alternative<tup::Null>(e));
}

TEST(RecordTest, EqualityIgnoresInsertionOrder) {
  Record a("Item"), b("Item");
  a.SetString("id", "x").SetInt("count", 1);
  b.SetInt("count", 1).SetString("id", "x");
  EXPECT_TRUE(a == b);
  b.SetInt("count", 2);
  EXPECT_FALSE(a == b);
}

TEST(RecordTest, ToStringReadable) {
  Record r("Item");
  r.SetString("id", "a1").SetInt("count", 3);
  EXPECT_EQ(r.ToString(), "Item{count=3, id=\"a1\"}");
}

// --- The codec's bytes and edge cases. ---

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

/// A copy of `bytes` in a heap buffer of exactly its size, so a decoder
/// that reads past the end trips AddressSanitizer.
class ExactBuffer {
 public:
  explicit ExactBuffer(std::string_view bytes)
      : data_(new char[bytes.size()]), size_(bytes.size()) {
    std::copy(bytes.begin(), bytes.end(), data_.get());
  }
  std::string_view view() const { return {data_.get(), size_}; }

 private:
  std::unique_ptr<char[]> data_;
  size_t size_;
};

// Encodings of three records, captured from the map-based codec the flat
// one replaced. The WAL, checkpoints, standbys and every index order read
// these bytes, so they must not change.
constexpr const char* kQueuedItemHex =
    "025175657565644974656d000264625f6b657900026170702f74656e616e742d343200"
    "02656e71756575655f74696d65001a018bcfe56800026572726f725f636f756e740015"
    "0202696400023031323334353637383961626364656630313233343536373839616263"
    "64656600026a6f625f747970650002656d61696c2e73656e6400026c6173745f616374"
    "6976655f74696d650014026c656173655f696400026665646362613938373635343332"
    "31306665646362613938373635343332313000027061796c6f6164000170617900ff6c"
    "6f6164ff00027072696f726974790013fc0276657374696e675f74696d65001a018bcf"
    "e5687b";
constexpr const char* kDeadLetterHex =
    "02446561644c65747465724974656d0002617474656d7074730015050264625f6b6579"
    "00020002656e71756575655f74696d65001a018bcfe568000266696e616c5f6572726f"
    "720002554e415641494c41424c453a20626f6f6d000269640002646c2d3700026a6f62"
    "5f747970650002706f69736f6e00027061796c6f6164000100027072696f7269747900"
    "15010271756172616e74696e655f74696d65001a018bcfe58f0f02726561736f6e0002"
    "65786861757374656400";
constexpr const char* kEveryTypeHex =
    "02457665727900026269670017010000026279746573000100ffff00ff0002656d7074"
    "795f627974657300010002656d7074795f737472000200026d6178001c7fffffffffff"
    "ffff026d696e000c7fffffffffffffff026e65670013fe026e65675f646f75626c6500"
    "213ffbffffffffffff026e65675f7a65726f00217fffffffffffffff026e6f00260270"
    "690021c00a0000000000000273747200026100ff62ff6300027965730027027a65726f"
    "0014";

ck::QueuedItem GoldenItem() {
  ck::QueuedItem item;
  item.id = "0123456789abcdef0123456789abcdef";
  item.job_type = "email.send";
  item.priority = -3;
  item.vesting_time = 1700000000123;
  item.lease_id = "fedcba9876543210fedcba9876543210";
  item.error_count = 2;
  item.payload = std::string("pay\x00load\xff", 9);
  item.enqueue_time = 1700000000000;
  item.db_key = "app/tenant-42";
  item.last_active_time = 0;
  return item;
}

ck::DeadLetterItem GoldenDeadLetter() {
  ck::DeadLetterItem dl;
  dl.id = "dl-7";
  dl.job_type = "poison";
  dl.priority = 1;
  dl.enqueue_time = 1700000000000;
  dl.attempts = 5;
  dl.reason = "exhausted";
  dl.final_error = "UNAVAILABLE: boom";
  dl.quarantine_time = 1700000009999;
  return dl;
}

/// Every field type, with zero and 0xFF bytes, empty values and the
/// integer and signed-zero edge cases.
Record EveryType() {
  Record r("Every");
  r.SetString("str", std::string("a\x00" "b\xff" "c", 5))
      .SetString("empty_str", "")
      .SetBytes("bytes", std::string("\x00\xff\x00", 3))
      .SetBytes("empty_bytes", "")
      .SetInt("min", std::numeric_limits<int64_t>::min())
      .SetInt("max", std::numeric_limits<int64_t>::max())
      .SetInt("neg", -1)
      .SetInt("zero", 0)
      .SetInt("big", 65536)
      .SetDouble("neg_zero", -0.0)
      .SetDouble("pi", 3.25)
      .SetDouble("neg_double", -2.5)
      .SetBool("yes", true)
      .SetBool("no", false);
  return r;
}

std::vector<std::string> GoldenEncodings() {
  return {GoldenItem().ToRecord().Serialize(),
          GoldenDeadLetter().ToRecord().Serialize(), EveryType().Serialize()};
}

TEST(RecordCodecTest, SerializeMatchesGoldenBytes) {
  EXPECT_EQ(Hex(GoldenItem().ToRecord().Serialize()), kQueuedItemHex);
  EXPECT_EQ(Hex(GoldenDeadLetter().ToRecord().Serialize()), kDeadLetterHex);
  EXPECT_EQ(Hex(EveryType().Serialize()), kEveryTypeHex);
}

TEST(RecordCodecTest, GoldenBytesDecodeBackToTheirRecords) {
  auto item = Record::Deserialize(GoldenItem().ToRecord().Serialize());
  ASSERT_TRUE(item.ok()) << item.status();
  EXPECT_TRUE(*item == GoldenItem().ToRecord());
  auto back = ck::QueuedItem::FromRecord(*std::move(item));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->id, GoldenItem().id);
  EXPECT_EQ(back->payload, GoldenItem().payload);
  EXPECT_EQ(back->vesting_time, GoldenItem().vesting_time);
  EXPECT_EQ(back->db_key, GoldenItem().db_key);

  auto dl = Record::Deserialize(GoldenDeadLetter().ToRecord().Serialize());
  ASSERT_TRUE(dl.ok()) << dl.status();
  auto dl_back = ck::DeadLetterItem::FromRecord(*std::move(dl));
  ASSERT_TRUE(dl_back.ok()) << dl_back.status();
  EXPECT_EQ(dl_back->final_error, GoldenDeadLetter().final_error);
  EXPECT_EQ(dl_back->quarantine_time, GoldenDeadLetter().quarantine_time);

  auto every = Record::Deserialize(EveryType().Serialize());
  ASSERT_TRUE(every.ok()) << every.status();
  EXPECT_TRUE(*every == EveryType());
  EXPECT_TRUE(std::signbit(every->GetDouble("neg_zero").value()));
}

TEST(RecordCodecTest, TakeMovesValuesOut) {
  Record r = EveryType();
  EXPECT_EQ(r.TakeString("str").value(), std::string("a\x00" "b\xff" "c", 5));
  EXPECT_EQ(r.TakeBytes("bytes").value(), std::string("\x00\xff\x00", 3));
  EXPECT_TRUE(r.TakeString("absent").status().IsNotFound());
  EXPECT_EQ(r.TakeString("bytes").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(r.TakeBytes("str").status().code(), StatusCode::kInvalidArgument);
}

std::string RandomText(Random* rng, int max_len) {
  static constexpr char kAlphabet[] = {'\x00', '\xff', '\x01', 'a', 'b', 'z'};
  std::string s(rng->Uniform(max_len + 1), ' ');
  for (char& c : s) c = kAlphabet[rng->Uniform(sizeof(kAlphabet))];
  return s;
}

Record RandomRecord(Random* rng, std::vector<std::string>* names) {
  Record r(RandomText(rng, 8));
  const int fields = static_cast<int>(rng->Uniform(16));
  for (int i = 0; i < fields; ++i) {
    const std::string name = RandomText(rng, 6);
    names->push_back(name);
    switch (rng->Uniform(5)) {
      case 0: {
        const int64_t edges[] = {0, -1, std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::max(),
                                 static_cast<int64_t>(rng->NextU64())};
        r.SetInt(name, edges[rng->Uniform(5)]);
        break;
      }
      case 1:
        r.SetString(name, RandomText(rng, 24));
        break;
      case 2:
        r.SetBytes(name, RandomText(rng, 24));
        break;
      case 3: {
        const double edges[] = {-0.0, 0.0, -1e300,
                                std::numeric_limits<double>::infinity(),
                                rng->NextDouble() - 0.5};
        r.SetDouble(name, edges[rng->Uniform(5)]);
        break;
      }
      default:
        r.SetBool(name, rng->Bernoulli(0.5));
        break;
    }
  }
  return r;
}

TEST(RecordCodecTest, SeededRandomRecordsRoundTrip) {
  Random rng(20261019);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::string> names;
    const Record r = RandomRecord(&rng, &names);
    const std::string bytes = r.Serialize();
    const ExactBuffer buffer(bytes);
    auto full = Record::Deserialize(buffer.view());
    ASSERT_TRUE(full.ok()) << full.status();
    ASSERT_TRUE(*full == r) << r.ToString();
    EXPECT_EQ(full->Serialize(), bytes);

    // The index-field decode equals the full decode restricted to the
    // chosen fields, present or not.
    std::vector<std::string> only;
    for (const std::string& name : names) {
      if (rng.Bernoulli(0.4)) only.push_back(name);
    }
    only.push_back(RandomText(&rng, 6));
    std::sort(only.begin(), only.end());
    only.erase(std::unique(only.begin(), only.end()), only.end());
    Record restricted = *full;
    for (const std::string& name : names) {
      if (!std::binary_search(only.begin(), only.end(), name)) {
        restricted.ClearField(name);
      }
    }
    auto filtered = Record::Deserialize(buffer.view(), &only);
    ASSERT_TRUE(filtered.ok()) << filtered.status();
    EXPECT_TRUE(*filtered == restricted) << filtered->ToString() << " vs "
                                         << restricted.ToString();
  }
}

// A strict prefix of a canonical encoding either fails to decode or, when
// it ends on a field boundary, decodes to the record of the fields before
// it. The decoder never reads past the prefix (ExactBuffer).
TEST(RecordCodecTest, EveryStrictPrefixDecodesToAnErrorOrItsOwnFields) {
  const std::vector<std::string> only = {"db_key", "priority", "vesting_time"};
  for (const std::string& bytes : GoldenEncodings()) {
    int decoded = 0;
    for (size_t len = 0; len < bytes.size(); ++len) {
      const std::string prefix = bytes.substr(0, len);
      const ExactBuffer buffer(prefix);
      auto full = Record::Deserialize(buffer.view());
      auto filtered = Record::Deserialize(buffer.view(), &only);
      EXPECT_EQ(full.ok(), filtered.ok()) << "prefix of " << len << " bytes";
      if (!full.ok()) continue;
      ++decoded;
      EXPECT_EQ(full->Serialize(), prefix) << "prefix of " << len << " bytes";
    }
    EXPECT_GT(decoded, 0);
    EXPECT_FALSE(Record::Deserialize(std::string_view()).ok());
  }
}

TEST(RecordCodecTest, RandomBytesDecodeToAnErrorOrARecord) {
  static constexpr char kBytes[] = {'\x00', '\x01', '\x02', '\x05', '\x0c',
                                    '\x14', '\x15', '\x1c', '\x21', '\x26',
                                    '\x30', '\xff', 'a'};
  const std::vector<std::string> only = {"a", "b"};
  Random rng(7);
  int decoded = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string bytes(rng.Uniform(48), ' ');
    for (char& c : bytes) {
      c = rng.Bernoulli(0.8) ? kBytes[rng.Uniform(sizeof(kBytes))]
                             : static_cast<char>(rng.Uniform(256));
    }
    if (rng.Bernoulli(0.5)) bytes.insert(0, "\x02T\x00", 3);
    const ExactBuffer buffer(bytes);
    auto full = Record::Deserialize(buffer.view());
    auto filtered = Record::Deserialize(buffer.view(), &only);
    if (!full.ok()) continue;
    ++decoded;
    // A record that decodes is well formed: its canonical bytes decode to
    // it again.
    ASSERT_TRUE(filtered.ok()) << filtered.status();
    auto again = Record::Deserialize(full->Serialize());
    ASSERT_TRUE(again.ok()) << again.status();
    EXPECT_TRUE(*again == *full);
  }
  EXPECT_GT(decoded, 0);
}

TEST(RecordCodecTest, RejectsEachMalformedShape) {
  const std::vector<std::string> only = {"a"};
  const std::string cases[] = {
      "",                                                      // empty
      tup::Tuple().AddString("T").AddString("a").Encode(),     // even count
      tup::Tuple().AddInt(1).AddString("a").AddInt(2).Encode(),  // type
      tup::Tuple().AddString("T").AddInt(1).AddInt(2).Encode(),  // name
      tup::Tuple().AddString("T").AddString("a").Encode() + "\x21\x80",
      std::string("\x02T", 2),                                 // truncated
  };
  for (const std::string& bytes : cases) {
    const ExactBuffer buffer(bytes);
    EXPECT_FALSE(Record::Deserialize(buffer.view()).ok()) << Hex(bytes);
    EXPECT_FALSE(Record::Deserialize(buffer.view(), &only).ok())
        << Hex(bytes);
  }
  auto bare = Record::Deserialize(tup::Tuple().AddString("T").Encode());
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->type(), "T");
  EXPECT_EQ(bare->Serialize(), tup::Tuple().AddString("T").Encode());
}

TEST(RecordCodecTest, OutOfOrderAndRepeatedNamesDecodeSortedLastWins) {
  const std::string bytes = tup::Tuple()
                                .AddString("T")
                                .AddString("b")
                                .AddInt(1)
                                .AddString("a")
                                .AddInt(2)
                                .AddString("b")
                                .AddInt(3)
                                .Encode();
  auto r = Record::Deserialize(bytes);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->GetInt("a").value(), 2);
  EXPECT_EQ(r->GetInt("b").value(), 3);
  EXPECT_EQ(r->Serialize(), tup::Tuple()
                                .AddString("T")
                                .AddString("a")
                                .AddInt(2)
                                .AddString("b")
                                .AddInt(3)
                                .Encode());
  const std::vector<std::string> only = {"b"};
  auto b_only = Record::Deserialize(bytes, &only);
  ASSERT_TRUE(b_only.ok()) << b_only.status();
  EXPECT_FALSE(b_only->HasField("a"));
  EXPECT_EQ(b_only->GetInt("b").value(), 3);
}

}  // namespace
}  // namespace quick::rl
