#include "tuple/tuple.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>

namespace quick::tup {
namespace {

TEST(TupleTest, EmptyTupleEncodesEmpty) {
  Tuple t;
  EXPECT_TRUE(t.Encode().empty());
  auto back = Tuple::Decode("");
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST(TupleTest, RoundTripBasicTypes) {
  Tuple t;
  t.AddNull()
      .AddBytes(std::string("\x00\x01\xFF", 3))
      .AddString("hello")
      .AddInt(42)
      .AddDouble(3.25)
      .AddBool(true)
      .AddBool(false);
  auto back = Tuple::Decode(t.Encode());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 7u);
  EXPECT_TRUE(back->IsNull(0));
  EXPECT_EQ(back->GetBytes(1).value(), std::string("\x00\x01\xFF", 3));
  EXPECT_EQ(back->GetString(2).value(), "hello");
  EXPECT_EQ(back->GetInt(3).value(), 42);
  EXPECT_DOUBLE_EQ(back->GetDouble(4).value(), 3.25);
  EXPECT_TRUE(back->GetBool(5).value());
  EXPECT_FALSE(back->GetBool(6).value());
}

TEST(TupleTest, RoundTripIntegerBoundaries) {
  const int64_t cases[] = {0,
                           1,
                           -1,
                           255,
                           256,
                           -255,
                           -256,
                           65535,
                           -65536,
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::min() + 1};
  for (int64_t v : cases) {
    Tuple t;
    t.AddInt(v);
    auto back = Tuple::Decode(t.Encode());
    ASSERT_TRUE(back.ok()) << v;
    EXPECT_EQ(back->GetInt(0).value(), v);
  }
}

TEST(TupleTest, IntegerOrderPreserved) {
  const int64_t cases[] = {std::numeric_limits<int64_t>::min(),
                           -1000000,
                           -65536,
                           -256,
                           -255,
                           -2,
                           -1,
                           0,
                           1,
                           2,
                           255,
                           256,
                           65535,
                           1000000,
                           std::numeric_limits<int64_t>::max()};
  for (size_t i = 0; i + 1 < std::size(cases); ++i) {
    Tuple a, b;
    a.AddInt(cases[i]);
    b.AddInt(cases[i + 1]);
    EXPECT_LT(a.Encode(), b.Encode())
        << cases[i] << " vs " << cases[i + 1];
  }
}

TEST(TupleTest, StringWithEmbeddedNulRoundTrips) {
  Tuple t;
  t.AddString(std::string("a\x00" "b", 3));
  auto back = Tuple::Decode(t.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetString(0).value(), std::string("a\x00" "b", 3));
}

TEST(TupleTest, StringPrefixSortsFirst) {
  Tuple a, b;
  a.AddString("abc");
  b.AddString("abcd");
  EXPECT_LT(a.Encode(), b.Encode());
}

TEST(TupleTest, DoubleOrderingIncludingNegatives) {
  const double cases[] = {-1e300, -2.5, -1.0, -0.5, 0.0,
                          0.5,    1.0,  2.5,  1e300};
  for (size_t i = 0; i + 1 < std::size(cases); ++i) {
    Tuple a, b;
    a.AddDouble(cases[i]);
    b.AddDouble(cases[i + 1]);
    EXPECT_LT(a.Encode(), b.Encode())
        << cases[i] << " vs " << cases[i + 1];
  }
}

TEST(TupleTest, NestedTupleRoundTrip) {
  Tuple inner;
  inner.AddString("in").AddInt(7).AddNull();
  Tuple t;
  t.AddTuple(inner).AddString("after");
  auto back = Tuple::Decode(t.Encode());
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->size(), 2u);
  Tuple in = back->GetTuple(0).value();
  ASSERT_EQ(in.size(), 3u);
  EXPECT_EQ(in.GetString(0).value(), "in");
  EXPECT_EQ(in.GetInt(1).value(), 7);
  EXPECT_TRUE(in.IsNull(2));
  EXPECT_EQ(back->GetString(1).value(), "after");
}

TEST(TupleTest, UuidRoundTrip) {
  Uuid u = Uuid::FromHex("0123456789abcdef0123456789abcdef").value();
  Tuple t;
  t.AddUuid(u);
  auto back = Tuple::Decode(t.Encode());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetUuid(0).value().ToHex(),
            "0123456789abcdef0123456789abcdef");
}

TEST(TupleTest, UuidFromHexRejectsBadInput) {
  EXPECT_FALSE(Uuid::FromHex("short").ok());
  EXPECT_FALSE(Uuid::FromHex(std::string(32, 'g')).ok());
}

TEST(TupleTest, CrossTypeOrdering) {
  // null < bytes < string < nested < int < double < bool < uuid.
  std::vector<Tuple> ts(8);
  ts[0].AddNull();
  ts[1].AddBytes("zzz");
  ts[2].AddString("aaa");
  ts[3].AddTuple(Tuple().AddInt(1));
  ts[4].AddInt(-999);
  ts[5].AddDouble(-1e308);
  ts[6].AddBool(false);
  ts[7].AddUuid(Uuid{});
  for (size_t i = 0; i + 1 < ts.size(); ++i) {
    EXPECT_LT(ts[i].Encode(), ts[i + 1].Encode()) << i;
  }
}

TEST(TupleTest, PrefixTupleSortsBeforeExtension) {
  Tuple a, b;
  a.AddString("user").AddInt(1);
  b.AddString("user").AddInt(1);
  b.AddInt(0);
  EXPECT_LT(a.Encode(), b.Encode());
  EXPECT_EQ(a.Encode(), b.Prefix(2).Encode());
}

TEST(TupleTest, TypedGettersRejectWrongType) {
  Tuple t;
  t.AddString("x");
  EXPECT_FALSE(t.GetInt(0).ok());
  EXPECT_FALSE(t.GetInt(5).ok());
  EXPECT_FALSE(t.GetBool(0).ok());
  EXPECT_TRUE(t.GetString(0).ok());
}

TEST(TupleTest, DecodeRejectsMalformed) {
  EXPECT_FALSE(Tuple::Decode("\x21three").ok());   // truncated double
  EXPECT_FALSE(Tuple::Decode("\x30short").ok());   // truncated uuid
  EXPECT_FALSE(Tuple::Decode("\x01no-term").ok()); // unterminated bytes
  EXPECT_FALSE(Tuple::Decode("\x7F").ok());        // unknown code
  EXPECT_FALSE(Tuple::Decode("\x05\x15\x01").ok());// unterminated nested
}

TEST(TupleTest, ConcatAppendsElements) {
  Tuple a, b;
  a.AddInt(1);
  b.AddInt(2).AddString("x");
  a.Concat(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.GetInt(1).value(), 2);
}

TEST(TupleTest, ComparisonMatchesEncoding) {
  Tuple a, b;
  a.AddString("abc").AddInt(5);
  b.AddString("abc").AddInt(6);
  EXPECT_TRUE(a < b);
  EXPECT_TRUE((a.Encode() < b.Encode()));
  EXPECT_TRUE(a == a);
}

TEST(TupleTest, ToStringReadable) {
  Tuple t;
  t.AddString("u1").AddInt(3).AddNull();
  EXPECT_EQ(t.ToString(), "(\"u1\", 3, null)");
}

TEST(TupleTest, NestedNullVsNestedEmpty) {
  Tuple with_null;
  with_null.AddTuple(Tuple().AddNull());
  Tuple empty_nested;
  empty_nested.AddTuple(Tuple());
  auto a = Tuple::Decode(with_null.Encode());
  auto b = Tuple::Decode(empty_nested.Encode());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->GetTuple(0).value().size(), 1u);
  EXPECT_EQ(b->GetTuple(0).value().size(), 0u);
}

TEST(TupleTest, ReaderDecodesOneElementAtATime) {
  Tuple t;
  t.AddInt(-3)
      .AddString(std::string("a\0b", 3))
      .AddBytes("raw")
      .AddTuple(Tuple().AddNull().AddInt(7))
      .AddDouble(1.5)
      .AddNull()
      .AddString("id");
  const std::string encoded = t.Encode();  // the reader only views it
  TupleReader reader(encoded);
  std::string s;
  EXPECT_EQ(reader.ReadInt().value(), -3);
  ASSERT_TRUE(reader.ReadString(&s).ok());
  EXPECT_EQ(s, std::string("a\0b", 3));
  // Typed reads reject other types without consuming the element.
  EXPECT_FALSE(reader.ReadString(&s).ok());
  EXPECT_FALSE(reader.ReadInt().ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(reader.Skip().ok());
  ASSERT_TRUE(reader.ReadString(&s).ok());
  EXPECT_EQ(s, "id");
  EXPECT_TRUE(reader.done());
  EXPECT_FALSE(reader.Skip().ok());
}

TEST(TupleTest, ReaderRejectsTruncatedInput) {
  const std::string encoded = Tuple().AddString("abc").AddInt(1 << 20).Encode();
  const std::string_view bytes = encoded;  // the readers only view it
  TupleReader string_cut(bytes.substr(0, 3));
  EXPECT_FALSE(string_cut.Skip().ok());
  TupleReader int_cut(bytes.substr(0, bytes.size() - 1));
  ASSERT_TRUE(int_cut.Skip().ok());
  EXPECT_FALSE(int_cut.ReadInt().ok());
}

/// Strings around the decoder's run copies: empty, zero and 0xFF bytes at
/// either end, runs of zeros, and a zero followed by a literal 0xFF.
const std::string kEscapeCases[] = {
    "",
    std::string("\x00", 1),
    std::string("\x00\x00", 2),
    std::string("a\x00", 2),
    std::string("\x00" "a", 2),
    "\xff",
    std::string("\x00\xff", 2),
    std::string("\xff\x00", 2),
    std::string("a\x00\x00" "b\xff\x00", 6),
    "plain run with no zero bytes",
};

TEST(TupleTest, AppendWritesWhatEncodeWrites) {
  Tuple t;
  t.AddNull()
      .AddInt(std::numeric_limits<int64_t>::min())
      .AddDouble(-0.0)
      .AddBool(true)
      .AddTuple(Tuple().AddNull().AddString(std::string("\x00", 1)));
  for (const std::string& s : kEscapeCases) t.AddString(s).AddBytes(s);
  std::string appended = "prefix";
  for (const Element& e : t.elements()) AppendElement(e, &appended);
  EXPECT_EQ(appended, "prefix" + t.Encode());
  for (const std::string& s : kEscapeCases) {
    std::string out;
    AppendString(s, &out);
    EXPECT_EQ(out, Tuple().AddString(s).Encode());
  }
}

TEST(TupleTest, StringTagHoldsWhatEncodeWrites) {
  // Tags that start with a hex digit or hold 0xFF (no escape) included.
  static constexpr StringTag kShort{"r"};
  static constexpr StringTag kHex{"ab"};
  static constexpr StringTag kHigh{"\xff" "ck"};
  EXPECT_EQ(std::string_view(kShort), Tuple().AddString("r").Encode());
  EXPECT_EQ(std::string_view(kHex), Tuple().AddString("ab").Encode());
  EXPECT_EQ(std::string_view(kHigh), Tuple().AddString("\xff" "ck").Encode());
  EXPECT_EQ(kHex.size(), 4u);
}

TEST(TupleTest, ReaderCopiesRunsAcrossEscapedZeros) {
  for (const std::string& s : kEscapeCases) {
    const std::string encoded =
        Tuple().AddString(s).AddBytes(s).AddInt(7).Encode();
    TupleReader reader(encoded);
    std::string out = "stale contents are replaced";
    ASSERT_TRUE(reader.ReadString(&out).ok());
    EXPECT_EQ(out, s);
    Element bytes;
    ASSERT_TRUE(reader.Read(&bytes).ok());
    EXPECT_EQ(std::get<Bytes>(bytes).data, s);
    EXPECT_EQ(reader.ReadInt().value(), 7);
    EXPECT_TRUE(reader.done());

    TupleReader skipper(encoded);
    ASSERT_TRUE(skipper.Skip().ok());
    ASSERT_TRUE(skipper.Skip().ok());
    EXPECT_EQ(skipper.ReadInt().value(), 7);
  }
}

// A strict prefix of an encoding cut inside an escaped string fails, or
// (cut just after a zero byte) decodes to a shorter tuple that re-encodes
// to the prefix; the reader never reads past the cut (each prefix is a
// heap buffer of exactly its size).
TEST(TupleTest, EveryStrictPrefixDecodesToAnErrorOrItsOwnElements) {
  Tuple t;
  for (const std::string& s : kEscapeCases) t.AddString(s).AddBytes(s);
  const std::string encoded = t.Encode();
  for (size_t len = 0; len < encoded.size(); ++len) {
    std::unique_ptr<char[]> buffer(new char[len]);
    std::copy(encoded.begin(), encoded.begin() + len, buffer.get());
    const std::string_view prefix(buffer.get(), len);
    auto decoded = Tuple::Decode(prefix);
    if (decoded.ok()) {
      EXPECT_EQ(decoded->Encode(), prefix) << "prefix of " << len;
    }
    TupleReader reader(prefix);
    while (!reader.done() && reader.Skip().ok()) {
    }
  }
}

}  // namespace
}  // namespace quick::tup
