#include "tuple/subspace.h"

#include <gtest/gtest.h>

#include <limits>

namespace quick::tup {
namespace {

TEST(SubspaceTest, PackPrependsPrefix) {
  Subspace s(Tuple().AddString("zone"));
  Tuple t;
  t.AddInt(5);
  const std::string key = s.Pack(t);
  EXPECT_TRUE(s.Contains(key));
  EXPECT_EQ(key, Tuple().AddString("zone").AddInt(5).Encode());
}

TEST(SubspaceTest, UnpackInvertsPack) {
  Subspace s(Tuple().AddString("a").AddInt(1));
  Tuple t;
  t.AddString("item").AddInt(99);
  auto back = s.Unpack(s.Pack(t));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(*back == t);
}

TEST(SubspaceTest, UnpackRejectsForeignKey) {
  Subspace s(Tuple().AddString("a"));
  Subspace other(Tuple().AddString("b"));
  EXPECT_FALSE(s.Unpack(other.Pack(Tuple().AddInt(1))).ok());
}

TEST(SubspaceTest, NestedSub) {
  Subspace root(Tuple().AddString("db"));
  Subspace zone = root.Sub("zoneA").Sub(int64_t{7});
  const std::string key = zone.Pack(Tuple().AddString("rec"));
  EXPECT_TRUE(root.Contains(key));
  EXPECT_TRUE(zone.Contains(key));
  auto back = zone.Unpack(key);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->GetString(0).value(), "rec");
}

TEST(SubspaceTest, SubEncodesLikeATupleChild) {
  const Subspace root(Tuple().AddString("zone"));
  for (const std::string& s :
       {std::string(), std::string("r"), std::string("a\x00" "b", 3),
        std::string("\xff")}) {
    EXPECT_EQ(root.Sub(s).prefix(), root.Sub(Tuple().AddString(s)).prefix());
  }
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{255},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(root.Sub(v).prefix(), root.Sub(Tuple().AddInt(v)).prefix());
  }
}

TEST(SubspaceTest, RangeCoversOnlyOwnKeys) {
  Subspace a(Tuple().AddString("a"));
  Subspace b(Tuple().AddString("b"));
  KeyRange ra = a.Range();
  EXPECT_TRUE(ra.Contains(a.Pack(Tuple().AddInt(0))));
  EXPECT_TRUE(ra.Contains(a.Pack(Tuple().AddString("zzz"))));
  EXPECT_FALSE(ra.Contains(b.Pack(Tuple().AddInt(0))));
}

TEST(SubspaceTest, TuplePrefixRange) {
  Subspace s(Tuple().AddString("idx"));
  KeyRange r = s.Range(Tuple().AddInt(5));
  EXPECT_TRUE(r.Contains(s.Pack(Tuple().AddInt(5).AddString("x"))));
  EXPECT_FALSE(r.Contains(s.Pack(Tuple().AddInt(6))));
  EXPECT_FALSE(r.Contains(s.Pack(Tuple().AddInt(4).AddString("x"))));
}

TEST(SubspaceTest, SiblingSubspacesDisjoint) {
  Subspace root(Tuple().AddString("db"));
  Subspace s1 = root.Sub(int64_t{1});
  Subspace s2 = root.Sub(int64_t{2});
  EXPECT_FALSE(s1.Range().Intersects(s2.Range()));
}

TEST(SubspaceTest, RawPrefixConstructor) {
  Subspace s(std::string("\x15\x01"));
  EXPECT_EQ(s.prefix(), "\x15\x01");
  EXPECT_TRUE(s.Contains(s.Pack(Tuple().AddInt(3))));
}

}  // namespace
}  // namespace quick::tup
