#include "cloudkit/database_id.h"

#include <gtest/gtest.h>

namespace quick::ck {
namespace {

TEST(DatabaseIdTest, Factories) {
  DatabaseId priv = DatabaseId::Private("photos", "alice");
  EXPECT_EQ(priv.kind, DatabaseKind::kPrivate);
  EXPECT_EQ(priv.app, "photos");
  EXPECT_EQ(priv.user, "alice");

  DatabaseId pub = DatabaseId::Public("photos");
  EXPECT_EQ(pub.kind, DatabaseKind::kPublic);
  EXPECT_TRUE(pub.user.empty());

  DatabaseId cluster = DatabaseId::Cluster("east-1");
  EXPECT_EQ(cluster.kind, DatabaseKind::kCluster);
  EXPECT_EQ(cluster.user, "east-1");
}

TEST(DatabaseIdTest, KeyStringRoundTrip) {
  const DatabaseId ids[] = {
      DatabaseId::Private("photos", "alice"),
      DatabaseId::Public("notes"),
      DatabaseId::Cluster("east-1"),
      DatabaseId::Private("app with spaces", "user/with/slashes"),
  };
  for (const DatabaseId& id : ids) {
    auto back = DatabaseId::FromKeyString(id.ToKeyString());
    ASSERT_TRUE(back.ok()) << id.ToString();
    EXPECT_EQ(*back, id);
  }
}

TEST(DatabaseIdTest, FromKeyStringRejectsJunk) {
  EXPECT_FALSE(DatabaseId::FromKeyString("no separators").ok());
  EXPECT_FALSE(DatabaseId::FromKeyString("a\x1f" "b").ok());
  EXPECT_FALSE(DatabaseId::FromKeyString("a\x1f" "b\x1f" "9").ok());
  EXPECT_FALSE(DatabaseId::FromKeyString("a\x1f" "b\x1f" "xx").ok());
}

TEST(DatabaseIdTest, DistinctIdsDistinctKeys) {
  EXPECT_NE(DatabaseId::Private("a", "u").ToKeyString(),
            DatabaseId::Private("a", "v").ToKeyString());
  EXPECT_NE(DatabaseId::Private("a", "").ToKeyString(),
            DatabaseId::Public("a").ToKeyString());
}

TEST(DatabaseIdTest, TupleEncodingDistinct) {
  auto encode = [](const DatabaseId& id) {
    std::string out;
    id.AppendTo(&out);
    return out;
  };
  EXPECT_NE(encode(DatabaseId::Private("a", "u")),
            encode(DatabaseId::Public("a")));
}

TEST(DatabaseIdTest, OrderingIsTotal) {
  DatabaseId a = DatabaseId::Private("a", "u");
  DatabaseId b = DatabaseId::Private("b", "u");
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
  EXPECT_TRUE(a == a);
}

}  // namespace
}  // namespace quick::ck
