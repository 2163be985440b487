#include <gtest/gtest.h>

#include "geo/asdb.hpp"

using namespace cen;
using namespace cen::geo;
using cen::net::Ipv4Address;

TEST(IpMetadataDb, LongestPrefixWins) {
  IpMetadataDb db;
  db.add_route(Ipv4Address(10, 0, 0, 0), 8, {100, "BIG", "US"});
  db.add_route(Ipv4Address(10, 1, 0, 0), 16, {200, "SMALL", "DE"});
  auto hit = db.lookup(Ipv4Address(10, 1, 2, 3));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->asn, 200u);
  hit = db.lookup(Ipv4Address(10, 2, 2, 3));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->asn, 100u);
}

TEST(IpMetadataDb, MissReturnsNullopt) {
  IpMetadataDb db;
  db.add_route(Ipv4Address(10, 0, 0, 0), 8, {100, "X", "US"});
  EXPECT_FALSE(db.lookup(Ipv4Address(192, 168, 0, 1)));
}

TEST(IpMetadataDb, SingleSourceLookup) {
  IpMetadataDb db;
  db.add_route(Ipv4Address(10, 0, 0, 0), 8, {1, "MM-ONLY", "US"},
               MetadataSource::kMaxmindLike);
  EXPECT_TRUE(db.lookup(Ipv4Address(10, 0, 0, 1), MetadataSource::kMaxmindLike));
  EXPECT_FALSE(db.lookup(Ipv4Address(10, 0, 0, 1), MetadataSource::kRouteviewsLike));
  // Merged lookup still succeeds off the single source.
  EXPECT_TRUE(db.lookup(Ipv4Address(10, 0, 0, 1)));
}

TEST(IpMetadataDb, DisagreementCountedAndMaxmindPreferred) {
  IpMetadataDb db;
  db.add_route(Ipv4Address(10, 0, 0, 0), 8, {1, "MM", "US"}, MetadataSource::kMaxmindLike);
  db.add_route(Ipv4Address(10, 0, 0, 0), 8, {2, "RV", "DE"},
               MetadataSource::kRouteviewsLike);
  EXPECT_EQ(db.disagreements(), 0u);
  auto hit = db.lookup(Ipv4Address(10, 0, 0, 1));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->asn, 1u);
  EXPECT_EQ(db.disagreements(), 1u);
}

TEST(IpMetadataDb, DisagreementMoreSpecificWins) {
  IpMetadataDb db;
  db.add_route(Ipv4Address(10, 0, 0, 0), 8, {1, "MM", "US"}, MetadataSource::kMaxmindLike);
  db.add_route(Ipv4Address(10, 0, 0, 0), 16, {2, "RV", "DE"},
               MetadataSource::kRouteviewsLike);
  auto hit = db.lookup(Ipv4Address(10, 0, 0, 1));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->asn, 2u);  // /16 beats /8 even across sources
}

TEST(IpMetadataDb, AgreementNotCounted) {
  IpMetadataDb db;
  db.add_route(Ipv4Address(10, 0, 0, 0), 8, {1, "SAME", "US"});
  db.lookup(Ipv4Address(10, 0, 0, 1));
  EXPECT_EQ(db.disagreements(), 0u);
}

TEST(IpMetadataDb, PrefixBoundaries) {
  IpMetadataDb db;
  db.add_route(Ipv4Address(10, 0, 16, 0), 20, {7, "SLASH20", "KZ"});
  EXPECT_TRUE(db.lookup(Ipv4Address(10, 0, 16, 1)));
  EXPECT_TRUE(db.lookup(Ipv4Address(10, 0, 31, 255)));
  EXPECT_FALSE(db.lookup(Ipv4Address(10, 0, 32, 0)));
  EXPECT_FALSE(db.lookup(Ipv4Address(10, 0, 15, 255)));
}

TEST(IpMetadataDb, SlashZeroMatchesEverything) {
  IpMetadataDb db;
  db.add_route(Ipv4Address(0, 0, 0, 0), 0, {9, "DEFAULT", "XX"});
  EXPECT_TRUE(db.lookup(Ipv4Address(255, 255, 255, 255)));
}

TEST(IpMetadataDb, Slash32ExactHost) {
  IpMetadataDb db;
  db.add_route(Ipv4Address(10, 0, 0, 7), 32, {3, "HOST", "RU"});
  EXPECT_TRUE(db.lookup(Ipv4Address(10, 0, 0, 7)));
  EXPECT_FALSE(db.lookup(Ipv4Address(10, 0, 0, 8)));
}

TEST(IpMetadataDb, FingerprintCoversEveryRouteField) {
  auto one = [](Ipv4Address base, int len, AsInfo info, MetadataSource source) {
    IpMetadataDb db;
    db.add_route(base, len, std::move(info), source);
    return db.fingerprint();
  };
  const Ipv4Address base(10, 1, 0, 0);
  const AsInfo info{200, "SMALL", "DE"};
  const std::uint64_t fp = one(base, 16, info, MetadataSource::kMaxmindLike);
  EXPECT_EQ(fp, one(base, 16, info, MetadataSource::kMaxmindLike));
  EXPECT_NE(fp, one(Ipv4Address(10, 2, 0, 0), 16, info, MetadataSource::kMaxmindLike));
  EXPECT_NE(fp, one(base, 24, info, MetadataSource::kMaxmindLike));
  EXPECT_NE(fp, one(base, 16, info, MetadataSource::kRouteviewsLike));
  EXPECT_NE(fp, one(base, 16, {201, "SMALL", "DE"}, MetadataSource::kMaxmindLike));
  EXPECT_NE(fp, one(base, 16, {200, "SMALLER", "DE"}, MetadataSource::kMaxmindLike));
  EXPECT_NE(fp, one(base, 16, {200, "SMALL", "FR"}, MetadataSource::kMaxmindLike));
  EXPECT_NE(fp, IpMetadataDb().fingerprint());
}
