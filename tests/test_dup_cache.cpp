// DupCache: first-sighting semantics and TTL expiry.
#include <gtest/gtest.h>

#include <string>

#include "net/dup_cache.hpp"

namespace {

using p2p::net::DupCache;

TEST(DupCache, FirstInsertIsFresh) {
  DupCache cache(10.0);
  EXPECT_TRUE(cache.insert(1, 100, 0.0));
  EXPECT_FALSE(cache.insert(1, 100, 0.0));  // recorded at once
  EXPECT_EQ(cache.size(), 1U);
}

TEST(DupCache, SecondInsertIsDuplicate) {
  DupCache cache(10.0);
  EXPECT_TRUE(cache.insert(1, 100, 0.0));
  EXPECT_FALSE(cache.insert(1, 100, 1.0));
  EXPECT_FALSE(cache.insert(1, 100, 9.9));
}

TEST(DupCache, DistinguishesOriginsAndIds) {
  DupCache cache(10.0);
  EXPECT_TRUE(cache.insert(1, 100, 0.0));
  EXPECT_TRUE(cache.insert(2, 100, 0.0));
  EXPECT_TRUE(cache.insert(1, 101, 0.0));
  EXPECT_FALSE(cache.insert(2, 100, 0.0));
}

TEST(DupCache, ExpiryAllowsReinsert) {
  DupCache cache(10.0);
  EXPECT_TRUE(cache.insert(1, 100, 0.0));
  EXPECT_FALSE(cache.insert(1, 100, 9.99));
  EXPECT_TRUE(cache.insert(1, 100, 10.0));  // ttl elapsed
}

TEST(DupCache, ExpiryIsPerEntry) {
  DupCache cache(10.0);
  cache.insert(1, 1, 0.0);
  cache.insert(1, 2, 5.0);
  EXPECT_TRUE(cache.insert(1, 1, 10.0));   // first expired
  EXPECT_FALSE(cache.insert(1, 2, 10.0));  // second still fresh
  EXPECT_TRUE(cache.insert(1, 2, 15.0));
}

TEST(DupCache, SizeReflectsLiveEntries) {
  DupCache cache(10.0);
  cache.insert(1, 1, 0.0);
  cache.insert(1, 2, 0.0);
  EXPECT_EQ(cache.size(), 2U);
  cache.insert(1, 3, 20.0);  // expires the first two
  EXPECT_EQ(cache.size(), 1U);
}

// An entry past its TTL that the epoch purge has not reached yet is still
// resident, but must read as expired: re-inserting it is a fresh sighting
// (ID reuse after the TTL is never suppressed by a stale one), recorded
// in place, and a duplicate again right after.
TEST(DupCache, ExpiredResidentReadsAsFreshBeforePurge) {
  DupCache cache(10.0);
  cache.insert(1, 1, 0.0);    // opens the epoch: purge due at 10
  cache.insert(1, 100, 9.0);  // expires at 19
  cache.insert(1, 2, 10.0);   // purge: drops (1,1), next purge due at 20
  ASSERT_EQ(cache.size(), 2U);
  EXPECT_FALSE(cache.insert(1, 100, 18.99));  // still live
  // At 19.5 (1,100) has expired, but no purge runs before 20.
  EXPECT_TRUE(cache.insert(1, 100, 19.5));
  EXPECT_EQ(cache.size(), 2U);  // re-used its resident slot
  EXPECT_FALSE(cache.insert(1, 100, 19.6));
  std::string why;
  EXPECT_TRUE(cache.validate(19.6, &why)) << why;
}

}  // namespace
