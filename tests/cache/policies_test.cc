#include "cache/policies.h"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "util/error.h"
#include "util/rng.h"

namespace ccdn {

// Prints a policy parameter by name in test listings (found by ADL).
void PrintTo(CachePolicy policy, std::ostream* os) {
  *os << cache_policy_name(policy);
}

namespace {

TEST(Cache, RejectsZeroCapacity) {
  EXPECT_THROW(LruCache(0), PreconditionError);
  EXPECT_THROW(FifoCache(0), PreconditionError);
  EXPECT_THROW(LfuCache(0), PreconditionError);
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  EXPECT_FALSE(cache.insert(1).has_value());
  EXPECT_FALSE(cache.insert(2).has_value());
  EXPECT_TRUE(cache.access(1));  // 1 becomes most recent
  const auto evicted = cache.insert(3);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 2u);
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(3));
  EXPECT_FALSE(cache.contains(2));
}

TEST(Lru, InsertExistingIsNoop) {
  LruCache cache(2);
  (void)cache.insert(1);
  (void)cache.insert(2);
  EXPECT_FALSE(cache.insert(1).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(Lru, AccessMiss) {
  LruCache cache(2);
  EXPECT_FALSE(cache.access(42));
}

TEST(Fifo, EvictsInInsertionOrderRegardlessOfHits) {
  FifoCache cache(2);
  (void)cache.insert(1);
  (void)cache.insert(2);
  EXPECT_TRUE(cache.access(1));  // FIFO ignores recency
  const auto evicted = cache.insert(3);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 1u);
}

TEST(Lfu, EvictsLeastFrequent) {
  LfuCache cache(2);
  (void)cache.insert(1);
  (void)cache.insert(2);
  EXPECT_TRUE(cache.access(1));
  EXPECT_TRUE(cache.access(1));  // 1 has frequency 3, 2 has 1
  const auto evicted = cache.insert(3);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 2u);
  EXPECT_TRUE(cache.contains(1));
}

TEST(Lfu, TieBreaksByRecency) {
  LfuCache cache(2);
  (void)cache.insert(1);
  (void)cache.insert(2);
  // Both at frequency 1; 1 is older within the bucket.
  const auto evicted = cache.insert(3);
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(*evicted, 1u);
}

TEST(Lfu, NewItemsDontEvictHotOnes) {
  LfuCache cache(2);
  (void)cache.insert(1);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(cache.access(1));
  (void)cache.insert(2);
  (void)cache.insert(3);  // evicts 2 (freq 1), never 1
  (void)cache.insert(4);  // evicts 3
  EXPECT_TRUE(cache.contains(1));
  EXPECT_TRUE(cache.contains(4));
}

TEST(Factory, MakesAllPolicies) {
  for (const auto policy :
       {CachePolicy::kLru, CachePolicy::kFifo, CachePolicy::kLfu}) {
    const auto cache = make_cache(policy, 4);
    ASSERT_NE(cache, nullptr);
    EXPECT_EQ(cache->capacity(), 4u);
    EXPECT_EQ(cache->policy_name(), cache_policy_name(policy));
  }
}

class CacheInvariants : public ::testing::TestWithParam<CachePolicy> {};

TEST_P(CacheInvariants, SizeNeverExceedsCapacityUnderRandomWorkload) {
  const auto cache = make_cache(GetParam(), 8);
  Rng rng(17);
  std::size_t hits = 0;
  for (int op = 0; op < 5000; ++op) {
    const auto video = static_cast<VideoId>(rng.uniform_int(0, 30));
    if (cache->access(video)) {
      ++hits;
    } else {
      const auto evicted = cache->insert(video);
      if (evicted.has_value()) {
        EXPECT_FALSE(cache->contains(*evicted));
        EXPECT_NE(*evicted, video);
      }
    }
    EXPECT_LE(cache->size(), 8u);
    EXPECT_TRUE(cache->contains(video));
  }
  EXPECT_GT(hits, 0u);  // some locality even in a uniform workload
}

TEST_P(CacheInvariants, ZipfWorkloadHitsBeatUniform) {
  const auto zipf_cache = make_cache(GetParam(), 8);
  const auto uniform_cache = make_cache(GetParam(), 8);
  Rng rng(23);
  std::size_t zipf_hits = 0;
  std::size_t uniform_hits = 0;
  for (int op = 0; op < 20000; ++op) {
    // Crude Zipf-ish: half the mass on 4 hot videos.
    const VideoId hot = static_cast<VideoId>(rng.uniform_int(0, 3));
    const VideoId cold = static_cast<VideoId>(rng.uniform_int(0, 99));
    const VideoId zipf_video = rng.chance(0.5) ? hot : cold;
    const VideoId uniform_video = static_cast<VideoId>(rng.uniform_int(0, 99));
    if (zipf_cache->access(zipf_video)) {
      ++zipf_hits;
    } else {
      (void)zipf_cache->insert(zipf_video);
    }
    if (uniform_cache->access(uniform_video)) {
      ++uniform_hits;
    } else {
      (void)uniform_cache->insert(uniform_video);
    }
  }
  EXPECT_GT(zipf_hits, uniform_hits);
}

std::string policy_test_name(
    const ::testing::TestParamInfo<CachePolicy>& param_info) {
  const char* const names[] = {"Lru", "Fifo", "Lfu"};  // enum order
  return names[static_cast<int>(param_info.param)];
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, CacheInvariants,
                         ::testing::Values(CachePolicy::kLru,
                                           CachePolicy::kFifo,
                                           CachePolicy::kLfu),
                         policy_test_name);

}  // namespace
}  // namespace ccdn
