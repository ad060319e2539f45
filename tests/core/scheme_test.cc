#include "core/scheme.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace ccdn {
namespace {

std::vector<Hotspot> two_hotspots() {
  Hotspot a;
  a.cache_capacity = 3;
  Hotspot b;
  b.cache_capacity = 1;
  return {a, b};
}

TEST(SlotPlan, TotalReplicasSums) {
  SlotPlan plan;
  plan.placements = {{1, 2, 3}, {7}};
  EXPECT_EQ(plan.total_replicas(), 4u);
}

TEST(SlotPlan, RespectsCachesHappyPath) {
  SlotPlan plan;
  plan.placements = {{1, 2, 3}, {7}};
  EXPECT_TRUE(plan.respects_caches(two_hotspots()));
}

TEST(SlotPlan, DetectsOverfullCache) {
  SlotPlan plan;
  plan.placements = {{1, 2, 3}, {7, 8}};
  EXPECT_FALSE(plan.respects_caches(two_hotspots()));
}

TEST(SlotPlan, DetectsUnsortedPlacement) {
  SlotPlan plan;
  plan.placements = {{3, 1}, {}};
  EXPECT_FALSE(plan.respects_caches(two_hotspots()));
}

TEST(SlotPlan, DetectsDuplicatePlacement) {
  SlotPlan plan;
  plan.placements = {{1, 1}, {}};
  EXPECT_FALSE(plan.respects_caches(two_hotspots()));
}

TEST(SlotPlan, DetectsSizeMismatch) {
  SlotPlan plan;
  plan.placements = {{1}};
  EXPECT_FALSE(plan.respects_caches(two_hotspots()));
}

/// Placements drawn as sorted unique subsets of a small catalog.
std::vector<VideoId> random_placement(Rng& rng, std::size_t max_size) {
  std::vector<VideoId> list(rng.index(max_size + 1));
  for (VideoId& v : list) v = static_cast<VideoId>(rng.index(40));
  std::sort(list.begin(), list.end());
  list.erase(std::unique(list.begin(), list.end()), list.end());
  return list;
}

std::size_t brute_new_replicas(
    const std::vector<std::vector<VideoId>>& previous,
    const std::vector<std::vector<VideoId>>& current) {
  std::size_t pushes = 0;
  for (std::size_t h = 0; h < current.size(); ++h) {
    for (const VideoId v : current[h]) {
      const bool cached =
          h < previous.size() &&
          std::find(previous[h].begin(), previous[h].end(), v) !=
              previous[h].end();
      if (!cached) ++pushes;
    }
  }
  return pushes;
}

TEST(CountNewReplicas, MatchesBruteForce) {
  Rng rng(31);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<std::vector<VideoId>> current(1 + rng.index(12));
    for (auto& list : current) list = random_placement(rng, 25);
    std::vector<std::vector<VideoId>> previous;
    switch (trial % 4) {
      case 0:  // fewer hotspots than now
        previous.resize(rng.index(current.size()));
        for (auto& list : previous) list = random_placement(rng, 25);
        break;
      case 1:  // empty lists
        previous.assign(current.size(), {});
        break;
      case 2:  // the same lists
        previous = current;
        break;
      default:
        previous.resize(current.size() + rng.index(3));
        for (auto& list : previous) list = random_placement(rng, 25);
    }
    ASSERT_EQ(count_new_replicas(previous, current),
              brute_new_replicas(previous, current))
        << "trial " << trial;
  }
  EXPECT_EQ(count_new_replicas({}, {{1, 2}, {}, {3}}), 3u);
  EXPECT_EQ(count_new_replicas({{1, 2}, {3}}, {{1, 2}, {3}}), 0u);
}

}  // namespace
}  // namespace ccdn
