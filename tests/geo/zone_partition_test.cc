#include "geo/zone_partition.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/reference_pair_scans.h"
#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

std::vector<GeoPoint> random_points(Rng& rng, std::size_t n) {
  std::vector<GeoPoint> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(40.00, 40.10), rng.uniform(116.40, 116.60)});
  }
  return points;
}

TEST(ZonePartition, RejectsBadShardCounts) {
  const std::vector<GeoPoint> points{{40.0, 116.5}, {40.1, 116.6}};
  EXPECT_THROW(partition_zones(points, 0), PreconditionError);
  EXPECT_THROW(partition_zones(points, 3), PreconditionError);
}

// The partition property: every point lands in exactly one shard, shard_of
// and members agree, and member lists are ascending.
TEST(ZonePartition, EveryPointInExactlyOneShard) {
  Rng rng(7);
  const auto points = random_points(rng, 137);
  for (const std::size_t shards : {1u, 2u, 3u, 4u, 7u, 16u}) {
    const ShardAssignment assignment = partition_zones(points, shards);
    ASSERT_EQ(assignment.num_shards, shards);
    ASSERT_EQ(assignment.shard_of.size(), points.size());
    ASSERT_EQ(assignment.members.size(), shards);
    std::vector<int> seen(points.size(), 0);
    for (std::uint32_t s = 0; s < shards; ++s) {
      const auto& members = assignment.members[s];
      EXPECT_FALSE(members.empty()) << "empty shard " << s;
      EXPECT_TRUE(std::is_sorted(members.begin(), members.end()));
      for (const std::uint32_t p : members) {
        ASSERT_LT(p, points.size());
        seen[p] += 1;
        EXPECT_EQ(assignment.shard_of[p], s);
      }
    }
    for (std::size_t p = 0; p < points.size(); ++p) {
      EXPECT_EQ(seen[p], 1) << "point " << p << " at " << shards << " shards";
    }
  }
}

TEST(ZonePartition, ShardSizesStayFloorCeilBalanced) {
  Rng rng(11);
  const auto points = random_points(rng, 101);
  for (const std::size_t shards : {2u, 3u, 5u, 8u}) {
    const ShardAssignment assignment = partition_zones(points, shards);
    const std::size_t floor_size = points.size() / shards;
    for (const auto& members : assignment.members) {
      EXPECT_GE(members.size(), floor_size);
      EXPECT_LE(members.size(), floor_size + 1);
    }
  }
}

TEST(ZonePartition, Deterministic) {
  Rng rng(3);
  const auto points = random_points(rng, 64);
  const ShardAssignment a = partition_zones(points, 4);
  const ShardAssignment b = partition_zones(points, 4);
  EXPECT_EQ(a.shard_of, b.shard_of);
  EXPECT_EQ(a.members, b.members);
}

// Boundary detection must agree with the O(n²) cross-shard pair scan for
// every radius the schemes use (and then some).
TEST(ZonePartition, BoundaryMatchesPairScan) {
  Rng rng(19);
  const auto points = random_points(rng, 150);
  const GridIndex index(points, 0.5);
  for (const std::size_t shards : {2u, 4u, 9u}) {
    const ShardAssignment assignment = partition_zones(points, shards);
    for (const double radius : {0.3, 1.0, 1.5, 3.0, 6.0}) {
      const auto fast =
          boundary_hotspots(points, assignment, radius, index);
      const auto brute =
          boundary_hotspots_pairscan(points, assignment, radius);
      EXPECT_EQ(fast, brute)
          << shards << " shards, radius " << radius << " km";
    }
  }
}

TEST(ZonePartition, SingleShardHasNoBoundary) {
  Rng rng(5);
  const auto points = random_points(rng, 40);
  const GridIndex index(points, 0.5);
  const ShardAssignment assignment = partition_zones(points, 1);
  const auto mask = boundary_hotspots(points, assignment, 1e9, index);
  EXPECT_TRUE(std::all_of(mask.begin(), mask.end(),
                          [](std::uint8_t b) { return b == 0; }));
}

}  // namespace
}  // namespace ccdn
