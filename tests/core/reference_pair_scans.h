// Test-only references for the two radius searches the planners run on a
// GridIndex: candidate_edges (src/core/balance_graph.h) and
// boundary_hotspots (src/geo/zone_partition.h). Each is the O(n²) pair scan
// with the same strict d < radius_km cut, so the differentials in
// balance_graph_test.cc, theta_sweep_test.cc and zone_partition_test.cc
// require the indexed results bit for bit, in the same order.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/balance_graph.h"
#include "geo/geo_point.h"
#include "geo/zone_partition.h"
#include "util/error.h"

namespace ccdn {

/// Every (overloaded, under-utilized) pair with distance < radius_km, by
/// partition.overloaded order, then partition.underutilized order.
inline std::vector<CandidateEdge> candidate_edges_pairscan(
    std::span<const Hotspot> hotspots, const HotspotPartition& partition,
    double radius_km) {
  CCDN_REQUIRE(radius_km >= 0.0, "negative radius");
  std::vector<CandidateEdge> edges;
  for (const auto i : partition.overloaded) {
    for (const auto j : partition.underutilized) {
      const double d =
          distance_km(hotspots[i].location, hotspots[j].location);
      if (d < radius_km) edges.push_back({i, j, d});
    }
  }
  return edges;
}

/// Byte mask: point i is 1 iff a point of another shard lies strictly
/// within radius_km.
inline std::vector<std::uint8_t> boundary_hotspots_pairscan(
    std::span<const GeoPoint> points, const ShardAssignment& assignment,
    double radius_km) {
  CCDN_REQUIRE(assignment.shard_of.size() == points.size(),
               "boundary_hotspots: assignment/point count mismatch");
  std::vector<std::uint8_t> boundary(points.size(), 0);
  if (assignment.num_shards <= 1) return boundary;
  for (std::size_t i = 0; i < points.size(); ++i) {
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (assignment.shard_of[j] == assignment.shard_of[i]) continue;
      if (distance_km(points[i], points[j]) < radius_km) {
        boundary[i] = 1;
        break;
      }
    }
  }
  return boundary;
}

}  // namespace ccdn
