#include "geo/zone_partition.h"

#include <algorithm>

#include "util/error.h"

namespace ccdn {

namespace {

struct BisectState {
  std::span<const Projection::Xy> xy;
  std::vector<std::uint32_t>& shard_of;
  std::uint32_t next_shard = 0;
};

/// Assign `num_shards` shard ids to the points in `indices` (mutated in
/// place as sorting scratch), splitting on the wider-extent axis.
void bisect(BisectState& state, std::span<std::uint32_t> indices,
            std::size_t num_shards) {
  if (num_shards == 1) {
    const std::uint32_t shard = state.next_shard++;
    for (const std::uint32_t i : indices) state.shard_of[i] = shard;
    return;
  }
  double min_x = state.xy[indices.front()].x_km;
  double max_x = min_x;
  double min_y = state.xy[indices.front()].y_km;
  double max_y = min_y;
  for (const std::uint32_t i : indices) {
    min_x = std::min(min_x, state.xy[i].x_km);
    max_x = std::max(max_x, state.xy[i].x_km);
    min_y = std::min(min_y, state.xy[i].y_km);
    max_y = std::max(max_y, state.xy[i].y_km);
  }
  const bool split_x = (max_x - min_x) >= (max_y - min_y);
  std::sort(indices.begin(), indices.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              const double ca = split_x ? state.xy[a].x_km : state.xy[a].y_km;
              const double cb = split_x ? state.xy[b].x_km : state.xy[b].y_km;
              if (ca != cb) return ca < cb;
              return a < b;  // deterministic tie-break
            });
  const std::size_t left_shards = num_shards / 2;
  const std::size_t right_shards = num_shards - left_shards;
  // Proportional quota, floored: keeps every leaf within one point of its
  // ideal n/K share (see the balance property test).
  const std::size_t left_count = indices.size() * left_shards / num_shards;
  bisect(state, indices.subspan(0, left_count), left_shards);
  bisect(state, indices.subspan(left_count), right_shards);
}

}  // namespace

ShardAssignment partition_zones(std::span<const GeoPoint> points,
                                std::size_t num_shards) {
  CCDN_REQUIRE(num_shards >= 1, "partition_zones: zero shards");
  CCDN_REQUIRE(num_shards <= points.size(),
               "partition_zones: more shards than points");
  ShardAssignment out;
  out.num_shards = num_shards;
  out.shard_of.assign(points.size(), 0);
  out.members.resize(num_shards);
  const Projection projection(points.front());
  std::vector<Projection::Xy> xy(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    xy[i] = projection.to_xy(points[i]);
  }
  std::vector<std::uint32_t> indices(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    indices[i] = static_cast<std::uint32_t>(i);
  }
  BisectState state{xy, out.shard_of, 0};
  bisect(state, std::span<std::uint32_t>(indices), num_shards);
  for (std::uint32_t i = 0; i < points.size(); ++i) {
    out.members[out.shard_of[i]].push_back(i);
  }
  // members lists come out ascending because i runs ascending here; the
  // invariant matters — shard sub-instances enumerate hotspots in member
  // order, and the golden digests pin the resulting plans.
  return out;
}

std::vector<std::uint8_t> boundary_hotspots(std::span<const GeoPoint> points,
                                            const ShardAssignment& assignment,
                                            double radius_km,
                                            const GridIndex& index) {
  CCDN_REQUIRE(assignment.shard_of.size() == points.size(),
               "boundary_hotspots: assignment/point count mismatch");
  std::vector<std::uint8_t> boundary(points.size(), 0);
  if (assignment.num_shards <= 1) return boundary;
  // The grid filters on its planar projection; query slightly wide and keep
  // the exact d < radius_km cut, the same contract as candidate_edges — a
  // boundary hotspot is precisely one that can hold a cross-shard candidate
  // edge.
  const double query_radius = radius_km * 1.001 + 1e-6;
  std::vector<std::size_t> neighbours;
  for (std::size_t i = 0; i < points.size(); ++i) {
    index.within_radius(points[i], query_radius, neighbours);
    for (const std::size_t j : neighbours) {
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
