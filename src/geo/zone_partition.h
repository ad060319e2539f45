// Geo-aware shard partitioning for the zone-sharded scheduler.
//
// The trace generator emits spatially clustered demand zones, and the
// balancing graphs only ever connect hotspots within θ2 of each other — so
// a spatial partition of the hotspot set is also (approximately) a partition
// of the flow problem. partition_zones() cuts the hotspot cloud into
// `num_shards` contiguous, size-balanced cells by recursive coordinate
// bisection on the local tangent-plane projection; boundary_hotspots() marks
// the hotspots whose candidate edges could cross a shard cut (any other-shard
// hotspot within the candidate radius), which is exactly the set the
// cross-shard exchange round may still move load between.
//
// Both functions are pure and deterministic: they depend only on the point
// coordinates and the shard count, never on demand, iteration order of
// containers, or wall-clock — a fixed (points, num_shards) pair always
// yields the same assignment, which is what lets the golden-digest harness
// pin sharded plans (DESIGN.md §3.12).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/geo_point.h"
#include "geo/grid_index.h"

namespace ccdn {

/// A complete assignment of every point to exactly one shard.
struct ShardAssignment {
  std::size_t num_shards = 1;
  /// Shard id per point, parallel to the input span.
  std::vector<std::uint32_t> shard_of;
  /// Member point indices per shard, ascending. Every point appears in
  /// exactly one list (the partition property the tests assert).
  std::vector<std::vector<std::uint32_t>> members;
};

/// Recursive coordinate bisection: project the points onto the tangent
/// plane at points[0], then recursively split the index set on its
/// wider-extent axis, dividing the shard quota proportionally
/// (K → ⌊K/2⌋ + ⌈K/2⌉). Splits sort by (coordinate, index), so ties are
/// deterministic. Every shard is non-empty and sizes stay floor/ceil
/// balanced. Requires 1 <= num_shards <= points.size().
[[nodiscard]] ShardAssignment partition_zones(std::span<const GeoPoint> points,
                                              std::size_t num_shards);

/// Byte mask (1 = boundary), parallel to `points`: point i is a boundary
/// point iff some point of a *different* shard lies strictly within
/// `radius_km`. `index` must be a GridIndex over the same points in the
/// same order. With a single shard the mask is all zero.
[[nodiscard]] std::vector<std::uint8_t> boundary_hotspots(
    std::span<const GeoPoint> points, const ShardAssignment& assignment,
    double radius_km, const GridIndex& index);

}  // namespace ccdn
