// Uniform spatial grid over a set of geo points.
//
// Supports nearest-neighbour and radius queries; used to (a) aggregate every
// user request at its nearest hotspot and (b) enumerate candidate hotspots
// within the Random-routing / θ radius, without O(N·M) scans.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "geo/geo_point.h"

namespace ccdn {

class GridIndex {
 public:
  /// Index over `points` (copied). `cell_km` controls the grid resolution;
  /// a value near the typical query radius works well. Requires a non-empty
  /// point set and cell_km > 0.
  GridIndex(std::vector<GeoPoint> points, double cell_km);

  // nearest() builds its per-cell table under a once_flag, which can be
  // neither copied nor moved.
  GridIndex(const GridIndex&) = delete;
  GridIndex& operator=(const GridIndex&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return points_.size(); }
  [[nodiscard]] const GeoPoint& point(std::size_t i) const {
    return points_.at(i);
  }

  /// Index of the nearest point to the query: the argmin of the squared
  /// distance in the projected plane, ties broken by lowest index. The
  /// first call builds the per-cell candidate table (DESIGN.md §3.16);
  /// concurrent first calls are safe.
  [[nodiscard]] std::size_t nearest(const GeoPoint& query) const;

  /// Indices of all points with distance <= radius_km, ascending by index.
  [[nodiscard]] std::vector<std::size_t> within_radius(const GeoPoint& query,
                                                       double radius_km) const;

  /// Same query into a caller-owned buffer (cleared first), so a query loop
  /// performs no allocations once the buffer has grown to steady state.
  void within_radius(const GeoPoint& query, double radius_km,
                     std::vector<std::size_t>& out) const;

  /// A radius-query view restricted to a subset of the indexed points.
  ///
  /// Shares the parent's projection and cell geometry, so a query returns
  /// exactly the members of the subset that the parent's within_radius()
  /// would return — same planar pre-filter, same ascending-id order —
  /// without scanning points outside the subset. Built for the θ-sweep
  /// candidate scan, where only the under-utilized hotspots can receive and
  /// most points near a sender are not receivers.
  ///
  /// The view borrows the parent index, which must outlive it. assign() may
  /// be called repeatedly to re-target the same (buffer-reusing) view.
  class Subset {
   public:
    explicit Subset(const GridIndex& parent);

    /// Replace the subset with `ids` (parent point indices, any order).
    void assign(std::span<const std::uint32_t> ids);

    /// Parent indices of subset members with projected distance <=
    /// radius_km, ascending, into a caller-owned buffer (cleared first).
    void within_radius(const GeoPoint& query, double radius_km,
                       std::vector<std::size_t>& out) const;

   private:
    const GridIndex* parent_;
    // CSR buckets over the parent's cells, holding subset members only.
    std::vector<std::uint32_t> offsets_;
    std::vector<std::uint32_t> ids_;
    std::vector<std::uint32_t> slots_;  // assign() scratch
  };

  /// Indices of the k nearest points, ascending by distance (k clamped to
  /// size()).
  [[nodiscard]] std::vector<std::size_t> k_nearest(const GeoPoint& query,
                                                   std::size_t k) const;

 private:
  struct Cell {
    std::int32_t col = 0;
    std::int32_t row = 0;
  };

  [[nodiscard]] Cell cell_of(const Projection::Xy& xy) const noexcept;
  [[nodiscard]] std::size_t cell_slot(Cell c) const noexcept;
  /// Nearest point by expanding rings of cells around the query's cell.
  [[nodiscard]] std::size_t ring_nearest(const Projection::Xy& q) const;
  void build_nearest_table() const;

  std::vector<GeoPoint> points_;
  std::vector<Projection::Xy> projected_;
  Projection projection_;
  double cell_km_;
  std::int32_t cols_ = 0;
  std::int32_t rows_ = 0;
  double min_x_ = 0.0;
  double min_y_ = 0.0;
  double max_x_ = 0.0;
  double max_y_ = 0.0;
  // CSR-style buckets: ids of points per cell.
  std::vector<std::uint32_t> bucket_offsets_;
  std::vector<std::uint32_t> bucket_ids_;
  // Per-cell nearest candidates, CSR like the buckets, each list ascending:
  // every point that is the nearest one for some query inside the cell.
  // Built by the first nearest() call, so indexes that only answer radius
  // queries never pay for it.
  mutable std::once_flag nearest_once_;
  mutable std::vector<std::uint32_t> nearest_offsets_;
  mutable std::vector<std::uint32_t> nearest_ids_;
};

}  // namespace ccdn
