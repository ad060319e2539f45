// Uniform spatial grid over a set of geo points.
//
// Supports nearest-neighbour and radius queries; used to (a) aggregate every
// user request at its nearest hotspot and (b) enumerate candidate hotspots
// within the Random-routing / θ radius, without O(N·M) scans. A radius
// query, on the whole index or on a Subset, scans the cells its radius
// reaches, clipped to the grid. A nearest query scans its cell's candidate
// list, or every point when it lies off the points' bounding box; a batch
// of them is grouped by list first (DESIGN.md §3.16).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <mutex>
#include <span>
#include <vector>

#include "geo/geo_point.h"
#include "util/error.h"

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

  /// nearest() of a batch: homes[i] = nearest(location(i)) for every
  /// i < homes.size(), where `location` maps an index to a GeoPoint. Chunk
  /// by chunk, the queries are counting-sorted by candidate list, with
  /// `keys` and `sorted` (homes.size() entries each) as sort space, and
  /// each list is then scanned over all of the chunk's queries in it in a
  /// row, by nearest()'s own scan (DESIGN.md §3.16).
  template <typename Location>
  void nearest_batch(const Location& location, std::span<std::uint64_t> keys,
                     std::span<std::uint64_t> sorted,
                     std::span<std::uint32_t> homes) const {
    CCDN_REQUIRE(keys.size() == homes.size() && sorted.size() == homes.size(),
                 "sort space must match the batch");
    CCDN_REQUIRE(homes.size() <= std::numeric_limits<std::uint32_t>::max(),
                 "a batch holds at most 2^32 - 1 queries");
    std::call_once(nearest_once_, [this] { build_nearest_table(); });
    std::vector<std::uint32_t> list_start;
    for (std::size_t first = 0; first < homes.size(); first += kBatchChunk) {
      const std::size_t count = std::min(kBatchChunk, homes.size() - first);
      // Query i's key is (list << 32) | i.
      for (std::size_t i = first; i < first + count; ++i) {
        keys[i] =
            (std::uint64_t{candidate_list(projection_.to_xy(location(i)))}
             << 32) |
            i;
      }
      const std::span<std::uint64_t> chunk = sorted.subspan(first, count);
      sort_by_list(keys.subspan(first, count), chunk, list_start);
      for (const std::uint64_t key : chunk) {
        const auto i = static_cast<std::uint32_t>(key);
        homes[i] = scan_nearest(static_cast<std::uint32_t>(key >> 32),
                                projection_.to_xy(location(i)));
      }
    }
  }

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

 private:
  struct Cell {
    std::int32_t col = 0;
    std::int32_t row = 0;
  };

  [[nodiscard]] Cell cell_of(const Projection::Xy& xy) const noexcept;
  [[nodiscard]] std::size_t cell_slot(Cell c) const noexcept;
  /// The radius query of both within_radius() calls, over CSR buckets on
  /// this grid's cells: `ids[offsets[c] .. offsets[c + 1])` lie in cell c.
  void scan_radius(const GeoPoint& query, double radius_km,
                   std::span<const std::uint32_t> offsets,
                   std::span<const std::uint32_t> ids,
                   std::vector<std::size_t>& out) const;
  void build_nearest_table() const;
  /// The candidate list nearest() scans for a projected query: its cell's,
  /// or, off the points' bounding box, the list of every point.
  [[nodiscard]] std::uint32_t candidate_list(
      const Projection::Xy& q) const noexcept;
  /// The one candidate scan of nearest() and nearest_batch(): ascending
  /// ids, the planar squared distance, and a strict `<`, so the lowest id
  /// wins a tie. The table must be built.
  [[nodiscard]] std::uint32_t scan_nearest(std::uint32_t list,
                                           const Projection::Xy& q) const;
  /// Stable counting sort of nearest_batch()'s keys by list, into `sorted`;
  /// `start` is the caller's count buffer, reused across chunks.
  void sort_by_list(std::span<const std::uint64_t> keys,
                    std::span<std::uint64_t> sorted,
                    std::vector<std::uint32_t>& start) const;

  /// Queries per chunk of nearest_batch(). The scan visits a chunk's
  /// queries in list order, so their locations, keys and homes (about
  /// 200 KB at this size) must stay in a core's cache: on a 212K-request
  /// slot, one batch over the whole slot was 2.2x slower than a nearest()
  /// loop (DESIGN.md §3.16).
  static constexpr std::size_t kBatchChunk = 4096;

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
  // One more list after the cells' holds every point, for queries off the
  // bounding box. Built by the first nearest() or nearest_batch() call, so
  // indexes that only answer radius queries never pay for it.
  mutable std::once_flag nearest_once_;
  mutable std::vector<std::uint32_t> nearest_offsets_;
  mutable std::vector<std::uint32_t> nearest_ids_;
};

}  // namespace ccdn
