#include "geo/grid_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.h"

namespace ccdn {

GridIndex::GridIndex(std::vector<GeoPoint> points, double cell_km)
    : points_(std::move(points)),
      projection_(GeoPoint{}),
      cell_km_(cell_km) {
  CCDN_REQUIRE(!points_.empty(), "empty point set");
  CCDN_REQUIRE(cell_km > 0.0, "non-positive cell size");

  GeoPoint lo = points_.front();
  GeoPoint hi = points_.front();
  for (const auto& p : points_) {
    lo.lat = std::min(lo.lat, p.lat);
    lo.lon = std::min(lo.lon, p.lon);
    hi.lat = std::max(hi.lat, p.lat);
    hi.lon = std::max(hi.lon, p.lon);
  }
  projection_ = Projection(BoundingBox{lo, hi}.center());

  projected_.reserve(points_.size());
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = std::numeric_limits<double>::infinity();
  double max_x = -std::numeric_limits<double>::infinity();
  double max_y = -std::numeric_limits<double>::infinity();
  for (const auto& p : points_) {
    const auto xy = projection_.to_xy(p);
    projected_.push_back(xy);
    min_x = std::min(min_x, xy.x_km);
    min_y = std::min(min_y, xy.y_km);
    max_x = std::max(max_x, xy.x_km);
    max_y = std::max(max_y, xy.y_km);
  }
  min_x_ = min_x;
  min_y_ = min_y;
  max_x_ = max_x;
  max_y_ = max_y;
  cols_ = std::max<std::int32_t>(
      1, static_cast<std::int32_t>(std::floor((max_x - min_x) / cell_km_)) + 1);
  rows_ = std::max<std::int32_t>(
      1, static_cast<std::int32_t>(std::floor((max_y - min_y) / cell_km_)) + 1);

  // Counting sort of point ids into cells.
  const std::size_t cell_count =
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_);
  std::vector<std::uint32_t> counts(cell_count + 1, 0);
  std::vector<std::size_t> slots(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    slots[i] = cell_slot(cell_of(projected_[i]));
    ++counts[slots[i] + 1];
  }
  for (std::size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
  bucket_offsets_ = counts;
  bucket_ids_.resize(points_.size());
  std::vector<std::uint32_t> cursor(counts.begin(), counts.end() - 1);
  for (std::size_t i = 0; i < points_.size(); ++i) {
    bucket_ids_[cursor[slots[i]]++] = static_cast<std::uint32_t>(i);
  }
}

GridIndex::Cell GridIndex::cell_of(const Projection::Xy& xy) const noexcept {
  auto clamp = [](std::int32_t v, std::int32_t hi) {
    return std::max<std::int32_t>(0, std::min(v, hi - 1));
  };
  return {clamp(static_cast<std::int32_t>(
                    std::floor((xy.x_km - min_x_) / cell_km_)),
                cols_),
          clamp(static_cast<std::int32_t>(
                    std::floor((xy.y_km - min_y_) / cell_km_)),
                rows_)};
}

std::size_t GridIndex::cell_slot(Cell c) const noexcept {
  return static_cast<std::size_t>(c.row) * static_cast<std::size_t>(cols_) +
         static_cast<std::size_t>(c.col);
}

std::size_t GridIndex::nearest(const GeoPoint& query) const {
  std::call_once(nearest_once_, [this] { build_nearest_table(); });
  const auto q = projection_.to_xy(query);
  return scan_nearest(candidate_list(q), q);
}

std::uint32_t GridIndex::candidate_list(
    const Projection::Xy& q) const noexcept {
  // Off the points' bounding box cell_of() clamps, so the query can lie
  // outside the cell whose list would be scanned: scan every point.
  if (!(q.x_km >= min_x_ && q.x_km <= max_x_ && q.y_km >= min_y_ &&
        q.y_km <= max_y_)) {
    return static_cast<std::uint32_t>(cols_) *
           static_cast<std::uint32_t>(rows_);
  }
  return static_cast<std::uint32_t>(cell_slot(cell_of(q)));
}

std::uint32_t GridIndex::scan_nearest(std::uint32_t list,
                                      const Projection::Xy& q) const {
  std::uint32_t best = 0;
  double best_dist2 = std::numeric_limits<double>::infinity();
  for (std::uint32_t k = nearest_offsets_[list];
       k < nearest_offsets_[list + 1]; ++k) {
    const std::uint32_t id = nearest_ids_[k];
    const double dx = projected_[id].x_km - q.x_km;
    const double dy = projected_[id].y_km - q.y_km;
    const double d2 = dx * dx + dy * dy;
    // A select, not a branch: which candidate wins depends on the data,
    // and the loop then does the same work for every candidate.
    const bool closer = d2 < best_dist2;
    best = closer ? id : best;
    best_dist2 = closer ? d2 : best_dist2;
  }
  return best;
}

void GridIndex::sort_by_list(std::span<const std::uint64_t> keys,
                             std::span<std::uint64_t> sorted,
                             std::vector<std::uint32_t>& start) const {
  start.assign(nearest_offsets_.size(), 0);  // one count per list, plus one
  for (const std::uint64_t key : keys) ++start[(key >> 32) + 1];
  for (std::size_t l = 1; l < start.size(); ++l) start[l] += start[l - 1];
  for (const std::uint64_t key : keys) sorted[start[key >> 32]++] = key;
}

void GridIndex::build_nearest_table() const {
  // A query inside a cell is at most U from its nearest point, where U is
  // the least over all points of a point's greatest distance to the cell.
  // So a point whose least distance to the cell exceeds U is never the
  // nearest for a query in that cell, and every other point is kept. The
  // cell is widened by `eps`, so rounding in cell_of() cannot place a query
  // outside it, and distances are compared with a relative slack far above
  // the rounding of a squared distance: both only add candidates.
  const double eps = 1e-9 * (cell_km_ + std::abs(min_x_) + std::abs(max_x_) +
                             std::abs(min_y_) + std::abs(max_y_));
  constexpr double kSlack = 1e-9;
  const std::int32_t max_ring = std::max(cols_, rows_);

  struct Reach {
    std::uint32_t id;
    double min2;
  };
  std::vector<Reach> reach;
  std::vector<std::uint32_t> ids;
  nearest_offsets_.assign(
      static_cast<std::size_t>(cols_) * static_cast<std::size_t>(rows_) + 2,
      0);
  nearest_ids_.clear();
  for (std::int32_t row = 0; row < rows_; ++row) {
    for (std::int32_t col = 0; col < cols_; ++col) {
      const double x0 = min_x_ + static_cast<double>(col) * cell_km_ - eps;
      const double x1 =
          min_x_ + static_cast<double>(col + 1) * cell_km_ + eps;
      const double y0 = min_y_ + static_cast<double>(row) * cell_km_ - eps;
      const double y1 =
          min_y_ + static_cast<double>(row + 1) * cell_km_ + eps;
      const auto min2 = [&](std::uint32_t id) {
        const Projection::Xy& p = projected_[id];
        const double dx = std::max({x0 - p.x_km, p.x_km - x1, 0.0});
        const double dy = std::max({y0 - p.y_km, p.y_km - y1, 0.0});
        return dx * dx + dy * dy;
      };
      const auto max2 = [&](std::uint32_t id) {
        const Projection::Xy& p = projected_[id];
        const double dx = std::max(p.x_km - x0, x1 - p.x_km);
        const double dy = std::max(p.y_km - y0, y1 - p.y_km);
        return dx * dx + dy * dy;
      };
      // Visits the points of the cells at Chebyshev distance `ring`.
      const auto visit_ring = [&](std::int32_t ring, auto&& visit) {
        for (std::int32_t r = row - ring; r <= row + ring; ++r) {
          if (r < 0 || r >= rows_) continue;
          const bool edge_row = r == row - ring || r == row + ring;
          for (std::int32_t c = col - ring; c <= col + ring;
               c += edge_row ? 1 : 2 * std::max(ring, 1)) {
            if (c < 0 || c >= cols_) continue;
            const std::size_t slot = cell_slot({c, r});
            for (std::uint32_t k = bucket_offsets_[slot];
                 k < bucket_offsets_[slot + 1]; ++k) {
              visit(bucket_ids_[k]);
            }
          }
        }
      };

      // Seed U from the 3x3 neighbourhood, or from the first non-empty
      // ring beyond it when the neighbourhood is empty.
      double bound2 = std::numeric_limits<double>::infinity();
      const auto seed = [&](std::uint32_t id) {
        bound2 = std::min(bound2, max2(id));
      };
      for (std::int32_t ring = 0; ring <= max_ring; ++ring) {
        visit_ring(ring, seed);
        if (ring >= 1 && bound2 < std::numeric_limits<double>::infinity()) {
          break;
        }
      }
      // Collect every point within U of the cell, tightening U to its
      // least value on the way (a point that could tighten it is within
      // the seed bound, so it is visited here).
      const double seed_limit2 = bound2 * (1.0 + kSlack);
      const auto rings = static_cast<std::int32_t>(std::min<double>(
          std::ceil((std::sqrt(seed_limit2) + 2.0 * eps) / cell_km_) + 1.0,
          static_cast<double>(max_ring)));
      reach.clear();
      for (std::int32_t ring = 0; ring <= rings; ++ring) {
        visit_ring(ring, [&](std::uint32_t id) {
          const double d2 = min2(id);
          if (d2 <= seed_limit2) {
            reach.push_back({id, d2});
            bound2 = std::min(bound2, max2(id));
          }
        });
      }
      const double limit2 = bound2 * (1.0 + kSlack);
      ids.clear();
      for (const Reach& r : reach) {
        if (r.min2 <= limit2) ids.push_back(r.id);
      }
      std::sort(ids.begin(), ids.end());
      nearest_ids_.insert(nearest_ids_.end(), ids.begin(), ids.end());
      nearest_offsets_[cell_slot({col, row}) + 1] =
          static_cast<std::uint32_t>(nearest_ids_.size());
    }
  }
  for (std::uint32_t id = 0; id < projected_.size(); ++id) {
    nearest_ids_.push_back(id);
  }
  nearest_offsets_.back() = static_cast<std::uint32_t>(nearest_ids_.size());
}

std::vector<std::size_t> GridIndex::within_radius(const GeoPoint& query,
                                                  double radius_km) const {
  std::vector<std::size_t> out;
  within_radius(query, radius_km, out);
  return out;
}

void GridIndex::within_radius(const GeoPoint& query, double radius_km,
                              std::vector<std::size_t>& out) const {
  scan_radius(query, radius_km, bucket_offsets_, bucket_ids_, out);
}

void GridIndex::scan_radius(const GeoPoint& query, double radius_km,
                            std::span<const std::uint32_t> offsets,
                            std::span<const std::uint32_t> ids,
                            std::vector<std::size_t>& out) const {
  CCDN_REQUIRE(radius_km >= 0.0, "negative radius");
  out.clear();
  const auto q = projection_.to_xy(query);
  const Cell center = cell_of(q);
  // The reach is clamped to the grid before it becomes an integer, so a
  // radius wider than the grid, +inf included, visits every cell once.
  const auto reach = static_cast<std::int32_t>(
      std::min(std::ceil(radius_km / cell_km_),
               static_cast<double>(std::max(cols_, rows_))));
  const std::int32_t row_begin = std::max(center.row - reach, 0);
  const std::int32_t row_end = std::min(center.row + reach, rows_ - 1);
  const std::int32_t col_begin = std::max(center.col - reach, 0);
  const std::int32_t col_end = std::min(center.col + reach, cols_ - 1);
  const double radius2 = radius_km * radius_km;
  for (std::int32_t row = row_begin; row <= row_end; ++row) {
    for (std::int32_t col = col_begin; col <= col_end; ++col) {
      const std::size_t slot = cell_slot({col, row});
      for (std::uint32_t k = offsets[slot]; k < offsets[slot + 1]; ++k) {
        const std::uint32_t id = ids[k];
        const double dx = projected_[id].x_km - q.x_km;
        const double dy = projected_[id].y_km - q.y_km;
        if (dx * dx + dy * dy <= radius2) out.push_back(id);
      }
    }
  }
  std::sort(out.begin(), out.end());
}

GridIndex::Subset::Subset(const GridIndex& parent) : parent_(&parent) {}

void GridIndex::Subset::assign(std::span<const std::uint32_t> ids) {
  const std::size_t cell_count = static_cast<std::size_t>(parent_->cols_) *
                                 static_cast<std::size_t>(parent_->rows_);
  offsets_.assign(cell_count + 1, 0);
  slots_.resize(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t id = ids[i];
    CCDN_REQUIRE(id < parent_->points_.size(), "subset id out of range");
    slots_[i] = static_cast<std::uint32_t>(
        parent_->cell_slot(parent_->cell_of(parent_->projected_[id])));
    ++offsets_[slots_[i] + 1];
  }
  for (std::size_t c = 1; c < offsets_.size(); ++c) {
    offsets_[c] += offsets_[c - 1];
  }
  ids_.resize(ids.size());
  // Counting sort keeps insertion order per cell; within_radius sorts the
  // collected hits anyway, so subset order does not matter here.
  std::vector<std::uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids_[cursor[slots_[i]]++] = ids[i];
  }
}

void GridIndex::Subset::within_radius(const GeoPoint& query, double radius_km,
                                      std::vector<std::size_t>& out) const {
  parent_->scan_radius(query, radius_km, offsets_, ids_, out);
}

}  // namespace ccdn
