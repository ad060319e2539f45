#include "geo/grid_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

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

std::size_t brute_nearest(const std::vector<GeoPoint>& points,
                          const GeoPoint& query) {
  std::size_t best = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double d = distance_km(points[i], query);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

std::vector<std::size_t> brute_radius(const std::vector<GeoPoint>& points,
                                      const GeoPoint& query, double radius) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (distance_km(points[i], query) <= radius) out.push_back(i);
  }
  return out;
}

/// The tangent plane GridIndex projects onto: centred on the points'
/// lat/lon bounding box.
Projection plane_of(const std::vector<GeoPoint>& points) {
  GeoPoint lo = points.front();
  GeoPoint hi = points.front();
  for (const auto& p : points) {
    lo.lat = std::min(lo.lat, p.lat);
    lo.lon = std::min(lo.lon, p.lon);
    hi.lat = std::max(hi.lat, p.lat);
    hi.lon = std::max(hi.lon, p.lon);
  }
  return Projection(BoundingBox{lo, hi}.center());
}

/// Argmin of the squared projected distance, lowest id on a tie: the
/// contract of GridIndex::nearest, by brute force.
std::size_t brute_nearest_planar(const std::vector<GeoPoint>& points,
                                 const Projection& plane,
                                 const GeoPoint& query) {
  const auto q = plane.to_xy(query);
  std::size_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto p = plane.to_xy(points[i]);
    const double dx = p.x_km - q.x_km;
    const double dy = p.y_km - q.y_km;
    const double d2 = dx * dx + dy * dy;
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  return best;
}

/// Queries that stress the per-cell table: the points themselves, the
/// projected cell edges and corners (with the neighbouring doubles, so
/// rounding in the cell index falls either way), random queries around the
/// bounding box, and queries off it up to the antipode.
std::vector<GeoPoint> stress_queries(const std::vector<GeoPoint>& points,
                                     double cell_km, Rng& rng) {
  const Projection plane = plane_of(points);
  double min_x = std::numeric_limits<double>::infinity();
  double min_y = min_x;
  double max_x = -min_x;
  double max_y = -min_x;
  GeoPoint lo = points.front();
  GeoPoint hi = points.front();
  for (const auto& p : points) {
    const auto xy = plane.to_xy(p);
    min_x = std::min(min_x, xy.x_km);
    min_y = std::min(min_y, xy.y_km);
    max_x = std::max(max_x, xy.x_km);
    max_y = std::max(max_y, xy.y_km);
    lo.lat = std::min(lo.lat, p.lat);
    lo.lon = std::min(lo.lon, p.lon);
    hi.lat = std::max(hi.lat, p.lat);
    hi.lon = std::max(hi.lon, p.lon);
  }
  std::vector<GeoPoint> queries;
  for (std::size_t i = 0; i < points.size() && i < 200; ++i) {
    queries.push_back(points[i]);
  }
  const auto with_neighbours = [&](GeoPoint q) {
    for (const double dlat : {-1.0, 0.0, 1.0}) {
      for (const double dlon : {-1.0, 0.0, 1.0}) {
        GeoPoint n = q;
        if (dlat != 0.0) n.lat = std::nextafter(n.lat, n.lat + dlat);
        if (dlon != 0.0) n.lon = std::nextafter(n.lon, n.lon + dlon);
        queries.push_back(n);
      }
    }
  };
  const auto cols =
      static_cast<std::size_t>(std::floor((max_x - min_x) / cell_km));
  const auto rows =
      static_cast<std::size_t>(std::floor((max_y - min_y) / cell_km));
  for (int k = 0; k < 12; ++k) {
    const auto c = static_cast<double>(rng.index(cols + 2));
    const auto r = static_cast<double>(rng.index(rows + 2));
    const double edge_x = min_x + c * cell_km;
    const double edge_y = min_y + r * cell_km;
    // A corner, and a point on each of its two edges.
    with_neighbours(plane.to_geo({edge_x, edge_y}));
    with_neighbours(plane.to_geo({edge_x, rng.uniform(min_y, max_y)}));
    with_neighbours(plane.to_geo({rng.uniform(min_x, max_x), edge_y}));
  }
  const double span_lat = std::max(hi.lat - lo.lat, 0.01);
  const double span_lon = std::max(hi.lon - lo.lon, 0.01);
  for (int k = 0; k < 150; ++k) {
    queries.push_back({rng.uniform(lo.lat - span_lat, hi.lat + span_lat),
                       rng.uniform(lo.lon - span_lon, hi.lon + span_lon)});
  }
  const GeoPoint c = BoundingBox{lo, hi}.center();
  queries.push_back({c.lat + 1.0, c.lon});
  queries.push_back({c.lat, c.lon - 3.0});
  queries.push_back({c.lat - 20.0, c.lon + 40.0});
  queries.push_back({-c.lat, c.lon > 0.0 ? c.lon - 180.0 : c.lon + 180.0});
  return queries;
}

void expect_nearest_matches_brute_force(const std::vector<GeoPoint>& points,
                                        double cell_km, Rng& rng) {
  const GridIndex index(points, cell_km);
  const Projection plane = plane_of(points);
  for (const GeoPoint& q : stress_queries(points, cell_km, rng)) {
    ASSERT_EQ(index.nearest(q), brute_nearest_planar(points, plane, q))
        << points.size() << " points, cell " << cell_km << " km, query ("
        << q.lat << ", " << q.lon << ")";
  }
}

TEST(GridIndex, NearestMatchesBruteForce) {
  Rng rng(2024);
  // Random sets.
  for (const std::size_t n : {1, 2, 7, 60, 400, 2000}) {
    for (const double cell : {0.25, 0.5, 1.0, 2.0}) {
      expect_nearest_matches_brute_force(random_points(rng, n), cell, rng);
    }
  }
  // Lattices on dyadic coordinates, symmetric about the box centre, so
  // many queries sit at exactly equal distances from several points; the
  // cell matches the lattice step so the points lie on cell edges.
  for (const auto& [lat_steps, lon_steps] :
       {std::pair{12, 9}, std::pair{1, 30}, std::pair{30, 1}}) {
    std::vector<GeoPoint> lattice;
    for (int i = 0; i < lat_steps; ++i) {
      for (int j = 0; j < lon_steps; ++j) {
        lattice.push_back({40.0 + i / 256.0, 116.5 + j / 256.0});
      }
    }
    const Projection plane = plane_of(lattice);
    const double lon_step_km =
        plane.to_xy({40.0, 116.5 + 1 / 256.0}).x_km -
        plane.to_xy({40.0, 116.5}).x_km;
    for (const double cell : {lon_step_km, 0.25, 0.5 * lon_step_km}) {
      expect_nearest_matches_brute_force(lattice, cell, rng);
    }
    // Midpoints and centres of the lattice squares: two- and four-way ties.
    const GridIndex index(lattice, lon_step_km);
    for (int i = 0; i < lat_steps; ++i) {
      for (int j = 0; j < lon_steps; ++j) {
        for (const GeoPoint q :
             {GeoPoint{40.0 + (i + 0.5) / 256.0, 116.5 + j / 256.0},
              GeoPoint{40.0 + i / 256.0, 116.5 + (j + 0.5) / 256.0},
              GeoPoint{40.0 + (i + 0.5) / 256.0,
                       116.5 + (j + 0.5) / 256.0}}) {
          ASSERT_EQ(index.nearest(q), brute_nearest_planar(lattice, plane, q));
        }
      }
    }
  }
  // Duplicate locations, among random points and on their own.
  std::vector<GeoPoint> duplicates = random_points(rng, 40);
  for (int k = 0; k < 30; ++k) duplicates.push_back(duplicates[k % 7]);
  expect_nearest_matches_brute_force(duplicates, 0.5, rng);
  expect_nearest_matches_brute_force(
      std::vector<GeoPoint>(5, GeoPoint{40.05, 116.5}), 0.5, rng);
  // Single-row and single-column grids.
  std::vector<GeoPoint> row;
  std::vector<GeoPoint> column;
  for (int k = 0; k < 50; ++k) {
    row.push_back({40.05, rng.uniform(116.4, 116.6)});
    column.push_back({rng.uniform(40.0, 40.1), 116.5});
  }
  for (const double cell : {0.25, 2.0}) {
    expect_nearest_matches_brute_force(row, cell, rng);
    expect_nearest_matches_brute_force(column, cell, rng);
  }
}

TEST(GridIndex, ConcurrentFirstNearestCallsMatchBruteForce) {
  Rng rng(8);
  const auto points = random_points(rng, 500);
  const Projection plane = plane_of(points);
  std::vector<GeoPoint> queries;
  for (int q = 0; q < 400; ++q) {
    queries.push_back({rng.uniform(39.99, 40.11), rng.uniform(116.39, 116.61)});
  }
  std::vector<std::size_t> want;
  for (const auto& q : queries) {
    want.push_back(brute_nearest_planar(points, plane, q));
  }
  // A fresh index, so the threads race to build the candidate table.
  const GridIndex index(points, 0.5);
  constexpr std::size_t kThreads = 8;
  std::vector<std::vector<std::size_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread starts at a different query.
      for (std::size_t k = 0; k < queries.size(); ++k) {
        got[t].push_back(index.nearest(queries[(k + t * 50) % queries.size()]));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t k = 0; k < queries.size(); ++k) {
      ASSERT_EQ(got[t][k], want[(k + t * 50) % queries.size()])
          << "thread " << t << " query " << k;
    }
  }
}

TEST(GridIndex, RejectsEmptyAndBadCell) {
  EXPECT_THROW(GridIndex({}, 1.0), PreconditionError);
  EXPECT_THROW(GridIndex({{40.0, 116.5}}, 0.0), PreconditionError);
}

TEST(GridIndex, SinglePoint) {
  const GridIndex index({{40.0, 116.5}}, 1.0);
  EXPECT_EQ(index.nearest({41.0, 117.0}), 0u);
  EXPECT_EQ(index.within_radius({40.0, 116.5}, 0.1),
            (std::vector<std::size_t>{0}));
}

TEST(GridIndex, NearestOnKnownLayout) {
  const std::vector<GeoPoint> points{
      {40.00, 116.40}, {40.05, 116.50}, {40.10, 116.60}};
  const GridIndex index(points, 1.0);
  EXPECT_EQ(index.nearest({40.01, 116.41}), 0u);
  EXPECT_EQ(index.nearest({40.05, 116.51}), 1u);
  EXPECT_EQ(index.nearest({40.09, 116.60}), 2u);
}

class GridIndexProperty : public ::testing::TestWithParam<
                              std::tuple<std::size_t, double>> {};

TEST_P(GridIndexProperty, NearestMatchesBruteForce) {
  const auto [n, cell] = GetParam();
  Rng rng(n * 31 + 7);
  const auto points = random_points(rng, n);
  const GridIndex index(points, cell);
  for (int q = 0; q < 50; ++q) {
    const GeoPoint query{rng.uniform(39.98, 40.12),
                         rng.uniform(116.38, 116.62)};
    const std::size_t got = index.nearest(query);
    const std::size_t want = brute_nearest(points, query);
    // Equal distance ties may resolve differently; compare distances.
    EXPECT_NEAR(distance_km(points[got], query),
                distance_km(points[want], query), 1e-9);
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST_P(GridIndexProperty, RadiusMatchesBruteForce) {
  const auto [n, cell] = GetParam();
  Rng rng(n * 131 + 3);
  const auto points = random_points(rng, n);
  const GridIndex index(points, cell);
  // Radii past the grid, +inf included, return every point.
  for (const double radius : {0.2, 1.0, 3.0, 30.0, 1e9, 1e12, kInf}) {
    for (int q = 0; q < 10; ++q) {
      const GeoPoint query{rng.uniform(40.0, 40.1),
                           rng.uniform(116.4, 116.6)};
      EXPECT_EQ(index.within_radius(query, radius),
                brute_radius(points, query, radius));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCells, GridIndexProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 5, 50, 300),
                       ::testing::Values(0.25, 0.5, 2.0)));

/// nearest_batch() on a fresh index (so the batch builds the table) over
/// `queries`, against nearest() one query at a time.
void expect_batch_matches_nearest(const std::vector<GeoPoint>& points,
                                  double cell_km,
                                  const std::vector<GeoPoint>& queries) {
  const GridIndex index(points, cell_km);
  std::vector<std::uint64_t> keys(queries.size());
  std::vector<std::uint64_t> sorted(queries.size());
  std::vector<std::uint32_t> homes(queries.size(), 0xffffffffU);
  index.nearest_batch([&](std::size_t i) { return queries[i]; }, keys, sorted,
                      homes);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(homes[i], index.nearest(queries[i]))
        << points.size() << " points, cell " << cell_km << " km, query " << i
        << " (" << queries[i].lat << ", " << queries[i].lon << ")";
  }
}

TEST_P(GridIndexProperty, BatchNearestMatchesNearest) {
  const auto [n, cell] = GetParam();
  Rng rng(n * 17 + 5);
  // Uniform, and clustered around a few centres.
  const auto uniform = random_points(rng, n);
  std::vector<GeoPoint> clustered;
  const auto centres = random_points(rng, 1 + n / 40);
  for (std::size_t i = 0; i < n; ++i) {
    const GeoPoint& c = centres[rng.index(centres.size())];
    clustered.push_back({rng.normal(c.lat, 0.004), rng.normal(c.lon, 0.004)});
  }
  // Duplicate locations: every point repeated, some more than once.
  std::vector<GeoPoint> duplicates = uniform;
  for (std::size_t i = 0; i < n + 3; ++i) {
    duplicates.push_back(uniform[i % std::max<std::size_t>(1, n / 3)]);
  }
  for (const auto& points : {uniform, clustered, duplicates}) {
    // Points, cell edges and corners with their neighbouring doubles,
    // random queries around the box and queries far off it; repeated
    // queries share a list.
    std::vector<GeoPoint> queries = stress_queries(points, cell, rng);
    const std::size_t distinct = queries.size();
    for (std::size_t k = 0; k < distinct; k += 3) {
      queries.push_back(queries[k]);
    }
    expect_batch_matches_nearest(points, cell, queries);
  }
  // Equidistant pairs on a dyadic lattice: the lower id must win.
  std::vector<GeoPoint> lattice;
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 5; ++j) {
      lattice.push_back({40.0 + i / 256.0, 116.5 + j / 256.0});
    }
  }
  std::vector<GeoPoint> midpoints;
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 5; ++j) {
      midpoints.push_back({40.0 + (i + 0.5) / 256.0, 116.5 + j / 256.0});
      midpoints.push_back({40.0 + i / 256.0, 116.5 + (j + 0.5) / 256.0});
      midpoints.push_back(
          {40.0 + (i + 0.5) / 256.0, 116.5 + (j + 0.5) / 256.0});
    }
  }
  expect_batch_matches_nearest(lattice, cell, midpoints);
  // A batch over three chunks (of 4,096 queries), and an empty one.
  std::vector<GeoPoint> many;
  for (int k = 0; k < 9000; ++k) {
    many.push_back({rng.uniform(39.99, 40.11), rng.uniform(116.39, 116.61)});
  }
  expect_batch_matches_nearest(clustered, cell, many);
  expect_batch_matches_nearest(uniform, cell, {});
}

TEST_P(GridIndexProperty, SubsetMatchesFilteredParent) {
  const auto [n, cell] = GetParam();
  Rng rng(n * 57 + 11);
  const auto points = random_points(rng, n);
  const GridIndex index(points, cell);
  // Every third point forms the subset.
  std::vector<std::uint32_t> members;
  for (std::size_t i = 0; i < n; i += 3) {
    members.push_back(static_cast<std::uint32_t>(i));
  }
  GridIndex::Subset subset(index);
  subset.assign(members);
  std::vector<std::size_t> got;
  // Radii past the grid, +inf included, return every point.
  for (const double radius : {0.2, 1.0, 3.0, 30.0, 1e9, 1e12, kInf}) {
    for (int q = 0; q < 10; ++q) {
      const GeoPoint query{rng.uniform(40.0, 40.1),
                           rng.uniform(116.4, 116.6)};
      subset.within_radius(query, radius, got);
      std::vector<std::size_t> want;
      for (const std::size_t id : index.within_radius(query, radius)) {
        if (id % 3 == 0) want.push_back(id);
      }
      EXPECT_EQ(got, want);
      if (radius >= 1e9) {
        EXPECT_EQ(got.size(), members.size());
      }
    }
  }
}

TEST(GridIndex, SubsetReassignRetargets) {
  Rng rng(77);
  const auto points = random_points(rng, 60);
  const GridIndex index(points, 0.5);
  GridIndex::Subset subset(index);
  const std::vector<std::uint32_t> first{1, 4, 9};
  const std::vector<std::uint32_t> second{0, 2};
  std::vector<std::size_t> got;
  subset.assign(first);
  subset.within_radius(points[1], 100.0, got);
  EXPECT_EQ(got, (std::vector<std::size_t>{1, 4, 9}));
  subset.assign(second);
  subset.within_radius(points[1], 100.0, got);
  EXPECT_EQ(got, (std::vector<std::size_t>{0, 2}));
}

TEST(GridIndex, WithinRadiusZeroRadius) {
  const std::vector<GeoPoint> points{{40.0, 116.5}, {40.05, 116.55}};
  const GridIndex index(points, 1.0);
  EXPECT_EQ(index.within_radius({40.0, 116.5}, 0.0),
            (std::vector<std::size_t>{0}));
  EXPECT_THROW((void)index.within_radius({40.0, 116.5}, -1.0),
               PreconditionError);
}

TEST(GridIndex, DuplicatePointsAllReturned) {
  const std::vector<GeoPoint> points{{40.0, 116.5}, {40.0, 116.5},
                                     {40.0, 116.5}};
  const GridIndex index(points, 1.0);
  EXPECT_EQ(index.within_radius({40.0, 116.5}, 0.01).size(), 3u);
  EXPECT_EQ(index.nearest({40.0, 116.5}), 0u);  // lowest index tie-break
}

}  // namespace
}  // namespace ccdn
