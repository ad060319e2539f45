#include "lp/u_relaxation.h"

#include <algorithm>
#include <numeric>

#include "model/sorted_contains.h"
#include "util/error.h"

namespace ccdn {

UVariableMap::UVariableMap(std::size_t num_requests, std::size_t num_hotspots,
                           std::vector<VideoId> distinct_videos)
    : requests_(num_requests),
      hotspots_(num_hotspots),
      videos_(std::move(distinct_videos)) {
  CCDN_REQUIRE(std::is_sorted(videos_.begin(), videos_.end()),
               "video list must be sorted");
}

std::uint32_t UVariableMap::x(std::size_t request, std::size_t hotspot) const {
  CCDN_REQUIRE(request < requests_ && hotspot < hotspots_,
               "x index out of range");
  // Layout: per request, hotspot columns then the CDN column.
  return static_cast<std::uint32_t>(request * (hotspots_ + 1) + hotspot);
}

std::uint32_t UVariableMap::x_cdn(std::size_t request) const {
  CCDN_REQUIRE(request < requests_, "request out of range");
  return static_cast<std::uint32_t>(request * (hotspots_ + 1) + hotspots_);
}

std::size_t UVariableMap::video_slot(VideoId video) const {
  const auto it = std::lower_bound(videos_.begin(), videos_.end(), video);
  CCDN_REQUIRE(it != videos_.end() && *it == video, "unknown video");
  return static_cast<std::size_t>(it - videos_.begin());
}

std::uint32_t UVariableMap::y(VideoId video, std::size_t hotspot) const {
  CCDN_REQUIRE(hotspot < hotspots_, "hotspot out of range");
  const std::size_t base = requests_ * (hotspots_ + 1);
  return static_cast<std::uint32_t>(base + video_slot(video) * hotspots_ +
                                    hotspot);
}

std::size_t UVariableMap::total_variables() const noexcept {
  return requests_ * (hotspots_ + 1) + videos_.size() * hotspots_;
}

ULp build_u_relaxation(const UInstance& instance) {
  CCDN_REQUIRE(instance.request_locations.size() ==
                   instance.request_videos.size(),
               "request vectors length mismatch");
  CCDN_REQUIRE(!instance.hotspots.empty(), "no hotspots");
  const std::size_t n = instance.request_locations.size();
  const std::size_t m = instance.hotspots.size();

  std::vector<VideoId> videos = instance.request_videos;
  std::sort(videos.begin(), videos.end());
  videos.erase(std::unique(videos.begin(), videos.end()), videos.end());

  ULp lp{LpProblem{}, UVariableMap(n, m, videos)};

  // Variables, in the exact order UVariableMap expects.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      const double d = distance_km(instance.request_locations[i],
                                   instance.hotspots[j].location);
      (void)lp.problem.add_variable(instance.alpha * d,
                                    "x_" + std::to_string(i) + "_" +
                                        std::to_string(j));
    }
    (void)lp.problem.add_variable(instance.alpha * instance.cdn_distance_km,
                                  "x_" + std::to_string(i) + "_S");
  }
  for (const VideoId v : videos) {
    for (std::size_t j = 0; j < m; ++j) {
      (void)lp.problem.add_variable(
          instance.beta, "y_" + std::to_string(v) + "_" + std::to_string(j));
    }
  }

  // Eq. 4: each request fully served.
  for (std::size_t i = 0; i < n; ++i) {
    LpConstraint c;
    for (std::size_t j = 0; j < m; ++j) c.terms.push_back({lp.vars.x(i, j), 1.0});
    c.terms.push_back({lp.vars.x_cdn(i), 1.0});
    c.relation = Relation::kEq;
    c.rhs = 1.0;
    lp.problem.add_constraint(std::move(c));
  }
  // Eq. 5: x_ij <= y_{W(i)j}.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      LpConstraint c;
      c.terms.push_back({lp.vars.x(i, j), 1.0});
      c.terms.push_back({lp.vars.y(instance.request_videos[i], j), -1.0});
      c.relation = Relation::kLessEq;
      c.rhs = 0.0;
      lp.problem.add_constraint(std::move(c));
    }
  }
  // Eq. 6: service capacity.
  for (std::size_t j = 0; j < m; ++j) {
    LpConstraint c;
    for (std::size_t i = 0; i < n; ++i) c.terms.push_back({lp.vars.x(i, j), 1.0});
    c.relation = Relation::kLessEq;
    c.rhs = static_cast<double>(instance.hotspots[j].service_capacity);
    lp.problem.add_constraint(std::move(c));
  }
  // Eq. 7: cache capacity.
  for (std::size_t j = 0; j < m; ++j) {
    LpConstraint c;
    for (const VideoId v : videos) c.terms.push_back({lp.vars.y(v, j), 1.0});
    c.relation = Relation::kLessEq;
    c.rhs = static_cast<double>(instance.hotspots[j].cache_capacity);
    lp.problem.add_constraint(std::move(c));
  }
  return lp;
}

USchedule round_u_solution(const UInstance& instance, const UVariableMap& vars,
                           const std::vector<double>& values) {
  CCDN_REQUIRE(values.size() == vars.total_variables(),
               "solution length mismatch");
  const std::size_t n = vars.num_requests();
  const std::size_t m = vars.num_hotspots();

  USchedule schedule;
  schedule.assignment.assign(n, kCdnServer);
  schedule.placements.assign(m, {});

  std::vector<std::uint32_t> service_left(m);
  std::vector<std::uint32_t> cache_left(m);
  for (std::size_t j = 0; j < m; ++j) {
    service_left[j] = instance.hotspots[j].service_capacity;
    cache_left[j] = instance.hotspots[j].cache_capacity;
  }
  // Track committed placements as sorted vectors for sorted_contains.
  std::vector<std::vector<VideoId>>& placed = schedule.placements;
  const auto is_placed = [&](std::size_t j, VideoId v) {
    return sorted_contains(placed[j], v);
  };
  const auto place = [&](std::size_t j, VideoId v) {
    const auto it = std::lower_bound(placed[j].begin(), placed[j].end(), v);
    placed[j].insert(it, v);
    --cache_left[j];
    ++schedule.total_replicas;
  };

  // Round requests in descending order of their strongest fractional
  // hotspot preference, so confident assignments claim capacity first.
  struct Candidate {
    std::size_t request = 0;
    double confidence = 0.0;
  };
  std::vector<Candidate> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    double best = 0.0;
    for (std::size_t j = 0; j < m; ++j) {
      best = std::max(best, values[vars.x(i, j)]);
    }
    order[i] = {i, best};
  }
  std::sort(order.begin(), order.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.confidence != b.confidence)
                return a.confidence > b.confidence;
              return a.request < b.request;
            });

  for (const Candidate& candidate : order) {
    const std::size_t i = candidate.request;
    const VideoId video = instance.request_videos[i];
    // Rank hotspots for this request by fractional mass, then by distance.
    std::vector<std::size_t> ranked(m);
    std::iota(ranked.begin(), ranked.end(), std::size_t{0});
    std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
      const double xa = values[vars.x(i, a)];
      const double xb = values[vars.x(i, b)];
      if (xa != xb) return xa > xb;
      const double da = distance_km(instance.request_locations[i],
                                    instance.hotspots[a].location);
      const double db = distance_km(instance.request_locations[i],
                                    instance.hotspots[b].location);
      return da < db;
    });
    for (const std::size_t j : ranked) {
      if (values[vars.x(i, j)] <= 0.0 || service_left[j] == 0) continue;
      if (!is_placed(j, video)) {
        if (cache_left[j] == 0) continue;
        place(j, video);
      }
      --service_left[j];
      schedule.assignment[i] = static_cast<HotspotIndex>(j);
      schedule.total_distance_km += distance_km(
          instance.request_locations[i], instance.hotspots[j].location);
      break;
    }
    if (schedule.assignment[i] == kCdnServer) {
      schedule.total_distance_km += instance.cdn_distance_km;
    }
  }

  schedule.objective = instance.alpha * schedule.total_distance_km +
                       instance.beta * static_cast<double>(schedule.total_replicas);
  return schedule;
}

USchedule solve_u_instance(const UInstance& instance,
                           const SimplexOptions& options) {
  const ULp lp = build_u_relaxation(instance);
  const LpSolution solution = SimplexSolver(options).solve(lp.problem);
  if (solution.status != LpStatus::kOptimal &&
      solution.status != LpStatus::kIterationLimit) {
    throw SolverError("LP relaxation of (U) did not solve");
  }
  return round_u_solution(instance, lp.vars, solution.values);
}

}  // namespace ccdn
