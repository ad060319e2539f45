#include "core/random_scheme.h"

#include <algorithm>
#include <unordered_map>

#include "model/sorted_contains.h"
#include "model/topsets.h"
#include "util/error.h"
#include "util/strings.h"

namespace ccdn {

RandomScheme::RandomScheme(double radius_km, std::uint64_t seed)
    : radius_km_(radius_km), rng_(seed) {
  CCDN_REQUIRE(radius_km > 0.0, "non-positive radius");
}

std::string RandomScheme::name() const {
  return "Random(" + format_fixed(radius_km_, 1) + "km)";
}

SlotPlan RandomScheme::plan_slot(const SchemeContext& context,
                                 std::span<const Request> requests,
                                 const SlotDemand& demand) {
  CCDN_REQUIRE(demand.num_hotspots() == context.hotspots.size(),
               "demand/hotspot count mismatch");
  const std::size_t m = context.hotspots.size();
  SlotPlan plan;
  plan.placements.resize(m);

  // Neighbourhood of each hotspot (includes itself).
  std::vector<std::vector<std::size_t>> neighbours(m);
  for (std::size_t h = 0; h < m; ++h) {
    neighbours[h] = context.hotspot_index.within_radius(
        context.hotspots[h].location, radius_km_);
  }

  // Cache policy: most popular videos within the radius.
  for (std::size_t h = 0; h < m; ++h) {
    std::unordered_map<VideoId, std::uint32_t> merged;
    for (const std::size_t n : neighbours[h]) {
      for (const auto& d :
           demand.video_demand(static_cast<HotspotIndex>(n))) {
        merged[d.video] += d.count;
      }
    }
    std::vector<VideoDemand> flat;
    flat.reserve(merged.size());
    // ccdn-lint: allow(unordered-iteration) -- extract-then-sort: top_k_videos
    // fully orders flat (count desc, video asc) before any selection
    for (const auto& [video, count] : merged) flat.push_back({video, count});
    plan.placements[h] =
        top_k_videos(flat, context.hotspots[h].cache_capacity);
  }

  // Routing: uniform among in-radius hotspots that cache the video (the
  // paper's rule is capacity-blind — overload surfaces as admission
  // rejects, exactly like Nearest).
  const auto caches = [&](std::size_t h, VideoId v) {
    return sorted_contains(plan.placements[h], v);
  };

  const auto homes = demand.request_home();
  CCDN_REQUIRE(homes.size() == requests.size(),
               "demand was not built from this request span");
  plan.assignment.assign(requests.size(), kCdnServer);
  std::vector<std::size_t> candidates;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    // Reuse the home hotspot's neighbour list: neighbourhoods are anchored
    // at hotspots, as in the paper's "hotspot serves users within a radius".
    const auto& pool = neighbours[homes[r]];
    candidates.clear();
    for (const std::size_t h : pool) {
      if (caches(h, requests[r].video)) candidates.push_back(h);
    }
    if (candidates.empty()) continue;  // stays kCdnServer
    plan.assignment[r] =
        static_cast<HotspotIndex>(candidates[rng_.index(candidates.size())]);
  }
  return plan;
}

}  // namespace ccdn
