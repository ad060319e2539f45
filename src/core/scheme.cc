#include "core/scheme.h"

#include <algorithm>

namespace ccdn {

std::size_t SlotPlan::total_replicas() const noexcept {
  std::size_t total = 0;
  for (const auto& videos : placements) total += videos.size();
  return total;
}

bool SlotPlan::respects_caches(const std::vector<Hotspot>& hotspots) const {
  if (placements.size() != hotspots.size()) return false;
  for (std::size_t h = 0; h < placements.size(); ++h) {
    const auto& videos = placements[h];
    if (videos.size() > hotspots[h].cache_capacity) return false;
    if (!std::is_sorted(videos.begin(), videos.end())) return false;
    if (std::adjacent_find(videos.begin(), videos.end()) != videos.end()) {
      return false;
    }
  }
  return true;
}

std::size_t count_new_replicas(
    const std::vector<std::vector<VideoId>>& previous,
    const std::vector<std::vector<VideoId>>& current) {
  std::size_t pushes = 0;
  for (std::size_t h = 0; h < current.size(); ++h) {
    if (h >= previous.size()) {
      pushes += current[h].size();
      continue;
    }
    // Both lists ascend, so one merge walk finds every new placement.
    const auto& old_set = previous[h];
    auto it = old_set.begin();
    for (const VideoId v : current[h]) {
      while (it != old_set.end() && *it < v) ++it;
      if (it == old_set.end() || *it != v) ++pushes;
    }
  }
  return pushes;
}

}  // namespace ccdn
