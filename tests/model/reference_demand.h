// Reference λ_hv aggregation for the SlotDemand differential tests.
//
// This is the aggregation SlotDemand ran before it became a radix and
// counting sort into one CSR (DESIGN.md §3.16): every request is pushed
// into its home's vector, and each vector is then sorted and its duplicate
// videos merged.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "geo/grid_index.h"
#include "model/demand.h"
#include "model/types.h"

namespace ccdn {

struct ReferenceDemand {
  std::vector<std::vector<VideoDemand>> per_hotspot;
  std::vector<std::uint32_t> loads;
  std::vector<HotspotIndex> request_home;
  std::size_t total_requests = 0;
};

/// Sorts each hotspot's entries, merges duplicate videos and derives the
/// loads and the total.
inline void reference_finalize(ReferenceDemand& out) {
  out.loads.assign(out.per_hotspot.size(), 0);
  for (std::size_t h = 0; h < out.per_hotspot.size(); ++h) {
    auto& demands = out.per_hotspot[h];
    std::sort(demands.begin(), demands.end(),
              [](const VideoDemand& a, const VideoDemand& b) {
                return a.video < b.video;
              });
    std::size_t write = 0;
    for (std::size_t read = 0; read < demands.size(); ++read) {
      if (write > 0 && demands[write - 1].video == demands[read].video) {
        demands[write - 1].count += demands[read].count;
      } else {
        demands[write++] = demands[read];
      }
    }
    demands.resize(write);
    for (const auto& d : demands) out.loads[h] += d.count;
    out.total_requests += out.loads[h];
  }
}

inline ReferenceDemand reference_demand(std::span<const Request> requests,
                                        const GridIndex& hotspot_index) {
  ReferenceDemand out;
  out.per_hotspot.resize(hotspot_index.size());
  for (const Request& request : requests) {
    const auto home =
        static_cast<HotspotIndex>(hotspot_index.nearest(request.location));
    out.request_home.push_back(home);
    out.per_hotspot[home].push_back({request.video, 1});
  }
  reference_finalize(out);
  return out;
}

inline ReferenceDemand reference_demand(
    std::vector<std::vector<VideoDemand>> per_hotspot) {
  ReferenceDemand out;
  out.per_hotspot = std::move(per_hotspot);
  reference_finalize(out);
  return out;
}

}  // namespace ccdn
