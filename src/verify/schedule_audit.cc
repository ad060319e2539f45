#include "verify/schedule_audit.h"

#include <algorithm>
#include <string>

#include "model/sorted_contains.h"

namespace ccdn {

namespace {

constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void fnv_u32(std::uint64_t& h, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    h ^= (value >> shift) & 0xffu;
    h *= kFnvPrime;
  }
}

bool placed_at(const std::vector<std::vector<VideoId>>& placements,
               std::size_t h, VideoId v) {
  return sorted_contains(placements[h], v);
}

}  // namespace

std::uint64_t plan_digest(std::span<const HotspotIndex> assignment,
                          const std::vector<std::vector<VideoId>>& placements) {
  std::uint64_t h = kFnvOffset;
  fnv_u32(h, static_cast<std::uint32_t>(assignment.size()));
  for (const HotspotIndex a : assignment) fnv_u32(h, a);
  fnv_u32(h, static_cast<std::uint32_t>(placements.size()));
  for (const auto& list : placements) {
    fnv_u32(h, static_cast<std::uint32_t>(list.size()));
    for (const VideoId v : list) fnv_u32(h, v);
  }
  return h;
}

void audit_assignment(std::span<const HotspotIndex> assignment,
                      std::size_t num_requests, std::size_t num_hotspots,
                      AuditReport& report) {
  if (assignment.size() != num_requests) {
    report.add("assignment-size",
               std::to_string(assignment.size()) + " entries for " +
                   std::to_string(num_requests) + " requests");
  }
  for (std::size_t r = 0; r < assignment.size(); ++r) {
    const HotspotIndex target = assignment[r];
    if (target != kCdnServer && target >= num_hotspots) {
      report.add("assignment-range",
                 "request " + std::to_string(r) + " assigned to " +
                     std::to_string(target) + " of " +
                     std::to_string(num_hotspots) + " hotspots");
    }
  }
}

void audit_placements(const std::vector<std::vector<VideoId>>& placements,
                      std::span<const Hotspot> hotspots, AuditReport& report) {
  if (placements.size() != hotspots.size()) {
    report.add("placement-count",
               std::to_string(placements.size()) + " placement lists for " +
                   std::to_string(hotspots.size()) + " hotspots");
    return;
  }
  for (std::size_t h = 0; h < placements.size(); ++h) {
    const auto& list = placements[h];
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i - 1] >= list[i]) {
        report.add("placement-order",
                   "hotspot " + std::to_string(h) +
                       " placement not strictly ascending at position " +
                       std::to_string(i));
        break;
      }
    }
    if (list.size() > hotspots[h].cache_capacity) {
      report.add("cache-capacity",
                 "hotspot " + std::to_string(h) + " caches " +
                     std::to_string(list.size()) + " > c_h " +
                     std::to_string(hotspots[h].cache_capacity));
    }
  }
}

void audit_capacity(std::span<const HotspotIndex> assignment,
                    const std::vector<std::vector<VideoId>>& placements,
                    std::span<const Hotspot> hotspots,
                    std::span<const Request> requests,
                    std::span<const HotspotIndex> homes,
                    AuditReport& report) {
  const std::size_t m = hotspots.size();
  if (assignment.size() != requests.size() || homes.size() != requests.size() ||
      placements.size() != m) {
    report.add("capacity-audit-shape",
               "assignment/homes/placements sizes do not match the slot");
    return;
  }
  std::vector<std::int64_t> home_servable(m, 0);
  std::vector<std::int64_t> inbound(m, 0);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex target = assignment[r];
    if (target == kCdnServer || target >= m) continue;
    if (target == homes[r]) {
      if (placed_at(placements, target, requests[r].video)) {
        ++home_servable[target];
      }
      continue;
    }
    // A redirected request that lands on a cache miss is pure waste: the
    // scheduler moved it somewhere admission must reject.
    if (!placed_at(placements, target, requests[r].video)) {
      report.add("redirect-miss",
                 "request " + std::to_string(r) + " redirected to hotspot " +
                     std::to_string(target) + " which lacks video " +
                     std::to_string(requests[r].video));
      continue;
    }
    ++inbound[target];
  }
  for (std::size_t j = 0; j < m; ++j) {
    const auto s_j = static_cast<std::int64_t>(hotspots[j].service_capacity);
    const std::int64_t room = std::max<std::int64_t>(0, s_j - home_servable[j]);
    if (inbound[j] > room) {
      report.add("service-capacity",
                 "hotspot " + std::to_string(j) + " receives " +
                     std::to_string(inbound[j]) +
                     " redirected requests but only " + std::to_string(room) +
                     " of s_h " + std::to_string(s_j) +
                     " remain after local demand");
    }
  }
}

void audit_total_capacity(std::span<const HotspotIndex> assignment,
                          const std::vector<std::vector<VideoId>>& placements,
                          std::span<const Hotspot> hotspots,
                          std::span<const Request> requests,
                          AuditReport& report) {
  const std::size_t m = hotspots.size();
  if (assignment.size() != requests.size() || placements.size() != m) {
    report.add("capacity-audit-shape",
               "assignment/placements sizes do not match the slot");
    return;
  }
  std::vector<std::int64_t> assigned(m, 0);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex target = assignment[r];
    if (target == kCdnServer || target >= m) continue;
    if (!placed_at(placements, target, requests[r].video)) {
      report.add("assignment-miss",
                 "request " + std::to_string(r) + " assigned to hotspot " +
                     std::to_string(target) + " which lacks video " +
                     std::to_string(requests[r].video));
      continue;
    }
    ++assigned[target];
  }
  for (std::size_t j = 0; j < m; ++j) {
    const auto s_j = static_cast<std::int64_t>(hotspots[j].service_capacity);
    if (assigned[j] > s_j) {
      report.add("total-capacity",
                 "hotspot " + std::to_string(j) + " is assigned " +
                     std::to_string(assigned[j]) + " requests > s_h " +
                     std::to_string(s_j));
    }
  }
}

void audit_replication(const ReplicationResult& result,
                       std::span<const Hotspot> hotspots,
                       std::size_t replica_budget, AuditReport& report) {
  audit_placements(result.placements, hotspots, report);

  std::size_t placed = 0;
  for (const auto& list : result.placements) placed += list.size();
  if (placed != result.replicas) {
    report.add("replica-count",
               "result reports " + std::to_string(result.replicas) +
                   " replicas but placements hold " + std::to_string(placed));
  }
  if (result.replicas > replica_budget) {
    report.add("replication-budget",
               std::to_string(result.replicas) + " replicas exceed B_peak " +
                   std::to_string(replica_budget));
  }

  const std::size_t m = hotspots.size();
  std::int64_t redirected = 0;
  for (std::size_t origin = 0; origin < result.redirects.size(); ++origin) {
    for (const auto& vr : result.redirects[origin]) {
      for (const auto& target : vr.targets) {
        if (target.hotspot >= m) {
          report.add("redirect-target",
                     "origin " + std::to_string(origin) + " video " +
                         std::to_string(vr.video) + " targets hotspot " +
                         std::to_string(target.hotspot) + " of " +
                         std::to_string(m));
          continue;
        }
        if (target.count == 0) {
          report.add("redirect-target",
                     "origin " + std::to_string(origin) + " video " +
                         std::to_string(vr.video) +
                         " carries a zero-count redirect");
        }
        if (result.placements.size() == m &&
            !placed_at(result.placements, target.hotspot, vr.video)) {
          report.add("redirect-miss",
                     "origin " + std::to_string(origin) + " redirects video " +
                         std::to_string(vr.video) + " to hotspot " +
                         std::to_string(target.hotspot) +
                         " without placing it");
        }
        redirected += target.count;
      }
    }
  }
  if (redirected != result.total_redirected) {
    report.add("redirect-total",
               "targets sum to " + std::to_string(redirected) +
                   " but total_redirected is " +
                   std::to_string(result.total_redirected));
  }
}

void audit_slot_plan(const SlotPlan& plan, std::span<const Hotspot> hotspots,
                     std::span<const Request> requests,
                     std::span<const HotspotIndex> homes,
                     AuditReport& report) {
  audit_assignment(plan.assignment, requests.size(), hotspots.size(), report);
  audit_placements(plan.placements, hotspots, report);
  audit_capacity(plan.assignment, plan.placements, hotspots, requests, homes,
                 report);
}

}  // namespace ccdn
