#include "core/virtual_rbcaer_scheme.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "core/balance_graph.h"
#include "core/replication.h"
#include "core/shard_solver.h"
#include "core/theta_sweep.h"
#include "geo/geo_point.h"
#include "geo/grid_index.h"
#include "model/sorted_contains.h"
#include "util/error.h"
#include "verify/flow_audit.h"
#include "verify/schedule_audit.h"

namespace ccdn {

namespace {

/// Uniform-grid region partition; returns region label per hotspot and the
/// number of regions (labels are dense).
std::pair<std::vector<std::uint32_t>, std::size_t> partition_regions(
    std::span<const Hotspot> hotspots, double region_km) {
  GeoPoint reference = hotspots.front().location;
  const Projection projection(reference);
  std::map<std::pair<std::int64_t, std::int64_t>, std::uint32_t> cell_label;
  std::vector<std::uint32_t> label(hotspots.size());
  for (std::size_t h = 0; h < hotspots.size(); ++h) {
    const auto xy = projection.to_xy(hotspots[h].location);
    const std::pair<std::int64_t, std::int64_t> cell{
        static_cast<std::int64_t>(std::floor(xy.x_km / region_km)),
        static_cast<std::int64_t>(std::floor(xy.y_km / region_km))};
    const auto [it, inserted] = cell_label.try_emplace(
        cell, static_cast<std::uint32_t>(cell_label.size()));
    label[h] = it->second;
  }
  return {std::move(label), cell_label.size()};
}

}  // namespace

VirtualRbcaerScheme::VirtualRbcaerScheme(VirtualRbcaerConfig config)
    : config_(config) {
  CCDN_REQUIRE(config_.region_km > 0.0, "non-positive region size");
  // Reuse RbcaerScheme's validation by constructing one.
  (void)RbcaerScheme(config_.regional);
}

SlotPlan VirtualRbcaerScheme::plan_slot(const SchemeContext& context,
                                        std::span<const Request> requests,
                                        const SlotDemand& demand) {
  CCDN_REQUIRE(demand.num_hotspots() == context.hotspots.size(),
               "demand/hotspot count mismatch");
  const std::size_t m = context.hotspots.size();
  diagnostics_ = {};

  // --- 1. Regions and their members. ---
  const auto [region_of, num_regions] =
      partition_regions(context.hotspots, config_.region_km);
  diagnostics_.num_regions = num_regions;
  std::vector<std::vector<std::uint32_t>> members(num_regions);
  for (std::uint32_t h = 0; h < m; ++h) members[region_of[h]].push_back(h);

  // --- 2. Virtual hotspots + region-level demand. ---
  std::vector<Hotspot> virtual_hotspots(num_regions);
  std::vector<std::vector<VideoDemand>> region_demand(num_regions);
  for (std::size_t r = 0; r < num_regions; ++r) {
    Hotspot& vh = virtual_hotspots[r];
    double lat = 0.0;
    double lon = 0.0;
    for (const auto h : members[r]) {
      const Hotspot& hotspot = context.hotspots[h];
      vh.service_capacity += hotspot.service_capacity;
      vh.cache_capacity += hotspot.cache_capacity;
      lat += hotspot.location.lat;
      lon += hotspot.location.lon;
      const auto span = demand.video_demand(h);
      region_demand[r].insert(region_demand[r].end(), span.begin(),
                              span.end());
    }
    vh.location = {lat / static_cast<double>(members[r].size()),
                   lon / static_cast<double>(members[r].size())};
  }
  const SlotDemand regional(std::move(region_demand));

  // --- 3. RBCAer core on the virtual hotspots. ---
  const RbcaerConfig& rc = config_.regional;
  std::vector<std::uint32_t> region_loads(num_regions);
  for (std::size_t r = 0; r < num_regions; ++r) {
    region_loads[r] = regional.load(static_cast<HotspotIndex>(r));
  }
  HotspotPartition partition =
      HotspotPartition::from_loads(virtual_hotspots, region_loads);
  diagnostics_.region_max_movable = partition.max_movable();

  // Snapshot the region slack before the sweep drains it; the flow audit
  // bounds each f_ij against these initial values (checked builds only).
  const bool auditing =
      kCheckedBuild && rc.audit_level != AuditLevel::kOff;
  std::vector<std::int64_t> audit_phi;
  if (auditing) audit_phi = partition.phi;

  std::vector<std::uint32_t> cluster_of(num_regions, 0);
  if (rc.content_aggregation && diagnostics_.region_max_movable > 0) {
    cluster_of = content_clusters(rc, regional).labels;
  }

  std::vector<FlowEntry> region_flows;
  if (diagnostics_.region_max_movable > 0) {
    std::vector<GeoPoint> centroids;
    centroids.reserve(num_regions);
    for (const auto& vh : virtual_hotspots) centroids.push_back(vh.location);
    const GridIndex region_index(std::move(centroids),
                                 std::max(rc.theta2_km / 2.0, 1e-3));
    // Zone-sharded regional solve (DESIGN.md §3.12): the region centroids
    // shard exactly like flat hotspots do, with the global cluster labels
    // restricted per shard (labels are only grouping keys, so restriction
    // preserves the Gc structure within a shard).
    const std::size_t num_shards = std::min(context.num_shards, num_regions);
    if (num_shards >= 1) {
      ShardedSolveOutcome outcome = shard_plan_.solve(
          rc, virtual_hotspots, region_index, partition, num_shards,
          [&](std::span<const std::uint32_t> zone) {
            ShardInstance shard =
                shard_instance(virtual_hotspots, regional, zone);
            std::vector<std::uint32_t> labels;
            labels.reserve(zone.size());
            for (const std::uint32_t r : zone) labels.push_back(cluster_of[r]);
            return sweep_shard(rc, shard, labels);
          });
      diagnostics_.region_moved = outcome.moved;
      diagnostics_.shards = num_shards;
      diagnostics_.boundary_regions = outcome.boundary_hotspots;
      diagnostics_.exchange_moved = outcome.exchange_moved;
      region_flows = std::move(outcome.flows);
    } else {
      SweepOutcome swept =
          run_theta_sweep(rc, virtual_hotspots, region_index, partition,
                          diagnostics_.region_max_movable, cluster_of);
      diagnostics_.region_moved = swept.moved;
      region_flows = std::move(swept.flows);
    }
  }
  merge_flow_entries(region_flows);
  if (auditing) {
    AuditReport report;
    audit_flow_entries(region_flows, partition, audit_phi, report);
    report.require_clean("virtual-rbcaer region flows");
  }

  const auto budget = static_cast<std::size_t>(std::llround(
      rc.bpeak_multiplier * static_cast<double>(demand.num_requests())));
  ReplicationResult regional_plan = content_aggregation_replication(
      regional, virtual_hotspots, region_flows, budget, rc.audit_level);

  // --- 4. Localize region decisions onto member hotspots. ---
  // Remaining per-hotspot slack/overflow, cache room and serviceable
  // capacity (inbound redirects consume the receiver's).
  std::vector<std::int64_t> slack(m);      // s_h - λ_h when positive
  std::vector<std::int64_t> overflow(m);   // λ_h - s_h when positive
  std::vector<std::int64_t> serviceable_left(m);
  std::vector<std::uint32_t> cache_left(m);
  std::vector<std::vector<VideoId>> placements(m);
  for (std::uint32_t h = 0; h < m; ++h) {
    const auto load = static_cast<std::int64_t>(demand.load(h));
    const auto cap =
        static_cast<std::int64_t>(context.hotspots[h].service_capacity);
    slack[h] = std::max<std::int64_t>(0, cap - load);
    overflow[h] = std::max<std::int64_t>(0, load - cap);
    serviceable_left[h] = cap;
    cache_left[h] = context.hotspots[h].cache_capacity;
  }
  RemainingDemand local_left(demand);  // drained by the redirects
  const auto try_place = [&](std::uint32_t h, VideoId v) {
    if (sorted_contains(placements[h], v)) return true;
    if (cache_left[h] == 0) return false;
    placements[h].insert(
        std::lower_bound(placements[h].begin(), placements[h].end(), v), v);
    --cache_left[h];
    return true;
  };

  // Per-origin-hotspot redirect quotas, to be materialized per request.
  RedirectLog redirects(m);
  for (std::uint32_t origin_region = 0;
       origin_region < regional_plan.redirects.size(); ++origin_region) {
    for (const auto& vr : regional_plan.redirects[origin_region]) {
      for (const auto& target : vr.targets) {
        std::int64_t remaining = target.count;
        // Receivers: members of the target region with slack + cache room.
        // Senders: overloaded members of the origin region with demand.
        for (const auto receiver : members[target.hotspot]) {
          if (remaining == 0) break;
          if (slack[receiver] == 0) continue;
          if (!try_place(receiver, vr.video)) continue;
          for (const auto sender : members[origin_region]) {
            if (remaining == 0 || slack[receiver] == 0) break;
            if (overflow[sender] == 0) continue;
            const std::uint32_t left = local_left.get(sender, vr.video);
            if (left == 0) continue;
            const auto amount = static_cast<std::uint32_t>(
                std::min<std::int64_t>({remaining, slack[receiver],
                                        overflow[sender], left}));
            redirects.add(sender, vr.video, receiver, amount);
            local_left.subtract(sender, vr.video, amount);
            overflow[sender] -= amount;
            slack[receiver] -= amount;
            serviceable_left[receiver] -= amount;
            remaining -= amount;
            diagnostics_.localized_redirects += amount;
          }
        }
      }
    }
  }

  // --- 5. Local fill under the serviceability cap (as in flat RBCAer). ---
  for (const FillEntry& entry : fill_order(local_left)) {
    if (serviceable_left[entry.hotspot] <= 0) continue;
    if (try_place(entry.hotspot, entry.video)) {
      serviceable_left[entry.hotspot] -= entry.count;
    }
  }

  // --- 6. Materialize. ---
  SlotPlan plan;
  plan.placements = std::move(placements);
  plan.assignment = materialize_assignment(requests, demand.request_home(),
                                           redirects.grouped());
  if (auditing) {
    AuditReport report;
    audit_slot_plan(plan, context.hotspots, requests, demand.request_home(),
                    report);
    report.require_clean("virtual-rbcaer slot plan");
  }
  return plan;
}

}  // namespace ccdn
