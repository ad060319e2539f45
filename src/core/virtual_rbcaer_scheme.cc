#include "core/virtual_rbcaer_scheme.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <unordered_map>

#include "cluster/content_distance.h"
#include "cluster/hierarchical.h"
#include "core/balance_graph.h"
#include "core/replication.h"
#include "core/shard_solver.h"
#include "core/theta_sweep.h"
#include "geo/geo_point.h"
#include "geo/grid_index.h"
#include "geo/zone_partition.h"
#include "model/topsets.h"
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

/// The region-level flow phase: run_theta_sweep over a centroid index.
/// Shared by the unsharded path and every shard's local solve (shard=1
/// stays bit-identical).
SweepOutcome regional_flow_sweep(const RbcaerConfig& rc,
                                 std::span<const Hotspot> hotspots,
                                 HotspotPartition& partition,
                                 std::int64_t max_movable,
                                 std::span<const std::uint32_t> cluster_of) {
  std::vector<GeoPoint> centroids;
  centroids.reserve(hotspots.size());
  for (const auto& vh : hotspots) centroids.push_back(vh.location);
  const GridIndex region_index(std::move(centroids),
                               std::max(rc.theta2_km / 2.0, 1e-3));
  return run_theta_sweep(rc, hotspots, region_index, partition, max_movable,
                         cluster_of);
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
    const auto top_sets = top_sets_per_hotspot(regional, rc.top_fraction);
    cluster_of =
        hierarchical_cluster(
            content_cut_graph(top_sets, rc.content_cluster_threshold),
            rc.linkage, rc.content_cluster_threshold)
            .labels;
  }

  std::vector<FlowEntry> region_flows;
  if (diagnostics_.region_max_movable > 0) {
    // Zone-sharded regional solve (DESIGN.md §3.12): the region centroids
    // shard exactly like flat hotspots do, with the global cluster labels
    // restricted per shard (labels are only grouping keys, so restriction
    // preserves the Gc structure within a shard).
    const std::size_t num_shards = std::min(
        rc.num_shards != 0 ? rc.num_shards : context.num_shards, num_regions);
    if (num_shards >= 1) {
      std::vector<GeoPoint> centroids;
      centroids.reserve(num_regions);
      for (const auto& vh : virtual_hotspots) {
        centroids.push_back(vh.location);
      }
      const ShardAssignment assignment =
          partition_zones(centroids, num_shards);
      const GridIndex region_index(centroids,
                                   std::max(rc.theta2_km / 2.0, 1e-3));
      const std::vector<std::uint8_t> boundary = boundary_hotspots(
          centroids, assignment, rc.theta2_km, region_index);
      ShardedSolveOptions options;
      options.exchange_radius_km = rc.theta2_km;
      options.exchange_theta1_km = rc.theta1_km;
      options.exchange_theta_step_km = rc.delta_km;
      options.audit_level = rc.audit_level;
      const auto& cluster_labels = cluster_of;
      ShardedSolveOutcome outcome = solve_sharded(
          virtual_hotspots, region_index, partition, assignment, boundary,
          options, [&](std::uint32_t s) {
            const auto& mem = assignment.members[s];
            std::vector<Hotspot> sub;
            sub.reserve(mem.size());
            std::vector<std::vector<VideoDemand>> sub_videos;
            sub_videos.reserve(mem.size());
            std::vector<std::uint32_t> sub_clusters;
            sub_clusters.reserve(mem.size());
            for (const std::uint32_t r : mem) {
              sub.push_back(virtual_hotspots[r]);
              const auto videos =
                  regional.video_demand(static_cast<HotspotIndex>(r));
              sub_videos.emplace_back(videos.begin(), videos.end());
              sub_clusters.push_back(cluster_labels[r]);
            }
            const SlotDemand local(std::move(sub_videos));
            std::vector<std::uint32_t> sub_loads(mem.size());
            for (std::size_t i = 0; i < mem.size(); ++i) {
              sub_loads[i] = local.load(static_cast<HotspotIndex>(i));
            }
            HotspotPartition sub_partition =
                HotspotPartition::from_loads(sub, sub_loads);
            ShardFlowResult out;
            SweepOutcome swept =
                regional_flow_sweep(rc, sub, sub_partition,
                                    sub_partition.max_movable(), sub_clusters);
            out.moved = swept.moved;
            out.flows = std::move(swept.flows);
            for (FlowEntry& f : out.flows) {
              f.from = mem[f.from];
              f.to = mem[f.to];
            }
            return out;
          });
      diagnostics_.region_moved = outcome.moved;
      diagnostics_.shards = num_shards;
      diagnostics_.boundary_regions = outcome.boundary_hotspots;
      diagnostics_.exchange_moved = outcome.exchange_moved;
      region_flows = std::move(outcome.flows);
    } else {
      SweepOutcome swept =
          regional_flow_sweep(rc, virtual_hotspots, partition,
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
  // Remaining per-hotspot slack/overflow and cache room.
  std::vector<std::int64_t> slack(m);      // s_h - λ_h when positive
  std::vector<std::int64_t> overflow(m);   // λ_h - s_h when positive
  std::vector<std::uint32_t> cache_left(m);
  std::vector<std::vector<VideoId>> placements(m);
  for (std::uint32_t h = 0; h < m; ++h) {
    const auto load = static_cast<std::int64_t>(demand.load(h));
    const auto cap =
        static_cast<std::int64_t>(context.hotspots[h].service_capacity);
    slack[h] = std::max<std::int64_t>(0, cap - load);
    overflow[h] = std::max<std::int64_t>(0, load - cap);
    cache_left[h] = context.hotspots[h].cache_capacity;
  }
  // Mutable per-hotspot remaining local demand (drained by redirects).
  std::vector<std::unordered_map<VideoId, std::uint32_t>> local_left(m);
  for (std::uint32_t h = 0; h < m; ++h) {
    for (const auto& d : demand.video_demand(h)) {
      local_left[h].emplace(d.video, d.count);
    }
  }
  const auto try_place = [&](std::uint32_t h, VideoId v) {
    if (std::binary_search(placements[h].begin(), placements[h].end(), v)) {
      return true;
    }
    if (cache_left[h] == 0) return false;
    placements[h].insert(
        std::lower_bound(placements[h].begin(), placements[h].end(), v), v);
    --cache_left[h];
    return true;
  };

  // Per-origin-hotspot redirect quotas, to be materialized per request.
  std::vector<std::unordered_map<VideoId, std::vector<RedirectTarget>>>
      redirect_map(m);

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
            const auto it = local_left[sender].find(vr.video);
            if (it == local_left[sender].end() || it->second == 0) continue;
            const auto amount = static_cast<std::uint32_t>(
                std::min<std::int64_t>({remaining, slack[receiver],
                                        overflow[sender],
                                        static_cast<std::int64_t>(
                                            it->second)}));
            if (amount == 0) continue;
            redirect_map[sender][vr.video].push_back({receiver, amount});
            it->second -= amount;
            overflow[sender] -= amount;
            slack[receiver] -= amount;
            remaining -= amount;
            diagnostics_.localized_redirects += amount;
          }
        }
      }
    }
  }

  // --- 5. Local fill under the serviceability cap (as in flat RBCAer). ---
  struct FillEntry {
    std::uint32_t count = 0;
    std::uint32_t hotspot = 0;
    VideoId video = 0;
  };
  std::vector<std::int64_t> serviceable_left(m);
  for (std::uint32_t h = 0; h < m; ++h) {
    serviceable_left[h] =
        static_cast<std::int64_t>(context.hotspots[h].service_capacity);
  }
  // Inbound redirects consume receiver capacity.
  for (std::uint32_t h = 0; h < m; ++h) {
    // ccdn-lint: allow(unordered-iteration) -- commutative integer sums into
    // serviceable_left; the result is order-independent
    for (const auto& [video, targets] : redirect_map[h]) {
      for (const auto& t : targets) serviceable_left[t.hotspot] -= t.count;
    }
  }
  std::vector<FillEntry> fill;
  for (std::uint32_t h = 0; h < m; ++h) {
    // ccdn-lint: allow(unordered-iteration) -- extract-then-sort: fill is
    // fully ordered below with (count, hotspot, video) tie-breaks
    for (const auto& [video, count] : local_left[h]) {
      if (count > 0) fill.push_back({count, h, video});
    }
  }
  std::sort(fill.begin(), fill.end(),
            [](const FillEntry& a, const FillEntry& b) {
              if (a.count != b.count) return a.count > b.count;
              if (a.hotspot != b.hotspot) return a.hotspot < b.hotspot;
              return a.video < b.video;
            });
  for (const auto& entry : fill) {
    if (serviceable_left[entry.hotspot] <= 0) continue;
    if (try_place(entry.hotspot, entry.video)) {
      serviceable_left[entry.hotspot] -= entry.count;
    }
  }

  // --- 6. Materialize. ---
  std::vector<std::vector<VideoRedirect>> redirects(m);
  for (std::uint32_t h = 0; h < m; ++h) {
    redirects[h].reserve(redirect_map[h].size());
    // ccdn-lint: allow(unordered-iteration) -- extract-then-sort: redirects[h]
    // is fully ordered by video id immediately below
    for (auto& [video, targets] : redirect_map[h]) {
      redirects[h].push_back({video, std::move(targets)});
    }
    std::sort(redirects[h].begin(), redirects[h].end(),
              [](const VideoRedirect& a, const VideoRedirect& b) {
                return a.video < b.video;
              });
  }
  SlotPlan plan;
  plan.placements = std::move(placements);
  plan.assignment = materialize_assignment(requests, demand.request_home(),
                                           std::move(redirects));
  if (auditing) {
    AuditReport report;
    audit_slot_plan(plan, context.hotspots, requests, demand.request_home(),
                    report);
    report.require_clean("virtual-rbcaer slot plan");
  }
  return plan;
}

}  // namespace ccdn
