#include "core/rbcaer_scheme.h"

#include <algorithm>
#include <cmath>

#include "cluster/content_distance.h"
#include "core/replication.h"
#include "core/theta_sweep.h"
#include "geo/geo_point.h"
#include "geo/grid_index.h"
#include "model/sorted_contains.h"
#include "model/topsets.h"
#include "util/error.h"
#include "util/stopwatch.h"
#include "verify/flow_audit.h"
#include "verify/schedule_audit.h"

namespace ccdn {

SweepOutcome run_theta_sweep(const RbcaerConfig& config,
                             std::span<const Hotspot> hotspots,
                             const GridIndex& index,
                             HotspotPartition& partition,
                             std::int64_t max_movable,
                             std::span<const std::uint32_t> cluster_of) {
  // Radius query per overloaded hotspot via the shared spatial index,
  // instead of scanning every (overloaded, under-utilized) pair.
  Stopwatch clock;
  const std::vector<CandidateEdge> candidates =
      candidate_edges(hotspots, partition, config.theta2_km, index);
  const double candidates_s = clock.elapsed_seconds();
  SweepOutcome out = theta_sweep(
      partition, candidates, config.theta1_km, config.theta2_km,
      config.delta_km, max_movable,
      config.content_aggregation ? cluster_of
                                 : std::span<const std::uint32_t>{},
      config.guide, config.audit_level);
  out.graph_s += candidates_s;
  return out;
}

ClusteringResult content_clusters(const RbcaerConfig& config,
                                  const SlotDemand& demand) {
  const auto top_sets = top_sets_per_hotspot(demand, config.top_fraction);
  return hierarchical_cluster(
      content_cut_graph(top_sets, config.content_cluster_threshold),
      config.linkage, config.content_cluster_threshold);
}

ShardInstance shard_instance(std::span<const Hotspot> hotspots,
                             const SlotDemand& demand,
                             std::span<const std::uint32_t> members) {
  std::vector<Hotspot> sub_hotspots;
  sub_hotspots.reserve(members.size());
  std::vector<std::vector<VideoDemand>> rows;
  rows.reserve(members.size());
  for (const std::uint32_t h : members) {
    sub_hotspots.push_back(hotspots[h]);
    const auto row = demand.video_demand(static_cast<HotspotIndex>(h));
    rows.emplace_back(row.begin(), row.end());
  }
  SlotDemand sub_demand(std::move(rows));
  std::vector<std::uint32_t> loads(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    loads[i] = sub_demand.load(static_cast<HotspotIndex>(i));
  }
  HotspotPartition partition =
      HotspotPartition::from_loads(sub_hotspots, loads);
  return {members, std::move(sub_hotspots), std::move(sub_demand),
          std::move(partition)};
}

ShardFlowResult sweep_shard(const RbcaerConfig& config, ShardInstance& shard,
                            std::span<const std::uint32_t> cluster_of) {
  ShardFlowResult out;
  const std::int64_t max_movable = shard.partition.max_movable();
  if (max_movable == 0) return out;
  std::vector<GeoPoint> locations;
  locations.reserve(shard.hotspots.size());
  for (const Hotspot& h : shard.hotspots) locations.push_back(h.location);
  const GridIndex index(std::move(locations), 0.5);
  SweepOutcome sweep = run_theta_sweep(config, shard.hotspots, index,
                                       shard.partition, max_movable,
                                       cluster_of);
  out.moved = sweep.moved;
  out.guide_nodes = sweep.guide_nodes;
  out.theta_iterations = sweep.theta_iterations;
  out.graph_s = sweep.graph_s;
  out.mcmf_s = sweep.mcmf_s;
  out.flows = std::move(sweep.flows);
  for (FlowEntry& f : out.flows) {
    f.from = shard.members[f.from];
    f.to = shard.members[f.to];
  }
  return out;
}

ShardedSolveOutcome ShardPlanCache::solve(
    const RbcaerConfig& config, std::span<const Hotspot> hotspots,
    const GridIndex& index, HotspotPartition& partition,
    std::size_t num_shards,
    const std::function<ShardFlowResult(std::span<const std::uint32_t>)>&
        solve_zone) {
  if (num_shards_ != num_shards ||
      !std::ranges::equal(locations_, hotspots, {}, {},
                          &Hotspot::location)) {
    locations_.clear();
    for (const Hotspot& h : hotspots) locations_.push_back(h.location);
    assignment_ = partition_zones(locations_, num_shards);
    boundary_ =
        boundary_hotspots(locations_, assignment_, config.theta2_km, index);
    num_shards_ = num_shards;
  }
  ShardedSolveOptions options;
  options.exchange_radius_km = config.theta2_km;
  options.exchange_theta1_km = config.theta1_km;
  options.exchange_theta_step_km = config.delta_km;
  options.audit_level = config.audit_level;
  return solve_sharded(hotspots, index, partition, assignment_, boundary_,
                       options, [&](std::uint32_t s) {
                         return solve_zone(assignment_.members[s]);
                       });
}

RbcaerScheme::RbcaerScheme(RbcaerConfig config) : config_(config) {
  CCDN_REQUIRE(config_.theta1_km >= 0.0, "negative theta1");
  CCDN_REQUIRE(config_.theta2_km >= config_.theta1_km,
               "theta2 below theta1");
  CCDN_REQUIRE(config_.delta_km > 0.0, "non-positive delta");
  CCDN_REQUIRE(std::isfinite(config_.theta2_km), "non-finite theta2");
  CCDN_REQUIRE(config_.theta2_km + config_.delta_km > config_.theta2_km,
               "delta too small to step theta up to theta2");
  CCDN_REQUIRE(config_.top_fraction > 0.0 && config_.top_fraction <= 1.0,
               "top_fraction outside (0,1]");
  CCDN_REQUIRE(config_.bpeak_multiplier > 0.0, "non-positive B_peak");
}

std::string RbcaerScheme::name() const {
  return config_.content_aggregation ? "RBCAer" : "RBCAer(no-aggregation)";
}

SlotPlan RbcaerScheme::plan_slot(const SchemeContext& context,
                                 std::span<const Request> requests,
                                 const SlotDemand& demand) {
  CCDN_REQUIRE(demand.num_hotspots() == context.hotspots.size(),
               "demand/hotspot count mismatch");
  const std::size_t m = context.hotspots.size();
  diagnostics_ = {};
  stage_timings_ = {};
  Stopwatch stage_clock;

  // --- Partition and movable slack. ---
  std::vector<std::uint32_t> loads(m);
  for (std::size_t h = 0; h < m; ++h) {
    loads[h] = demand.load(static_cast<HotspotIndex>(h));
  }
  HotspotPartition partition =
      HotspotPartition::from_loads(context.hotspots, loads);
  diagnostics_.max_movable = partition.max_movable();

  // Auditing needs the slack as of the partition build: the sweep
  // decrements phi in place, and the f_ij bound is against the initial
  // values (kCheckedBuild only; audit_phi stays empty in release builds).
  const bool auditing =
      kCheckedBuild && config_.audit_level != AuditLevel::kOff;
  std::vector<std::int64_t> audit_phi;
  if (auditing) audit_phi = partition.phi;

  stage_timings_.partition_s = stage_clock.elapsed_seconds();

  // Sharded planning (DESIGN.md §3.12) at the simulation-wide shard count.
  // 0 = classic unsharded path.
  const std::size_t num_shards = std::min(context.num_shards, m);
  const bool sharded = num_shards >= 1;

  // --- Content clustering (only needed when aggregation is on and there
  // is anything to move; sharded slots cluster per shard instead). ---
  std::vector<std::uint32_t> cluster_of(m, 0);
  const bool has_work = diagnostics_.max_movable > 0;
  if (!sharded && config_.content_aggregation && has_work) {
    stage_clock.reset();
    ClusteringResult clustering = content_clusters(config_, demand);
    cluster_of = std::move(clustering.labels);
    diagnostics_.num_clusters = clustering.num_clusters;
    stage_timings_.gc_build_s = stage_clock.elapsed_seconds();
  }

  // --- Algorithm 1: θ sweep over Gc, then residual pass over Gd. ---
  std::vector<FlowEntry> flows;  // per-θ increments; merged by pair below
  if (has_work) {
    if (sharded) {
      flows = plan_shard_flows(context, demand, partition, num_shards);
    } else {
      SweepOutcome sweep = run_theta_sweep(
          config_, context.hotspots, context.hotspot_index, partition,
          diagnostics_.max_movable, cluster_of);
      diagnostics_.moved = sweep.moved;
      diagnostics_.guide_nodes = sweep.guide_nodes;
      diagnostics_.theta_iterations = sweep.theta_iterations;
      stage_timings_.graph_s += sweep.graph_s;
      stage_timings_.mcmf_s += sweep.mcmf_s;
      flows = std::move(sweep.flows);
    }
  }

  merge_flow_entries(flows);
  if (auditing) {
    AuditReport report;
    audit_flow_entries(flows, partition, audit_phi, report);
    report.require_clean("rbcaer slot flows");
  }

  // --- Procedure 1: redirections + placements under B_peak. ---
  stage_clock.reset();
  const auto budget = static_cast<std::size_t>(std::llround(
      config_.bpeak_multiplier * static_cast<double>(demand.num_requests())));
  ReplicationResult replication = content_aggregation_replication(
      demand, context.hotspots, flows, budget, config_.audit_level);
  diagnostics_.redirected = replication.total_redirected;
  diagnostics_.replicas = replication.replicas;

  // --- Materialize the per-request assignment. ---
  SlotPlan plan;
  plan.placements = std::move(replication.placements);
  plan.assignment = materialize_assignment(requests, demand.request_home(),
                                           std::move(replication.redirects));

  if (config_.miss_redirection) {
    redirect_local_misses(context, requests, demand, plan);
  }
  if (auditing) {
    AuditReport report;
    audit_slot_plan(plan, context.hotspots, requests, demand.request_home(),
                    report);
    report.require_clean("rbcaer slot plan");
  }
  stage_timings_.replication_s = stage_clock.elapsed_seconds();
  return plan;
}

std::vector<FlowEntry> RbcaerScheme::plan_shard_flows(
    const SchemeContext& context, const SlotDemand& demand,
    HotspotPartition& partition, std::size_t num_shards) {
  // Each zone's solve is a pure function of (config, hotspots, demand,
  // members): the clustering and the flow phase on the zone's sub-instance.
  ShardedSolveOutcome outcome = shard_plan_.solve(
      config_, context.hotspots, context.hotspot_index, partition, num_shards,
      [&](std::span<const std::uint32_t> members) {
        ShardInstance shard = shard_instance(context.hotspots, demand, members);
        if (shard.partition.max_movable() == 0) return ShardFlowResult{};
        Stopwatch clock;
        ClusteringResult clustering;
        double gc_build_s = 0.0;
        if (config_.content_aggregation) {
          clustering = content_clusters(config_, shard.demand);
          gc_build_s = clock.elapsed_seconds();
        }
        ShardFlowResult out = sweep_shard(config_, shard, clustering.labels);
        out.num_clusters = clustering.num_clusters;
        out.gc_build_s = gc_build_s;
        return out;
      });

  diagnostics_.moved = outcome.moved;
  diagnostics_.shards = num_shards;
  diagnostics_.boundary_hotspots = outcome.boundary_hotspots;
  diagnostics_.exchange_moved = outcome.exchange_moved;
  for (const ShardFlowResult& shard : outcome.shards) {
    diagnostics_.num_clusters += shard.num_clusters;
    diagnostics_.guide_nodes += shard.guide_nodes;
    diagnostics_.theta_iterations =
        std::max(diagnostics_.theta_iterations, shard.theta_iterations);
    // The shards run back to back, so each stage is the sum over shards;
    // the exchange round is added to the MCMF stage below.
    stage_timings_.gc_build_s += shard.gc_build_s;
    stage_timings_.graph_s += shard.graph_s;
    stage_timings_.mcmf_s += shard.mcmf_s;
  }
  stage_timings_.mcmf_s += outcome.exchange_s;
  return std::move(outcome.flows);
}

void RbcaerScheme::redirect_local_misses(const SchemeContext& context,
                                         std::span<const Request> requests,
                                         const SlotDemand& demand,
                                         SlotPlan& plan) const {
  const std::size_t m = context.hotspots.size();
  // A request still at its home reads its verdict from its λ_hv pair:
  // placed_at_home holds, per pair, whether the home caches the pair's
  // video, from one merge of each row with the home's placement list.
  // Redirected requests search the target's list instead.
  const auto homes = demand.request_home();
  const auto pairs = demand.request_pair();
  CCDN_REQUIRE(pairs.size() == requests.size(),
               "demand/requests length mismatch");
  std::vector<std::uint8_t> placed_at_home(
      demand.first_pair(static_cast<HotspotIndex>(m)));
  for (HotspotIndex h = 0; h < m; ++h) {
    const auto row = demand.video_demand(h);
    const std::vector<VideoId>& placed = plan.placements[h];
    const std::size_t first = demand.first_pair(h);
    std::size_t p = 0;
    for (std::size_t k = 0; k < row.size(); ++k) {
      while (p < placed.size() && placed[p] < row[k].video) ++p;
      placed_at_home[first + k] =
          p < placed.size() && placed[p] == row[k].video ? 1 : 0;
    }
  }
  const auto cached_at = [&](std::size_t r, HotspotIndex target) {
    if (target == homes[r]) return placed_at_home[pairs[r]] != 0;
    return sorted_contains(plan.placements[target], requests[r].video);
  };
  // One scan charges the capacity already spoken for by servable
  // assignments and lists the misses; the misses are rerouted after it,
  // against the fully charged capacities.
  std::vector<std::int64_t> capacity_left(m);
  for (std::size_t h = 0; h < m; ++h) {
    capacity_left[h] =
        static_cast<std::int64_t>(context.hotspots[h].service_capacity);
  }
  std::vector<std::size_t> misses;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex target = plan.assignment[r];
    if (target == kCdnServer || target >= m) continue;
    if (cached_at(r, target)) {
      --capacity_left[target];  // may go negative at overloaded homes
    } else {
      misses.push_back(r);
    }
  }
  // Neighbour lists are shared per home hotspot (as in RandomScheme).
  std::vector<std::vector<std::size_t>> neighbours(m);
  std::size_t rerouted = 0;
  for (const std::size_t r : misses) {
    const HotspotIndex home = plan.assignment[r];
    auto& pool = neighbours[home];
    if (pool.empty()) {
      pool = context.hotspot_index.within_radius(
          context.hotspots[home].location, config_.theta2_km);
    }
    // Nearest candidate with the video and spare capacity. The pool is
    // small (θ2-radius), so a linear scan with distance tracking is fine.
    std::size_t best = m;
    double best_distance = 0.0;
    for (const std::size_t candidate : pool) {
      if (candidate == home || capacity_left[candidate] <= 0) continue;
      if (!sorted_contains(plan.placements[candidate], requests[r].video)) {
        continue;
      }
      const double d = distance_km(requests[r].location,
                                   context.hotspots[candidate].location);
      if (best == m || d < best_distance) {
        best = candidate;
        best_distance = d;
      }
    }
    if (best == m) continue;  // genuinely nowhere to go but the CDN
    plan.assignment[r] = static_cast<HotspotIndex>(best);
    --capacity_left[best];
    ++rerouted;
  }
  diagnostics_.miss_rerouted = rerouted;
}

}  // namespace ccdn
