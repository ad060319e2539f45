#include "core/rbcaer_scheme.h"

#include <algorithm>
#include <cmath>

#include "cluster/content_distance.h"
#include "core/replication.h"
#include "core/theta_sweep.h"
#include "geo/geo_point.h"
#include "geo/grid_index.h"
#include "model/topsets.h"
#include "util/error.h"
#include "util/stopwatch.h"
#include "verify/flow_audit.h"
#include "verify/schedule_audit.h"

namespace ccdn {

namespace {

/// One shard's local solve: rebuild the full RBCAer clustering + flow phase
/// on the sub-instance induced by the shard's member hotspots, then remap
/// the flows back to global ids. A pure function of (config, hotspots,
/// demand, members).
ShardFlowResult solve_shard_instance(const RbcaerConfig& config,
                                     std::span<const Hotspot> hotspots,
                                     const SlotDemand& demand,
                                     std::span<const std::uint32_t> members) {
  ShardFlowResult out;
  const std::size_t n = members.size();
  std::vector<Hotspot> sub_hotspots;
  sub_hotspots.reserve(n);
  std::vector<std::vector<VideoDemand>> sub_videos;
  sub_videos.reserve(n);
  for (const std::uint32_t h : members) {
    sub_hotspots.push_back(hotspots[h]);
    const auto videos = demand.video_demand(static_cast<HotspotIndex>(h));
    sub_videos.emplace_back(videos.begin(), videos.end());
  }
  const SlotDemand local(std::move(sub_videos));
  std::vector<std::uint32_t> loads(n);
  for (std::size_t i = 0; i < n; ++i) {
    loads[i] = local.load(static_cast<HotspotIndex>(i));
  }
  HotspotPartition partition =
      HotspotPartition::from_loads(sub_hotspots, loads);
  const std::int64_t max_movable = partition.max_movable();
  if (max_movable == 0) return out;

  Stopwatch stage_clock;
  std::vector<std::uint32_t> cluster_of(n, 0);
  if (config.content_aggregation) {
    // Serial Jd build: slots already run in parallel on the simulator's
    // lanes, so a pool here would oversubscribe them.
    const auto top_sets = top_sets_per_hotspot(local, config.top_fraction);
    const ClusteringResult clustering = hierarchical_cluster(
        content_cut_graph(top_sets, config.content_cluster_threshold),
        config.linkage, config.content_cluster_threshold);
    cluster_of = clustering.labels;
    out.num_clusters = clustering.num_clusters;
    out.gc_build_s = stage_clock.elapsed_seconds();
  }

  std::vector<GeoPoint> locations;
  locations.reserve(n);
  for (const Hotspot& h : sub_hotspots) locations.push_back(h.location);
  // Cell size only affects query speed, not candidate content or order
  // (candidate_edges applies the exact distance cut and sorts receivers by
  // index), so any grid works; mirror the simulator's cell.
  const GridIndex index(std::move(locations), 0.5);
  SweepOutcome sweep = run_theta_sweep(config, sub_hotspots, index, partition,
                                       max_movable, cluster_of);
  out.moved = sweep.moved;
  out.guide_nodes = sweep.guide_nodes;
  out.theta_iterations = sweep.theta_iterations;
  out.graph_s = sweep.graph_s;
  out.mcmf_s = sweep.mcmf_s;
  out.flows = std::move(sweep.flows);
  for (FlowEntry& f : out.flows) {
    f.from = members[f.from];
    f.to = members[f.to];
  }
  return out;
}

}  // namespace

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

RbcaerScheme::RbcaerScheme(RbcaerConfig config) : config_(config) {
  CCDN_REQUIRE(config_.theta1_km >= 0.0, "negative theta1");
  CCDN_REQUIRE(config_.theta2_km >= config_.theta1_km,
               "theta2 below theta1");
  CCDN_REQUIRE(config_.delta_km > 0.0, "non-positive delta");
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

  // Sharded planning (DESIGN.md §3.12): explicit config wins, else inherit
  // the simulation-wide shard count from the context. 0 = classic
  // unsharded path.
  const std::size_t num_shards = std::min(
      config_.num_shards != 0 ? config_.num_shards : context.num_shards, m);
  const bool sharded = num_shards >= 1;

  // --- Content clustering (only needed when aggregation is on and there
  // is anything to move; sharded slots cluster per shard instead). ---
  std::vector<std::uint32_t> cluster_of(m, 0);
  const bool has_work = diagnostics_.max_movable > 0;
  if (!sharded && config_.content_aggregation && has_work) {
    stage_clock.reset();
    const auto top_sets = top_sets_per_hotspot(demand, config_.top_fraction);
    const ClusteringResult clustering = hierarchical_cluster(
        content_cut_graph(top_sets, config_.content_cluster_threshold),
        config_.linkage, config_.content_cluster_threshold);
    cluster_of = clustering.labels;
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
    redirect_local_misses(context, requests, plan);
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
  // Hotspot geometry is fixed across a run's slots, so the zone plan is
  // computed once per (shard count, hotspot locations) and reused.
  if (shard_plan_.num_shards != num_shards ||
      !std::ranges::equal(shard_plan_.locations, context.hotspots, {}, {},
                          &Hotspot::location)) {
    shard_plan_.locations.clear();
    for (const Hotspot& h : context.hotspots) {
      shard_plan_.locations.push_back(h.location);
    }
    shard_plan_.assignment =
        partition_zones(shard_plan_.locations, num_shards);
    shard_plan_.boundary =
        boundary_hotspots(shard_plan_.locations, shard_plan_.assignment,
                          config_.theta2_km, context.hotspot_index);
    shard_plan_.num_shards = num_shards;
  }

  ShardedSolveOptions options;
  options.exchange_radius_km = config_.theta2_km;
  options.exchange_theta1_km = config_.theta1_km;
  options.exchange_theta_step_km = config_.delta_km;
  options.audit_level = config_.audit_level;

  const auto& members = shard_plan_.assignment.members;
  ShardedSolveOutcome outcome = solve_sharded(
      context.hotspots, context.hotspot_index, partition,
      shard_plan_.assignment, shard_plan_.boundary, options,
      [&](std::uint32_t s) {
        return solve_shard_instance(config_, context.hotspots, demand,
                                    members[s]);
      });

  diagnostics_.moved = outcome.moved;
  diagnostics_.shards = num_shards;
  diagnostics_.boundary_hotspots = outcome.boundary_hotspots;
  diagnostics_.exchange_moved = outcome.exchange_moved;
  diagnostics_.shard_wall_s = outcome.shard_wall_s;
  diagnostics_.exchange_s = outcome.exchange_s;
  for (const ShardFlowResult& shard : outcome.shards) {
    diagnostics_.num_clusters += shard.num_clusters;
    diagnostics_.guide_nodes += shard.guide_nodes;
    diagnostics_.theta_iterations =
        std::max(diagnostics_.theta_iterations, shard.theta_iterations);
    diagnostics_.shard_flow_s.push_back(shard.graph_s + shard.mcmf_s);
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
                                         SlotPlan& plan) const {
  const std::size_t m = context.hotspots.size();
  const auto cached = [&](std::size_t h, VideoId v) {
    return std::binary_search(plan.placements[h].begin(),
                              plan.placements[h].end(), v);
  };
  // Capacity already spoken for by servable assignments.
  std::vector<std::int64_t> capacity_left(m);
  for (std::size_t h = 0; h < m; ++h) {
    capacity_left[h] =
        static_cast<std::int64_t>(context.hotspots[h].service_capacity);
  }
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex target = plan.assignment[r];
    if (target != kCdnServer && cached(target, requests[r].video)) {
      --capacity_left[target];  // may go negative at overloaded homes
    }
  }
  // Neighbour lists are shared per home hotspot (as in RandomScheme).
  std::vector<std::vector<std::size_t>> neighbours(m);
  std::size_t rerouted = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex home = plan.assignment[r];
    if (home == kCdnServer || home >= m) continue;
    if (cached(home, requests[r].video)) continue;  // served locally
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
      if (!cached(candidate, requests[r].video)) continue;
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
