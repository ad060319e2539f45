#include "core/shard_solver.h"

#include <algorithm>

#include "flow/exchange.h"
#include "geo/geo_point.h"
#include "util/error.h"
#include "util/stopwatch.h"
#include "verify/shard_audit.h"

namespace ccdn {

ShardedSolveOutcome solve_sharded(std::span<const Hotspot> hotspots,
                                  const GridIndex& index,
                                  HotspotPartition& partition,
                                  const ShardAssignment& assignment,
                                  std::span<const std::uint8_t> boundary,
                                  const ShardedSolveOptions& options,
                                  const ShardSolveFn& solve_shard) {
  const std::size_t num_shards = assignment.num_shards;
  CCDN_REQUIRE(assignment.shard_of.size() == hotspots.size(),
               "shard assignment does not cover the hotspot set");
  CCDN_REQUIRE(boundary.size() == hotspots.size(),
               "boundary mask does not cover the hotspot set");
  ShardedSolveOutcome outcome;
  outcome.shards.resize(num_shards);
  for (const std::uint8_t b : boundary) outcome.boundary_hotspots += b;

  // --- Per-shard solves, one after another in shard order. ---
  Stopwatch wall;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    outcome.shards[s] = solve_shard(s);
  }
  outcome.shard_wall_s = wall.elapsed_seconds();

  // --- Commit shard flows against the global slack (the absorb
  // contract: per-shard loads equal the global loads restricted to the
  // shard, so shard-local phi is the global phi on members and this can
  // never underflow on a correct shard solve). ---
  const bool auditing =
      kCheckedBuild && options.audit_level != AuditLevel::kOff;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    const ShardFlowResult& shard = outcome.shards[s];
    if (auditing) {
      AuditReport report;
      audit_shard_flows(shard.flows, assignment.shard_of, s, report);
      report.require_clean("sharded slot: shard flows");
    }
    for (const FlowEntry& f : shard.flows) {
      partition.phi[f.from] -= f.amount;
      partition.phi[f.to] -= f.amount;
      CCDN_ENSURE(partition.phi[f.from] >= 0 && partition.phi[f.to] >= 0,
                  "shard flow exceeded slack");
      outcome.moved += f.amount;
    }
    outcome.flows.insert(outcome.flows.end(), shard.flows.begin(),
                         shard.flows.end());
  }

  // --- Exchange rounds over boundary residuals, θ-swept. A single
  // max-flow at the full radius would move strictly more than the global
  // θ sweep does (progressive commitment strands capacity on purpose —
  // closer arcs first), and every extra unit moved is extra serving
  // distance; sweeping the same θ grid keeps the exchange's movement
  // discipline — and hence the optimality gap — aligned with the global
  // solve's. ---
  wall.reset();
  if (num_shards > 1 && outcome.boundary_hotspots > 0) {
    std::vector<std::uint8_t> is_under(hotspots.size(), 0);
    for (const std::uint32_t j : partition.underutilized) is_under[j] = 1;
    // Same widened-query + exact-cut pattern as candidate_edges, so the
    // exchange sees exactly the arcs a global solve at θ2 would have
    // offered these senders (restricted to surviving slack). Collected
    // once at the full radius; each θ round filters by distance.
    const double query_radius = options.exchange_radius_km * 1.001 + 1e-6;
    std::vector<ExchangeArc> arcs;
    std::vector<std::size_t> near;
    for (const std::uint32_t i : partition.overloaded) {
      if (boundary[i] == 0 || partition.phi[i] <= 0) continue;
      index.within_radius(hotspots[i].location, query_radius, near);
      for (const std::size_t j : near) {
        if (is_under[j] == 0 || partition.phi[j] <= 0) continue;
        const double d =
            distance_km(hotspots[i].location, hotspots[j].location);
        if (d >= options.exchange_radius_km) continue;
        arcs.push_back({i, static_cast<std::uint32_t>(j), d, 0});
      }
    }
    const double theta_step = options.exchange_theta_step_km > 0.0
                                  ? options.exchange_theta_step_km
                                  : options.exchange_radius_km;
    double theta = options.exchange_theta1_km > 0.0
                       ? std::min(options.exchange_theta1_km,
                                  options.exchange_radius_km)
                       : options.exchange_radius_km;
    std::vector<ExchangeArc> live;
    while (true) {
      live.clear();
      for (const ExchangeArc& arc : arcs) {
        if (arc.cost_km >= theta) continue;
        const std::int64_t cap =
            std::min(partition.phi[arc.from], partition.phi[arc.to]);
        if (cap <= 0) continue;
        live.push_back({arc.from, arc.to, arc.cost_km, cap});
      }
      if (!live.empty()) {
        const ExchangeResult exchange = solve_exchange(
            partition.phi, partition.phi, live, options.exchange_strategy);
        for (const ExchangeFlow& f : exchange.flows) {
          outcome.exchange_flows.push_back({f.from, f.to, f.amount});
          partition.phi[f.from] -= f.amount;
          partition.phi[f.to] -= f.amount;
          CCDN_ENSURE(partition.phi[f.from] >= 0 && partition.phi[f.to] >= 0,
                      "exchange flow exceeded residual slack");
          outcome.moved += f.amount;
          outcome.exchange_moved += f.amount;
        }
      }
      if (theta >= options.exchange_radius_km) break;
      theta = std::min(theta + theta_step, options.exchange_radius_km);
    }
    if (!outcome.exchange_flows.empty()) {
      if (auditing) {
        AuditReport report;
        audit_exchange_flows(outcome.exchange_flows, assignment.shard_of,
                             boundary, report);
        report.require_clean("sharded slot: exchange flows");
      }
      outcome.flows.insert(outcome.flows.end(), outcome.exchange_flows.begin(),
                           outcome.exchange_flows.end());
    }
  }
  outcome.exchange_s = wall.elapsed_seconds();
  return outcome;
}

}  // namespace ccdn
