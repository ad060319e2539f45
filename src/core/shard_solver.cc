#include "core/shard_solver.h"

#include "core/theta_sweep.h"
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

  // --- Exchange round: the θ sweep, Gd-only, over the boundary band —
  // boundary senders with residual overload against all residual slack. ---
  wall.reset();
  if (num_shards > 1 && outcome.boundary_hotspots > 0) {
    HotspotPartition band;
    for (const std::uint32_t i : partition.overloaded) {
      if (boundary[i] != 0 && partition.phi[i] > 0) {
        band.overloaded.push_back(i);
      }
    }
    for (const std::uint32_t j : partition.underutilized) {
      if (partition.phi[j] > 0) band.underutilized.push_back(j);
    }
    band.phi = partition.phi;
    const std::vector<CandidateEdge> candidates = candidate_edges(
        hotspots, band, options.exchange_radius_km, index);
    SweepOutcome sweep = theta_sweep(
        band, candidates, options.exchange_theta1_km,
        options.exchange_radius_km, options.exchange_theta_step_km,
        band.max_movable(), {}, {}, options.exchange_strategy,
        options.audit_level);
    partition.phi = std::move(band.phi);
    outcome.moved += sweep.moved;
    outcome.exchange_moved = sweep.moved;
    outcome.exchange_flows = std::move(sweep.flows);
    if (auditing) {
      AuditReport report;
      audit_exchange_flows(outcome.exchange_flows, assignment.shard_of,
                           boundary, report);
      report.require_clean("sharded slot: exchange flows");
    }
    outcome.flows.insert(outcome.flows.end(), outcome.exchange_flows.begin(),
                         outcome.exchange_flows.end());
  }
  outcome.exchange_s = wall.elapsed_seconds();
  return outcome;
}

}  // namespace ccdn
