#include "core/theta_sweep.h"

#include <cmath>

#include "util/error.h"
#include "util/stopwatch.h"
#include "verify/flow_audit.h"

namespace ccdn {

namespace {

/// Decrement φ by merged per-pair flows, checking that no slack goes
/// negative.
void charge_slack(HotspotPartition& partition,
                  std::span<const FlowEntry> flows) {
  for (const auto& f : flows) {
    CCDN_ASSERT(f.amount > 0, "non-positive merged flow entry");
    partition.phi[f.from] -= f.amount;
    partition.phi[f.to] -= f.amount;
    CCDN_ENSURE(partition.phi[f.from] >= 0 && partition.phi[f.to] >= 0,
                "flow exceeded slack");
  }
}

/// Solve a freshly built graph from zero flow and commit its flows.
SweepStep solve_cold(BalanceGraph graph, HotspotPartition& partition,
                     AuditLevel audit_level, double graph_s) {
  SweepStep out;
  out.graph_s = graph_s;
  out.guide_nodes = graph.num_guide_nodes;
  Stopwatch clock;
  const McmfResult res =
      MinCostMaxFlow::solve(graph.net, graph.source, graph.sink);
  out.mcmf_s = clock.elapsed_seconds();
  if constexpr (kCheckedBuild) {
    if (audit_level >= AuditLevel::kFull) {
      AuditReport report;
      audit_flow_conservation(graph.net, graph.source, graph.sink, report);
      audit_epoch_residual(graph.net, report);
      report.require_clean("theta step");
    }
  }
  out.moved = res.flow;
  out.cost = res.cost;
  out.flows = extract_flows(graph);
  charge_slack(partition, out.flows);
  return out;
}

}  // namespace

SweepStep cold_step_gd(HotspotPartition& partition,
                       std::span<const CandidateEdge> candidates,
                       double theta_km, AuditLevel audit_level) {
  Stopwatch clock;
  BalanceGraph graph = build_gd(partition, candidates, theta_km);
  const double graph_s = clock.elapsed_seconds();
  return solve_cold(std::move(graph), partition, audit_level, graph_s);
}

SweepStep cold_step_gc(HotspotPartition& partition,
                       std::span<const CandidateEdge> candidates,
                       double theta_km,
                       std::span<const std::uint32_t> cluster_of,
                       const GuideOptions& options, AuditLevel audit_level) {
  Stopwatch clock;
  BalanceGraph graph =
      build_gc(partition, candidates, theta_km, cluster_of, options);
  const double graph_s = clock.elapsed_seconds();
  return solve_cold(std::move(graph), partition, audit_level, graph_s);
}

std::size_t theta_grid_size(double theta1_km, double theta2_km,
                            double delta_km) {
  CCDN_REQUIRE(theta1_km >= 0.0, "negative theta1");
  CCDN_REQUIRE(delta_km > 0.0, "non-positive theta step");
  CCDN_REQUIRE(std::isfinite(theta2_km), "non-finite theta2");
  CCDN_REQUIRE(theta2_km + delta_km > theta2_km,
               "theta step too small to reach theta2");
  // The slack is relative to δ: an absolute one (θ ≤ θ2 + 1e-9) would give
  // a grid whose δ is half an ulp of θ2 some 10^7 points. The
  // preconditions keep the quotient below about 2^54.
  const double last = std::floor((theta2_km - theta1_km) / delta_km + 1e-9);
  return last < 0.0 ? 0 : static_cast<std::size_t>(last) + 1;
}

SweepOutcome theta_sweep(HotspotPartition& partition,
                         std::span<const CandidateEdge> candidates,
                         double theta1_km, double theta2_km, double delta_km,
                         std::int64_t max_movable,
                         std::span<const std::uint32_t> cluster_of,
                         const GuideOptions& guide, AuditLevel audit_level) {
  const std::size_t grid_size =
      theta_grid_size(theta1_km, theta2_km, delta_km);
  SweepOutcome out;
  // Steps already committed their flows (φ decremented, slack invariant
  // checked inside the step); just accumulate.
  const auto absorb = [&out](const SweepStep& step) {
    out.moved += step.moved;
    out.guide_nodes += step.guide_nodes;
    out.graph_s += step.graph_s;
    out.mcmf_s += step.mcmf_s;
    out.flows.insert(out.flows.end(), step.flows.begin(), step.flows.end());
  };
  for (std::size_t k = 0; k < grid_size && out.moved < max_movable; ++k) {
    const double theta = theta1_km + static_cast<double>(k) * delta_km;
    ++out.theta_iterations;
    absorb(cluster_of.empty()
               ? cold_step_gd(partition, candidates, theta, audit_level)
               : cold_step_gc(partition, candidates, theta, cluster_of, guide,
                              audit_level));
  }
  if (out.moved < max_movable) {
    // Residual pass on the plain distance graph at θ2 (Algorithm 1,
    // line 12); anything beyond that stays with its home hotspot and
    // overflows to the CDN at admission (line 14).
    absorb(cold_step_gd(partition, candidates, theta2_km, audit_level));
  }
  return out;
}

}  // namespace ccdn
