// Algorithm 1's flow phase: the θ sweep, the only θ loop in src/.
//
// theta_sweep runs the paper's sweep over precomputed candidate edges: one
// cold step per θ = θ1 + k·δ up to θ2 on Gc (on Gd when no cluster
// labels are given) until max_movable units have moved, then one residual
// Gd step at θ2. A cold step (cold_step_gd / cold_step_gc) builds Gd or Gc
// over the candidate edges with d < θ and φ > 0 on both endpoints, solves
// MCMF from zero flow, and commits the flows into the partition's φ.
// Callers: RbcaerScheme's slot and shard solves, VirtualRbcaerScheme's
// region-level solves, and solve_sharded's exchange round over the shard
// boundary band. DESIGN.md §3.7 says why no θ loop warm-starts across steps.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/balance_graph.h"
#include "flow/mcmf.h"
#include "verify/audit.h"

namespace ccdn {

/// Result of one θ step: the per-pair flows committed by this step (merged,
/// ordered by (from, to)) plus stage timings.
struct SweepStep {
  std::vector<FlowEntry> flows;
  std::int64_t moved = 0;
  double cost = 0.0;
  std::size_t guide_nodes = 0;
  double graph_s = 0.0;  // edge/guide construction time
  double mcmf_s = 0.0;   // MCMF time
};

/// One θ step on Gd: builds Gd over the `candidates` with d < θ and φ > 0
/// on both endpoints (build_gd), solves MCMF from zero flow, and commits
/// the merged flows into `partition`'s φ. At AuditLevel::kFull, checked
/// builds certify the solved graph before it is discarded: flow
/// conservation and capacity bounds, and no negative residual cycle
/// (audit_epoch_residual, the min-cost certificate). A violation throws
/// InvariantError naming the invariant.
SweepStep cold_step_gd(HotspotPartition& partition,
                       std::span<const CandidateEdge> candidates,
                       double theta_km,
                       AuditLevel audit_level = AuditLevel::kOff);

/// Same on Gc (build_gc).
SweepStep cold_step_gc(HotspotPartition& partition,
                       std::span<const CandidateEdge> candidates,
                       double theta_km,
                       std::span<const std::uint32_t> cluster_of,
                       const GuideOptions& options,
                       AuditLevel audit_level = AuditLevel::kOff);

/// Result of a whole θ sweep.
struct SweepOutcome {
  std::vector<FlowEntry> flows;  // per-step flows, not merged across steps
  std::int64_t moved = 0;
  std::size_t guide_nodes = 0;
  std::size_t theta_iterations = 0;  // θ-grid steps, residual excluded
  double graph_s = 0.0;
  double mcmf_s = 0.0;
};

/// Number of points on the θ grid θ1, θ1+δ, … ≤ θ2, fixed before a sweep
/// runs; point k is θ1 + k·δ. A grid's last point may round a hair past θ2
/// (0.3 + 12·0.1), so the count allows 1e-9 of a step of slack. Requires
/// θ1 ≥ 0, δ > 0, a finite θ2 and θ2 + δ > θ2, which bound the count
/// (PreconditionError); θ1 > θ2 gives an empty grid.
[[nodiscard]] std::size_t theta_grid_size(double theta1_km, double theta2_km,
                                          double delta_km);

/// Algorithm 1 lines 5–12 on `partition`: a cold step per θ on the grid
/// of theta_grid_size — on Gc with `cluster_of` and `guide`, or on Gd when
/// `cluster_of` is empty — while fewer than `max_movable` units have moved,
/// then, if units are still left, one residual Gd step at θ2. Every step
/// uses `audit_level`. The grid's preconditions apply.
[[nodiscard]] SweepOutcome theta_sweep(
    HotspotPartition& partition, std::span<const CandidateEdge> candidates,
    double theta1_km, double theta2_km, double delta_km,
    std::int64_t max_movable, std::span<const std::uint32_t> cluster_of,
    const GuideOptions& guide, AuditLevel audit_level = AuditLevel::kOff);

/// Kept only because perfbench/trace_mode.cc drives it; RbcaerScheme does
/// not use it. begin_slot keeps the partition and a copy of the candidates,
/// and every step is the cold step. The constructor's parameters are
/// ignored, and potential_reprices() is always 0.
class ThetaSweeper {
 public:
  explicit ThetaSweeper(McmfStrategy = McmfStrategy::kSpfa, bool = false,
                        double = 0.0) {}
  void begin_slot(HotspotPartition& partition,
                  std::span<const CandidateEdge> candidates) {
    partition_ = &partition;
    candidates_.assign(candidates.begin(), candidates.end());
  }
  SweepStep step_gd(double theta_km) {
    return cold_step_gd(*partition_, candidates_, theta_km);
  }
  SweepStep step_gc(double theta_km, std::span<const std::uint32_t> cluster_of,
                    const GuideOptions& options) {
    return cold_step_gc(*partition_, candidates_, theta_km, cluster_of,
                        options);
  }
  void end_slot() { partition_ = nullptr; }
  [[nodiscard]] std::size_t potential_reprices() const noexcept { return 0; }

 private:
  HotspotPartition* partition_ = nullptr;
  std::vector<CandidateEdge> candidates_;
};

}  // namespace ccdn
