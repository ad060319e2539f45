// One θ step of Algorithm 1 (the cold step), shared by every θ loop.
//
// cold_step_gd / cold_step_gc are one step of the paper's sweep exactly as
// the paper states it: build Gd or Gc over the candidate edges with d < θ
// and φ > 0 on both endpoints, solve MCMF from zero flow, and commit the
// flows into the partition's φ. RbcaerScheme's sweep (unsharded and in
// every shard) and VirtualRbcaerScheme's region-level sweep call them once
// per θ. DESIGN.md §3.7 says why no θ loop warm-starts across steps.
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
/// on both endpoints (build_gd), solves MCMF from zero flow with
/// `strategy`, and commits the merged flows into `partition`'s φ. At
/// AuditLevel::kFull, checked builds certify the solved graph before it is
/// discarded: flow conservation and capacity bounds, and no negative
/// residual cycle (audit_epoch_residual, the min-cost certificate). A
/// violation throws InvariantError naming the invariant.
SweepStep cold_step_gd(HotspotPartition& partition,
                       std::span<const CandidateEdge> candidates,
                       double theta_km,
                       McmfStrategy strategy = McmfStrategy::kSpfa,
                       AuditLevel audit_level = AuditLevel::kOff);

/// Same on Gc (build_gc).
SweepStep cold_step_gc(HotspotPartition& partition,
                       std::span<const CandidateEdge> candidates,
                       double theta_km,
                       std::span<const std::uint32_t> cluster_of,
                       const GuideOptions& options,
                       McmfStrategy strategy = McmfStrategy::kSpfa,
                       AuditLevel audit_level = AuditLevel::kOff);

/// Kept only because perfbench/trace_mode.cc drives it; RbcaerScheme does
/// not use it. begin_slot keeps the partition and a copy of the candidates,
/// and every step is the cold step. The constructor's second and third
/// parameters are ignored, and potential_reprices() is always 0.
class ThetaSweeper {
 public:
  explicit ThetaSweeper(McmfStrategy strategy = McmfStrategy::kSpfa,
                        bool = false, double = 0.0)
      : strategy_(strategy) {}
  void begin_slot(HotspotPartition& partition,
                  std::span<const CandidateEdge> candidates) {
    partition_ = &partition;
    candidates_.assign(candidates.begin(), candidates.end());
  }
  SweepStep step_gd(double theta_km) {
    return cold_step_gd(*partition_, candidates_, theta_km, strategy_);
  }
  SweepStep step_gc(double theta_km, std::span<const std::uint32_t> cluster_of,
                    const GuideOptions& options) {
    return cold_step_gc(*partition_, candidates_, theta_km, cluster_of,
                        options, strategy_);
  }
  void end_slot() { partition_ = nullptr; }
  [[nodiscard]] std::size_t potential_reprices() const noexcept { return 0; }

 private:
  McmfStrategy strategy_;
  HotspotPartition* partition_ = nullptr;
  std::vector<CandidateEdge> candidates_;
};

}  // namespace ccdn
