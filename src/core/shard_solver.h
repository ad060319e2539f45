// Zone-sharded flow-solve orchestration (DESIGN.md §3.12).
//
// Given a slot's global HotspotPartition and a geo shard assignment
// (geo/zone_partition.h), solve_sharded():
//
//   1. runs a caller-supplied per-shard solve — flat RBCAer's θ sweep or
//      the virtual scheme's regional one, restricted to one shard's
//      hotspots — for every shard, one after another in the calling
//      process, in shard order (slots already run in parallel on the
//      simulator's lanes, so there is no fan-out within a slot);
//   2. commits every shard-local flow against the caller's global
//      partition slack, exactly like the unsharded absorb loop;
//   3. runs one exchange round: the same θ sweep (core/theta_sweep.h),
//      Gd-only, over the boundary band. The band's senders are the
//      boundary hotspots (those whose candidate radius crosses a shard cut,
//      so their local solve was blind to receivers across it) with
//      residual overload; its receivers are every hotspot with residual
//      slack, in any shard, the sender's own included, within the exchange
//      radius. Sweeping θ1, θ1+δ, … keeps the global sweep's closest-first
//      commitment; a single max-flow at the full radius would move strictly
//      more traffic than the global solve and inflate the optimality gap.
//
// The caller's partition.phi ends up accounting for every committed unit,
// so the merged flow list satisfies the same audit_flow_entries contract as
// an unsharded slot. Per-shard locality and exchange boundary-sender
// structure are audited via verify/shard_audit.h (checked builds, audit
// level >= kPlan); at kFull every exchange step also carries the θ step's
// min-cost certificate.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/balance_graph.h"
#include "flow/mcmf.h"
#include "geo/zone_partition.h"
#include "model/types.h"
#include "verify/audit.h"

namespace ccdn {

/// Kept only because perfbench/trace_mode.cc names it; shards always run
/// in-process.
enum class ShardExecutor : std::uint8_t { kInProcess };

/// What one shard's local solve returns. Flows are in GLOBAL hotspot ids.
struct ShardFlowResult {
  std::vector<FlowEntry> flows;
  std::int64_t moved = 0;
  std::size_t num_clusters = 0;
  std::size_t guide_nodes = 0;
  std::size_t theta_iterations = 0;
  double gc_build_s = 0.0;  // content clustering
  double graph_s = 0.0;     // candidate + Gd/Gc construction
  double mcmf_s = 0.0;      // augmentation
};

struct ShardedSolveOptions {
  /// Ignored; kept only because perfbench/trace_mode.cc sets it.
  ShardExecutor executor = ShardExecutor::kInProcess;
  /// θ2 of the exchange sweep, and the candidate radius of its band; the
  /// schemes pass their θ2, so the exchange sees exactly the receiver
  /// neighbourhood the global solve would have offered these senders.
  double exchange_radius_km = 1.5;
  /// θ1 and δ of the exchange sweep (the schemes pass theirs; the defaults
  /// are RbcaerConfig's). A non-positive step makes the exchange round
  /// throw PreconditionError.
  double exchange_theta1_km = 0.5;
  double exchange_theta_step_km = 0.5;
  /// Ignored; kept only because perfbench/trace_mode.cc sets it.
  McmfStrategy exchange_strategy = McmfStrategy::kSpfa;
  /// Audit level of every exchange step.
  AuditLevel audit_level = AuditLevel::kOff;
};

struct ShardedSolveOutcome {
  /// Shard flows (in shard order) followed by exchange flows; not yet
  /// merged per pair — callers run merge_flow_entries like the unsharded
  /// path.
  std::vector<FlowEntry> flows;
  /// Per-shard results with their flows intact (diagnostics and benches).
  std::vector<ShardFlowResult> shards;
  std::vector<FlowEntry> exchange_flows;
  std::int64_t moved = 0;           // total committed, exchange included
  std::int64_t exchange_moved = 0;  // exchange round's share
  std::size_t boundary_hotspots = 0;
  /// Wall time of the exchange round (band build + candidates + sweep).
  double exchange_s = 0.0;
};

/// The per-shard solve: given a shard id, produce that shard's local flow
/// result. Called once per shard, in shard order, on the calling thread.
using ShardSolveFn = std::function<ShardFlowResult(std::uint32_t shard)>;

/// Run the sharded solve + exchange round described above. `partition` is
/// the slot's global partition; its phi values are decremented in place for
/// every committed flow. `boundary` is the mask from boundary_hotspots()
/// at the exchange radius.
[[nodiscard]] ShardedSolveOutcome solve_sharded(
    std::span<const Hotspot> hotspots, const GridIndex& index,
    HotspotPartition& partition, const ShardAssignment& assignment,
    std::span<const std::uint8_t> boundary,
    const ShardedSolveOptions& options, const ShardSolveFn& solve_shard);

}  // namespace ccdn
