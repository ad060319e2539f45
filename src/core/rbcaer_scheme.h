// RBCAer: Request Balancing and Content Aggregation (paper Algorithm 1).
//
// Per slot:
//   1. Aggregate requests at nearest hotspots (done upstream in SlotDemand);
//      split hotspots into overloaded H_s and under-utilized H_t with
//      movable slack φ_i = |s_i − λ_i|.
//   2. Cluster hotspots by content distance Jd = 1 − Jaccard(Top-20% sets),
//      complete linkage, cut at 0.5.
//   3. Sweep θ from θ1 to θ2 in steps of δd; at each step solve MCMF on the
//      content-aggregation graph Gc(θ) and accumulate the flows f_ij,
//      shrinking φ as load moves.
//   4. Balance any residual movable load on the plain distance graph Gd(θ2);
//      whatever still exceeds capacity is left to the CDN.
//   5. Procedure 1 turns the f_ij into per-video redirections and replica
//      placements under the cache sizes and the replication budget B_peak.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cluster/hierarchical.h"
#include "core/balance_graph.h"
#include "core/scheme.h"
#include "core/shard_solver.h"
#include "core/theta_sweep.h"
#include "flow/mcmf.h"
#include "geo/zone_partition.h"
#include "verify/audit.h"

namespace ccdn {

struct RbcaerConfig {
  double theta1_km = 0.5;  // initial collaboration radius
  double theta2_km = 1.5;  // maximum collaboration radius
  double delta_km = 0.5;   // θ sweep step
  /// Dendrogram cut for the content clustering (paper: Jd <= 0.5).
  double content_cluster_threshold = 0.5;
  /// Fraction of each hotspot's distinct videos forming its content set.
  double top_fraction = 0.2;
  Linkage linkage = Linkage::kComplete;
  GuideOptions guide;
  /// B_peak = bpeak_multiplier x (requests in the slot), in replica units.
  double bpeak_multiplier = 1.0;
  /// Ablation switch: false solves plain Gd only (no guide nodes).
  bool content_aggregation = true;
  /// Ignored; kept only because perfbench/trace_mode.cc reads it.
  bool bitmap_jaccard = true;
  /// Ignored; kept only because perfbench/trace_mode.cc reads it. The Jd
  /// kernels are chosen from cpuid (DESIGN.md §3.14).
  SimdMode simd = SimdMode::kAuto;
  /// Ignored; kept only because perfbench/trace_mode.cc assigns it.
  std::size_t jd_threads = 1;
  /// Paper §III system model: "if the requested video is present in the
  /// suitable content hotspots, the request is scheduled to be served
  /// immediately". After the balancing redirections, requests whose home
  /// hotspot does not cache their video are rerouted to the nearest
  /// in-radius (θ2) hotspot that does and still has capacity, instead of
  /// falling straight through to the CDN. Disable for the strict
  /// Procedure-1-only behaviour.
  bool miss_redirection = true;
  /// Ignored; kept only because perfbench/trace_mode.cc reads it.
  McmfStrategy mcmf_strategy = McmfStrategy::kSpfa;
  /// Ignored; kept only because perfbench/trace_mode.cc reads it.
  bool integer_costs = false;
  /// Ignored; kept only because perfbench/trace_mode.cc reads it.
  double cost_scale = 0.0;
  /// Ignored; kept only because perfbench/trace_mode.cc assigns it.
  bool online = false;
  /// Invariant auditing of the planning pipeline (checked builds only;
  /// compiled out under NDEBUG). kPlan audits the slot's flows against the
  /// initial slack, Procedure 1's result against B_peak, and the finished
  /// plan's totality/capacity; kFull additionally certifies every θ step's
  /// solved graph (flow conservation, min cost: no negative residual cycle).
  /// Violations throw InvariantError naming the invariant (DESIGN.md §3.8).
  AuditLevel audit_level = AuditLevel::kOff;
  /// Zone-sharded parallel flow solve (DESIGN.md §3.12). 0 inherits
  /// SchemeContext::num_shards (itself 0 by default = classic unsharded
  /// planning); 1 runs the sharded orchestration with a single shard, which
  /// is bit-identical to the unsharded path; >= 2 partitions the hotspots
  /// into that many geo zones, solves each zone independently, and
  /// reconciles boundary residuals with one cross-shard exchange round.
  /// Values above the hotspot count are clamped.
  std::size_t num_shards = 0;
};

/// Algorithm 1's flow phase under `config` on one hotspot set: the
/// candidate edges within θ2 (radius queries against `index`, a GridIndex
/// over `hotspots` in the same order), then theta_sweep on the config's θ
/// grid, guide options and audit level — over Gd only when
/// content_aggregation is off. `graph_s` includes the candidate query.
/// RbcaerScheme runs it on the slot and on every shard, VirtualRbcaerScheme
/// on its regions, so shard=1 plans stay bit-identical to unsharded ones.
[[nodiscard]] SweepOutcome run_theta_sweep(
    const RbcaerConfig& config, std::span<const Hotspot> hotspots,
    const GridIndex& index, HotspotPartition& partition,
    std::int64_t max_movable, std::span<const std::uint32_t> cluster_of);

/// Algorithm 1's content clustering under `config`: each hotspot's top
/// set, the Jd cut graph at the threshold, and the linkage cut there.
[[nodiscard]] ClusteringResult content_clusters(const RbcaerConfig& config,
                                                const SlotDemand& demand);

/// The sub-instance of one shard: its member hotspots (global ids,
/// ascending) in member order, their λ_hv rows and its own partition. The
/// member loads are the global ones, so its slack is the global slack
/// restricted to the shard.
struct ShardInstance {
  std::span<const std::uint32_t> members;
  std::vector<Hotspot> hotspots;
  SlotDemand demand;
  HotspotPartition partition;
};

[[nodiscard]] ShardInstance shard_instance(
    std::span<const Hotspot> hotspots, const SlotDemand& demand,
    std::span<const std::uint32_t> members);

/// A shard's flow phase: run_theta_sweep over a grid of the members, with
/// `cluster_of` labelling them, and the flows mapped back to global ids.
/// The grid's cell size changes only query speed, not the candidates or
/// their order (candidate_edges applies the exact distance cut and sorts
/// receivers by index), so it is the simulator's 0.5 km for every caller.
[[nodiscard]] ShardFlowResult sweep_shard(
    const RbcaerConfig& config, ShardInstance& shard,
    std::span<const std::uint32_t> cluster_of);

/// The geo zone plan of one hotspot set, and the sharded solve over it
/// (DESIGN.md §3.12). RbcaerScheme keeps one over its hotspots,
/// VirtualRbcaerScheme one over its region centroids.
class ShardPlanCache {
 public:
  /// solve_sharded over `hotspots` cut into `num_shards` zones, with the
  /// exchange round on config's θ1, δ, θ2 and audit level. `index` is a
  /// GridIndex over `hotspots`; `solve_zone` solves one zone, given its
  /// member ids. The zones and the boundary mask at θ2 are recomputed only
  /// when the shard count or the hotspot locations change: a run's
  /// geometry is fixed across its slots.
  [[nodiscard]] ShardedSolveOutcome solve(
      const RbcaerConfig& config, std::span<const Hotspot> hotspots,
      const GridIndex& index, HotspotPartition& partition,
      std::size_t num_shards,
      const std::function<ShardFlowResult(std::span<const std::uint32_t>)>&
          solve_zone);

 private:
  std::size_t num_shards_ = 0;
  std::vector<GeoPoint> locations_;  // the hotspot set the zones cover
  ShardAssignment assignment_;
  std::vector<std::uint8_t> boundary_;
};

class RbcaerScheme final : public RedirectionScheme {
 public:
  explicit RbcaerScheme(RbcaerConfig config = {});

  [[nodiscard]] std::string name() const override;

  [[nodiscard]] SlotPlan plan_slot(const SchemeContext& context,
                                   std::span<const Request> requests,
                                   const SlotDemand& demand) override;

  /// Planning is a pure function of the slot inputs, so clones produce the
  /// same plans and the simulator may fan slots out across threads.
  [[nodiscard]] SchemePtr clone() const override {
    return std::make_unique<RbcaerScheme>(config_);
  }

  [[nodiscard]] bool plans_within_capacity() const override { return true; }

  [[nodiscard]] const StageTimings* last_stage_timings() const override {
    return &stage_timings_;
  }

  /// Introspection for tests, benches, and the θ-influence experiment.
  struct Diagnostics {
    std::int64_t max_movable = 0;   // maxflow in Algorithm 1
    std::int64_t moved = 0;         // Σ f_ij actually routed
    std::int64_t redirected = 0;    // units realized by Procedure 1
    std::size_t num_clusters = 0;
    std::size_t guide_nodes = 0;    // across all θ iterations
    std::size_t theta_iterations = 0;
    std::size_t replicas = 0;
    std::size_t miss_rerouted = 0;  // local cache misses sent to neighbours
    /// Sharded-path observability; all zero when the slot ran unsharded.
    std::size_t shards = 0;
    std::size_t boundary_hotspots = 0;
    std::int64_t exchange_moved = 0;  // units committed by the exchange round
    double shard_wall_s = 0.0;        // shard loop (every shard in turn)
    double exchange_s = 0.0;          // exchange arc build + solve + commit
    /// Always 0; kept only because perfbench/trace_mode.cc reads it.
    std::size_t fork_demotions = 0;
    std::vector<double> shard_flow_s;  // per shard: graph_s + mcmf_s
  };
  [[nodiscard]] const Diagnostics& last_diagnostics() const noexcept {
    return diagnostics_;
  }

  [[nodiscard]] const RbcaerConfig& config() const noexcept { return config_; }

 private:
  void redirect_local_misses(const SchemeContext& context,
                             std::span<const Request> requests,
                             const SlotDemand& demand, SlotPlan& plan) const;

  /// Sharded replacement for the clustering + flow phases: partition the
  /// hotspots into `num_shards` geo zones, cluster and sweep each zone's
  /// sub-instance, and return the committed flows in global ids.
  [[nodiscard]] std::vector<FlowEntry> plan_shard_flows(
      const SchemeContext& context, const SlotDemand& demand,
      HotspotPartition& partition, std::size_t num_shards);

  RbcaerConfig config_;
  mutable Diagnostics diagnostics_;
  StageTimings stage_timings_;
  ShardPlanCache shard_plan_;
};

}  // namespace ccdn
