// Hierarchical RBCAer over virtual region-hotspots (paper §VI, closing
// remark: "if we aggregate all hotspots in each region to a virtual
// hotspot, RBCAer could be used to make cross-region cooperation to further
// increase the algorithm scalability", building on the region-partition
// work [28]).
//
// Per slot:
//   1. Partition hotspots into spatial regions, one uniform grid of
//      `region_km` cells ([28]'s latency/replication-aware partitioning is
//      approximated by geography, which is its dominant term).
//   2. Aggregate each region into a *virtual hotspot* (summed capacities,
//      summed demand, centroid location) and run the RBCAer core —
//      clustering, Gc, θ-sweep MCMF, Procedure 1 — on the K virtual
//      hotspots instead of the N physical ones. Clustering drops from
//      O(N²) to O(K²) pairs, the flow graphs shrink accordingly. Every
//      piece is the flat scheme's: run_theta_sweep (residual Gd pass at θ2
//      included), and when sharded its zone plan cache, shard sub-instance
//      and shard sweep, with the global region clusters as the shard's
//      labels.
//   3. Localize the region-level decisions: inbound redirected demand is
//      spread over member hotspots with slack (placing the videos there);
//      outbound quotas are drawn from the overloaded members; local demand
//      fills caches in Procedure 1's fill order under the same
//      serviceability cap as flat RBCAer. The pass drains Procedure 1's
//      remaining-demand table and logs into its redirect log, both built
//      on the physical slot demand.
//
// The price is granularity: balancing *within* a region only happens
// implicitly through the localization pass, so flat RBCAer stays slightly
// ahead on quality while the virtual variant scales to city-sized
// deployments (see bench/hierarchical_scalability's per-slot latency table).
#pragma once

#include "core/rbcaer_scheme.h"

namespace ccdn {

struct VirtualRbcaerConfig {
  /// Edge length of a region's square grid cell.
  double region_km = 2.0;
  /// Parameters for the region-level RBCAer core. θ values are in km
  /// between region centroids, so they default wider than the flat
  /// scheme's.
  RbcaerConfig regional = default_regional_config();

  [[nodiscard]] static constexpr RbcaerConfig default_regional_config() {
    RbcaerConfig config;
    config.theta1_km = 2.0;
    config.theta2_km = 6.0;
    config.delta_km = 2.0;
    return config;
  }
};

class VirtualRbcaerScheme final : public RedirectionScheme {
 public:
  explicit VirtualRbcaerScheme(VirtualRbcaerConfig config = {});

  [[nodiscard]] std::string name() const override { return "RBCAer(virtual)"; }

  [[nodiscard]] SlotPlan plan_slot(const SchemeContext& context,
                                   std::span<const Request> requests,
                                   const SlotDemand& demand) override;

  [[nodiscard]] SchemePtr clone() const override {
    return std::make_unique<VirtualRbcaerScheme>(config_);
  }

  [[nodiscard]] bool plans_within_capacity() const override { return true; }

  struct Diagnostics {
    std::size_t num_regions = 0;
    std::int64_t region_max_movable = 0;
    std::int64_t region_moved = 0;
    std::int64_t localized_redirects = 0;
    /// Sharded regional solve (regional.num_shards / context.num_shards);
    /// zero when the region sweep ran unsharded.
    std::size_t shards = 0;
    std::size_t boundary_regions = 0;
    std::int64_t exchange_moved = 0;
  };
  [[nodiscard]] const Diagnostics& last_diagnostics() const noexcept {
    return diagnostics_;
  }

 private:
  VirtualRbcaerConfig config_;
  Diagnostics diagnostics_;
  ShardPlanCache shard_plan_;  // over the region centroids
};

}  // namespace ccdn
