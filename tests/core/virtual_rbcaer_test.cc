#include "core/virtual_rbcaer_scheme.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/nearest_scheme.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/error.h"
#include "verify/audit.h"

namespace ccdn {
namespace {

TEST(VirtualRbcaer, ValidatesConfig) {
  VirtualRbcaerConfig config;
  config.region_km = 0.0;
  EXPECT_THROW(VirtualRbcaerScheme{config}, PreconditionError);
  config = VirtualRbcaerConfig{};
  config.regional.delta_km = 0.0;
  EXPECT_THROW(VirtualRbcaerScheme{config}, PreconditionError);
  config = VirtualRbcaerConfig{};
  config.regional.delta_km = 1e-300;
  EXPECT_THROW(VirtualRbcaerScheme{config}, PreconditionError);
  config = VirtualRbcaerConfig{};
  config.regional.theta2_km = std::numeric_limits<double>::infinity();
  EXPECT_THROW(VirtualRbcaerScheme{config}, PreconditionError);
}

/// Two dense clusters of hotspots, by default ~4 km apart: one overloaded,
/// one idle.
struct TwoClusterFixture {
  std::vector<Hotspot> hotspots;
  GridIndex index;
  VideoCatalog catalog{100};

  explicit TwoClusterFixture(double east_lon = 116.548)  // ~4.1 km east
      : hotspots([east_lon] {
          std::vector<Hotspot> h;
          for (int i = 0; i < 3; ++i) {  // west (hot) cluster
            Hotspot hs;
            hs.location = {40.050 + 0.002 * i, 116.500};
            hs.service_capacity = 4;
            hs.cache_capacity = 10;
            h.push_back(hs);
          }
          for (int i = 0; i < 3; ++i) {  // east (idle) cluster
            Hotspot hs;
            hs.location = {40.050 + 0.002 * i, east_lon};
            hs.service_capacity = 10;
            hs.cache_capacity = 10;
            h.push_back(hs);
          }
          return h;
        }()),
        index(
            [this] {
              std::vector<GeoPoint> pts;
              for (const auto& h : hotspots) pts.push_back(h.location);
              return pts;
            }(),
            0.5) {}

  SchemeContext context() const { return {hotspots, index, catalog, 20.0}; }
};

std::vector<Request> west_demand(int count) {
  std::vector<Request> requests;
  for (int i = 0; i < count; ++i) {
    Request r;
    r.video = static_cast<VideoId>(i % 4);
    r.location = {40.051, 116.500};
    requests.push_back(r);
  }
  return requests;
}

TEST(VirtualRbcaer, MovesLoadBetweenRegions) {
  TwoClusterFixture fixture;
  const auto requests = west_demand(30);  // west capacity is only 12
  const SlotDemand demand(requests, fixture.index);
  VirtualRbcaerScheme scheme;  // default 2 km cells, theta up to 6 km
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  const auto& diag = scheme.last_diagnostics();
  EXPECT_EQ(diag.num_regions, 2u);
  EXPECT_GT(diag.region_moved, 0);
  EXPECT_GT(diag.localized_redirects, 0);
  // Some requests must land on the east cluster (hotspots 3..5).
  std::size_t east = 0;
  for (const auto target : plan.assignment) {
    if (target != kCdnServer && target >= 3) ++east;
  }
  EXPECT_GT(east, 0u);
  EXPECT_TRUE(plan.respects_caches(fixture.hotspots));
}

TEST(VirtualRbcaer, FlatRbcaerCannotReachOtherClusterButVirtualCan) {
  // The clusters are ~4.1 km apart: beyond flat RBCAer's theta2 = 1.5 km
  // but within the virtual scheme's regional theta2 = 6 km. Flat RBCAer
  // may still balance *within* the west cluster, but can never assign
  // anything to the east one.
  TwoClusterFixture fixture;
  const auto requests = west_demand(30);
  const SlotDemand demand(requests, fixture.index);
  RbcaerScheme flat;
  const SlotPlan flat_plan =
      flat.plan_slot(fixture.context(), requests, demand);
  for (const auto target : flat_plan.assignment) {
    if (target != kCdnServer) {
      EXPECT_LT(target, 3u);
    }
  }
  VirtualRbcaerScheme virtual_scheme;
  const SlotPlan virtual_plan =
      virtual_scheme.plan_slot(fixture.context(), requests, demand);
  EXPECT_GT(virtual_scheme.last_diagnostics().region_moved, 0);
  EXPECT_TRUE(std::any_of(virtual_plan.assignment.begin(),
                          virtual_plan.assignment.end(),
                          [](HotspotIndex t) {
                            return t != kCdnServer && t >= 3;
                          }));
}

TEST(VirtualRbcaer, ResidualStepMovesLoadBeyondTheLastGridRadius) {
  // The region centroids sit ~5.5 km apart, and the regional grid
  // θ = 2, 3.5, 5 stops short of θ2 = 6: only the residual Gd step at θ2
  // can reach the idle region.
  TwoClusterFixture fixture(116.5645);
  const auto requests = west_demand(30);  // west capacity is only 12
  const SlotDemand demand(requests, fixture.index);
  VirtualRbcaerConfig config;
  config.regional.theta1_km = 2.0;
  config.regional.delta_km = 1.5;
  config.regional.theta2_km = 6.0;
  VirtualRbcaerScheme scheme(config);
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  const auto& diag = scheme.last_diagnostics();
  EXPECT_EQ(diag.num_regions, 2u);
  EXPECT_EQ(diag.region_max_movable, 18);
  EXPECT_EQ(diag.region_moved, 18);
  EXPECT_TRUE(std::any_of(plan.assignment.begin(), plan.assignment.end(),
                          [](HotspotIndex t) {
                            return t != kCdnServer && t >= 3;
                          }));
}

TEST(VirtualRbcaer, RedirectedAssignmentsHavePlacement) {
  TwoClusterFixture fixture;
  const auto requests = west_demand(30);
  const SlotDemand demand(requests, fixture.index);
  VirtualRbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  const auto homes = demand.request_home();
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto target = plan.assignment[r];
    if (target == kCdnServer || target == homes[r]) continue;
    EXPECT_TRUE(std::binary_search(plan.placements[target].begin(),
                                   plan.placements[target].end(),
                                   requests[r].video));
  }
}

TEST(VirtualRbcaer, ReceiversNeverOvercommitted) {
  TwoClusterFixture fixture;
  const auto requests = west_demand(60);
  const SlotDemand demand(requests, fixture.index);
  VirtualRbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  const auto homes = demand.request_home();
  std::vector<std::uint32_t> redirected(fixture.hotspots.size(), 0);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto target = plan.assignment[r];
    if (target != kCdnServer && target != homes[r]) ++redirected[target];
  }
  for (std::size_t h = 0; h < fixture.hotspots.size(); ++h) {
    EXPECT_LE(redirected[h], fixture.hotspots[h].service_capacity);
  }
}

TEST(VirtualRbcaer, BalancedLoadIsHandsOff) {
  TwoClusterFixture fixture;
  const auto requests = west_demand(10);  // fits west capacity 12
  const SlotDemand demand(requests, fixture.index);
  VirtualRbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  EXPECT_EQ(scheme.last_diagnostics().region_moved, 0);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    EXPECT_EQ(plan.assignment[r], demand.request_home()[r]);
  }
}

TEST(VirtualRbcaer, EndToEndComparableToFlatOnEvaluationWorld) {
  WorldConfig config = WorldConfig::evaluation_region();
  config.num_hotspots = 100;
  config.num_videos = 3000;
  World world = generate_world(config);
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  trace_config.num_requests = 50000;
  const auto trace = generate_trace(world, trace_config);

  SimulationConfig sim_config;
  sim_config.slot_seconds = 24 * 3600;
  const Simulator simulator(world.hotspots(),
                            VideoCatalog{config.num_videos}, sim_config);
  NearestScheme nearest;
  RbcaerScheme flat;
  VirtualRbcaerScheme virtual_scheme;
  const auto nearest_report = simulator.run(nearest, trace);
  const auto flat_report = simulator.run(flat, trace);
  const auto virtual_report = simulator.run(virtual_scheme, trace);

  // The virtual variant must clearly beat Nearest and stay within a
  // reasonable band of flat RBCAer.
  EXPECT_GT(virtual_report.serving_ratio(), nearest_report.serving_ratio());
  EXPECT_LT(virtual_report.cdn_server_load(),
            nearest_report.cdn_server_load());
  EXPECT_GT(virtual_report.serving_ratio(),
            flat_report.serving_ratio() - 0.15);
}

/// FNV-1a over a run's per-slot plan digests.
std::uint64_t fold_digests(const std::vector<SlotVerdict>& verdicts) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const SlotVerdict& verdict : verdicts) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (verdict.digest >> (8 * byte)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

TEST(VirtualRbcaer, PlansMatchPinnedDigests) {
  // Per-slot plan digests on a small, tightly loaded world (20 requests a
  // hotspot a slot), folded per configuration, as the scheme planned them
  // when it still kept its own remaining-demand and redirect maps, fill
  // order and shard sub-instance solve. The golden file pins only the 3%
  // cache with aggregation on; these add a scarce cache, aggregation off
  // and a sharded regional solve.
  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = 60;
  world_config.num_videos = 2000;
  world_config.seed = 11;
  const World base = generate_world(world_config);
  TraceConfig trace_config;
  trace_config.num_requests = 20000;
  trace_config.duration_hours = 12;
  trace_config.seed = 11;
  const auto trace = generate_trace(base, trace_config);

  struct Case {
    double cache_share;
    bool aggregation;
    std::size_t shards;
    std::uint64_t digest;
  };
  const Case cases[] = {
      {0.005, true, 0, 0xb256a1bc4a7115cfULL},
      {0.005, true, 2, 0xfaa5b1351daf3657ULL},
      {0.005, false, 0, 0x46c7da550d566852ULL},
      {0.005, false, 2, 0x266c213259737c0eULL},
      {0.03, true, 0, 0xfc86e1a40aba8542ULL},
      {0.03, true, 2, 0x7514ca32bad21163ULL},
      {0.03, false, 0, 0x0b8fc7d5f9163bb2ULL},
      {0.03, false, 2, 0xca235260e1c7e0abULL},
  };
  for (const Case& c : cases) {
    World world = base;
    assign_uniform_capacities(world, 0.01, c.cache_share);
    SimulationConfig sim_config;
    sim_config.slot_seconds = 3600;
    sim_config.audit_level = AuditLevel::kPlan;
    sim_config.num_shards = c.shards;
    const Simulator simulator(world.hotspots(),
                              VideoCatalog{world_config.num_videos},
                              sim_config);
    VirtualRbcaerConfig config;
    config.regional.content_aggregation = c.aggregation;
    VirtualRbcaerScheme scheme(config);
    const SimulationReport report = simulator.run(scheme, trace);
    ASSERT_EQ(report.verdicts().size(), 12u);
    EXPECT_EQ(fold_digests(report.verdicts()), c.digest)
        << "cache " << c.cache_share << ", aggregation " << c.aggregation
        << ", shards " << c.shards;
  }
}

}  // namespace
}  // namespace ccdn
