#include "core/virtual_rbcaer_scheme.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/nearest_scheme.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/error.h"

namespace ccdn {
namespace {

TEST(VirtualRbcaer, ValidatesConfig) {
  VirtualRbcaerConfig config;
  config.region_km = 0.0;
  EXPECT_THROW(VirtualRbcaerScheme{config}, PreconditionError);
  config = VirtualRbcaerConfig{};
  config.regional.delta_km = 0.0;
  EXPECT_THROW(VirtualRbcaerScheme{config}, PreconditionError);
}

/// Two dense clusters of hotspots ~4 km apart: one overloaded, one idle.
struct TwoClusterFixture {
  std::vector<Hotspot> hotspots;
  GridIndex index;
  VideoCatalog catalog{100};

  TwoClusterFixture()
      : hotspots([] {
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
            hs.location = {40.050 + 0.002 * i, 116.548};  // ~4.1 km east
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

}  // namespace
}  // namespace ccdn
