// Randomized stress sweep over RBCAer and the simulator: for many random
// worlds, capacities, and trace shapes, the full pipeline must uphold its
// invariants — no crashes, feasible plans, sane metrics, and never doing
// worse than the no-coordination baseline on the combined CDN-load metric
// by more than noise.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "core/nearest_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/virtual_rbcaer_scheme.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"

namespace ccdn {
namespace {

struct StressCase {
  std::uint64_t seed;
  std::size_t hotspots;
  std::uint32_t videos;
  std::size_t requests;
  double capacity_fraction;
  double cache_fraction;
};

std::ostream& operator<<(std::ostream& out, const StressCase& c) {
  return out << "h" << c.hotspots << "_v" << c.videos << "_r" << c.requests
             << "_cap" << c.capacity_fraction << "_cache" << c.cache_fraction;
}

class RbcaerStress : public ::testing::TestWithParam<StressCase> {};

TEST_P(RbcaerStress, PipelineInvariantsHold) {
  const StressCase& p = GetParam();
  WorldConfig config = WorldConfig::evaluation_region();
  config.seed = p.seed;
  config.num_hotspots = p.hotspots;
  config.num_videos = p.videos;
  World world = generate_world(config);
  assign_uniform_capacities(world, p.capacity_fraction, p.cache_fraction);
  TraceConfig trace_config;
  trace_config.seed = p.seed + 1;
  trace_config.num_requests = p.requests;
  const auto trace = generate_trace(world, trace_config);

  SimulationConfig sim_config;
  sim_config.slot_seconds = 24 * 3600;
  sim_config.record_hotspot_loads = true;
  const Simulator simulator(world.hotspots(),
                            VideoCatalog{config.num_videos}, sim_config);

  RbcaerScheme rbcaer;
  const auto report = simulator.run(rbcaer, trace);

  // Metric sanity.
  EXPECT_EQ(report.total_requests(), trace.size());
  EXPECT_GE(report.serving_ratio(), 0.0);
  EXPECT_LE(report.serving_ratio(), 1.0);
  EXPECT_GE(report.average_distance_km(), 0.0);
  EXPECT_LE(report.average_distance_km(), kCdnDistanceKm + 1e-9);
  EXPECT_GE(report.replication_cost(), 0.0);

  // Admission respected capacities everywhere.
  for (const auto& loads : report.hotspot_loads()) {
    for (std::size_t h = 0; h < loads.size(); ++h) {
      EXPECT_LE(loads[h], world.hotspots()[h].service_capacity);
    }
  }

  // Scheduler-internal accounting is consistent.
  const auto& diag = rbcaer.last_diagnostics();
  EXPECT_LE(diag.moved, diag.max_movable);
  EXPECT_LE(diag.redirected, diag.moved);

  // Coordination never loses to no-coordination on the combined metric
  // (allow 2% slack for heuristic noise).
  NearestScheme nearest;
  const auto baseline = simulator.run(nearest, trace);
  EXPECT_LE(report.cdn_server_load(),
            baseline.cdn_server_load() * 1.02 + 1e-9);

  // The virtual variant obeys the same feasibility invariants.
  VirtualRbcaerScheme virtual_scheme;
  const auto virtual_report = simulator.run(virtual_scheme, trace);
  EXPECT_EQ(virtual_report.total_requests(), trace.size());
  for (const auto& loads : virtual_report.hotspot_loads()) {
    for (std::size_t h = 0; h < loads.size(); ++h) {
      EXPECT_LE(loads[h], world.hotspots()[h].service_capacity);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorlds, RbcaerStress,
    ::testing::Values(
        // Baseline-ish shape.
        StressCase{11, 60, 2000, 30000, 0.05, 0.03},
        // Starved capacity: everything overloaded.
        StressCase{12, 40, 1500, 40000, 0.005, 0.03},
        // Abundant capacity: nothing overloaded.
        StressCase{13, 40, 1500, 5000, 0.5, 0.1},
        // Tiny caches.
        StressCase{14, 50, 2500, 25000, 0.05, 0.002},
        // Huge caches.
        StressCase{15, 50, 1000, 25000, 0.05, 0.5},
        // Few hotspots, heavy load.
        StressCase{16, 8, 800, 20000, 0.08, 0.05},
        // Many hotspots, light load.
        StressCase{17, 200, 3000, 15000, 0.02, 0.02},
        // Tiny catalog (lots of demand overlap).
        StressCase{18, 60, 50, 30000, 0.05, 0.2},
        // Single-video degenerate catalog... almost.
        StressCase{19, 30, 2, 5000, 0.1, 0.5},
        // Very small trace.
        StressCase{20, 60, 2000, 50, 0.05, 0.03}),
    [](const ::testing::TestParamInfo<StressCase>& param_info) {
      return "seed" + std::to_string(param_info.param.seed);
    });

}  // namespace
}  // namespace ccdn
