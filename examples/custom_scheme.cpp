// Extending the library with a custom redirection scheme.
//
// Implements "LeastLoaded": each hotspot caches its local top videos (like
// Nearest), but requests are routed to the least-loaded hotspot within a
// radius that caches the video — a simple capacity-aware heuristic that a
// practitioner might try before adopting RBCAer. The example benchmarks it
// against the built-in schemes on the evaluation region.
//
//   ./custom_scheme [--radius=1.5] [--requests=212472]
#include <algorithm>
#include <cstdio>

#include "core/nearest_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/scheme.h"
#include "model/topsets.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/flags.h"

namespace {

using namespace ccdn;

/// Capacity-aware local routing: route to the least-loaded in-radius
/// hotspot that caches the requested video.
class LeastLoadedScheme final : public RedirectionScheme {
 public:
  explicit LeastLoadedScheme(double radius_km) : radius_km_(radius_km) {}

  [[nodiscard]] std::string name() const override { return "LeastLoaded"; }

  [[nodiscard]] SlotPlan plan_slot(const SchemeContext& context,
                                   std::span<const Request> requests,
                                   const SlotDemand& demand) override {
    const std::size_t m = context.hotspots.size();
    SlotPlan plan;
    plan.placements.resize(m);
    // Same cache policy as Nearest: local popularity.
    for (std::size_t h = 0; h < m; ++h) {
      plan.placements[h] =
          top_k_videos(demand.video_demand(static_cast<HotspotIndex>(h)),
                       context.hotspots[h].cache_capacity);
    }
    // Routing: least-loaded cache-hit within the radius.
    std::vector<std::vector<std::size_t>> neighbours(m);
    std::vector<std::uint32_t> assigned(m, 0);
    const auto homes = demand.request_home();
    plan.assignment.assign(requests.size(), kCdnServer);
    for (std::size_t r = 0; r < requests.size(); ++r) {
      auto& pool = neighbours[homes[r]];
      if (pool.empty()) {
        pool = context.hotspot_index.within_radius(
            context.hotspots[homes[r]].location, radius_km_);
      }
      std::size_t best = m;
      for (const std::size_t h : pool) {
        if (assigned[h] >= context.hotspots[h].service_capacity) continue;
        if (!std::binary_search(plan.placements[h].begin(),
                                plan.placements[h].end(),
                                requests[r].video)) {
          continue;
        }
        if (best == m || assigned[h] < assigned[best]) best = h;
      }
      if (best != m) {
        plan.assignment[r] = static_cast<HotspotIndex>(best);
        ++assigned[best];
      }
    }
    return plan;
  }

 private:
  double radius_km_;
};

}  // namespace

int main(int argc, char** argv) {
  double radius = 1.5;
  TraceConfig trace_config;
  if (!read_flags(argc, argv, [&](const Flags& flags) {
        radius = flags.get_double("radius", radius);
        trace_config.num_requests = static_cast<std::size_t>(flags.get_int(
            "requests",
            static_cast<std::int64_t>(trace_config.num_requests)));
      })) {
    return 2;
  }

  World world = generate_world(WorldConfig::evaluation_region());
  assign_uniform_capacities(world, 0.05, 0.03);
  const auto trace = generate_trace(world, trace_config);

  SimulationConfig sim_config;
  sim_config.slot_seconds = 24 * 3600;
  const Simulator simulator(world.hotspots(),
                            VideoCatalog{world.config().num_videos},
                            sim_config);

  std::printf("custom scheme demo (radius %.1f km)\n\n", radius);
  std::printf("%-14s %10s %10s %10s %10s\n", "scheme", "serving", "dist(km)",
              "repl", "cdn_load");
  NearestScheme nearest;
  LeastLoadedScheme least_loaded(radius);
  RbcaerScheme rbcaer;
  for (RedirectionScheme* scheme :
       {static_cast<RedirectionScheme*>(&nearest),
        static_cast<RedirectionScheme*>(&least_loaded),
        static_cast<RedirectionScheme*>(&rbcaer)}) {
    const auto report = simulator.run(*scheme, trace);
    std::printf("%-14s %10.3f %10.2f %10.2f %10.3f\n",
                scheme->name().c_str(), report.serving_ratio(),
                report.average_distance_km(), report.replication_cost(),
                report.cdn_server_load());
  }
  std::printf("\nAt the defaults LeastLoaded beats RBCAer on serving, "
              "distance and CDN load, the paper's combined metric, and loses "
              "only on replication: every hotspot caches its own top set, as "
              "under Nearest, while RBCAer aggregates shared content at "
              "receivers. RBCAer's redirection leaves requests at the CDN "
              "that its own placements could serve (EXPERIMENTS.md, known "
              "deviation 5).\n");
  return 0;
}
