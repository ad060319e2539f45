// Hierarchical (virtual-hotspot) RBCAer: quality and scalability (paper
// §VI closing remark / future work, building on [28]).
//
// Part 1 — quality on the evaluation region: the virtual variant should
// stay near flat RBCAer while beating Nearest.
// Part 2 — scheduling latency vs deployment size: flat RBCAer's content
// clustering is O(N²) in hotspots; the virtual variant clusters K regions
// instead, which is what makes city-scale (5K hotspot) scheduling cheap.
#include <cstdio>

#include "core/nearest_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/virtual_rbcaer_scheme.h"
#include "model/demand.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

using namespace ccdn;

void quality_table() {
  World world = generate_world(WorldConfig::evaluation_region());
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  const auto trace = generate_trace(world, trace_config);
  SimulationConfig sim_config;
  sim_config.slot_seconds = 24 * 3600;
  const Simulator simulator(world.hotspots(),
                            VideoCatalog{world.config().num_videos},
                            sim_config);

  std::printf("-- quality on the evaluation region (310 hotspots) --\n");
  std::printf("%-18s %10s %10s %10s %10s\n", "scheme", "serving", "dist(km)",
              "repl", "cdn_load");
  NearestScheme nearest;
  RbcaerScheme flat;
  VirtualRbcaerScheme virtual_scheme;
  for (RedirectionScheme* scheme :
       {static_cast<RedirectionScheme*>(&nearest),
        static_cast<RedirectionScheme*>(&flat),
        static_cast<RedirectionScheme*>(&virtual_scheme)}) {
    const auto report = simulator.run(*scheme, trace);
    std::printf("%-18s %10.3f %10.2f %10.2f %10.3f\n",
                scheme->name().c_str(), report.serving_ratio(),
                report.average_distance_km(), report.replication_cost(),
                report.cdn_server_load());
  }
}

void scaling_table(std::size_t max_flat_hotspots) {
  std::printf("\n-- per-slot scheduling latency vs deployment size --\n");
  std::printf("%-10s %16s %18s %10s\n", "hotspots", "flat RBCAer (s)",
              "virtual RBCAer (s)", "regions");
  for (const std::size_t hotspots : {310u, 1000u, 2500u, 5000u}) {
    WorldConfig config = WorldConfig::city_scale();
    config.num_hotspots = hotspots;
    World world = generate_world(config);
    assign_uniform_capacities(world, 0.05, 0.03);
    TraceConfig trace_config;
    // Keep per-hotspot load comparable across sizes.
    trace_config.num_requests = hotspots * 700;
    const auto trace = generate_trace(world, trace_config);
    const GridIndex index(world.hotspot_locations(), 0.5);
    const SchemeContext context{world.hotspots(), index,
                                VideoCatalog{world.config().num_videos},
                                kCdnDistanceKm};
    const SlotDemand demand(trace, index);

    double flat_seconds = -1.0;
    if (hotspots <= max_flat_hotspots) {
      RbcaerScheme flat;
      Stopwatch stopwatch;
      (void)flat.plan_slot(context, trace, demand);
      flat_seconds = stopwatch.elapsed_seconds();
    }
    VirtualRbcaerScheme virtual_scheme;
    Stopwatch stopwatch;
    (void)virtual_scheme.plan_slot(context, trace, demand);
    const double virtual_seconds = stopwatch.elapsed_seconds();

    if (flat_seconds >= 0.0) {
      std::printf("%-10zu %16.2f %18.2f %10zu\n", hotspots, flat_seconds,
                  virtual_seconds,
                  virtual_scheme.last_diagnostics().num_regions);
    } else {
      std::printf("%-10zu %16s %18.2f %10zu\n", hotspots, "(skipped)",
                  virtual_seconds,
                  virtual_scheme.last_diagnostics().num_regions);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  std::printf("=== hierarchical RBCAer: virtual region-hotspots ===\n\n");
  quality_table();
  scaling_table(static_cast<std::size_t>(
      flags.get_int("max_flat_hotspots", 5000)));
  std::printf("\nreading: clustering drops from O(N^2) hotspot pairs to "
              "O(K^2) region pairs, so city-scale scheduling stays cheap; "
              "and because regions balance over a wider radius (6 km "
              "between centroids vs 1.5 km between hotspots) the virtual "
              "variant can even beat flat RBCAer where overload sits "
              "further from slack than theta2.\n");
  return 0;
}
