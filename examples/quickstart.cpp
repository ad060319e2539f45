// Quickstart: generate a small synthetic crowdsourced-CDN world, run the
// three redirection schemes over one scheduling epoch, and print the four
// paper metrics side by side.
//
//   ./quickstart [--hotspots=60] [--requests=20000] [--seed=42]
#include <cstdio>

#include "core/nearest_scheme.h"
#include "core/random_scheme.h"
#include "core/rbcaer_scheme.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ccdn;
  // 1. Build a world: hotspot deployment + demand geography.
  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = 60;
  world_config.num_videos = 3000;
  world_config.num_zones = 10;
  world_config.seed = 42;
  TraceConfig trace_config;
  trace_config.num_requests = 8000;
  // Every flag is read before any work: an unknown flag or a malformed
  // value exits 2 naming it.
  if (!read_flags(argc, argv, [&](const Flags& flags) {
        world_config.num_hotspots = static_cast<std::size_t>(flags.get_int(
            "hotspots", static_cast<std::int64_t>(world_config.num_hotspots)));
        world_config.seed = static_cast<std::uint64_t>(flags.get_int(
            "seed", static_cast<std::int64_t>(world_config.seed)));
        trace_config.num_requests = static_cast<std::size_t>(flags.get_int(
            "requests",
            static_cast<std::int64_t>(trace_config.num_requests)));
      })) {
    return 2;
  }
  World world = generate_world(world_config);

  // Capacities as fractions of the catalog (the paper's defaults:
  // service 5%, cache 3%).
  assign_uniform_capacities(world, /*service_fraction=*/0.05,
                            /*cache_fraction=*/0.03);

  // 2. Draw a day of session requests.
  const std::vector<Request> trace = generate_trace(world, trace_config);

  // 3. One scheduling epoch over the whole day.
  SimulationConfig sim_config;
  sim_config.slot_seconds = 24 * 3600;
  const Simulator simulator(world.hotspots(),
                            VideoCatalog{world.config().num_videos},
                            sim_config);

  NearestScheme nearest;
  RandomScheme random_scheme(/*radius_km=*/1.5);
  RbcaerScheme rbcaer;

  std::printf("%-18s %14s %14s %14s %14s\n", "scheme", "serving_ratio",
              "avg_dist_km", "repl_cost", "cdn_load");
  for (RedirectionScheme* scheme :
       {static_cast<RedirectionScheme*>(&nearest),
        static_cast<RedirectionScheme*>(&random_scheme),
        static_cast<RedirectionScheme*>(&rbcaer)}) {
    const SimulationReport report = simulator.run(*scheme, trace);
    std::printf("%-18s %14.3f %14.3f %14.3f %14.3f\n",
                scheme->name().c_str(), report.serving_ratio(),
                report.average_distance_km(), report.replication_cost(),
                report.cdn_server_load());
  }

  const auto& diag = rbcaer.last_diagnostics();
  std::printf("\nRBCAer diagnostics: movable=%lld moved=%lld redirected=%lld "
              "clusters=%zu guide_nodes=%zu replicas=%zu\n",
              static_cast<long long>(diag.max_movable),
              static_cast<long long>(diag.moved),
              static_cast<long long>(diag.redirected), diag.num_clusters,
              diag.guide_nodes, diag.replicas);
  return 0;
}
