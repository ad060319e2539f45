// Fig. 9 — Influence of the collaboration radius θ (paper §V-C).
//
// For the evaluation-region instance, sweep θ from 0 to 7.5 km and report
// (i) the number of Gd edges as a fraction of |V|^2 and (ii) the achievable
// max flow as a fraction of `maxflow` = min(Σφ_s, Σφ_t).
//
// Paper reference: θ = 1.5 km already moves ~50% of maxflow; θ = 7.5 km
// reaches 100% with only ~11% of the |V|^2 possible edges, which is why
// restricting cooperation to a nearby region keeps MCMF cheap.
#include <cstdio>

#include "core/balance_graph.h"
#include "flow/dinic.h"
#include "model/demand.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ccdn;
  const Flags flags(argc, argv);
  World world = generate_world(WorldConfig::evaluation_region());
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  const auto trace = generate_trace(world, trace_config);

  const GridIndex index(world.hotspot_locations(), 0.5);
  const SlotDemand demand(trace, index);
  std::vector<std::uint32_t> loads(world.hotspots().size());
  for (std::size_t h = 0; h < loads.size(); ++h) {
    loads[h] = demand.load(static_cast<HotspotIndex>(h));
  }
  const HotspotPartition partition =
      HotspotPartition::from_loads(world.hotspots(), loads);
  const std::int64_t max_movable = partition.max_movable();
  const double v_squared =
      static_cast<double>(world.hotspots().size()) *
      static_cast<double>(world.hotspots().size());
  const auto candidates =
      candidate_edges(world.hotspots(), partition, 1e9, index);

  std::printf("=== Fig. 9: influence of the collaboration radius theta ===\n");
  std::printf("|V| = %zu hotspots; overloaded %zu, under-utilized %zu; "
              "maxflow = %lld requests\n\n",
              world.hotspots().size(), partition.overloaded.size(),
              partition.underutilized.size(),
              static_cast<long long>(max_movable));
  std::printf("%-10s %14s %16s\n", "theta(km)", "% of |V|^2",
              "% of maxflow");
  for (double theta = 0.0; theta <= 7.51; theta += 0.75) {
    HotspotPartition working = partition;
    BalanceGraph graph = build_gd(working, candidates, theta);
    const std::size_t edges = graph.pair_edges.size();
    const std::int64_t flow =
        Dinic::solve(graph.net, graph.source, graph.sink);
    std::printf("%-10.2f %13.1f%% %15.1f%%\n", theta,
                100.0 * static_cast<double>(edges) / v_squared,
                max_movable > 0
                    ? 100.0 * static_cast<double>(flow) /
                          static_cast<double>(max_movable)
                    : 0.0);
  }
  std::printf("\npaper reference: (1.5 km, ~50%% of maxflow); "
              "(7.5 km, 100%% flow at ~11%% of |V|^2 edges)\n");
  return 0;
}
