// Fig. 2 — Workload distribution of content hotspots (paper §II-A).
//
// City-scale measurement: route one day of requests to 5K hotspots under
// Nearest routing and Random-radius routing (1 km, 5 km) and print the
// per-hotspot workload CDFs. The paper observes a 99th-percentile workload
// ~9x the median under Nearest, and that Random routing flattens the
// distribution at the price of replication cost (+10% at 1 km, +23% at
// 5 km — reported in the §II-A text and reproduced in the second table).
#include <cstdio>

#include "sim/measurement.h"
#include "stats/empirical_cdf.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/flags.h"

namespace {

ccdn::EmpiricalCdf workload_cdf(const std::vector<std::uint32_t>& loads) {
  std::vector<double> values(loads.begin(), loads.end());
  return ccdn::EmpiricalCdf(std::move(values));
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ccdn;
  WorldConfig world_config = WorldConfig::city_scale();
  TraceConfig trace_config;
  trace_config.num_requests = 2000000;
  if (!read_flags(argc, argv, [&](const Flags& flags) {
        world_config.num_hotspots = static_cast<std::size_t>(flags.get_int(
            "hotspots",
            static_cast<std::int64_t>(world_config.num_hotspots)));
        trace_config.num_requests = static_cast<std::size_t>(flags.get_int(
            "requests",
            static_cast<std::int64_t>(trace_config.num_requests)));
      })) {
    return 2;
  }

  std::printf("=== Fig. 2: workload distribution of content hotspots ===\n");
  std::printf("world: %zu hotspots, %u videos; trace: %zu requests / 1 day\n",
              world_config.num_hotspots, world_config.num_videos,
              trace_config.num_requests);

  const World world = generate_world(world_config);
  const auto trace = generate_trace(world, trace_config);
  const GridIndex index(world.hotspot_locations(), 1.0);

  Rng rng(2024);
  const RoutedDemand nearest = route_nearest(index, trace);
  const RoutedDemand random1 =
      route_random_radius(index, trace, 1.0, rng);
  const RoutedDemand random5 =
      route_random_radius(index, trace, 5.0, rng);

  struct Series {
    const char* label;
    const RoutedDemand* routed;
  };
  const Series series[] = {{"Nearest", &nearest},
                           {"Random(1km)", &random1},
                           {"Random(5km)", &random5}};

  std::printf("\n-- workload quantiles (requests per hotspot) --\n");
  std::printf("%-14s %8s %8s %8s %8s %10s %12s\n", "strategy", "p25",
              "median", "p75", "p90", "p99", "p99/median");
  for (const auto& s : series) {
    const auto cdf = workload_cdf(s.routed->workloads);
    const double median = cdf.median();
    const double p99 = cdf.quantile(0.99);
    std::printf("%-14s %8.0f %8.0f %8.0f %8.0f %10.0f %12.1f\n", s.label,
                cdf.quantile(0.25), median, cdf.quantile(0.75),
                cdf.quantile(0.90), p99, median > 0 ? p99 / median : 0.0);
  }
  std::printf("paper reference: Nearest p99/median ~ 9x (median 504, "
              "p99 4583)\n");

  std::printf("\n-- workload CDF series (value, cumulative fraction) --\n");
  std::printf("%-10s", "workload");
  for (const auto& s : series) std::printf(" %14s", s.label);
  std::printf("\n");
  const auto nearest_cdf = workload_cdf(nearest.workloads);
  for (const double q :
       {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99}) {
    const double value = nearest_cdf.quantile(q);
    std::printf("%-10.0f", value);
    for (const auto& s : series) {
      std::printf(" %14.3f",
                  workload_cdf(s.routed->workloads).fraction_at_most(value));
    }
    std::printf("\n");
  }

  std::printf("\n-- SSII-A replication cost (cache everything requested) --\n");
  const double base = static_cast<double>(nearest.total_replication_cost());
  std::printf("%-14s %16s %12s\n", "strategy", "total replicas",
              "vs Nearest");
  for (const auto& s : series) {
    const double cost = static_cast<double>(s.routed->total_replication_cost());
    std::printf("%-14s %16.0f %+11.1f%%\n", s.label, cost,
                (cost / base - 1.0) * 100.0);
  }
  std::printf("paper reference: Random(1km) +10%%, Random(5km) +23%%\n");
  return 0;
}
