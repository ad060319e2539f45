// Fig. 6 — Performance vs. hotspot service capacity (paper §V-B.1).
//
// Sweep s_h from 2% to 7% of the video-set size with c_h fixed at 3%, over
// the full evaluation-region trace, and report the paper's four metrics
// for RBCAer / Nearest / Random(1.5 km).
//
// Paper reference points (capacity 5%): RBCAer cuts average content access
// distance by ~42% vs both baselines, reduces CDN server load to ~0.47
// (~22% below the baselines' ~0.60), and holds the lowest replication cost,
// while the serving-ratio gap grows with capacity (up to ~12%).
#include <cstdio>
#include <fstream>

#include "sweep_common.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ccdn;
  TraceConfig trace_config;
  std::string csv_path;
  if (!read_flags(argc, argv, [&](const Flags& flags) {
        trace_config.num_requests = static_cast<std::size_t>(flags.get_int(
            "requests",
            static_cast<std::int64_t>(trace_config.num_requests)));
        csv_path = flags.get_string("csv", "");
      })) {
    return 2;
  }
  const World world = generate_world(WorldConfig::evaluation_region());
  const auto trace = generate_trace(world, trace_config);

  std::printf("=== Fig. 6: impact of service capacity (cache fixed at 3%%) "
              "===\n");
  std::printf("region: 310 hotspots, %u videos, %zu requests\n",
              world.config().num_videos, trace.size());

  const auto schemes = bench::paper_schemes();
  SweepConfig config;
  config.swept_fractions = {0.02, 0.03, 0.04, 0.05, 0.06, 0.07};
  config.fixed_fraction = 0.03;  // cache
  config.simulation.slot_seconds = 24 * 3600;
  const auto points = run_capacity_sweep(world, trace, schemes, config);

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    write_sweep_csv(csv, points);
    std::printf("wrote %s\n", csv_path.c_str());
  }

  bench::print_metric_table("(a) hotspot serving ratio", points, schemes,
                            &SweepPoint::serving_ratio, "capacity");
  bench::print_metric_table("(b) average content access distance (km)",
                            points, schemes,
                            &SweepPoint::average_distance_km, "capacity");
  bench::print_metric_table(
      "(c) content replication cost (x video set size)", points, schemes,
      &SweepPoint::replication_cost, "capacity");
  bench::print_metric_table("(d) CDN server load (normalized)", points,
                            schemes, &SweepPoint::cdn_server_load,
                            "capacity");

  // Headline comparisons at the paper's 5% operating point.
  for (std::size_t i = 0; i < points.size(); i += schemes.size()) {
    if (points[i].parameter != 0.05) continue;
    const auto& rbcaer = points[i];
    const auto& nearest = points[i + 1];
    std::printf("\nat capacity 5%%: distance -%.0f%% vs Nearest (paper ~42%%),"
                " CDN load %.2f vs %.2f (paper 0.47 vs 0.60)\n",
                (1.0 - rbcaer.average_distance_km /
                           nearest.average_distance_km) *
                    100.0,
                rbcaer.cdn_server_load, nearest.cdn_server_load);
  }
  return 0;
}
