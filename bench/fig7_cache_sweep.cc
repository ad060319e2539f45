// Fig. 7 — Performance vs. hotspot cache size (paper §V-B.2).
//
// Sweep c_h over {0.5%, 0.7%, 0.9%, 1%, 3%, 5%} of the video-set size with
// s_h fixed at 5%, over the full evaluation-region trace.
//
// Paper reference points: RBCAer reaches a 0.7 serving ratio with only
// ~0.67% cache (vs 2% Random, 3% Nearest); average distance is ~50% below
// the baselines; CDN load dips around cache = 1% where RBCAer reaches
// ~0.425 (21%/17% below Nearest/Random) and rises again as replication
// outpaces the extra served requests.
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

  std::printf("=== Fig. 7: impact of cache size (capacity fixed at 5%%) "
              "===\n");
  std::printf("region: 310 hotspots, %u videos, %zu requests\n",
              world.config().num_videos, trace.size());

  const auto schemes = bench::paper_schemes();
  SweepConfig config;
  config.swept_fractions = {0.005, 0.007, 0.009, 0.01, 0.03, 0.05};
  config.fixed_fraction = 0.05;  // service capacity
  config.simulation.slot_seconds = 24 * 3600;
  const auto points = run_cache_sweep(world, trace, schemes, config);

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    write_sweep_csv(csv, points);
    std::printf("wrote %s\n", csv_path.c_str());
  }

  bench::print_metric_table("(a) hotspot serving ratio", points, schemes,
                            &SweepPoint::serving_ratio, "cache");
  bench::print_metric_table("(b) average content access distance (km)",
                            points, schemes,
                            &SweepPoint::average_distance_km, "cache");
  bench::print_metric_table(
      "(c) content replication cost (x video set size)", points, schemes,
      &SweepPoint::replication_cost, "cache");
  bench::print_metric_table("(d) CDN server load (normalized)", points,
                            schemes, &SweepPoint::cdn_server_load, "cache");

  // Where does each scheme first reach a 0.7 serving ratio?
  std::printf("\ncache needed for serving ratio >= 0.7 (paper: RBCAer "
              "0.67%%, Random 2%%, Nearest 3%%):\n");
  for (std::size_t s = 0; s < schemes.size(); ++s) {
    double needed = -1.0;
    for (std::size_t i = 0; i < points.size(); i += schemes.size()) {
      if (points[i + s].serving_ratio >= 0.7) {
        needed = points[i + s].parameter;
        break;
      }
    }
    if (needed >= 0.0) {
      std::printf("  %-8s first reaches 0.7 at cache = %.1f%%\n",
                  schemes[s].label.c_str(), needed * 100.0);
    } else {
      std::printf("  %-8s never reaches 0.7 in this sweep\n",
                  schemes[s].label.c_str());
    }
  }
  return 0;
}
