// Fig. 3 — Cooperation potential among content hotspots (paper §II-B).
//
// (a) CDF of Spearman workload correlation over hourly series between
//     hotspot pairs closer than 5 km (paper: ~70% of pairs below 0.4).
// (b) CDF of Jaccard similarity of Top-20% content sets between nearby
//     hotspot pairs, at hotspot sample ratios 100%/50%/15%/3% (paper:
//     similarity is diverse, 0.1-0.8, and grows as hotspots get sparser).
#include <cstdio>

#include "sim/measurement.h"
#include "stats/empirical_cdf.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using namespace ccdn;
  WorldConfig world_config = WorldConfig::city_scale();
  TraceConfig trace_config;
  trace_config.num_requests = 2000000;
  std::size_t max_pairs = 30000;
  if (!read_flags(argc, argv, [&](const Flags& flags) {
        world_config.num_hotspots = static_cast<std::size_t>(flags.get_int(
            "hotspots",
            static_cast<std::int64_t>(world_config.num_hotspots)));
        trace_config.num_requests = static_cast<std::size_t>(flags.get_int(
            "requests",
            static_cast<std::int64_t>(trace_config.num_requests)));
        max_pairs = static_cast<std::size_t>(flags.get_int(
            "max_pairs", static_cast<std::int64_t>(max_pairs)));
      })) {
    return 2;
  }

  std::printf("=== Fig. 3: cooperation potential among hotspots ===\n");
  std::printf("world: %zu hotspots; trace: %zu requests / 1 day\n",
              world_config.num_hotspots, trace_config.num_requests);

  const World world = generate_world(world_config);
  const auto trace = generate_trace(world, trace_config);
  const GridIndex index(world.hotspot_locations(), 1.0);

  // --- (a) workload correlation ---
  Rng rng_a(7);
  const auto correlations =
      workload_correlations(index, trace, 5.0, 3600, max_pairs, rng_a);
  const EmpiricalCdf corr_cdf(
      std::vector<double>(correlations.begin(), correlations.end()));
  std::printf("\n-- (a) Spearman workload correlation, pairs < 5 km "
              "(%zu pairs) --\n",
              correlations.size());
  std::printf("%-12s %10s\n", "correlation", "CDF");
  for (const double x : {-0.4, -0.2, 0.0, 0.2, 0.4, 0.6, 0.8, 1.0}) {
    std::printf("%-12.1f %10.3f\n", x, corr_cdf.fraction_at_most(x));
  }
  std::printf("fraction below 0.4: %.2f (paper: ~0.70)\n",
              corr_cdf.fraction_at_most(0.4));

  // --- (b) content similarity at several sample ratios ---
  std::printf("\n-- (b) Jaccard similarity of Top-20%% sets, pairs < 5 km --\n");
  std::printf("%-12s", "similarity");
  const double ratios[] = {1.0, 0.5, 0.15, 0.03};
  const char* labels[] = {"Original", "ratio=50%", "ratio=15%", "ratio=3%"};
  std::vector<EmpiricalCdf> cdfs;
  for (const double ratio : ratios) {
    Rng rng_b(11);
    auto sims = content_similarities(world.hotspot_locations(), trace, ratio,
                                     5.0, 0.2, max_pairs, rng_b);
    if (sims.empty()) sims.push_back(0.0);
    cdfs.emplace_back(std::move(sims));
  }
  for (const char* label : labels) std::printf(" %12s", label);
  std::printf("\n");
  for (const double x : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0}) {
    std::printf("%-12.1f", x);
    for (const auto& cdf : cdfs) {
      std::printf(" %12.3f", cdf.fraction_at_most(x));
    }
    std::printf("\n");
  }
  std::printf("medians:    ");
  for (const auto& cdf : cdfs) std::printf(" %12.3f", cdf.median());
  std::printf("\npaper reference: similarity diverse (0.1-0.8); sparser "
              "deployments shift the CDF right\n");
  return 0;
}
