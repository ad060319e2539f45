// Ablation study of RBCAer design choices (not a paper figure; backs the
// design decisions DESIGN.md calls out).
//
//   1. Content aggregation (Gc with flow-guide nodes) vs plain request
//      balancing (Gd only).
//   2. The θ1→θ2 sweep vs a single-shot solve at θ2.
//   3. Clustering linkage (complete vs single).
//   4. Miss redirection at a small cache.
//   5. Guide-edge cost scale.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <vector>

#include "core/rbcaer_scheme.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

using namespace ccdn;

struct Row {
  const char* label;
  RbcaerConfig config;
};

/// Runs per row. A run is deterministic, so every run prints the same
/// metrics; the time column is the median run, since one run's time
/// spreads more than the variants differ.
constexpr std::size_t kTimedRuns = 5;

void run_rows(const World& world, std::span<const Request> trace,
              std::span<const Row> rows) {
  SimulationConfig sim_config;
  sim_config.slot_seconds = 24 * 3600;
  const Simulator simulator(world.hotspots(),
                            VideoCatalog{world.config().num_videos},
                            sim_config);
  std::printf("%-28s %10s %10s %10s %10s %10s\n", "variant", "serving",
              "dist(km)", "repl", "cdn_load", "time(s)");
  for (const auto& row : rows) {
    std::vector<double> times;
    std::optional<SimulationReport> report;
    for (std::size_t run = 0; run < kTimedRuns; ++run) {
      RbcaerScheme scheme(row.config);
      Stopwatch stopwatch;
      report.emplace(simulator.run(scheme, trace));
      times.push_back(stopwatch.elapsed_seconds());
    }
    std::nth_element(times.begin(), times.begin() + kTimedRuns / 2,
                     times.end());
    std::printf("%-28s %10.3f %10.3f %10.3f %10.3f %10.3f\n", row.label,
                report->serving_ratio(), report->average_distance_km(),
                report->replication_cost(), report->cdn_server_load(),
                times[kTimedRuns / 2]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  World world = generate_world(WorldConfig::evaluation_region());
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  trace_config.num_requests = static_cast<std::size_t>(
      flags.get_int("requests", static_cast<std::int64_t>(
                                    trace_config.num_requests)));
  const auto trace = generate_trace(world, trace_config);

  std::printf("=== RBCAer ablations (capacity 5%%, cache 3%%) ===\n\n");

  {
    std::printf("-- 1. content aggregation (Gc) vs plain balancing (Gd) --\n");
    Row rows[2];
    rows[0].label = "Gc (content aggregation)";
    rows[1].label = "Gd only";
    rows[1].config.content_aggregation = false;
    run_rows(world, trace, rows);
  }

  {
    std::printf("\n-- 2. theta sweep vs single-shot theta2 --\n");
    Row rows[2];
    rows[0].label = "sweep 0.5 -> 1.5 by 0.5";
    rows[1].label = "single shot at 1.5";
    rows[1].config.theta1_km = 1.5;
    rows[1].config.delta_km = 1.5;
    run_rows(world, trace, rows);
  }

  {
    std::printf("\n-- 3. clustering linkage --\n");
    Row rows[2];
    rows[0].label = "complete (paper)";
    rows[0].config.linkage = Linkage::kComplete;
    rows[1].label = "single";
    rows[1].config.linkage = Linkage::kSingle;
    run_rows(world, trace, rows);
  }

  {
    // The effect lives at small caches, where local placement cannot cover
    // local demand; run this section at 0.7% cache.
    std::printf("\n-- 4. miss redirection (SSIII system model), cache 0.7%% "
                "--\n");
    World small_cache = world;
    assign_uniform_capacities(small_cache, 0.05, 0.007);
    Row rows[2];
    rows[0].label = "on (default)";
    rows[1].label = "off (Procedure 1 only)";
    rows[1].config.miss_redirection = false;
    run_rows(small_cache, trace, rows);
  }

  {
    std::printf("\n-- 5. guide-edge cost scale --\n");
    Row rows[3];
    rows[0].label = "scale 0.5 (favor guides)";
    rows[0].config.guide.cost_scale = 0.5;
    rows[1].label = "scale 1.0 (default)";
    rows[2].label = "scale 2.0 (avoid guides)";
    rows[2].config.guide.cost_scale = 2.0;
    run_rows(world, trace, rows);
  }
  return 0;
}
