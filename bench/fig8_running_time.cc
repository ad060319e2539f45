// Fig. 8 — Running-time comparison of scheduling algorithms (paper §V-D).
//
// The paper times four deciders: straightforwardly solving the LP
// relaxation of (U) (GLPK on a 10K-request sample: >2.4 h), RBCAer (~35 s
// on the full region), and the Nearest/Random heuristics (sub-second).
// Absolute numbers depend on hardware and solver; the *shape* is the
// result: LP-based is orders of magnitude slower than RBCAer, which is
// itself heavier than the trivial heuristics but easily fast enough for
// per-slot scheduling.
//
// Our dense simplex is run on a (configurable) sampled sub-instance, just
// like the paper sampled for GLPK; its time is reported alongside the
// sample size so the gap is interpretable.
//
// Beyond the paper's figure, this binary also reports (a) the per-stage
// wall-clock breakdown of the RBCAer pipeline (demand aggregation,
// partition+clustering, graph build, MCMF, replication, admission) and
// (b) the thread-scaling curve of the parallel slot-scheduling pipeline on
// an hourly multi-slot trace.
//
//   fig8_running_time [--lp_requests=500] [--lp_hotspots=15]
//                     [--max_threads=max(4, hardware threads)]
#include <algorithm>
#include <cstdio>
#include <vector>

#include "core/lp_scheme.h"
#include "core/nearest_scheme.h"
#include "core/random_scheme.h"
#include "core/rbcaer_scheme.h"
#include "model/demand.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "verify/schedule_audit.h"

namespace {

using namespace ccdn;

double time_scheme(RedirectionScheme& scheme, const SchemeContext& context,
                   std::span<const Request> requests,
                   const SlotDemand& demand) {
  Stopwatch stopwatch;
  (void)scheme.plan_slot(context, requests, demand);
  return stopwatch.elapsed_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t lp_requests = 500;
  std::size_t lp_hotspots = 15;
  // Always sweep up to at least 4 threads so the curve (and the determinism
  // cross-check) is exercised even on small machines; speedup > 1 naturally
  // needs the cores to back it up.
  std::size_t max_threads =
      std::max<std::size_t>(4, ThreadPool::default_threads());
  if (!read_flags(argc, argv, [&](const Flags& flags) {
        lp_requests = static_cast<std::size_t>(flags.get_int(
            "lp_requests", static_cast<std::int64_t>(lp_requests)));
        lp_hotspots = static_cast<std::size_t>(flags.get_int(
            "lp_hotspots", static_cast<std::int64_t>(lp_hotspots)));
        max_threads = static_cast<std::size_t>(flags.get_int(
            "max_threads", static_cast<std::int64_t>(max_threads)));
      })) {
    return 2;
  }

  World world = generate_world(WorldConfig::evaluation_region());
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  const auto trace = generate_trace(world, trace_config);

  std::printf("=== Fig. 8: running time of scheduling algorithms ===\n");
  std::printf("full instance: %zu hotspots, %zu requests\n",
              world.hotspots().size(), trace.size());

  const GridIndex index(world.hotspot_locations(), 0.5);
  const SchemeContext context{world.hotspots(), index,
                              VideoCatalog{world.config().num_videos},
                              kCdnDistanceKm};
  const SlotDemand demand(trace, index);

  std::printf("\n%-12s %14s %26s\n", "algorithm", "time (s)", "instance");

  NearestScheme nearest;
  std::printf("%-12s %14.3f %26s\n", "Nearest",
              time_scheme(nearest, context, trace, demand), "full region");

  RandomScheme random_scheme(1.5);
  std::printf("%-12s %14.3f %26s\n", "Random",
              time_scheme(random_scheme, context, trace, demand),
              "full region");

  RbcaerScheme rbcaer;
  std::printf("%-12s %14.3f %26s\n", "RBCAer",
              time_scheme(rbcaer, context, trace, demand), "full region");

  // LP-based on a sampled sub-instance (the paper sampled 10K requests for
  // GLPK; our dense tableau needs a smaller sample to finish in minutes).
  Rng rng(99);
  std::vector<Hotspot> lp_hotspot_set;
  for (const std::size_t idx :
       sample_indices(rng, world.hotspots().size(),
                      std::min(lp_hotspots, world.hotspots().size()))) {
    lp_hotspot_set.push_back(world.hotspots()[idx]);
  }
  std::vector<GeoPoint> lp_points;
  for (const auto& h : lp_hotspot_set) lp_points.push_back(h.location);
  const GridIndex lp_index(lp_points, 1.0);
  // Scaling series: the superlinear LP growth is the point of the figure.
  double lp_time = 0.0;
  std::size_t lp_size = 1;
  for (const std::size_t sample :
       {lp_requests / 5, lp_requests / 2, lp_requests}) {
    if (sample == 0) continue;
    std::vector<Request> lp_trace;
    for (const std::size_t idx :
         sample_indices(rng, trace.size(), std::min(sample, trace.size()))) {
      lp_trace.push_back(trace[idx]);
    }
    const SchemeContext lp_context{lp_hotspot_set, lp_index,
                                   VideoCatalog{world.config().num_videos},
                                   kCdnDistanceKm};
    const SlotDemand lp_demand(lp_trace, lp_index);
    LpSchemeOptions lp_options;
    lp_options.max_requests = sample + 1;
    LpScheme lp(lp_options);
    lp_time = time_scheme(lp, lp_context, lp_trace, lp_demand);
    lp_size = lp_trace.size();
    char instance[64];
    std::snprintf(instance, sizeof instance, "sampled %zux%zu",
                  lp_trace.size(), lp_hotspot_set.size());
    std::printf("%-12s %14.3f %26s  (%zu simplex pivots)\n", "LP-based",
                lp_time, instance, lp.last_lp_iterations());
  }

  // Sanity context for the reader: per-request LP cost extrapolated to the
  // paper's 10K sample.
  const double per_request = lp_time / static_cast<double>(lp_size);
  std::printf("\nLP time per sampled request: %.3f s -> naive extrapolation "
              "to the paper's 10K sample: ~%.0f s (paper: >2.4 h with GLPK; "
              "LP cost grows superlinearly, so this is a lower bound)\n",
              per_request, per_request * 10000.0);
  std::printf("paper reference ordering: LP-based >> RBCAer >> "
              "Random/Nearest\n");

  // --- Stage breakdown + thread scaling of the slot pipeline. ---
  // Hourly slots over the full trace give the parallel pipeline independent
  // units of work; the breakdown shows where a slot's budget actually goes.
  SimulationConfig sim_config;
  sim_config.slot_seconds = 3600;

  std::printf("\n=== RBCAer stage breakdown (hourly slots, 1 thread) ===\n");
  Simulator simulator(world.hotspots(),
                      VideoCatalog{world.config().num_videos}, sim_config);
  RbcaerScheme breakdown_scheme;
  Stopwatch wall;
  const auto sequential_report = simulator.run(breakdown_scheme, trace);
  const double sequential_s = wall.elapsed_seconds();
  const StageTimings stages = sequential_report.total_stage_timings();
  std::printf("slots: %zu, wall: %.3f s\n",
              sequential_report.slots().size(), sequential_s);
  std::printf("%-22s %10s %8s\n", "stage", "time (s)", "share");
  const auto stage_row = [&](const char* label, double seconds) {
    std::printf("%-22s %10.3f %7.1f%%\n", label, seconds,
                stages.total_s() > 0.0 ? 100.0 * seconds / stages.total_s()
                                       : 0.0);
  };
  stage_row("demand aggregation", stages.demand_s);
  stage_row("partition", stages.partition_s);
  stage_row("Gc build (Jd+cluster)", stages.gc_build_s);
  stage_row("Gd/Gc build", stages.graph_s);
  stage_row("MCMF", stages.mcmf_s);
  stage_row("replication", stages.replication_s);
  stage_row("admit", stages.admit_s);

  std::printf("\n=== thread scaling (parallel slot pipeline) ===\n");
  std::printf("%-8s %10s %8s\n", "threads", "wall (s)", "speedup");
  std::printf("%-8zu %10.3f %8.2fx\n", std::size_t{1}, sequential_s, 1.0);
  for (std::size_t threads = 2; threads <= max_threads; threads *= 2) {
    SimulationConfig parallel_config = sim_config;
    parallel_config.num_threads = threads;
    Simulator parallel_simulator(
        world.hotspots(), VideoCatalog{world.config().num_videos},
        parallel_config);
    RbcaerScheme scheme;
    wall.reset();
    const auto report = parallel_simulator.run(scheme, trace);
    const double parallel_s = wall.elapsed_seconds();
    std::printf("%-8zu %10.3f %8.2fx%s\n", threads, parallel_s,
                sequential_s / parallel_s,
                report.served_by_hotspots() ==
                        sequential_report.served_by_hotspots() &&
                        report.total_replicas() ==
                            sequential_report.total_replicas()
                    ? ""
                    : "  (MISMATCH vs sequential!)");
  }
  return 0;
}
