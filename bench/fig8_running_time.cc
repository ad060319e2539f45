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
// partition+clustering, graph build, MCMF, replication, admission),
// (b) the thread-scaling curve of the parallel slot-scheduling pipeline on
// an hourly multi-slot trace, and (c) the zone-sharded solve vs the global
// solve, written as JSON to --flow_json_out=PATH when given (--flow_only
// runs only this section).
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "core/lp_scheme.h"
#include "core/nearest_scheme.h"
#include "geo/geo_point.h"
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

// --- Sharding section: zone-sharded solve vs the global solve. ---
// Per shard count, the slot is solved by partitioning the hotspots into K
// geo zones (solved one after another in-process), plus one cross-shard
// exchange round over boundary residuals. Reported per row: the flow-phase
// time (every shard's graph+MCMF plus the exchange round) vs the global
// solve's graph+MCMF, the shard-loop wall, the exchange overhead, the
// per-shard imbalance (max/mean of the shards' graph+MCMF times: how evenly
// the bisection splits the work), and the end-to-end objective gap (plan
// distance sum with the CDN penalty, sharded vs global). K=1 must be
// bit-identical to the global solve and carries the `identical` oracle;
// K>1 pays a bounded optimality gap and carries `gap_ok`
// (gap <= --shard_gap_tol, default 2%) instead.

struct ShardBenchRow {
  std::string name;  // "gc" or "gd"
  std::size_t shards = 0;
  std::size_t hotspots = 0;
  double global_flow_s = 0.0;     // unsharded graph+MCMF
  double global_cluster_s = 0.0;  // unsharded Jd+cluster
  double shard_flow_s = 0.0;      // sum over shards + exchange
  double cluster_s = 0.0;         // sum of per-shard Jd+cluster
  double shard_wall_s = 0.0;      // shard loop, every shard in turn
  double exchange_s = 0.0;
  double imbalance = 1.0;         // max/mean of per-shard graph+MCMF
  std::int64_t moved = 0;
  std::int64_t exchange_moved = 0;
  std::size_t boundary = 0;
  std::size_t cdn_assigned = 0;         // requests the plan sends to the CDN
  std::size_t global_cdn_assigned = 0;  // same, global plan
  double objective_km = 0.0;
  double global_objective_km = 0.0;
  double gap = 0.0;         // (objective - global) / global
  bool gap_ok = false;      // shards > 1: gap within tolerance
  bool identical = false;   // shards == 1: plan bit-identical to global

  [[nodiscard]] double speedup() const {
    return shard_flow_s > 0.0 ? global_flow_s / shard_flow_s : 0.0;
  }
};

/// Plan objective: served requests pay their serving distance, everything
/// the plan sends to the CDN pays the CDN penalty. The same quantity the
/// admission stage sums, computed directly from the plan so the bench
/// needs no simulator round trip.
double plan_objective_km(const SchemeContext& context,
                         std::span<const Request> requests,
                         const SlotPlan& plan) {
  double sum = 0.0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex h = plan.assignment[r];
    sum += h == kCdnServer
               ? context.cdn_distance_km
               : distance_km(requests[r].location,
                             context.hotspots[h].location);
  }
  return sum;
}

ShardBenchRow shard_bench_mode(const std::string& name, bool aggregation,
                               std::size_t shards,
                               const SchemeContext& context,
                               std::span<const Request> trace,
                               const SlotDemand& demand, std::size_t repeats,
                               double gap_tol, const SlotPlan& global_plan,
                               double global_flow_s, double global_cluster_s,
                               double global_objective) {
  RbcaerConfig config;
  config.content_aggregation = aggregation;
  config.num_shards = shards;
  RbcaerScheme scheme(config);

  ShardBenchRow row;
  row.name = name;
  row.shards = shards;
  row.hotspots = context.hotspots.size();
  row.global_flow_s = global_flow_s;
  row.global_cluster_s = global_cluster_s;
  row.global_objective_km = global_objective;
  row.shard_flow_s = 1e300;
  SlotPlan plan;
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    plan = scheme.plan_slot(context, trace, demand);
    const StageTimings* stages = scheme.last_stage_timings();
    const double flow_s = stages->graph_s + stages->mcmf_s;
    if (flow_s < row.shard_flow_s) {
      row.shard_flow_s = flow_s;
      row.cluster_s = stages->gc_build_s;
      const auto& d = scheme.last_diagnostics();
      row.shard_wall_s = d.shard_wall_s;
      row.exchange_s = d.exchange_s;
      if (!d.shard_flow_s.empty()) {
        const double max = *std::max_element(d.shard_flow_s.begin(),
                                             d.shard_flow_s.end());
        const double mean = std::accumulate(d.shard_flow_s.begin(),
                                            d.shard_flow_s.end(), 0.0) /
                            static_cast<double>(d.shard_flow_s.size());
        row.imbalance = mean > 0.0 ? max / mean : 1.0;
      }
      row.moved = d.moved;
      row.exchange_moved = d.exchange_moved;
      row.boundary = d.boundary_hotspots;
    }
  }
  row.objective_km = plan_objective_km(context, trace, plan);
  const auto count_cdn = [](const SlotPlan& p) {
    return static_cast<std::size_t>(
        std::count(p.assignment.begin(), p.assignment.end(), kCdnServer));
  };
  row.cdn_assigned = count_cdn(plan);
  row.global_cdn_assigned = count_cdn(global_plan);
  row.gap = global_objective > 0.0
                ? (row.objective_km - global_objective) / global_objective
                : 0.0;
  row.gap_ok = row.gap <= gap_tol;
  row.identical = plan.assignment == global_plan.assignment &&
                  plan.placements == global_plan.placements;
  return row;
}

/// Machine-readable perf trajectory for cross-PR tracking; same shape as
/// hierarchical_scalability's BENCH_gc.json. False when the file could not
/// be written in full.
[[nodiscard]] bool write_flow_json(
    const std::string& path, const std::vector<ShardBenchRow>& shard_rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\n  \"bench\": \"sharding\",\n  \"unit\": \"s\",\n"
                    "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < shard_rows.size(); ++i) {
    const ShardBenchRow& r = shard_rows[i];
    // The oracle field differs by shard count on purpose: K=1 promises
    // bit-identity (`identical`, greppable by the CI flow gate), K>1
    // promises a bounded gap (`gap_ok`). Emitting the other field too
    // would trip the gate's `"identical": false` grep on rows that never
    // promised identity.
    std::fprintf(
        out,
        "    {\"name\": \"sharding/%s/S=%zu/H=%zu\", \"hotspots\": %zu, "
        "\"shards\": %zu, \"boundary_hotspots\": %zu, "
        "\"global_flow_s\": %.6f, \"shard_flow_s\": %.6f, "
        "\"shard_wall_s\": %.6f, \"exchange_s\": %.6f, "
        "\"imbalance\": %.3f, "
        "\"global_cluster_s\": %.6f, \"cluster_s\": %.6f, "
        "\"speedup\": %.2f, \"moved\": %lld, \"exchange_moved\": %lld, "
        "\"cdn_assigned\": %zu, \"global_cdn_assigned\": %zu, "
        "\"objective_km\": %.3f, \"global_objective_km\": %.3f, "
        "\"gap\": %.6f, %s}%s\n",
        r.name.c_str(), r.shards, r.hotspots, r.hotspots, r.shards,
        r.boundary, r.global_flow_s, r.shard_flow_s, r.shard_wall_s,
        r.exchange_s, r.imbalance, r.global_cluster_s, r.cluster_s,
        r.speedup(),
        static_cast<long long>(r.moved),
        static_cast<long long>(r.exchange_moved), r.cdn_assigned,
        r.global_cdn_assigned, r.objective_km,
        r.global_objective_km, r.gap,
        r.shards == 1
            ? (r.identical ? "\"identical\": true" : "\"identical\": false")
            : (r.gap_ok ? "\"gap_ok\": true" : "\"gap_ok\": false"),
        i + 1 < shard_rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  // The rows may sit in the stream's buffer until fclose flushes them, so
  // a full disk can surface there as well as in the error flag.
  const bool written = std::ferror(out) == 0;
  if (std::fclose(out) != 0 || !written) return false;
  std::printf("(wrote %s)\n", path.c_str());
  return true;
}

/// The sharding section; false when --flow_json_out could not be written.
[[nodiscard]] bool run_flow_bench(const Flags& flags) {
  const auto hotspots =
      static_cast<std::size_t>(flags.get_int("flow_hotspots", 2000));
  const auto requests =
      static_cast<std::size_t>(flags.get_int("flow_requests", 100000));
  const auto repeats =
      static_cast<std::size_t>(flags.get_int("flow_repeats", 2));

  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = hotspots;
  world_config.num_videos = 8000;
  World world = generate_world(world_config);
  // Service capacity = the mean per-hotspot load, so the skewed demand
  // leaves roughly half the fleet overloaded and the sweep has real
  // balancing work across the whole θ grid (not a trivially slack fleet).
  const double mean_load = static_cast<double>(requests) /
                           static_cast<double>(hotspots);
  assign_uniform_capacities(
      world, mean_load / static_cast<double>(world_config.num_videos), 0.03);
  TraceConfig trace_config;
  trace_config.num_requests = requests;
  const auto trace = generate_trace(world, trace_config);

  const GridIndex index(world.hotspot_locations(), 0.5);
  const SchemeContext context{world.hotspots(), index,
                              VideoCatalog{world_config.num_videos},
                              kCdnDistanceKm};
  const SlotDemand demand(trace, index);

  const double gap_tol = flags.get_double("shard_gap_tol", 0.02);
  std::printf("\n=== zone-sharded solve vs global solve ===\n");
  std::printf("sharded = every shard's graph+MCMF + exchange round; "
              "gap tolerance %.1f%% (best of %zu)\n",
              gap_tol * 100.0, repeats);
  std::printf("%-4s %7s %12s %12s %9s %10s %10s %10s %9s %10s\n", "",
              "shards", "global", "sharded", "speedup", "exchange",
              "imbalance", "boundary", "gap", "oracle");
  std::vector<ShardBenchRow> shard_rows;
  for (const bool aggregation : {true, false}) {
    const std::string graph = aggregation ? "gc" : "gd";
    // Global baseline: the classic unsharded solve of the same slot with
    // the same config. Its plan is both the timing denominator and the
    // objective reference the sharded gap is measured against.
    RbcaerConfig global_config;
    global_config.content_aggregation = aggregation;
    RbcaerScheme global_scheme(global_config);
    SlotPlan global_plan;
    double global_flow_s = 1e300;
    double global_cluster_s = 0.0;
    for (std::size_t rep = 0; rep < repeats; ++rep) {
      global_plan = global_scheme.plan_slot(context, trace, demand);
      const StageTimings* stages = global_scheme.last_stage_timings();
      const double flow_s = stages->graph_s + stages->mcmf_s;
      if (flow_s < global_flow_s) {
        global_flow_s = flow_s;
        global_cluster_s = stages->gc_build_s;
      }
    }
    const double global_objective =
        plan_objective_km(context, trace, global_plan);
    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      if (shards > context.hotspots.size()) continue;
      shard_rows.push_back(shard_bench_mode(
          graph, aggregation, shards, context, trace, demand, repeats,
          gap_tol, global_plan, global_flow_s, global_cluster_s,
          global_objective));
      const ShardBenchRow& row = shard_rows.back();
      const char* oracle = row.shards == 1
                               ? (row.identical ? "identical" : "MISMATCH!")
                               : (row.gap_ok ? "gap-ok" : "GAP!");
      std::printf("%-4s %7zu %11.3fs %11.3fs %8.1fx %9.3fs %9.2fx %10zu "
                  "%8.2f%% %10s\n",
                  row.name.c_str(), row.shards, row.global_flow_s,
                  row.shard_flow_s, row.speedup(), row.exchange_s,
                  row.imbalance, row.boundary, row.gap * 100.0, oracle);
    }
  }

  // JSON only to a path on the command line: a run from the repo root
  // must not replace the committed BENCH_flow.json baseline.
  const std::string json_out = flags.get_string("flow_json_out", "");
  if (!json_out.empty() && !write_flow_json(json_out, shard_rows)) {
    std::fprintf(stderr, "fig8_running_time: error: cannot write: %s\n",
                 json_out.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto lp_requests =
      static_cast<std::size_t>(flags.get_int("lp_requests", 500));
  const auto lp_hotspots =
      static_cast<std::size_t>(flags.get_int("lp_hotspots", 15));

  if (!run_flow_bench(flags)) return 2;
  if (flags.get_bool("flow_only", false)) return 0;

  const World world = generate_world(WorldConfig::evaluation_region());
  assign_uniform_capacities(const_cast<World&>(world), 0.05, 0.03);
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
  // Always sweep up to at least 4 threads so the curve (and the determinism
  // cross-check) is exercised even on small machines; speedup > 1 naturally
  // needs the cores to back it up.
  const std::size_t max_threads = static_cast<std::size_t>(flags.get_int(
      "max_threads",
      static_cast<int>(std::max<std::size_t>(4, ThreadPool::default_threads()))));

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
