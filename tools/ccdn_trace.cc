// ccdn_trace — command-line front end for the trace pipeline.
//
//   ccdn_trace generate --out=trace.csv [--hotspots=310] [--requests=212472]
//                       [--videos=15190] [--seed=42] [--hours=24] [--stream]
//       Generate a synthetic session trace (and print the world summary).
//       --stream emits slot by slot through the windowed TraceGenerator
//       cursor and flushes each batch, so traces larger than memory can be
//       written (costs one draw-stream replay per emitted slot).
//
//   ccdn_trace stats --in=trace.csv [--hotspots=310] [--seed=42]
//       Load a trace and print workload/balance/popularity statistics
//       against the matching world's hotspot deployment.
//
//   ccdn_trace simulate --in=trace.csv --scheme=rbcaer|nearest|random|virtual
//                       [--capacity=0.05] [--cache=0.03] [--hotspots=310]
//                       [--threads=1] [--window=0]
//                       [--slot_seconds=86400] [--shards=0]
//       Run one scheme over the trace and print the four paper metrics.
//       Slot batches stream straight off the CSV (bounded memory); rows
//       must be sorted by timestamp, and the first row out of order is
//       reported by line number. --threads/--window size the pipelined
//       executor (window 0 = 2x threads).
//
// The world is regenerated from the same --seed/--hotspots/--videos flags,
// so a trace file plus its generation flags fully reproduces a run. Every
// subcommand rejects a flag it does not read (exit 2) before touching any
// file.
#include <cstdio>
#include <memory>
#include <string>

#include "core/nearest_scheme.h"
#include "core/random_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/virtual_rbcaer_scheme.h"
#include "model/trace_stats.h"
#include "sim/measurement.h"
#include "sim/simulator.h"
#include "stats/empirical_cdf.h"
#include "stats/load_balance.h"
#include "trace/generator.h"
#include "trace/slot_source.h"
#include "trace/trace_io.h"
#include "trace/world.h"
#include "util/flags.h"
#include "util/log.h"

namespace {

using namespace ccdn;

World world_from_flags(const Flags& flags) {
  WorldConfig config = WorldConfig::evaluation_region();
  config.num_hotspots = static_cast<std::size_t>(
      flags.get_int("hotspots", static_cast<std::int64_t>(
                                    config.num_hotspots)));
  config.num_videos = static_cast<std::uint32_t>(
      flags.get_int("videos", config.num_videos));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  return generate_world(config);
}

/// Call once every flag the subcommand uses has been read: a flag nobody
/// read is a typo or a retired option, and running anyway would silently
/// produce a different run than the caller asked for.
bool reject_unused(const char* command, const Flags& flags) {
  const auto unused = flags.unused();
  for (const auto& name : unused) {
    std::fprintf(stderr, "%s: unknown flag --%s\n", command, name.c_str());
  }
  return !unused.empty();
}

int cmd_generate(const Flags& flags) {
  const std::string out = flags.get_string("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out=<path> is required\n");
    return 2;
  }
  const World world = world_from_flags(flags);
  TraceConfig trace_config;
  trace_config.num_requests = static_cast<std::size_t>(
      flags.get_int("requests", static_cast<std::int64_t>(
                                    trace_config.num_requests)));
  trace_config.duration_hours =
      static_cast<std::size_t>(flags.get_int("hours", 24));
  trace_config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  const bool stream = flags.get_bool("stream", false);
  if (reject_unused("generate", flags)) return 2;
  std::size_t written = 0;
  if (stream) {
    TraceGenerator generator(world, trace_config);
    TraceWriter writer(out);
    while (auto batch = generator.next_slot_batch()) {
      writer.append(*batch);
    }
    written = writer.rows_written();
  } else {
    const auto trace = generate_trace(world, trace_config);
    write_trace_csv(out, trace);
    written = trace.size();
  }
  std::printf("wrote %zu requests over %zu h to %s (world: %zu hotspots, "
              "%u videos, seed %llu)\n",
              written, trace_config.duration_hours, out.c_str(),
              world.hotspots().size(), world.config().num_videos,
              static_cast<unsigned long long>(world.config().seed));
  return 0;
}

int cmd_stats(const Flags& flags) {
  const std::string in = flags.get_string("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "stats: --in=<path> is required\n");
    return 2;
  }
  const World world = world_from_flags(flags);
  if (reject_unused("stats", flags)) return 2;
  const auto trace = read_trace_csv(in);
  if (trace.empty()) {
    std::fprintf(stderr, "stats: trace is empty\n");
    return 1;
  }
  const TraceStats stats = compute_trace_stats(trace);
  std::printf("trace summary: %zu requests, %zu users, %zu videos, span "
              "%.1f h, top-20%% share %.2f\n",
              stats.num_requests, stats.distinct_users,
              stats.distinct_videos,
              static_cast<double>(stats.span_seconds()) / 3600.0,
              stats.top20_share);

  const GridIndex index(world.hotspot_locations(), 0.5);
  const RoutedDemand routed = route_nearest(index, trace);

  std::vector<double> loads(routed.workloads.begin(),
                            routed.workloads.end());
  const EmpiricalCdf cdf(loads);
  std::printf("trace: %zu requests; world: %zu hotspots\n", trace.size(),
              world.hotspots().size());
  std::printf("workload under Nearest routing:\n");
  std::printf("  median %.0f  p90 %.0f  p99 %.0f  (p99/median %.1fx)\n",
              cdf.median(), cdf.quantile(0.9), cdf.quantile(0.99),
              cdf.quantile(0.99) / std::max(1.0, cdf.median()));
  std::printf("  gini %.3f  cv %.3f  jain %.3f\n", gini_coefficient(loads),
              coefficient_of_variation(loads), jains_fairness_index(loads));
  std::printf("distinct videos requested per hotspot (mean): %.0f\n",
              static_cast<double>(routed.total_replication_cost()) /
                  static_cast<double>(world.hotspots().size()));
  return 0;
}

int cmd_simulate(const Flags& flags) {
  const std::string in = flags.get_string("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "simulate: --in=<path> is required\n");
    return 2;
  }
  World world = world_from_flags(flags);
  assign_uniform_capacities(world, flags.get_double("capacity", 0.05),
                            flags.get_double("cache", 0.03));
  const std::string scheme_name = flags.get_string("scheme", "rbcaer");
  SchemePtr scheme;
  if (scheme_name == "rbcaer") {
    scheme = std::make_unique<RbcaerScheme>();
  } else if (scheme_name == "nearest") {
    scheme = std::make_unique<NearestScheme>();
  } else if (scheme_name == "random") {
    scheme = std::make_unique<RandomScheme>(1.5);
  } else if (scheme_name == "virtual") {
    scheme = std::make_unique<VirtualRbcaerScheme>();
  } else {
    std::fprintf(stderr,
                 "simulate: unknown --scheme '%s' (rbcaer|nearest|random|"
                 "virtual)\n",
                 scheme_name.c_str());
    return 2;
  }
  SimulationConfig sim_config;
  sim_config.slot_seconds = flags.get_int("slot_seconds", 24 * 3600);
  sim_config.num_threads =
      static_cast<std::size_t>(flags.get_int("threads", 1));
  sim_config.max_inflight_slots =
      static_cast<std::size_t>(flags.get_int("window", 0));
  // Zone-sharded planning (0 = unsharded); the RBCAer family inherits it
  // via SchemeContext, the stateless baselines ignore it.
  sim_config.num_shards =
      static_cast<std::size_t>(flags.get_int("shards", 0));
  if (reject_unused("simulate", flags)) return 2;
  const Simulator simulator(world.hotspots(),
                            VideoCatalog{world.config().num_videos},
                            sim_config);
  CsvSlotSource source(in, sim_config.slot_seconds);
  const SimulationReport report = simulator.run(*scheme, source);
  std::printf("%s over %zu requests:\n", scheme->name().c_str(),
              report.total_requests());
  std::printf("  serving_ratio        %.3f\n", report.serving_ratio());
  std::printf("  avg_distance_km      %.3f\n", report.average_distance_km());
  std::printf("  replication_cost     %.3f\n", report.replication_cost());
  std::printf("  cdn_server_load      %.3f\n", report.cdn_server_load());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto& positional = flags.positional();
  const std::string command = positional.empty() ? "" : positional.front();
  try {
    if (command == "generate") return cmd_generate(flags);
    if (command == "stats") return cmd_stats(flags);
    if (command == "simulate") return cmd_simulate(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: ccdn_trace <generate|stats|simulate> [flags]\n"
               "see the header comment of tools/ccdn_trace.cc\n");
  return 2;
}
