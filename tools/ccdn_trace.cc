// ccdn_trace — command-line front end for the trace pipeline.
//
//   ccdn_trace generate --out=trace.csv [--hotspots=310] [--requests=212472]
//                       [--videos=15190] [--seed=42] [--hours=24] [--stream]
//       Generate a synthetic session trace (and print the world summary).
//       --stream emits slot by slot through the windowed TraceGenerator
//       cursor and flushes each batch, so traces larger than memory can be
//       written (costs one draw-stream replay per emitted slot).
//
//   ccdn_trace stats --in=trace.csv [--hotspots=310] [--videos=15190]
//                    [--seed=42]
//       Load a trace and print workload/balance/popularity statistics
//       against the matching world's hotspot deployment.
//
//   ccdn_trace simulate --in=trace.csv --scheme=rbcaer|nearest|random|virtual
//                       [--capacity=0.05] [--cache=0.03] [--hotspots=310]
//                       [--videos=15190] [--seed=42] [--slot_seconds=86400]
//                       [--shards=0] [--threads=1]
//       Run one scheme over the trace and print the four paper metrics.
//       --threads sizes the pipelined executor (0 = one per hardware
//       thread); --shards=N plans in N geo zones (0 = unsharded).
//
//   ccdn_trace audit --in=trace.csv [simulate's flags but --threads]
//                    [--quiet]
//       Replay the trace with every slot plan audited (the simulator's
//       per-slot verdicts, DESIGN.md §3.8); print one verdict line per
//       slot (--quiet: only the failing ones), the totals and the peak
//       RSS; exit 1 on any violation.
//
// simulate and audit stream the CSV slot by slot; rows must be sorted by
// timestamp. The world is regenerated from the same --seed/--hotspots/
// --videos flags, so a trace file plus its generation flags fully
// reproduces a run.
//
// Exit status: 0 on success; 2 on an unusable command line or input (a
// flag no subcommand reads or a malformed or out-of-range value, see
// tools/cli.h, both reported before any file is opened; an unreadable
// --in or unwritable --out; a malformed or out-of-order row; a video id
// outside the catalog); 1 on a broken invariant or any other runtime
// error.
#include <cstdio>
#include <memory>
#include <string>

#include "cli.h"

#include "model/trace_stats.h"
#include "sim/measurement.h"
#include "sim/simulator.h"
#include "stats/empirical_cdf.h"
#include "stats/load_balance.h"
#include "trace/generator.h"
#include "trace/slot_source.h"
#include "trace/trace_io.h"
#include "trace/world.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/peak_rss.h"

namespace {

using namespace ccdn;
using namespace ccdn::cli;

World world_from_flags(const Flags& flags) {
  WorldConfig config = WorldConfig::evaluation_region();
  config.num_hotspots = static_cast<std::size_t>(flags.get_int_in(
      "hotspots", static_cast<std::int64_t>(config.num_hotspots), 1,
      kMaxHotspots));
  config.num_videos = static_cast<std::uint32_t>(flags.get_int_in(
      "videos", config.num_videos, kMinVideos, kMaxVideos));
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  return generate_world(config);
}

/// What simulate and audit both read: the trace, the world with its
/// capacities, the scheme, and the slot length, shard count and audit
/// level.
struct RunFlags {
  std::string in;
  World world;
  SchemePtr scheme;
  SimulationConfig config;
};

/// Reads --in, the world flags, --capacity, --cache, --scheme,
/// --slot_seconds and --shards; the scheme and the simulator audit at
/// `audit_level`. A missing --in, an unknown scheme and a value outside its
/// range throw FlagError.
RunFlags read_run_flags(const Flags& flags, AuditLevel audit_level) {
  std::string in = flags.get_string("in", "");
  if (in.empty()) throw FlagError("--in=<path> is required");
  World world = world_from_flags(flags);
  assign_uniform_capacities(
      world, flags.get_double_in("capacity", 0.05, 0.0, kMaxCapacityShare),
      flags.get_double_in("cache", 0.03, 0.0, kMaxCacheShare));
  const std::string scheme_name = flags.get_string("scheme", "rbcaer");
  SchemePtr scheme = scheme_by_name(scheme_name, audit_level);
  if (!scheme) {
    throw FlagError("unknown --scheme '" + scheme_name +
                    "' (rbcaer|nearest|random|virtual)");
  }
  SimulationConfig config;
  config.slot_seconds =
      flags.get_int_in("slot_seconds", 24 * 3600, 1, kMaxSlotSeconds);
  config.num_shards = static_cast<std::size_t>(
      flags.get_int_in("shards", 0, 0, kMaxShards));
  config.audit_level = audit_level;
  return {std::move(in), std::move(world), std::move(scheme), config};
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
  if (out.empty()) throw FlagError("--out=<path> is required");
  const World world = world_from_flags(flags);
  TraceConfig trace_config;
  trace_config.num_requests = static_cast<std::size_t>(flags.get_int_in(
      "requests", static_cast<std::int64_t>(trace_config.num_requests), 1,
      kMaxRequests));
  trace_config.duration_hours =
      static_cast<std::size_t>(flags.get_int_in("hours", 24, 1, kMaxHours));
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
  if (in.empty()) throw FlagError("--in=<path> is required");
  const World world = world_from_flags(flags);
  if (reject_unused("stats", flags)) return 2;
  const auto trace = read_trace_csv(in);
  if (trace.empty()) throw ParseError("trace is empty");
  require_catalog_videos(trace, VideoCatalog{world.config().num_videos});
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
  RunFlags run = read_run_flags(flags, AuditLevel::kOff);
  run.config.num_threads = static_cast<std::size_t>(
      flags.get_int_in("threads", 1, 0, kMaxThreads));
  if (reject_unused("simulate", flags)) return 2;
  const Simulator simulator(run.world.hotspots(),
                            VideoCatalog{run.world.config().num_videos},
                            run.config);
  CsvSlotSource source(run.in, run.config.slot_seconds);
  const SimulationReport report = simulator.run(*run.scheme, source);
  std::printf("%s over %zu requests:\n", run.scheme->name().c_str(),
              report.total_requests());
  std::printf("  serving_ratio        %.3f\n", report.serving_ratio());
  std::printf("  avg_distance_km      %.3f\n", report.average_distance_km());
  std::printf("  replication_cost     %.3f\n", report.replication_cost());
  std::printf("  cdn_server_load      %.3f\n", report.cdn_server_load());
  return 0;
}

int cmd_audit(const Flags& flags) {
  RunFlags run = read_run_flags(flags, AuditLevel::kFull);
  const bool quiet = flags.get_bool("quiet", false);
  if (reject_unused("audit", flags)) return 2;
  const Simulator simulator(run.world.hotspots(),
                            VideoCatalog{run.world.config().num_videos},
                            run.config);
  CsvSlotSource source(run.in, run.config.slot_seconds);
  std::printf("audit: scheme=%s build=%s hotspots=%zu\n",
              run.scheme->name().c_str(),
              kCheckedBuild ? "checked" : "release",
              run.world.hotspots().size());
  const SimulationReport report = simulator.run(*run.scheme, source);
  std::size_t violations = 0;
  for (std::size_t slot = 0; slot < report.verdicts().size(); ++slot) {
    const SlotVerdict& verdict = report.verdicts()[slot];
    violations += verdict.audit.violations().size();
    if (!verdict.audit.ok()) {
      std::printf("audit: slot %zu: FAIL %s\n", slot,
                  verdict.audit.summary().c_str());
    } else if (!quiet) {
      std::printf("audit: slot %zu: ok (%zu requests, digest %016llx)\n",
                  slot, report.slots()[slot].requests,
                  static_cast<unsigned long long>(verdict.digest));
    }
  }
  std::printf("audit: %zu violation(s) across %zu slot(s); %zu/%zu requests "
              "served by hotspots\n",
              violations, report.verdicts().size(),
              report.served_by_hotspots(), report.total_requests());
  std::printf("audit: peak_rss_mb=%.1f\n", peak_rss_mb());
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string command = "ccdn_trace";
  try {
    const Flags flags(argc, argv);
    const auto& positional = flags.positional();
    if (!positional.empty()) command = positional.front();
    if (command == "generate") return cmd_generate(flags);
    if (command == "stats") return cmd_stats(flags);
    if (command == "simulate") return cmd_simulate(flags);
    if (command == "audit") return cmd_audit(flags);
  } catch (const ParseError& error) {
    std::fprintf(stderr, "%s: %s\n", command.c_str(), error.what());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s: error: %s\n", command.c_str(), error.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: ccdn_trace <generate|stats|simulate|audit> [flags]\n"
               "see the header comment of tools/ccdn_trace.cc\n");
  return 2;
}
