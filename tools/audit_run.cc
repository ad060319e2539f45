// audit_run — replay a trace through a scheme at maximum audit level and
// report every invariant violation instead of throwing on the first.
//
//   audit_run [--scheme=rbcaer|virtual|nearest|random] [--in=trace.csv]
//             [--hotspots=310] [--videos=15190] [--requests=20000]
//             [--hours=24] [--seed=42] [--slot-seconds=3600]
//             [--capacity=0.05] [--cache=0.03] [--stream] [--shards=0]
//             [--quiet]
//
// Without --in a synthetic trace is generated from the world flags (the
// same parameterization as `ccdn-trace generate`), so the tool is
// self-contained for CI. The slot loop mirrors Simulator::run but audits
// explicitly: the scheme-agnostic plan contract (assignment totality,
// placement shape) for every scheme, plus capacity feasibility for the
// RBCAer family, collecting violations into a per-slot report. Explicit
// audits run in EVERY build — including NDEBUG, where the in-pipeline
// CCDN_ASSERT hooks are compiled out — so a release binary still verifies
// its own plans here. In checked builds the scheme-internal audits
// (θ-sweep commits, Procedure 1, flow entries) run as well via
// audit_level = kFull.
//
// A trace file (--in) is never materialized: slots are pulled one at a
// time from a CsvSlotSource, which reports the first out-of-order row by
// line number. A synthetic trace is generated whole, or with --stream
// slot by slot from the windowed TraceGenerator cursor (as `ccdn-trace
// generate --stream` writes it), so multi-day audits run in O(slot)
// memory either way. The final line reports getrusage peak RSS — the CI
// bounded-memory smoke job asserts on it.
//
// Exit status: 0 when every slot is clean, 1 when any invariant failed,
// 2 on usage errors (unknown flags, values outside tools/flag_ranges.h) and
// unreadable trace files (rows out of timestamp order, video ids outside
// the catalog).
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "flag_ranges.h"

#include "core/nearest_scheme.h"
#include "core/random_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/virtual_rbcaer_scheme.h"
#include "model/timeslots.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/slot_source.h"
#include "trace/world.h"
#include "util/error.h"
#include "util/flags.h"
#include "util/peak_rss.h"
#include "verify/schedule_audit.h"

namespace {

using namespace ccdn;

struct SchemeChoice {
  SchemePtr scheme;
  /// RBCAer-family plans promise capacity feasibility; baselines do not.
  bool audit_capacity = false;
};

SchemeChoice make_scheme(const std::string& name, std::size_t shards) {
  SchemeChoice choice;
  if (name == "rbcaer") {
    RbcaerConfig config;
    config.audit_level = AuditLevel::kFull;
    config.num_shards = shards;
    choice.scheme = std::make_unique<RbcaerScheme>(config);
    choice.audit_capacity = true;
  } else if (name == "virtual") {
    VirtualRbcaerConfig config;
    config.regional.audit_level = AuditLevel::kFull;
    config.regional.num_shards = shards;
    choice.scheme = std::make_unique<VirtualRbcaerScheme>(config);
    choice.audit_capacity = true;
  } else if (name == "nearest") {
    choice.scheme = std::make_unique<NearestScheme>();
  } else if (name == "random") {
    choice.scheme = std::make_unique<RandomScheme>();
  }
  return choice;
}

int run_audit(const Flags& flags) {
  const std::string scheme_name = flags.get_string("scheme", "rbcaer");
  // Zone-sharded planning: every shard's plan flows through the same full
  // audit stack as the unsharded path (plus the shard-locality and
  // exchange-boundary audits inside the orchestrator).
  const auto shards =
      static_cast<std::size_t>(flags.get_int("shards", 0));
  SchemeChoice choice = make_scheme(scheme_name, shards);
  if (!choice.scheme) {
    std::fprintf(stderr,
                 "unknown --scheme=%s (rbcaer|virtual|nearest|random)\n",
                 scheme_name.c_str());
    return 2;
  }

  using namespace flag_ranges;
  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = static_cast<std::size_t>(flags.get_int_in(
      "hotspots", static_cast<std::int64_t>(world_config.num_hotspots), 1,
      kMaxHotspots));
  world_config.num_videos = static_cast<std::uint32_t>(flags.get_int_in(
      "videos", world_config.num_videos, kMinVideos, kMaxVideos));
  world_config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 42));
  World world = generate_world(world_config);
  assign_uniform_capacities(
      world, flags.get_double_in("capacity", 0.05, 0.0, kMaxCapacityShare),
      flags.get_double_in("cache", 0.03, 0.0, kMaxCacheShare));

  const std::string in = flags.get_string("in", "");
  const std::int64_t slot_seconds =
      flags.get_int_in("slot-seconds", 3600, 1, kMaxSlotSeconds);
  const bool stream = flags.get_bool("stream", false);
  const bool quiet = flags.get_bool("quiet", false);
  TraceConfig trace_config;
  trace_config.num_requests = static_cast<std::size_t>(
      flags.get_int_in("requests", 20000, 1, kMaxRequests));
  trace_config.duration_hours =
      static_cast<std::size_t>(flags.get_int_in("hours", 24, 1, kMaxHours));
  trace_config.seed = world_config.seed;
  for (const auto& unknown : flags.unused()) {
    std::fprintf(stderr, "unknown flag --%s\n", unknown.c_str());
    return 2;
  }

  // One pull-based loop serves all ingestion modes; only the source
  // differs. Only the synthetic trace without --stream is materialized
  // first; otherwise at most one slot batch is ever resident.
  std::vector<Request> trace;
  std::unique_ptr<TraceGenerator> generator;
  std::unique_ptr<SlotSource> source;
  const bool streaming = stream || !in.empty();
  if (!in.empty()) {
    source = std::make_unique<CsvSlotSource>(in, slot_seconds);
  } else if (stream) {
    generator =
        std::make_unique<TraceGenerator>(world, trace_config, slot_seconds);
    source = std::make_unique<GeneratorSlotSource>(*generator);
  } else {
    trace = generate_trace(world, trace_config);
    source = std::make_unique<VectorSlotSource>(trace, slot_seconds);
  }

  const GridIndex index(world.hotspot_locations(), /*cell_km=*/0.5);
  const SchemeContext context{world.hotspots(), index,
                              VideoCatalog{world.config().num_videos},
                              kCdnDistanceKm};

  std::printf("audit_run: scheme=%s build=%s mode=%s hotspots=%zu\n",
              choice.scheme->name().c_str(),
              kCheckedBuild ? "checked" : "release",
              streaming ? "stream" : "in-memory", world.hotspots().size());

  std::size_t violations = 0;
  std::size_t served = 0;
  std::size_t total_requests = 0;
  std::size_t num_slots = 0;
  while (auto batch = source->next()) {
    const std::span<const Request> slot_requests(batch->requests);
    require_catalog_videos(slot_requests, context.catalog);
    const SlotDemand demand(slot_requests, index);
    const SlotPlan plan =
        choice.scheme->plan_slot(context, slot_requests, demand);

    AuditReport report;
    audit_assignment(plan.assignment, slot_requests.size(),
                     world.hotspots().size(), report);
    audit_placements(plan.placements, world.hotspots(), report);
    if (choice.audit_capacity) {
      audit_capacity(plan.assignment, plan.placements, world.hotspots(),
                     slot_requests, demand.request_home(), report);
    }
    const std::uint64_t digest = plan_digest(plan);
    if (!report.ok()) {
      violations += report.violations().size();
      std::printf("slot %zu: FAIL %s\n", batch->slot_index,
                  report.summary().c_str());
    } else if (!quiet) {
      std::printf("slot %zu: ok (%zu requests, digest %016llx)\n",
                  batch->slot_index, slot_requests.size(),
                  static_cast<unsigned long long>(digest));
    }
    const SlotMetrics metrics =
        admit_slot(world.hotspots(), plan, slot_requests, kCdnDistanceKm);
    served += metrics.served;
    total_requests += slot_requests.size();
    num_slots = batch->slot_index + 1;
  }

  std::printf("audit_run: %zu violation(s) across %zu slot(s); "
              "%zu/%zu requests served by hotspots\n",
              violations, num_slots, served, total_requests);
  std::printf("audit_run: peak_rss_mb=%.1f\n", peak_rss_mb());
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_audit(Flags(argc, argv));
  } catch (const ParseError& error) {
    // A flag value outside its range (FlagError), or an unreadable trace
    // file, e.g. rows out of timestamp order or a video outside the
    // catalog: a usage error, reported with the flag, or with the
    // offending line number or video id.
    std::fprintf(stderr, "audit_run: %s\n", error.what());
    return 2;
  }
}
