// Zone-sharded scheduler scalability (DESIGN.md §3.12).
//
// For each shard count (1/2/4/8) and each graph mode (Gc/Gd), plan the
// same slot through the sharded orchestrator and report the full cost
// anatomy the fig8 summary row compresses away:
//
//   - per-shard solve time (graph build + MCMF) and the max/mean spread —
//     the load-imbalance factor across zones;
//   - the shard-loop wall and the stage sums over shards (Jd+cluster,
//     graph build, MCMF);
//   - exchange-round overhead and its committed flow;
//   - the optimality gap vs the unsharded global solve (objective = plan
//     serving distance with the CDN penalty, same as fig8).
//
// Writes BENCH_shard.json. Scale flags mirror fig8's flow bench
// (--hotspots/--requests/--repeats); defaults match the committed
// baseline (H=2000, 100K requests).
#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "core/rbcaer_scheme.h"
#include "geo/geo_point.h"
#include "model/demand.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/flags.h"

namespace {

using namespace ccdn;

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

struct ShardRow {
  std::string name;  // "gc" or "gd"
  std::size_t shards = 0;
  std::size_t hotspots = 0;
  std::size_t boundary = 0;
  double shard_wall_s = 0.0;      // shard loop, every shard in turn
  double exchange_s = 0.0;
  double cluster_s = 0.0;         // stage sums over shards
  double graph_s = 0.0;
  double mcmf_s = 0.0;            // includes the exchange round
  std::int64_t moved = 0;
  std::int64_t exchange_moved = 0;
  double gap = 0.0;               // objective delta vs unsharded
  std::vector<double> flow_s;     // per shard: graph+mcmf

  [[nodiscard]] double imbalance() const {
    if (flow_s.empty()) return 1.0;
    const double max = *std::max_element(flow_s.begin(), flow_s.end());
    const double mean =
        std::accumulate(flow_s.begin(), flow_s.end(), 0.0) /
        static_cast<double>(flow_s.size());
    return mean > 0.0 ? max / mean : 1.0;
  }
};

void write_json(const std::string& path, const std::vector<ShardRow>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"shard_scalability\",\n"
                    "  \"unit\": \"s\",\n  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ShardRow& r = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"shard/%s/S=%zu/H=%zu\", "
                 "\"hotspots\": %zu, \"shards\": %zu, "
                 "\"boundary_hotspots\": %zu, \"shard_wall_s\": %.6f, "
                 "\"cluster_s\": %.6f, \"graph_s\": %.6f, \"mcmf_s\": %.6f, "
                 "\"exchange_s\": %.6f, \"imbalance\": %.3f, "
                 "\"moved\": %lld, \"exchange_moved\": %lld, "
                 "\"gap\": %.6f, \"shard_flow_s\": [",
                 r.name.c_str(), r.shards, r.hotspots, r.hotspots, r.shards,
                 r.boundary, r.shard_wall_s, r.cluster_s, r.graph_s, r.mcmf_s,
                 r.exchange_s, r.imbalance(), static_cast<long long>(r.moved),
                 static_cast<long long>(r.exchange_moved), r.gap);
    for (std::size_t s = 0; s < r.flow_s.size(); ++s) {
      std::fprintf(out, "%s%.6f", s == 0 ? "" : ", ", r.flow_s[s]);
    }
    std::fprintf(out, "]}%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("(wrote %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto hotspots =
      static_cast<std::size_t>(flags.get_int("hotspots", 2000));
  const auto requests =
      static_cast<std::size_t>(flags.get_int("requests", 100000));
  const auto repeats = static_cast<std::size_t>(flags.get_int("repeats", 2));

  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = hotspots;
  world_config.num_videos = 8000;
  World world = generate_world(world_config);
  const double mean_load =
      static_cast<double>(requests) / static_cast<double>(hotspots);
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

  std::printf("=== shard scalability: %zu hotspots, %zu requests "
              "(best of %zu) ===\n",
              hotspots, trace.size(), repeats);
  std::printf("%-4s %7s %10s %9s %9s %9s %10s %10s %7s\n", "", "shards",
              "wall", "cluster", "graph", "mcmf", "exchange", "imbalance",
              "gap");

  std::vector<ShardRow> rows;
  for (const bool aggregation : {true, false}) {
    RbcaerConfig base;
    base.content_aggregation = aggregation;
    RbcaerScheme global_scheme(base);
    const SlotPlan global_plan =
        global_scheme.plan_slot(context, trace, demand);
    const double global_objective =
        plan_objective_km(context, trace, global_plan);

    for (const std::size_t shards :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      if (shards > hotspots) continue;
      RbcaerConfig config = base;
      config.num_shards = shards;
      RbcaerScheme scheme(config);
      ShardRow row;
      row.name = aggregation ? "gc" : "gd";
      row.shards = shards;
      row.hotspots = hotspots;
      row.shard_wall_s = 1e300;
      SlotPlan plan;
      for (std::size_t rep = 0; rep < repeats; ++rep) {
        plan = scheme.plan_slot(context, trace, demand);
        const auto& d = scheme.last_diagnostics();
        if (d.shard_wall_s < row.shard_wall_s) {
          row.shard_wall_s = d.shard_wall_s;
          row.exchange_s = d.exchange_s;
          row.boundary = d.boundary_hotspots;
          row.moved = d.moved;
          row.exchange_moved = d.exchange_moved;
          row.flow_s = d.shard_flow_s;
          const StageTimings* stages = scheme.last_stage_timings();
          // Stage timings under sharding are already sums over shards (mcmf
          // includes the exchange round).
          row.cluster_s = stages->gc_build_s;
          row.graph_s = stages->graph_s;
          row.mcmf_s = stages->mcmf_s;
        }
      }
      row.gap = global_objective > 0.0
                    ? (plan_objective_km(context, trace, plan) -
                       global_objective) /
                          global_objective
                    : 0.0;
      std::printf("%-4s %7zu %9.3fs %8.3fs %8.3fs %8.3fs %9.3fs %9.2fx "
                  "%6.2f%%\n",
                  row.name.c_str(), row.shards, row.shard_wall_s,
                  row.cluster_s, row.graph_s, row.mcmf_s, row.exchange_s,
                  row.imbalance(), row.gap * 100.0);
      rows.push_back(std::move(row));
    }
  }

  write_json(flags.get_string("json_out", "BENCH_shard.json"), rows);
  return 0;
}
