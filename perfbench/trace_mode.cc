// Traced run: slots are pulled sequentially and every call into a layer's
// public functions is wrapped in a span (name, slot, parent, begin, end),
// kept in memory and written as Chrome trace-event JSON when the run ends.
//
// Per slot the run first replays plan_slot's stages on the slot's inputs
// (top sets -> Jd -> linkage -> candidate edges -> θ sweep -> flow merge ->
// Procedure 1 -> assignment; on sharded workloads the sweep runs per shard
// through solve_sharded with an in-process executor), then calls
// RbcaerScheme::plan_slot itself and requires the replay's placements to
// equal the plan's. Counters come from the replay's own results and from
// the scheme's public diagnostics; every time comes from the spans.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "cluster/content_distance.h"
#include "core/replication.h"
#include "core/shard_solver.h"
#include "core/theta_sweep.h"
#include "geo/zone_partition.h"
#include "model/topsets.h"
#include "trace/slot_source.h"
#include "verify/schedule_audit.h"

namespace perfbench {

namespace {

using ccdn::CandidateEdge;
using ccdn::FlowEntry;
using ccdn::RbcaerConfig;

class Spans {
 public:
  struct Span {
    const char* name;
    std::size_t slot;
    std::ptrdiff_t parent;  // -1 = root
    double begin;
    double end;
  };

  std::size_t open(const char* name, std::size_t slot) {
    spans_.push_back({name, slot, current_, now_s(), 0.0});
    current_ = static_cast<std::ptrdiff_t>(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t id) {
    spans_[id].end = now_s();
    current_ = spans_[id].parent;
  }

  /// Σ durations of the spans directly under a "slot" span, except the
  /// named ones.
  [[nodiscard]] double slot_children_total(
      std::initializer_list<const char*> except) const {
    double total = 0.0;
    for (const Span& s : spans_) {
      if (s.parent < 0 ||
          std::strcmp(spans_[static_cast<std::size_t>(s.parent)].name,
                      "slot") != 0) {
        continue;
      }
      bool excluded = false;
      for (const char* name : except) {
        excluded = excluded || std::strcmp(s.name, name) == 0;
      }
      if (!excluded) total += s.end - s.begin;
    }
    return total;
  }

  /// Σ durations per span name.
  [[nodiscard]] std::map<std::string, double> totals() const {
    std::map<std::string, double> out;
    for (const Span& s : spans_) out[s.name] += s.end - s.begin;
    return out;
  }

  void write_chrome_trace(const std::string& path) const {
    std::ofstream out(path);
    const double origin = spans_.empty() ? 0.0 : spans_.front().begin;
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
          << (s.begin - origin) * 1e6 << ",\"dur\":" << (s.end - s.begin) * 1e6
          << ",\"args\":{\"slot\":" << s.slot << ",\"id\":" << i
          << ",\"parent\":" << s.parent << "}}";
    }
    out << "]}\n";
    if (!out) throw std::runtime_error("cannot write spans to " + path);
  }

 private:
  std::vector<Span> spans_;
  std::ptrdiff_t current_ = -1;
};

class SpanScope {
 public:
  SpanScope(Spans& spans, const char* name, std::size_t slot)
      : spans_(spans), id_(spans.open(name, slot)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { spans_.close(id_); }

 private:
  Spans& spans_;
  std::size_t id_;
};

template <class F>
decltype(auto) timed(Spans& spans, const char* name, std::size_t slot, F&& f) {
  const SpanScope scope(spans, name, slot);
  return f();
}

/// Counters summed over all slots.
struct Counters {
  std::uint64_t pairs = 0;
  std::uint64_t overloaded = 0;
  std::int64_t max_movable = 0;
  std::uint64_t jd_pairs = 0;
  std::uint64_t clusters = 0;
  std::uint64_t candidate_edges = 0;
  std::uint64_t theta_steps = 0;
  std::uint64_t guide_nodes = 0;
  std::uint64_t reprices = 0;
  std::int64_t moved = 0;
  std::uint64_t replicas = 0;
  std::int64_t redirected = 0;
  std::uint64_t budget_exhausted_slots = 0;
  std::uint64_t miss_rerouted = 0;
  std::uint64_t boundary_hotspots = 0;
  std::int64_t exchange_moved = 0;
  std::uint64_t fork_demotions = 0;
};

/// Everything the stage replay needs besides the slot's inputs.
struct Replay {
  const RbcaerConfig& config;
  Spans& spans;
  Counters& counters;
  std::size_t slot = 0;
};

/// Content clustering (plan_slot: top sets -> Jd -> complete linkage).
std::vector<std::uint32_t> replay_clustering(Replay& r,
                                             const ccdn::SlotDemand& demand) {
  const RbcaerConfig& config = r.config;
  const auto top_sets = timed(r.spans, "cluster.topsets", r.slot, [&] {
    return ccdn::top_sets_per_hotspot(demand, config.top_fraction);
  });
  const ccdn::DistanceMatrix jd = timed(r.spans, "cluster.jd", r.slot, [&] {
    return ccdn::content_distance_matrix(
        top_sets, {.use_bitmap = config.bitmap_jaccard, .simd = config.simd});
  });
  ccdn::ClusteringResult clustering =
      timed(r.spans, "cluster.linkage", r.slot, [&] {
        return ccdn::hierarchical_cluster(jd, config.linkage,
                                          config.content_cluster_threshold,
                                          config.simd);
      });
  const std::uint64_t n = jd.size();
  r.counters.jd_pairs += n * (n - 1) / 2;
  r.counters.clusters += clustering.num_clusters;
  return std::move(clustering.labels);
}

/// Algorithm 1's flow phase on the warm sweeper: θ steps over Gc, then the
/// residual Gd pass at θ2. Returns the per-step flows, merged by pair.
std::vector<FlowEntry> replay_sweep(Replay& r,
                                    std::span<const ccdn::Hotspot> hotspots,
                                    const ccdn::GridIndex& index,
                                    ccdn::HotspotPartition& partition,
                                    std::int64_t max_movable,
                                    std::span<const std::uint32_t> cluster_of,
                                    ccdn::ThetaSweeper& sweeper,
                                    std::int64_t& moved) {
  const RbcaerConfig& config = r.config;
  const std::vector<CandidateEdge> candidates =
      timed(r.spans, "core.candidates", r.slot, [&] {
        return ccdn::candidate_edges(hotspots, partition, config.theta2_km,
                                     index);
      });
  r.counters.candidate_edges += candidates.size();

  const SpanScope sweep_span(r.spans, "core.sweep", r.slot);
  const std::size_t reprices_before = sweeper.potential_reprices();
  sweeper.begin_slot(partition, std::span<const CandidateEdge>(candidates));
  std::vector<FlowEntry> flows;
  moved = 0;
  const auto absorb = [&](const ccdn::SweepStep& step) {
    ++r.counters.theta_steps;
    moved += step.moved;
    r.counters.guide_nodes += step.guide_nodes;
    flows.insert(flows.end(), step.flows.begin(), step.flows.end());
  };
  constexpr double kThetaEps = 1e-9;  // as in RbcaerScheme
  double theta = config.theta1_km;
  while (theta <= config.theta2_km + kThetaEps && moved < max_movable) {
    absorb(config.content_aggregation
               ? sweeper.step_gc(theta, cluster_of, config.guide)
               : sweeper.step_gd(theta));
    theta += config.delta_km;
  }
  if (moved < max_movable) absorb(sweeper.step_gd(config.theta2_km));
  sweeper.end_slot();
  r.counters.reprices += sweeper.potential_reprices() - reprices_before;
  ccdn::merge_flow_entries(flows);
  return flows;
}

/// One shard's local solve, rebuilt from public calls exactly as the
/// scheme's shard callback builds it: the sub-instance induced by the
/// shard's members, its own clustering, grid and sweeper.
ccdn::ShardFlowResult replay_shard(Replay& r,
                                   std::span<const ccdn::Hotspot> hotspots,
                                   const ccdn::SlotDemand& demand,
                                   std::span<const std::uint32_t> members) {
  const SpanScope shard_span(r.spans, "core.shard_local", r.slot);
  ccdn::ShardFlowResult out;
  const std::size_t n = members.size();
  std::vector<ccdn::Hotspot> sub_hotspots;
  std::vector<std::vector<ccdn::VideoDemand>> sub_videos;
  std::vector<ccdn::GeoPoint> locations;
  for (const std::uint32_t h : members) {
    sub_hotspots.push_back(hotspots[h]);
    locations.push_back(hotspots[h].location);
    const auto videos =
        demand.video_demand(static_cast<ccdn::HotspotIndex>(h));
    sub_videos.emplace_back(videos.begin(), videos.end());
  }
  const ccdn::SlotDemand local(std::move(sub_videos));
  std::vector<std::uint32_t> loads(n);
  for (std::size_t i = 0; i < n; ++i) {
    loads[i] = local.load(static_cast<ccdn::HotspotIndex>(i));
  }
  ccdn::HotspotPartition partition =
      ccdn::HotspotPartition::from_loads(sub_hotspots, loads);
  const std::int64_t max_movable = partition.max_movable();
  if (max_movable == 0) return out;
  std::vector<std::uint32_t> cluster_of(n, 0);
  if (r.config.content_aggregation) cluster_of = replay_clustering(r, local);
  const ccdn::GridIndex index(std::move(locations), 0.5);
  ccdn::ThetaSweeper sweeper(r.config.mcmf_strategy, r.config.integer_costs,
                             r.config.cost_scale);
  out.flows = replay_sweep(r, sub_hotspots, index, partition, max_movable,
                           cluster_of, sweeper, out.moved);
  for (FlowEntry& f : out.flows) {
    f.from = members[f.from];
    f.to = members[f.to];
  }
  return out;
}

double share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

void run_traced(const Workload& workload, const RunOptions& options,
                const std::string& spans_path, std::FILE* out) {
  Setup setup = make_setup(workload, options.threads);
  const ccdn::Simulator& simulator = *setup.simulator;
  ccdn::RbcaerScheme& scheme = *setup.scheme;
  const RbcaerConfig config = scheme.config();
  const std::vector<ccdn::Hotspot>& hotspots = setup.hotspots;
  const ccdn::GridIndex& index = simulator.hotspot_index();
  const double cdn_km = simulator.config().cdn_distance_km;
  const ccdn::SchemeContext context{hotspots, index, setup.catalog, cdn_km,
                                    simulator.config().num_shards};
  const std::size_t m = hotspots.size();
  const bool sharded = workload.shards != 0;
  const std::size_t num_shards =
      std::min(sharded ? workload.shards : std::size_t{4}, m);

  Spans spans;
  Counters counters;
  Replay replay{config, spans, counters};

  // Zone plan: RbcaerScheme computes it once per hotspot set on its first
  // sharded slot. Unsharded workloads time the same calls at 4 zones, the
  // cost the zone layer would add on their hotspot map.
  std::vector<ccdn::GeoPoint> locations;
  for (const ccdn::Hotspot& h : hotspots) locations.push_back(h.location);
  ccdn::ShardAssignment zones;
  std::vector<std::uint8_t> boundary;
  {
    const SpanScope zones_span(spans, "core.shard_zones", 0);
    zones = ccdn::partition_zones(locations, num_shards);
    boundary = ccdn::boundary_hotspots(locations, zones, config.theta2_km,
                                       index);
  }
  std::uint64_t zone_boundary = 0;
  for (const std::uint8_t b : boundary) zone_boundary += b;
  RbcaerConfig shard_config = config;  // as the scheme's child config
  shard_config.online = false;
  shard_config.num_shards = 0;
  shard_config.jd_threads = 1;
  Replay shard_replay{shard_config, spans, counters};
  ccdn::ShardedSolveOptions shard_options;
  shard_options.executor = ccdn::ShardExecutor::kInProcess;
  shard_options.exchange_radius_km = config.theta2_km;
  shard_options.exchange_theta1_km = config.theta1_km;
  shard_options.exchange_theta_step_km = config.delta_km;
  shard_options.exchange_strategy = config.mcmf_strategy;
  shard_options.audit_level = config.audit_level;

  ccdn::ThetaSweeper sweeper(config.mcmf_strategy, config.integer_costs,
                             config.cost_scale);
  ccdn::SimulationReport report(setup.catalog.num_videos, cdn_km);
  std::vector<std::vector<ccdn::VideoId>> previous;
  std::vector<std::string> digests;
  std::vector<std::string> failures;
  std::vector<double> failed_ids;

  ccdn::CsvSlotSource source(options.trace_path, kSlotSeconds);
  for (std::size_t k = 0; options.max_slots == 0 || k < options.max_slots;
       ++k) {
    const SpanScope slot_span(spans, "slot", k);
    std::optional<ccdn::SlotBatch> batch =
        timed(spans, "trace.pull", k, [&] { return source.next(); });
    if (!batch.has_value()) break;
    const std::span<const ccdn::Request> requests(batch->requests);
    replay.slot = shard_replay.slot = k;

    const ccdn::SlotDemand demand = timed(spans, "model.demand", k, [&] {
      return ccdn::SlotDemand(requests, index);
    });
    for (std::size_t h = 0; h < m; ++h) {
      counters.pairs +=
          demand.video_demand(static_cast<ccdn::HotspotIndex>(h)).size();
    }
    ccdn::HotspotPartition partition =
        timed(spans, "core.partition", k, [&] {
          std::vector<std::uint32_t> loads(m);
          for (std::size_t h = 0; h < m; ++h) {
            loads[h] = demand.load(static_cast<ccdn::HotspotIndex>(h));
          }
          return ccdn::HotspotPartition::from_loads(hotspots, loads);
        });
    const std::int64_t max_movable = partition.max_movable();
    counters.overloaded += partition.overloaded.size();
    counters.max_movable += max_movable;

    std::vector<FlowEntry> flows;
    std::int64_t moved = 0;
    if (max_movable > 0 && !sharded) {
      std::vector<std::uint32_t> cluster_of(m, 0);
      if (config.content_aggregation) {
        cluster_of = replay_clustering(replay, demand);
      }
      flows = replay_sweep(replay, hotspots, index, partition, max_movable,
                           cluster_of, sweeper, moved);
    } else if (max_movable > 0) {
      ccdn::ShardedSolveOutcome outcome =
          timed(spans, "core.shard_solve", k, [&] {
            return ccdn::solve_sharded(
                hotspots, index, partition, zones, boundary, shard_options,
                [&](std::uint32_t s) {
                  return replay_shard(shard_replay, hotspots, demand,
                                      zones.members[s]);
                });
          });
      moved = outcome.moved;
      counters.exchange_moved += outcome.exchange_moved;
      counters.boundary_hotspots += outcome.boundary_hotspots;
      flows = std::move(outcome.flows);
      timed(spans, "core.merge", k, [&] { ccdn::merge_flow_entries(flows); });
    }
    counters.moved += moved;

    const auto budget = static_cast<std::size_t>(std::llround(
        config.bpeak_multiplier * static_cast<double>(demand.num_requests())));
    ccdn::ReplicationResult replication =
        timed(spans, "core.replication", k, [&] {
          return ccdn::content_aggregation_replication(demand, hotspots,
                                                       flows, budget);
        });
    counters.replicas += replication.replicas;
    counters.redirected += replication.total_redirected;
    counters.budget_exhausted_slots += replication.budget_exhausted ? 1 : 0;
    const std::vector<ccdn::HotspotIndex> assignment =
        timed(spans, "core.materialize", k, [&] {
          return ccdn::materialize_assignment(
              requests, demand.request_home(),
              std::move(replication.redirects));
        });

    ccdn::SlotPlan plan = timed(spans, "core.plan", k, [&] {
      return scheme.plan_slot(context, requests, demand);
    });
    const ccdn::RbcaerScheme::Diagnostics& diagnostics =
        scheme.last_diagnostics();
    counters.miss_rerouted += diagnostics.miss_rerouted;
    counters.fork_demotions += diagnostics.fork_demotions;
    if (plan.placements != replication.placements ||
        assignment.size() != plan.assignment.size() ||
        diagnostics.moved != moved) {
      failed_ids.push_back(static_cast<double>(k));
      if (failures.size() < 5) {
        failures.push_back("slot " + std::to_string(k) +
                           ": replay differs from plan_slot");
      }
    }

    ccdn::SlotMetrics metrics = timed(spans, "sim.admit", k, [&] {
      return ccdn::admit_slot(hotspots, plan, requests, cdn_km);
    });
    digests.push_back(hex_digest(ccdn::plan_digest(plan)));
    metrics.replicas = ccdn::count_new_replicas(previous, plan.placements);
    previous = std::move(plan.placements);
    report.add_slot(metrics);
  }
  spans.write_chrome_trace(spans_path);

  const std::map<std::string, double> totals = spans.totals();
  const auto t = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second;
  };
  std::uint64_t rejected_capacity = 0;
  std::uint64_t rejected_placement = 0;
  std::uint64_t sent_to_cdn = 0;
  for (const ccdn::SlotMetrics& s : report.slots()) {
    rejected_capacity += s.rejected_capacity;
    rejected_placement += s.rejected_placement;
    sent_to_cdn += s.sent_to_cdn;
  }
  // Replayed stage time: every span directly under a slot besides the
  // pull, demand, plan and admit calls. Per-shard spans nest inside
  // core.shard_solve and are not counted twice. The zone plan is part of
  // a sharded plan_slot (its first slot), so it counts there.
  double replayed = spans.slot_children_total(
      {"trace.pull", "model.demand", "core.plan", "sim.admit"});
  if (sharded) replayed += t("core.shard_zones");
  // What the shard solve spends outside the per-shard solves is the
  // exchange round and the commit loop; it is reported with the sweep.
  const double sweep_s = t("core.sweep") + t("core.merge") +
                         t("core.shard_solve") - t("core.shard_local");
  const auto trace_bytes =
      static_cast<double>(std::filesystem::file_size(options.trace_path));

  JsonLine json(out);
  json.count("slots", report.slots().size());
  json.nums("failed_ids", failed_ids);
  json.strs("failures", failures);
  json.strs("digests", digests);
  json.num("serving_ratio", report.serving_ratio());
  json.num("span_sum_s", t("trace.pull") + t("model.demand") +
                             t("core.plan") + t("sim.admit"));
  json.num("replayed_s", replayed);
  json.num("trace.pull_s", t("trace.pull"));
  json.num("trace.mb_per_s", share(trace_bytes * 1e-6, t("trace.pull")));
  json.num("sim.admit_s", t("sim.admit"));
  json.count("sim.rejected_capacity", rejected_capacity);
  json.count("sim.rejected_placement", rejected_placement);
  json.count("sim.sent_to_cdn", sent_to_cdn);
  json.num("model.demand_s", t("model.demand"));
  json.count("model.pairs", counters.pairs);
  json.num("core.partition_s", t("core.partition"));
  json.count("core.overloaded", counters.overloaded);
  json.count("core.max_movable",
             static_cast<std::uint64_t>(counters.max_movable));
  json.num("cluster.topsets_s", t("cluster.topsets"));
  json.num("cluster.jd_s", t("cluster.jd"));
  json.num("cluster.linkage_s", t("cluster.linkage"));
  json.count("cluster.jd_pairs", counters.jd_pairs);
  json.count("cluster.clusters", counters.clusters);
  json.num("core.candidates_s", t("core.candidates"));
  json.num("core.sweep_s", sweep_s);
  json.count("core.candidate_edges", counters.candidate_edges);
  json.count("core.theta_steps", counters.theta_steps);
  json.count("core.guide_nodes", counters.guide_nodes);
  json.count("core.reprices", counters.reprices);
  json.num("core.moved_share",
           share(static_cast<double>(counters.moved),
                 static_cast<double>(counters.max_movable)));
  json.num("core.replication_s", t("core.replication"));
  json.num("core.materialize_s", t("core.materialize"));
  json.count("core.replicas", counters.replicas);
  json.num("core.redirected_share",
           share(static_cast<double>(counters.redirected),
                 static_cast<double>(counters.moved)));
  json.count("core.budget_exhausted_slots", counters.budget_exhausted_slots);
  json.num("core.plan_s", t("core.plan"));
  json.num("core.plan_other_s", t("core.plan") - replayed);
  json.count("core.miss_rerouted", counters.miss_rerouted);
  json.num("core.shard_zones_s", t("core.shard_zones"));
  json.count("core.shard_boundary_hotspots",
             sharded ? counters.boundary_hotspots : zone_boundary);
  json.num("core.exchange_moved_share",
           share(static_cast<double>(counters.exchange_moved),
                 static_cast<double>(counters.moved)));
  json.count("core.fork_demotions", counters.fork_demotions);
}

}  // namespace perfbench
