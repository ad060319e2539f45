#include "core/theta_sweep.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <optional>
#include <vector>

#include "cluster/content_distance.h"
#include "core/balance_graph.h"
#include "core/rbcaer_scheme.h"
#include "core/replication.h"
#include "flow/mcmf.h"
#include "model/topsets.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/rng.h"

namespace ccdn {
namespace {

// ---------------------------------------------------------------------------
// Differential harness: the cold reference step (cold_step_gd/cold_step_gc,
// a fresh graph and a from-zero MCMF per θ) vs ThetaSweeper.
// ---------------------------------------------------------------------------

struct Instance {
  std::vector<Hotspot> hotspots;
  std::vector<std::uint32_t> loads;
  std::vector<std::uint32_t> cluster_of;
};

/// Random hotspots in a ~2 km box: distances are irrational and distinct,
/// so the min-cost flow solutions compared below are generically unique.
Instance random_instance(Rng& rng, std::size_t m, std::size_t clusters) {
  Instance inst;
  inst.hotspots.resize(m);
  inst.loads.resize(m);
  inst.cluster_of.resize(m);
  for (std::size_t h = 0; h < m; ++h) {
    inst.hotspots[h].location = {40.000 + rng.uniform(0.0, 0.020),
                                 116.500 + rng.uniform(0.0, 0.025)};
    inst.hotspots[h].service_capacity =
        static_cast<std::uint32_t>(rng.uniform_int(5, 40));
    inst.hotspots[h].cache_capacity = 20;
    inst.loads[h] = static_cast<std::uint32_t>(rng.uniform_int(0, 60));
    inst.cluster_of[h] = static_cast<std::uint32_t>(rng.index(clusters));
  }
  return inst;
}

std::vector<double> theta_grid(double theta1, double theta2, double delta) {
  std::vector<double> thetas;
  for (double t = theta1; t <= theta2 + 1e-9; t += delta) thetas.push_back(t);
  return thetas;
}

struct SweepRecord {
  std::int64_t moved = 0;
  double cost = 0.0;
  std::size_t guide_nodes = 0;
  std::vector<FlowEntry> flows;      // merged across all steps
  std::vector<std::int64_t> phi;     // partition slack after the sweep
  std::size_t reprices = 0;
};

/// Sweep the θ grid over Gc (aggregation) or Gd, then optionally one
/// residual Gd step, on the warm sweeper or on the cold reference step.
SweepRecord sweep(bool warm, HotspotPartition partition,
                  std::span<const CandidateEdge> candidates,
                  const std::vector<double>& thetas, bool aggregation,
                  std::span<const std::uint32_t> cluster_of,
                  const GuideOptions& guide, McmfStrategy strategy,
                  std::optional<double> residual_theta = std::nullopt) {
  ThetaSweeper sweeper(strategy);
  if (warm) sweeper.begin_slot(partition, candidates);
  SweepRecord rec;
  const auto absorb = [&](const SweepStep& step) {
    rec.moved += step.moved;
    rec.cost += step.cost;
    rec.guide_nodes += step.guide_nodes;
    rec.flows.insert(rec.flows.end(), step.flows.begin(), step.flows.end());
  };
  const auto step = [&](double theta, bool gc) {
    if (warm) {
      return gc ? sweeper.step_gc(theta, cluster_of, guide)
                : sweeper.step_gd(theta);
    }
    return gc ? cold_step_gc(partition, candidates, theta, cluster_of, guide,
                             strategy)
              : cold_step_gd(partition, candidates, theta, strategy);
  };
  for (const double theta : thetas) absorb(step(theta, aggregation));
  if (residual_theta) absorb(step(*residual_theta, false));
  sweeper.end_slot();
  merge_flow_entries(rec.flows);
  rec.phi = partition.phi;
  rec.reprices = sweeper.potential_reprices();
  return rec;
}

void expect_same_flows(const std::vector<FlowEntry>& warm,
                       const std::vector<FlowEntry>& cold) {
  ASSERT_EQ(warm.size(), cold.size());
  for (std::size_t i = 0; i < warm.size(); ++i) {
    EXPECT_EQ(warm[i].from, cold[i].from) << "entry " << i;
    EXPECT_EQ(warm[i].to, cold[i].to) << "entry " << i;
    EXPECT_EQ(warm[i].amount, cold[i].amount) << "entry " << i;
  }
}

class ThetaSweepDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ThetaSweepDifferential, GdWarmMatchesCold) {
  Rng rng(GetParam() * 7919 + 11);
  const Instance inst = random_instance(rng, 24, 4);
  const HotspotPartition partition =
      HotspotPartition::from_loads(inst.hotspots, inst.loads);
  const auto candidates =
      candidate_edges_pairscan(inst.hotspots, partition, 1.5);
  const auto thetas = theta_grid(0.3, 1.5, 0.1);  // 13 steps

  const SweepRecord cold = sweep(false, partition, candidates, thetas, false,
                                 inst.cluster_of, {}, McmfStrategy::kSpfa);
  const SweepRecord warm = sweep(true, partition, candidates, thetas, false,
                                 inst.cluster_of, {}, McmfStrategy::kSpfa);

  EXPECT_EQ(warm.moved, cold.moved);
  EXPECT_NEAR(warm.cost, cold.cost, 1e-6);
  EXPECT_EQ(warm.phi, cold.phi);
  expect_same_flows(warm.flows, cold.flows);
}

TEST_P(ThetaSweepDifferential, GcWarmMatchesColdBitForBit) {
  // The Gc regime rebuilds transiently on the persistent scaffold; the
  // resulting graph is search-identical to a cold build, so flows, guide
  // counts, and costs must all match exactly (DESIGN.md §3.7).
  Rng rng(GetParam() * 104729 + 3);
  const Instance inst = random_instance(rng, 24, 4);
  const HotspotPartition partition =
      HotspotPartition::from_loads(inst.hotspots, inst.loads);
  const auto candidates =
      candidate_edges_pairscan(inst.hotspots, partition, 1.5);
  const auto thetas = theta_grid(0.3, 1.5, 0.1);
  const GuideOptions guide;

  const SweepRecord cold = sweep(false, partition, candidates, thetas, true,
                                 inst.cluster_of, guide, McmfStrategy::kSpfa);
  const SweepRecord warm = sweep(true, partition, candidates, thetas, true,
                                 inst.cluster_of, guide, McmfStrategy::kSpfa);

  EXPECT_EQ(warm.moved, cold.moved);
  EXPECT_EQ(warm.guide_nodes, cold.guide_nodes);
  EXPECT_NEAR(warm.cost, cold.cost, 1e-9);
  EXPECT_EQ(warm.phi, cold.phi);
  expect_same_flows(warm.flows, cold.flows);
}

TEST_P(ThetaSweepDifferential, GcSweepThenGdResidualMatchesCold) {
  // Algorithm 1's actual shape: Gc steps over the grid, then one residual
  // Gd pass at θ2. Exercises the kGc → kGdTransient regime switch.
  Rng rng(GetParam() * 13007 + 29);
  const Instance inst = random_instance(rng, 20, 3);
  const HotspotPartition partition =
      HotspotPartition::from_loads(inst.hotspots, inst.loads);
  const auto candidates =
      candidate_edges_pairscan(inst.hotspots, partition, 1.5);
  const auto thetas = theta_grid(0.3, 1.5, 0.1);
  const GuideOptions guide;

  const SweepRecord cold = sweep(false, partition, candidates, thetas, true,
                                 inst.cluster_of, guide, McmfStrategy::kSpfa,
                                 1.5);
  const SweepRecord warm = sweep(true, partition, candidates, thetas, true,
                                 inst.cluster_of, guide, McmfStrategy::kSpfa,
                                 1.5);

  EXPECT_EQ(warm.moved, cold.moved);
  EXPECT_EQ(warm.phi, cold.phi);
  expect_same_flows(warm.flows, cold.flows);
}

TEST_P(ThetaSweepDifferential, DijkstraPotentialsStayValidAcrossSteps) {
  // Potentials-validity property test: the warm Gd sweep carries Dijkstra
  // potentials across edge insertions. Stale potentials would trip the
  // "negative reduced cost" CCDN_ENSURE inside the Dijkstra search (the
  // live assertion here); reprice_from must keep the sweep both running
  // and agreeing with the SPFA oracle.
  Rng rng(GetParam() * 524287 + 1);
  const Instance inst = random_instance(rng, 30, 4);
  const HotspotPartition partition =
      HotspotPartition::from_loads(inst.hotspots, inst.loads);
  const auto candidates =
      candidate_edges_pairscan(inst.hotspots, partition, 1.5);
  const auto thetas = theta_grid(0.3, 1.5, 0.1);

  const SweepRecord oracle =
      sweep(false, partition, candidates, thetas, false, inst.cluster_of, {},
            McmfStrategy::kSpfa);
  const SweepRecord warm =
      sweep(true, partition, candidates, thetas, false, inst.cluster_of, {},
            McmfStrategy::kDijkstraPotentials);

  EXPECT_EQ(warm.moved, oracle.moved);
  EXPECT_NEAR(warm.cost, oracle.cost, 1e-6);
  EXPECT_EQ(warm.phi, oracle.phi);
  // Re-prices are rare (freezing restores validity at each commit) but
  // must be accounted for whenever they do happen.
  EXPECT_GE(warm.reprices, 0u);
}

INSTANTIATE_TEST_SUITE_P(RandomPartitions, ThetaSweepDifferential,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// Scheme-level differential: RbcaerScheme (warm sweeper) against a replay of
// its pipeline built from public calls with the cold reference step in place
// of the sweeper. Both run without miss redirection, which the replay does
// not model.
// ---------------------------------------------------------------------------

struct Fixture {
  std::vector<Hotspot> hotspots;
  GridIndex index;
  VideoCatalog catalog{100};

  explicit Fixture(std::uint32_t service = 5, std::uint32_t cache = 10)
      : hotspots([&] {
          std::vector<Hotspot> h(4);
          h[0].location = {40.050, 116.500};  // will be overloaded
          h[1].location = {40.055, 116.505};
          h[2].location = {40.045, 116.495};
          h[3].location = {40.052, 116.510};
          for (auto& hotspot : h) {
            hotspot.service_capacity = service;
            hotspot.cache_capacity = cache;
          }
          return h;
        }()),
        index(
            [this] {
              std::vector<GeoPoint> pts;
              for (const auto& h : hotspots) pts.push_back(h.location);
              return pts;
            }(),
            0.5) {}

  SchemeContext context() const { return {hotspots, index, catalog, 20.0}; }
};

std::vector<Request> hot_demand(int count, std::vector<VideoId> videos) {
  std::vector<Request> requests;
  for (int i = 0; i < count; ++i) {
    Request r;
    r.video = videos[static_cast<std::size_t>(i) % videos.size()];
    r.location = {40.050, 116.500};
    requests.push_back(r);
  }
  return requests;
}

struct ColdReplay {
  SlotPlan plan;
  std::int64_t moved = 0;
  std::int64_t redirected = 0;
  std::size_t guide_nodes = 0;
  std::size_t theta_iterations = 0;
  std::size_t replicas = 0;
};

/// RbcaerScheme::plan_slot's unsharded path, step for step: partition,
/// clustering, candidate edges, the θ sweep plus the residual Gd step on
/// the cold reference step, Procedure 1 and materialization.
ColdReplay cold_replay(const RbcaerConfig& config,
                       const SchemeContext& context,
                       std::span<const Request> requests,
                       const SlotDemand& demand) {
  const std::size_t m = context.hotspots.size();
  std::vector<std::uint32_t> loads(m);
  for (std::size_t h = 0; h < m; ++h) {
    loads[h] = demand.load(static_cast<HotspotIndex>(h));
  }
  HotspotPartition partition =
      HotspotPartition::from_loads(context.hotspots, loads);
  const std::int64_t max_movable = partition.max_movable();
  ColdReplay out;
  std::vector<FlowEntry> flows;
  const auto absorb = [&](const SweepStep& step) {
    out.moved += step.moved;
    out.guide_nodes += step.guide_nodes;
    flows.insert(flows.end(), step.flows.begin(), step.flows.end());
  };
  if (max_movable > 0) {
    std::vector<std::uint32_t> cluster_of(m, 0);
    if (config.content_aggregation) {
      cluster_of = hierarchical_cluster(
                       content_distance_matrix(top_sets_per_hotspot(
                           demand, config.top_fraction)),
                       config.linkage, config.content_cluster_threshold)
                       .labels;
    }
    const auto candidates = candidate_edges(
        context.hotspots, partition, config.theta2_km, context.hotspot_index);
    for (double theta = config.theta1_km;
         theta <= config.theta2_km + 1e-9 && out.moved < max_movable;
         theta += config.delta_km) {
      ++out.theta_iterations;
      absorb(config.content_aggregation
                 ? cold_step_gc(partition, candidates, theta, cluster_of,
                                config.guide, config.mcmf_strategy)
                 : cold_step_gd(partition, candidates, theta,
                                config.mcmf_strategy));
    }
    if (out.moved < max_movable) {
      absorb(cold_step_gd(partition, candidates, config.theta2_km,
                          config.mcmf_strategy));
    }
  }
  merge_flow_entries(flows);
  const auto budget = static_cast<std::size_t>(std::llround(
      config.bpeak_multiplier * static_cast<double>(demand.num_requests())));
  ReplicationResult replication = content_aggregation_replication(
      demand, context.hotspots, flows, budget);
  out.redirected = replication.total_redirected;
  out.replicas = replication.replicas;
  out.plan.placements = std::move(replication.placements);
  out.plan.assignment = materialize_assignment(
      requests, demand.request_home(), std::move(replication.redirects));
  return out;
}

void expect_same_plan_and_diagnostics(RbcaerConfig config,
                                      const SchemeContext& context,
                                      std::span<const Request> requests,
                                      const SlotDemand& demand) {
  config.miss_redirection = false;
  RbcaerScheme warm(config);
  const SlotPlan warm_plan = warm.plan_slot(context, requests, demand);
  const ColdReplay cold = cold_replay(config, context, requests, demand);

  EXPECT_EQ(warm_plan.assignment, cold.plan.assignment);
  EXPECT_EQ(warm_plan.placements, cold.plan.placements);
  const auto& w = warm.last_diagnostics();
  EXPECT_EQ(w.moved, cold.moved);
  EXPECT_EQ(w.guide_nodes, cold.guide_nodes);
  EXPECT_EQ(w.theta_iterations, cold.theta_iterations);
  EXPECT_EQ(w.redirected, cold.redirected);
  EXPECT_EQ(w.replicas, cold.replicas);
}

TEST(ThetaSweepScheme, IncrementalMatchesColdOnSeedScenarios) {
  RbcaerConfig config;
  config.theta1_km = 0.3;
  config.theta2_km = 1.5;
  config.delta_km = 0.1;  // 13 θ iterations

  {
    Fixture fixture;
    const auto requests = hot_demand(20, {1, 2});
    const SlotDemand demand(requests, fixture.index);
    expect_same_plan_and_diagnostics(config, fixture.context(), requests,
                                     demand);
  }
  {
    Fixture fixture;  // over-subscribed: residual Gd pass engages
    const auto requests = hot_demand(40, {1, 2, 3, 4});
    const SlotDemand demand(requests, fixture.index);
    expect_same_plan_and_diagnostics(config, fixture.context(), requests,
                                     demand);
  }
  {
    Fixture fixture(/*service=*/5, /*cache=*/1);  // cache-constrained
    const auto requests = hot_demand(30, {1, 2, 3});
    const SlotDemand demand(requests, fixture.index);
    expect_same_plan_and_diagnostics(config, fixture.context(), requests,
                                     demand);
  }
}

TEST(ThetaSweepScheme, IncrementalMatchesColdWithoutAggregation) {
  RbcaerConfig config;
  config.content_aggregation = false;
  config.theta1_km = 0.3;
  config.theta2_km = 1.5;
  config.delta_km = 0.1;
  Fixture fixture;
  const auto requests = hot_demand(25, {1, 2, 3});
  const SlotDemand demand(requests, fixture.index);
  expect_same_plan_and_diagnostics(config, fixture.context(), requests,
                                   demand);
}

TEST(ThetaSweepScheme, IncrementalMatchesColdUnderDijkstra) {
  RbcaerConfig config;
  config.mcmf_strategy = McmfStrategy::kDijkstraPotentials;
  config.theta1_km = 0.3;
  config.theta2_km = 1.5;
  config.delta_km = 0.1;
  Fixture fixture;
  const auto requests = hot_demand(40, {1, 2, 3, 4});
  const SlotDemand demand(requests, fixture.index);
  expect_same_plan_and_diagnostics(config, fixture.context(), requests,
                                   demand);
}

TEST(ThetaSweepScheme, IncrementalMatchesColdOnGeneratedWorld) {
  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = 80;
  world_config.num_videos = 2000;
  World world = generate_world(world_config);
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  trace_config.num_requests = 12000;
  const auto trace = generate_trace(world, trace_config);

  std::vector<GeoPoint> pts;
  for (const auto& h : world.hotspots()) pts.push_back(h.location);
  const GridIndex index(std::move(pts), 0.75);
  const SchemeContext context{world.hotspots(),
                              index,
                              VideoCatalog{world_config.num_videos}, 20.0};
  const SlotDemand demand(trace, index);

  RbcaerConfig config;
  config.theta1_km = 0.3;
  config.theta2_km = 1.5;
  config.delta_km = 0.1;
  expect_same_plan_and_diagnostics(config, context, trace, demand);

  config.content_aggregation = false;
  expect_same_plan_and_diagnostics(config, context, trace, demand);
}

// ---------------------------------------------------------------------------
// Steady-state arena property: once identical slots repeat, the sweeper's
// lane arena must stop acquiring memory — every per-slot buffer (sweep
// scratch, Gc scratch, both solvers' search state) has reached its
// high-water size and is reused in place. This is the allocation half of
// the solver-core memory layout (DESIGN.md §3.11); the counters come from
// the instrumented BumpArena itself.
// ---------------------------------------------------------------------------

TEST(ThetaSweepArena, SteadyStateSlotsAcquireNoMemory) {
  Rng rng(987654321);
  const Instance inst = random_instance(rng, 24, 4);
  const HotspotPartition partition =
      HotspotPartition::from_loads(inst.hotspots, inst.loads);
  const auto candidates =
      candidate_edges_pairscan(inst.hotspots, partition, 1.5);
  const auto thetas = theta_grid(0.3, 1.5, 0.1);
  const GuideOptions guide;

  ThetaSweeper sweeper(McmfStrategy::kSpfa);
  std::size_t warm_blocks = 0;
  std::size_t warm_bytes = 0;
  std::size_t warm_allocations = 0;
  for (int slot = 0; slot < 6; ++slot) {
    HotspotPartition p = partition;  // identical slot shape every time
    sweeper.begin_slot(p, candidates);
    for (const double theta : thetas) {
      (void)sweeper.step_gc(theta, inst.cluster_of, guide);
    }
    (void)sweeper.step_gd(1.5);
    sweeper.end_slot();
    const BumpArena& arena = sweeper.scratch_arena();
    if (slot == 1) {
      warm_blocks = arena.upstream_blocks();
      warm_bytes = arena.bytes_reserved();
      warm_allocations = arena.allocations();
      EXPECT_GT(warm_allocations, 0u);  // the buffers really live here
    } else if (slot > 1) {
      EXPECT_EQ(arena.upstream_blocks(), warm_blocks) << "slot " << slot;
      EXPECT_EQ(arena.bytes_reserved(), warm_bytes) << "slot " << slot;
      EXPECT_EQ(arena.allocations(), warm_allocations) << "slot " << slot;
    }
  }
}

}  // namespace
}  // namespace ccdn
