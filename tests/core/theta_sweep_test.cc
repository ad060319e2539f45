#include "core/theta_sweep.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "cluster/content_distance.h"
#include "core/balance_graph.h"
#include "core/rbcaer_scheme.h"
#include "core/replication.h"
#include "flow/mcmf.h"
#include "model/topsets.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

// ---------------------------------------------------------------------------
// Differential harness: the cold step (cold_step_gd/cold_step_gc, a fresh
// graph and a from-zero MCMF per θ, audited at kFull) vs ThetaSweeper, the
// adapter perfbench's traced mode drives.
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
  std::size_t guide_nodes = 0;
  std::vector<FlowEntry> flows;      // merged across all steps
  std::vector<std::int64_t> phi;     // partition slack after the sweep
};

/// Sweep the θ grid over Gc, then one residual Gd step at
/// `residual_theta`, through the adapter or on the cold step directly.
SweepRecord sweep(bool adapter, HotspotPartition partition,
                  std::span<const CandidateEdge> candidates,
                  const std::vector<double>& thetas, double residual_theta,
                  std::span<const std::uint32_t> cluster_of,
                  const GuideOptions& guide) {
  ThetaSweeper sweeper;
  if (adapter) sweeper.begin_slot(partition, candidates);
  SweepRecord rec;
  const auto absorb = [&](const SweepStep& step) {
    rec.moved += step.moved;
    rec.guide_nodes += step.guide_nodes;
    rec.flows.insert(rec.flows.end(), step.flows.begin(), step.flows.end());
  };
  for (const double theta : thetas) {
    absorb(adapter ? sweeper.step_gc(theta, cluster_of, guide)
                   : cold_step_gc(partition, candidates, theta, cluster_of,
                                  guide, AuditLevel::kFull));
  }
  absorb(adapter ? sweeper.step_gd(residual_theta)
                 : cold_step_gd(partition, candidates, residual_theta,
                                AuditLevel::kFull));
  sweeper.end_slot();
  merge_flow_entries(rec.flows);
  rec.phi = partition.phi;
  EXPECT_EQ(sweeper.potential_reprices(), 0u);
  return rec;
}

void expect_same_flows(const std::vector<FlowEntry>& adapter,
                       const std::vector<FlowEntry>& cold) {
  ASSERT_EQ(adapter.size(), cold.size());
  for (std::size_t i = 0; i < adapter.size(); ++i) {
    EXPECT_EQ(adapter[i].from, cold[i].from) << "entry " << i;
    EXPECT_EQ(adapter[i].to, cold[i].to) << "entry " << i;
    EXPECT_EQ(adapter[i].amount, cold[i].amount) << "entry " << i;
  }
}

class ThetaSweepDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ThetaSweepDifferential, GcSweepThenGdResidualMatchesCold) {
  // Algorithm 1's actual shape, as perfbench's traced mode replays it: Gc
  // steps over the grid, then one residual Gd pass at θ2.
  Rng rng(GetParam() * 13007 + 29);
  const Instance inst = random_instance(rng, 20, 3);
  const HotspotPartition partition =
      HotspotPartition::from_loads(inst.hotspots, inst.loads);
  const auto candidates =
      candidate_edges_pairscan(inst.hotspots, partition, 1.5);
  const auto thetas = theta_grid(0.3, 1.5, 0.1);
  const GuideOptions guide;

  const SweepRecord cold =
      sweep(false, partition, candidates, thetas, 1.5, inst.cluster_of, guide);
  const SweepRecord adapter =
      sweep(true, partition, candidates, thetas, 1.5, inst.cluster_of, guide);

  EXPECT_EQ(adapter.moved, cold.moved);
  EXPECT_EQ(adapter.guide_nodes, cold.guide_nodes);
  EXPECT_EQ(adapter.phi, cold.phi);
  expect_same_flows(adapter.flows, cold.flows);
}

INSTANTIATE_TEST_SUITE_P(RandomPartitions, ThetaSweepDifferential,
                         ::testing::Range<std::uint64_t>(1, 13));

TEST(ThetaSweep, RequiresPositiveStep) {
  HotspotPartition partition;
  for (const double delta : {0.0, -0.5}) {
    EXPECT_THROW((void)theta_sweep(partition, {}, 0.5, 1.5, delta, 0, {}, {}),
                 PreconditionError)
        << "delta " << delta;
  }
}

// ---------------------------------------------------------------------------
// Scheme-level differential: RbcaerScheme against a replay of its pipeline
// built from public calls (partition, clustering, candidate edges, one cold
// step per θ), the way perfbench's traced mode rebuilds it. Both run
// without miss redirection, which the replay does not model.
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
/// clustering, candidate edges, one cold step per θ plus the residual Gd
/// step, Procedure 1 and materialization.
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
                                config.guide)
                 : cold_step_gd(partition, candidates, theta));
    }
    if (out.moved < max_movable) {
      absorb(cold_step_gd(partition, candidates, config.theta2_km));
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
  RbcaerScheme scheme(config);
  const SlotPlan plan = scheme.plan_slot(context, requests, demand);
  const ColdReplay cold = cold_replay(config, context, requests, demand);

  EXPECT_EQ(plan.assignment, cold.plan.assignment);
  EXPECT_EQ(plan.placements, cold.plan.placements);
  const auto& w = scheme.last_diagnostics();
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

}  // namespace
}  // namespace ccdn
