#include "core/rbcaer_scheme.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/nearest_scheme.h"
#include "core/theta_sweep.h"
#include "predict/forecaster.h"
#include "sim/predictive.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/error.h"

namespace ccdn {
namespace {

/// A deliberately unbalanced micro-world: one hot location with a weak
/// hotspot next to several idle hotspots.
struct Fixture {
  std::vector<Hotspot> hotspots;
  GridIndex index;
  VideoCatalog catalog{100};

  explicit Fixture(std::uint32_t service = 5, std::uint32_t cache = 10)
      : hotspots([&] {
          std::vector<Hotspot> h(4);
          h[0].location = {40.050, 116.500};  // will be overloaded
          h[1].location = {40.055, 116.505};  // ~0.7 km away
          h[2].location = {40.045, 116.495};  // ~0.7 km away
          h[3].location = {40.052, 116.510};  // ~0.9 km away
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
    r.location = {40.050, 116.500};  // all at the hot location
    requests.push_back(r);
  }
  return requests;
}

TEST(Rbcaer, ValidatesConfig) {
  RbcaerConfig config;
  config.theta1_km = -1.0;
  EXPECT_THROW(RbcaerScheme{config}, PreconditionError);
  config = RbcaerConfig{};
  config.theta2_km = 0.1;  // below theta1
  EXPECT_THROW(RbcaerScheme{config}, PreconditionError);
  config = RbcaerConfig{};
  config.delta_km = 0.0;
  EXPECT_THROW(RbcaerScheme{config}, PreconditionError);
  // θ grids that never end: θ += 1e-300 leaves θ unchanged, and θ never
  // passes an infinite θ2.
  config = RbcaerConfig{};
  config.delta_km = 1e-300;
  EXPECT_THROW(RbcaerScheme{config}, PreconditionError);
  config = RbcaerConfig{};
  config.theta2_km = std::numeric_limits<double>::infinity();
  EXPECT_THROW(RbcaerScheme{config}, PreconditionError);
  config = RbcaerConfig{};
  config.top_fraction = 0.0;
  EXPECT_THROW(RbcaerScheme{config}, PreconditionError);
}

TEST(Rbcaer, HalfUlpThetaGridEnds) {
  // A valid config whose θ1 + δ rounds back to θ1, so stepping θ by
  // repeated addition never ends. The grid is checked first, so a grid
  // that does not end fails here rather than hanging in plan_slot.
  RbcaerConfig config;
  config.theta1_km = 1.5;
  config.theta2_km = std::nextafter(1.5, 2.0);
  config.delta_km = (config.theta2_km - config.theta1_km) / 2;
  ASSERT_EQ(theta_grid_size(config.theta1_km, config.theta2_km,
                            config.delta_km),
            3u);
  RbcaerScheme scheme(config);
  // Two hotspots 10 km apart: the overloaded one has nowhere within θ2 to
  // send its excess, so the sweep runs every point of the grid.
  std::vector<Hotspot> hotspots(2);
  hotspots[0].location = {40.050, 116.500};
  hotspots[1].location = {40.140, 116.500};
  for (Hotspot& h : hotspots) {
    h.service_capacity = 5;
    h.cache_capacity = 10;
  }
  const GridIndex index({hotspots[0].location, hotspots[1].location}, 0.5);
  const SchemeContext context{hotspots, index, VideoCatalog{100}, 20.0};
  const auto requests = hot_demand(20, {1, 2});
  const SlotDemand demand(requests, index);
  (void)scheme.plan_slot(context, requests, demand);
  EXPECT_EQ(scheme.last_diagnostics().max_movable, 5);
  EXPECT_EQ(scheme.last_diagnostics().theta_iterations, 3u);
  EXPECT_EQ(scheme.last_diagnostics().moved, 0);
}

TEST(Rbcaer, NameReflectsAblation) {
  EXPECT_EQ(RbcaerScheme().name(), "RBCAer");
  RbcaerConfig config;
  config.content_aggregation = false;
  EXPECT_EQ(RbcaerScheme(config).name(), "RBCAer(no-aggregation)");
}

TEST(Rbcaer, OffloadsOverloadedHotspot) {
  Fixture fixture;
  const auto requests = hot_demand(20, {1, 2});
  const SlotDemand demand(requests, fixture.index);
  EXPECT_EQ(demand.load(0), 20u);  // everything aggregates at hotspot 0
  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  const auto& diag = scheme.last_diagnostics();
  EXPECT_EQ(diag.max_movable, 15);  // 20 - 5 capacity
  EXPECT_EQ(diag.moved, 15);        // 3 idle hotspots x 5 slack
  EXPECT_EQ(diag.redirected, 15);
  // Redirected requests are spread across the neighbours.
  std::vector<int> assigned(4, 0);
  for (const auto target : plan.assignment) {
    ASSERT_NE(target, kCdnServer);
    ++assigned[target];
  }
  EXPECT_EQ(assigned[0], 5);
  EXPECT_EQ(assigned[1] + assigned[2] + assigned[3], 15);
}

TEST(Rbcaer, RedirectionsNeverOvercommitReceivers) {
  // 40 requests against 20 total slack: the surplus stays at the home
  // hotspot (admission rejects it to the CDN per Algorithm 1, line 14),
  // but every *redirected* assignment must respect the target's capacity.
  Fixture fixture;
  const auto requests = hot_demand(40, {1, 2, 3, 4});
  const SlotDemand demand(requests, fixture.index);
  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  const auto homes = demand.request_home();
  std::vector<std::uint32_t> redirected(4, 0);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto target = plan.assignment[r];
    if (target != kCdnServer && target != homes[r]) ++redirected[target];
  }
  for (std::size_t h = 1; h < 4; ++h) {
    EXPECT_LE(redirected[h], fixture.hotspots[h].service_capacity)
        << "hotspot " << h;
  }

  // After admission, served load respects capacity everywhere.
  SimulationConfig sim_config;
  sim_config.slot_seconds = 24 * 3600;
  sim_config.record_hotspot_loads = true;
  Simulator simulator(fixture.hotspots, fixture.catalog, sim_config);
  RbcaerScheme fresh;
  const auto report = simulator.run(fresh, requests);
  ASSERT_EQ(report.hotspot_loads().size(), 1u);
  for (std::size_t h = 0; h < 4; ++h) {
    EXPECT_LE(report.hotspot_loads()[0][h],
              fixture.hotspots[h].service_capacity);
  }
}

TEST(Rbcaer, PlacementCoversRedirectedVideos) {
  Fixture fixture;
  const auto requests = hot_demand(20, {1, 2});
  const SlotDemand demand(requests, fixture.index);
  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto target = plan.assignment[r];
    if (target == kCdnServer || target == 0) continue;
    EXPECT_TRUE(std::binary_search(plan.placements[target].begin(),
                                   plan.placements[target].end(),
                                   requests[r].video))
        << "request " << r << " redirected to " << target
        << " without placement";
  }
}

TEST(Rbcaer, RespectsCaches) {
  Fixture fixture(/*service=*/5, /*cache=*/1);
  const auto requests = hot_demand(30, {1, 2, 3});
  const SlotDemand demand(requests, fixture.index);
  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  EXPECT_TRUE(plan.respects_caches(fixture.hotspots));
}

TEST(Rbcaer, BalancedLoadMeansNoFlows) {
  Fixture fixture(/*service=*/100, /*cache=*/10);
  const auto requests = hot_demand(10, {1});
  const SlotDemand demand(requests, fixture.index);
  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(fixture.context(), requests, demand);
  const auto& diag = scheme.last_diagnostics();
  EXPECT_EQ(diag.moved, 0);
  EXPECT_EQ(diag.redirected, 0);
  // Everything stays at the home hotspot.
  for (const auto target : plan.assignment) EXPECT_EQ(target, 0u);
}

TEST(Rbcaer, ThetaSweepIterationCount) {
  Fixture fixture;
  const auto requests = hot_demand(40, {1, 2, 3, 4});
  const SlotDemand demand(requests, fixture.index);
  RbcaerConfig config;
  config.theta1_km = 0.5;
  config.theta2_km = 1.5;
  config.delta_km = 0.5;
  RbcaerScheme scheme(config);
  (void)scheme.plan_slot(fixture.context(), requests, demand);
  // 0.5, 1.0, 1.5 (sweep may end early only when all load moved).
  EXPECT_LE(scheme.last_diagnostics().theta_iterations, 3u);
  EXPECT_GE(scheme.last_diagnostics().theta_iterations, 1u);
}

TEST(Rbcaer, UnreachableSlackGoesToCdnViaAdmission) {
  // Neighbours exist but are beyond theta2: overload cannot move.
  std::vector<Hotspot> hotspots(2);
  hotspots[0].location = {40.050, 116.500};
  hotspots[1].location = {40.050, 116.560};  // ~5 km away
  for (auto& h : hotspots) {
    h.service_capacity = 5;
    h.cache_capacity = 10;
  }
  const GridIndex index({hotspots[0].location, hotspots[1].location}, 0.5);
  const SchemeContext context{hotspots, index, VideoCatalog{100}, 20.0};
  std::vector<Request> requests;
  for (int i = 0; i < 12; ++i) {
    Request r;
    r.video = 1;
    r.location = {40.050, 116.500};
    requests.push_back(r);
  }
  const SlotDemand demand(requests, index);
  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(context, requests, demand);
  EXPECT_EQ(scheme.last_diagnostics().moved, 0);
  // All requests stay home; admission will reject 7 of 12.
  for (const auto target : plan.assignment) EXPECT_EQ(target, 0u);
}

TEST(Rbcaer, MissRedirectionSendsLocalMissToNearestCachingNeighbour) {
  // No hotspot is overloaded, so no flows: every placement comes from
  // Procedure 1's local fill. Hotspot 0's one-slot cache holds video 1, so
  // its single video-2 request misses at home. Hotspots 2 and 3 cache
  // video 2 for their own requests within θ2 (1.5 km); hotspot 1 is the
  // nearest neighbour but caches nothing, and hotspot 4 caches video 2
  // beyond θ2.
  std::vector<Hotspot> hotspots(5);
  hotspots[0].location = {40.050, 116.500};
  hotspots[1].location = {40.050, 116.506};  // ~0.51 km, nothing cached
  hotspots[2].location = {40.057, 116.500};  // ~0.78 km, caches video 2
  hotspots[3].location = {40.050, 116.490};  // ~0.85 km, caches video 2
  hotspots[4].location = {40.050, 116.530};  // ~2.6 km, beyond θ2
  for (auto& h : hotspots) {
    h.service_capacity = 10;
    h.cache_capacity = 1;
  }
  std::vector<GeoPoint> pts;
  for (const auto& h : hotspots) pts.push_back(h.location);
  const GridIndex index(pts, 0.5);
  const SchemeContext context{hotspots, index, VideoCatalog{100}, 20.0};

  std::vector<Request> requests;
  const auto request_at = [&](std::size_t h, VideoId video) {
    Request r;
    r.video = video;
    r.location = hotspots[h].location;
    requests.push_back(r);
  };
  for (int i = 0; i < 4; ++i) request_at(0, 1);
  const std::size_t miss = requests.size();
  request_at(0, 2);
  for (const std::size_t h : {2, 3, 4}) request_at(h, 2);
  const SlotDemand demand(requests, index);

  RbcaerScheme scheme;
  const SlotPlan plan = scheme.plan_slot(context, requests, demand);
  EXPECT_EQ(scheme.last_diagnostics().moved, 0);
  EXPECT_EQ(plan.assignment[miss], 2u);
  EXPECT_EQ(scheme.last_diagnostics().miss_rerouted, 1u);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    if (r == miss) continue;
    EXPECT_EQ(plan.assignment[r], demand.request_home()[r]) << "request " << r;
  }

  RbcaerConfig strict;
  strict.miss_redirection = false;
  RbcaerScheme strict_scheme(strict);
  const SlotPlan strict_plan =
      strict_scheme.plan_slot(context, requests, demand);
  EXPECT_EQ(strict_plan.assignment[miss], 0u);
  EXPECT_EQ(strict_scheme.last_diagnostics().miss_rerouted, 0u);
  EXPECT_EQ(strict_plan.placements, plan.placements);

  // A neighbour whose service capacity its own request already uses up is
  // skipped: with hotspot 2 full the miss goes on to hotspot 3, and with
  // hotspot 3 full as well it stays home.
  std::vector<Hotspot> full = hotspots;
  const SchemeContext full_context{full, index, VideoCatalog{100}, 20.0};
  full[2].service_capacity = 1;
  EXPECT_EQ(scheme.plan_slot(full_context, requests, demand).assignment[miss],
            3u);
  EXPECT_EQ(scheme.last_diagnostics().miss_rerouted, 1u);
  full[3].service_capacity = 1;
  EXPECT_EQ(scheme.plan_slot(full_context, requests, demand).assignment[miss],
            0u);
  EXPECT_EQ(scheme.last_diagnostics().miss_rerouted, 0u);
}

TEST(Rbcaer, DeterministicAcrossRuns) {
  Fixture fixture;
  const auto requests = hot_demand(25, {1, 2, 3});
  const SlotDemand demand(requests, fixture.index);
  RbcaerScheme a;
  RbcaerScheme b;
  const SlotPlan plan_a = a.plan_slot(fixture.context(), requests, demand);
  const SlotPlan plan_b = b.plan_slot(fixture.context(), requests, demand);
  EXPECT_EQ(plan_a.assignment, plan_b.assignment);
  EXPECT_EQ(plan_a.placements, plan_b.placements);
}

TEST(Rbcaer, AggregationReducesReplicationOnSharedContent) {
  // Two overloaded hotspots with identical taste + one receiver. With
  // content aggregation the receiver caches the shared videos once and
  // serves both; total replicas must not exceed the no-aggregation run.
  std::vector<Hotspot> hotspots(3);
  hotspots[0].location = {40.050, 116.500};
  hotspots[1].location = {40.050, 116.510};  // ~0.9 km from receiver
  hotspots[2].location = {40.050, 116.505};  // receiver in the middle
  for (auto& h : hotspots) {
    h.service_capacity = 4;
    h.cache_capacity = 20;
  }
  hotspots[2].service_capacity = 20;
  std::vector<GeoPoint> pts;
  for (const auto& h : hotspots) pts.push_back(h.location);
  const GridIndex index(pts, 0.5);
  const SchemeContext context{hotspots, index, VideoCatalog{100}, 20.0};

  std::vector<Request> requests;
  for (int copy = 0; copy < 2; ++copy) {
    for (int i = 0; i < 10; ++i) {
      Request r;
      r.video = static_cast<VideoId>(i % 5);
      r.location = copy == 0 ? GeoPoint{40.050, 116.500}
                             : GeoPoint{40.050, 116.510};
      requests.push_back(r);
    }
  }
  const SlotDemand demand(requests, index);

  RbcaerConfig with;
  RbcaerScheme with_aggregation(with);
  const SlotPlan plan_with =
      with_aggregation.plan_slot(context, requests, demand);

  RbcaerConfig without;
  without.content_aggregation = false;
  RbcaerScheme without_aggregation(without);
  const SlotPlan plan_without =
      without_aggregation.plan_slot(context, requests, demand);

  EXPECT_LE(plan_with.total_replicas(), plan_without.total_replicas());
  EXPECT_GT(with_aggregation.last_diagnostics().moved, 0);
}

TEST(Rbcaer, EndToEndBeatsNearestOnSkewedWorld) {
  WorldConfig config = WorldConfig::evaluation_region();
  config.num_hotspots = 80;
  config.num_videos = 3000;
  World world = generate_world(config);
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  trace_config.num_requests = 30000;
  const auto trace = generate_trace(world, trace_config);

  SimulationConfig sim_config;
  sim_config.slot_seconds = 24 * 3600;
  const Simulator simulator(world.hotspots(),
                            VideoCatalog{config.num_videos}, sim_config);
  NearestScheme nearest;
  RbcaerScheme rbcaer;
  const auto nearest_report = simulator.run(nearest, trace);
  const auto rbcaer_report = simulator.run(rbcaer, trace);
  EXPECT_GT(rbcaer_report.serving_ratio(), nearest_report.serving_ratio());
  EXPECT_LT(rbcaer_report.cdn_server_load(),
            nearest_report.cdn_server_load());
  EXPECT_LT(rbcaer_report.average_distance_km(),
            nearest_report.average_distance_km());
}

/// Sums miss redirection's reroutes over the slots an RbcaerScheme plans.
class CountReroutes final : public RedirectionScheme {
 public:
  explicit CountReroutes(RbcaerScheme& inner) : inner_(inner) {}
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] SlotPlan plan_slot(const SchemeContext& context,
                                   std::span<const Request> requests,
                                   const SlotDemand& demand) override {
    SlotPlan plan = inner_.plan_slot(context, requests, demand);
    rerouted += inner_.last_diagnostics().miss_rerouted;
    return plan;
  }
  std::size_t rerouted = 0;

 private:
  RbcaerScheme& inner_;
};

/// FNV-1a over a run's per-slot plan digests.
std::uint64_t fold_digests(const std::vector<SlotVerdict>& verdicts) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const SlotVerdict& verdict : verdicts) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (verdict.digest >> (8 * byte)) & 0xffU;
      hash *= 1099511628211ULL;
    }
  }
  return hash;
}

TEST(Rbcaer, PlansMatchPinnedDigests) {
  // Per-slot plan digests, folded per configuration, as RBCAer planned them
  // when Procedure 1's fill still sorted by comparison and inserted each
  // replica in place, and miss redirection searched the placements twice
  // per request. The caches are scarce (0.5% and 0.7% of the catalog), so
  // misses do reroute, which neither the golden file nor perfbench's
  // workloads exercise. Both caches run with aggregation on and off on the
  // slot's own demand, and with aggregation on through the predictive
  // wrapper, whose forecast demand has no per-request pairs.
  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = 120;
  world_config.num_videos = 3000;
  world_config.seed = 17;
  const World base = generate_world(world_config);
  TraceConfig trace_config;
  trace_config.num_requests = 30000;
  trace_config.duration_hours = 12;
  trace_config.seed = 17;
  const auto trace = generate_trace(base, trace_config);

  struct Case {
    double cache_share;
    bool aggregation;
    bool predictive;
    std::uint64_t digest;
    std::size_t rerouted;
  };
  const Case cases[] = {
      {0.005, true, false, 0x95c684a389b372eaULL, 1121},
      {0.005, false, false, 0x89a7284a76cd22a1ULL, 1139},
      {0.007, true, false, 0xfab3971f05d132a4ULL, 415},
      {0.007, false, false, 0x40444f35cc3ed7cbULL, 428},
      {0.005, true, true, 0xb5bbeabc436adfa2ULL, 4690},
      {0.007, true, true, 0x3d66bdcc3eb27bc2ULL, 4609},
  };
  for (const Case& c : cases) {
    World world = base;
    assign_uniform_capacities(world, 0.01, c.cache_share);
    SimulationConfig sim_config;
    sim_config.slot_seconds = 3600;
    sim_config.audit_level = AuditLevel::kPlan;
    RbcaerConfig config;
    config.content_aggregation = c.aggregation;
    // Checked builds audit the direct plans' capacity feasibility too. A
    // predictive plan's redirects are sized for the forecast, not for the
    // slot's requests, so that audit does not apply to it.
    config.audit_level = c.predictive ? AuditLevel::kOff : AuditLevel::kPlan;
    RbcaerScheme scheme(config);
    CountReroutes counted(scheme);
    const VideoCatalog catalog{world_config.num_videos};
    const SimulationReport report = [&] {
      if (!c.predictive) {
        return Simulator(world.hotspots(), catalog, sim_config)
            .run(counted, trace);
      }
      PredictiveConfig predictive_config;
      predictive_config.simulation = sim_config;
      MovingAverageForecaster forecaster(3);
      return run_predictive(world.hotspots(), catalog, counted, forecaster,
                            trace, predictive_config);
    }();
    ASSERT_EQ(report.verdicts().size(), 12u);
    EXPECT_GT(counted.rerouted, 0u);
    EXPECT_EQ(counted.rerouted, c.rerouted)
        << "cache " << c.cache_share << ", aggregation " << c.aggregation
        << ", predictive " << c.predictive;
    EXPECT_EQ(fold_digests(report.verdicts()), c.digest)
        << "cache " << c.cache_share << ", aggregation " << c.aggregation
        << ", predictive " << c.predictive;
  }
}

}  // namespace
}  // namespace ccdn
