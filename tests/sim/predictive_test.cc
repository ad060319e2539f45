#include "sim/predictive.h"

#include <gtest/gtest.h>

#include "core/nearest_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/virtual_rbcaer_scheme.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/error.h"
#include "verify/audit.h"

namespace ccdn {
namespace {

struct Scenario {
  World world;
  std::vector<Request> trace;

  Scenario()
      : world([] {
          WorldConfig config = WorldConfig::evaluation_region();
          config.num_hotspots = 60;
          config.num_videos = 2000;
          World w = generate_world(config);
          assign_uniform_capacities(w, 0.05, 0.03);
          return w;
        }()),
        trace(generate_trace(world, [] {
          TraceConfig config;
          config.num_requests = 60000;
          config.duration_hours = 48;  // room for history + evaluation
          return config;
        }())) {}
};

TEST(Predictive, StableWorkloadPredictsWell) {
  // Hour-of-day demand repeats across the two days, so a last-value-
  // yesterday-style forecast (window 24, naive last) is decent; the
  // predictive run should land near the oracle.
  Scenario scenario;
  PredictiveConfig config;
  config.simulation.slot_seconds = 3600;
  // Hourly slots: scale capacity to per-hour budget.
  World world = scenario.world;
  for (auto& h : world.mutable_hotspots()) {
    h.service_capacity = std::max<std::uint32_t>(1, h.service_capacity / 10);
  }

  NearestScheme oracle_scheme;
  Simulator oracle_sim(world.hotspots(),
                       VideoCatalog{world.config().num_videos},
                       config.simulation);
  const auto oracle = oracle_sim.run(oracle_scheme, scenario.trace);

  LastValueForecaster naive;
  NearestScheme predictive_scheme;
  const auto predicted =
      run_predictive(world.hotspots(),
                     VideoCatalog{world.config().num_videos},
                     predictive_scheme, naive, scenario.trace, config);

  EXPECT_EQ(predicted.total_requests(), oracle.total_requests());
  // Prediction can only lose vs the oracle, but not catastrophically.
  EXPECT_LE(predicted.serving_ratio(), oracle.serving_ratio() + 1e-9);
  EXPECT_GT(predicted.serving_ratio(), oracle.serving_ratio() * 0.6);
}

TEST(Predictive, WarmupSlotsUseObservedDemand) {
  Scenario scenario;
  PredictiveConfig config;
  config.simulation.slot_seconds = 3600;
  config.warmup_slots = 1000;  // effectively always warm-up -> oracle
  NearestScheme scheme_a;
  const auto always_oracle =
      run_predictive(scenario.world.hotspots(),
                     VideoCatalog{scenario.world.config().num_videos},
                     scheme_a, *std::make_unique<LastValueForecaster>(),
                     scenario.trace, config);
  NearestScheme scheme_b;
  Simulator sim(scenario.world.hotspots(),
                VideoCatalog{scenario.world.config().num_videos},
                config.simulation);
  const auto oracle = sim.run(scheme_b, scenario.trace);
  EXPECT_DOUBLE_EQ(always_oracle.serving_ratio(), oracle.serving_ratio());
  EXPECT_EQ(always_oracle.total_replicas(), oracle.total_replicas());
}

TEST(Predictive, WorksWithRbcaer) {
  Scenario scenario;
  PredictiveConfig config;
  config.simulation.slot_seconds = 3600;
  World world = scenario.world;
  for (auto& h : world.mutable_hotspots()) {
    h.service_capacity = std::max<std::uint32_t>(1, h.service_capacity / 10);
  }
  MovingAverageForecaster ma(6);
  RbcaerScheme rbcaer;
  const auto report =
      run_predictive(world.hotspots(),
                     VideoCatalog{world.config().num_videos}, rbcaer, ma,
                     scenario.trace, config);
  EXPECT_EQ(report.total_requests(), scenario.trace.size());
  EXPECT_GT(report.serving_ratio(), 0.2);
  EXPECT_GT(report.total_replicas(), 0u);
}

TEST(Predictive, ForecastPlansPassTheSchemesOwnAudit) {
  // Scarce caches on a 120-hotspot world, where forecast and actual demand
  // part: a forecast plan's redirects are sized for the forecast, so the
  // schemes' kPlan audit (checked builds) must not hold them to the
  // service capacity the slot's actual requests leave.
  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = 120;
  world_config.num_videos = 3000;
  world_config.seed = 17;
  World world = generate_world(world_config);
  assign_uniform_capacities(world, 0.01, 0.005);
  TraceConfig trace_config;
  trace_config.num_requests = 30000;
  trace_config.duration_hours = 12;
  trace_config.seed = 17;
  const auto trace = generate_trace(world, trace_config);
  PredictiveConfig config;
  config.simulation.slot_seconds = 3600;
  const VideoCatalog catalog{world_config.num_videos};
  MovingAverageForecaster forecaster(3);

  RbcaerConfig rbcaer_config;
  rbcaer_config.audit_level = AuditLevel::kPlan;
  RbcaerScheme rbcaer(rbcaer_config);
  VirtualRbcaerConfig virtual_config;
  virtual_config.regional.audit_level = AuditLevel::kPlan;
  VirtualRbcaerScheme virtual_rbcaer(virtual_config);
  for (RedirectionScheme* scheme :
       {static_cast<RedirectionScheme*>(&rbcaer),
        static_cast<RedirectionScheme*>(&virtual_rbcaer)}) {
    const auto report = run_predictive(world.hotspots(), catalog, *scheme,
                                       forecaster, trace, config);
    EXPECT_EQ(report.total_requests(), trace.size()) << scheme->name();
  }
}

TEST(Predictive, RunsThroughTheSimulator) {
  // The whole SimulationConfig applies: kPlan records one verdict per slot,
  // and while the predictor warms up the plans are the simulator's own.
  Scenario scenario;
  PredictiveConfig config;
  config.simulation.slot_seconds = 3600;
  config.simulation.audit_level = AuditLevel::kPlan;
  config.simulation.num_shards = 2;
  config.warmup_slots = 1000;
  const VideoCatalog catalog{scenario.world.config().num_videos};
  LastValueForecaster naive;
  RbcaerScheme predictive_scheme;
  const auto predicted =
      run_predictive(scenario.world.hotspots(), catalog, predictive_scheme,
                     naive, scenario.trace, config);
  ASSERT_EQ(predicted.verdicts().size(), predicted.slots().size());
  EXPECT_EQ(predicted.slots().size(), 48u);
  RbcaerScheme oracle_scheme;
  const Simulator simulator(scenario.world.hotspots(), catalog,
                            config.simulation);
  const SimulationReport oracle = simulator.run(oracle_scheme, scenario.trace);
  ASSERT_EQ(oracle.verdicts().size(), predicted.verdicts().size());
  for (std::size_t s = 0; s < oracle.verdicts().size(); ++s) {
    EXPECT_EQ(predicted.verdicts()[s].digest, oracle.verdicts()[s].digest)
        << "slot " << s;
  }

  // Out-of-catalog videos are rejected as in Simulator::run.
  std::vector<Request> bad(scenario.trace.begin(),
                           scenario.trace.begin() + 10);
  bad.back().video = catalog.num_videos;
  EXPECT_THROW((void)run_predictive(scenario.world.hotspots(), catalog,
                                    predictive_scheme, naive, bad, config),
               ParseError);
}

TEST(Predictive, RejectsBadInputs) {
  LastValueForecaster naive;
  NearestScheme scheme;
  EXPECT_THROW((void)run_predictive({}, VideoCatalog{10}, scheme, naive, {}),
               PreconditionError);
}

}  // namespace
}  // namespace ccdn
