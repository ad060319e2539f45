// Cross-scheme invariant matrix: every redirection scheme, over a grid of
// operating points, must satisfy the same contract — feasible plans,
// capacity-respecting admission, metrics in range, and sane bookkeeping.
// This is the catch-all net under every scheme refactor.
#include <gtest/gtest.h>

#include <memory>

#include "core/nearest_scheme.h"
#include "core/random_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/virtual_rbcaer_scheme.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"

namespace ccdn {
namespace {

enum class SchemeKind { kNearest, kRandom, kRbcaer, kRbcaerNoAgg, kVirtual };

const char* kind_name(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNearest: return "Nearest";
    case SchemeKind::kRandom: return "Random";
    case SchemeKind::kRbcaer: return "RBCAer";
    case SchemeKind::kRbcaerNoAgg: return "RBCAerNoAgg";
    case SchemeKind::kVirtual: return "Virtual";
  }
  return "?";
}

SchemePtr make_scheme(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kNearest: return std::make_unique<NearestScheme>();
    case SchemeKind::kRandom: return std::make_unique<RandomScheme>(1.5);
    case SchemeKind::kRbcaer: return std::make_unique<RbcaerScheme>();
    case SchemeKind::kRbcaerNoAgg: {
      RbcaerConfig config;
      config.content_aggregation = false;
      return std::make_unique<RbcaerScheme>(config);
    }
    case SchemeKind::kVirtual:
      return std::make_unique<VirtualRbcaerScheme>();
  }
  return nullptr;
}

struct MatrixCase {
  SchemeKind kind;
  double capacity;
  double cache;
};

std::ostream& operator<<(std::ostream& out, const MatrixCase& c) {
  return out << kind_name(c.kind) << "_cap" << c.capacity << "_cache"
             << c.cache;
}

class SchemeMatrix : public ::testing::TestWithParam<MatrixCase> {
 protected:
  static const World& world() {
    static const World kWorld = [] {
      WorldConfig config = WorldConfig::evaluation_region();
      config.num_hotspots = 70;
      config.num_videos = 2500;
      return generate_world(config);
    }();
    return kWorld;
  }

  static const std::vector<Request>& trace() {
    static const std::vector<Request> kTrace = [] {
      TraceConfig config;
      config.num_requests = 40000;
      return generate_trace(world(), config);
    }();
    return kTrace;
  }
};

TEST_P(SchemeMatrix, ContractHolds) {
  const MatrixCase& param = GetParam();
  World configured = world();
  assign_uniform_capacities(configured, param.capacity, param.cache);
  SimulationConfig sim_config;
  sim_config.slot_seconds = 24 * 3600;
  sim_config.record_hotspot_loads = true;
  const Simulator simulator(configured.hotspots(),
                            VideoCatalog{configured.config().num_videos},
                            sim_config);
  const SchemePtr scheme = make_scheme(param.kind);
  ASSERT_NE(scheme, nullptr);
  const auto report = simulator.run(*scheme, trace());

  // Metric contract.
  EXPECT_EQ(report.total_requests(), trace().size());
  EXPECT_GE(report.serving_ratio(), 0.0);
  EXPECT_LE(report.serving_ratio(), 1.0);
  EXPECT_GE(report.average_distance_km(), 0.0);
  EXPECT_LE(report.average_distance_km(), kCdnDistanceKm + 1e-9);
  EXPECT_GE(report.replication_cost(), 0.0);
  // Replicas bounded by total cache space.
  double cache_space = 0.0;
  for (const auto& h : configured.hotspots()) {
    cache_space += h.cache_capacity;
  }
  EXPECT_LE(static_cast<double>(report.total_replicas()), cache_space);
  // Served load never exceeds capacity.
  for (const auto& loads : report.hotspot_loads()) {
    for (std::size_t h = 0; h < loads.size(); ++h) {
      EXPECT_LE(loads[h], configured.hotspots()[h].service_capacity);
    }
  }
  // Accounting identity per slot.
  for (const auto& slot : report.slots()) {
    EXPECT_EQ(slot.served + slot.rejected_capacity + slot.rejected_placement +
                  slot.sent_to_cdn,
              slot.requests);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchemeMatrix,
    ::testing::Values(
        MatrixCase{SchemeKind::kNearest, 0.02, 0.01},
        MatrixCase{SchemeKind::kNearest, 0.05, 0.03},
        MatrixCase{SchemeKind::kRandom, 0.02, 0.01},
        MatrixCase{SchemeKind::kRandom, 0.05, 0.03},
        MatrixCase{SchemeKind::kRbcaer, 0.02, 0.01},
        MatrixCase{SchemeKind::kRbcaer, 0.05, 0.03},
        MatrixCase{SchemeKind::kRbcaer, 0.1, 0.005},
        MatrixCase{SchemeKind::kRbcaerNoAgg, 0.05, 0.03},
        MatrixCase{SchemeKind::kVirtual, 0.02, 0.01},
        MatrixCase{SchemeKind::kVirtual, 0.05, 0.03}),
    [](const ::testing::TestParamInfo<MatrixCase>& param_info) {
      std::string name = kind_name(param_info.param.kind);
      name +=
          "_" + std::to_string(static_cast<int>(param_info.param.capacity * 1000));
      name +=
          "_" + std::to_string(static_cast<int>(param_info.param.cache * 1000));
      return name;
    });

}  // namespace
}  // namespace ccdn
