#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/nearest_scheme.h"
#include "util/error.h"

namespace ccdn {
namespace {

/// Scheme with a fixed plan, for exercising the admission logic.
class ScriptedScheme final : public RedirectionScheme {
 public:
  ScriptedScheme(std::vector<std::vector<VideoId>> placements,
                 std::vector<HotspotIndex> assignment)
      : placements_(std::move(placements)),
        assignment_(std::move(assignment)) {}

  [[nodiscard]] std::string name() const override { return "Scripted"; }

  [[nodiscard]] SlotPlan plan_slot(const SchemeContext&,
                                   std::span<const Request> requests,
                                   const SlotDemand&) override {
    SlotPlan plan;
    plan.placements = placements_;
    plan.assignment = assignment_;
    plan.assignment.resize(requests.size(), kCdnServer);
    return plan;
  }

 private:
  std::vector<std::vector<VideoId>> placements_;
  std::vector<HotspotIndex> assignment_;
};

std::vector<Hotspot> two_hotspots(std::uint32_t capacity) {
  std::vector<Hotspot> hotspots(2);
  hotspots[0].location = {40.05, 116.45};
  hotspots[1].location = {40.05, 116.55};
  for (auto& h : hotspots) {
    h.service_capacity = capacity;
    h.cache_capacity = 10;
  }
  return hotspots;
}

Request request_at(GeoPoint where, VideoId video, std::int64_t ts = 0) {
  Request r;
  r.video = video;
  r.location = where;
  r.timestamp = ts;
  return r;
}

TEST(Simulator, ServedRequestUsesGeoDistance) {
  const auto hotspots = two_hotspots(10);
  Simulator simulator(hotspots, VideoCatalog{10});
  const std::vector<Request> requests{request_at({40.05, 116.46}, 1)};
  ScriptedScheme scheme({{1}, {}}, {0});
  const auto report = simulator.run(scheme, requests);
  EXPECT_EQ(report.served_by_hotspots(), 1u);
  EXPECT_DOUBLE_EQ(report.serving_ratio(), 1.0);
  const double expected =
      distance_km(requests[0].location, hotspots[0].location);
  EXPECT_NEAR(report.average_distance_km(), expected, 1e-9);
}

TEST(Simulator, PlacementMissGoesToCdn) {
  const auto hotspots = two_hotspots(10);
  Simulator simulator(hotspots, VideoCatalog{10});
  const std::vector<Request> requests{request_at({40.05, 116.46}, 7)};
  ScriptedScheme scheme({{1}, {}}, {0});  // video 7 not cached
  const auto report = simulator.run(scheme, requests);
  EXPECT_EQ(report.served_by_hotspots(), 0u);
  EXPECT_EQ(report.slots()[0].rejected_placement, 1u);
  EXPECT_DOUBLE_EQ(report.average_distance_km(), kCdnDistanceKm);
}

TEST(Simulator, CapacityRejectAfterSaturation) {
  const auto hotspots = two_hotspots(/*capacity=*/2);
  Simulator simulator(hotspots, VideoCatalog{10});
  std::vector<Request> requests;
  for (int i = 0; i < 5; ++i) {
    requests.push_back(request_at({40.05, 116.46}, 1));
  }
  ScriptedScheme scheme({{1}, {}}, {0, 0, 0, 0, 0});
  const auto report = simulator.run(scheme, requests);
  EXPECT_EQ(report.served_by_hotspots(), 2u);
  EXPECT_EQ(report.slots()[0].rejected_capacity, 3u);
}

TEST(Simulator, ExplicitCdnAssignmentCounted) {
  const auto hotspots = two_hotspots(10);
  Simulator simulator(hotspots, VideoCatalog{10});
  const std::vector<Request> requests{request_at({40.05, 116.46}, 1)};
  ScriptedScheme scheme({{1}, {}}, {kCdnServer});
  const auto report = simulator.run(scheme, requests);
  EXPECT_EQ(report.slots()[0].sent_to_cdn, 1u);
  EXPECT_EQ(report.served_by_hotspots(), 0u);
}

TEST(Simulator, MetricsFormulasMatchPaper) {
  const auto hotspots = two_hotspots(10);
  Simulator simulator(hotspots, VideoCatalog{10});
  std::vector<Request> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(request_at({40.05, 116.46}, i < 2 ? 1 : 9));
  }
  // Cache {1} at hotspot 0 (1 replica); serve the two video-1 requests.
  ScriptedScheme scheme({{1}, {}}, {0, 0, 0, 0});
  const auto report = simulator.run(scheme, requests);
  EXPECT_EQ(report.total_requests(), 4u);
  EXPECT_EQ(report.served_by_hotspots(), 2u);
  EXPECT_EQ(report.total_replicas(), 1u);
  EXPECT_DOUBLE_EQ(report.serving_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(report.replication_cost(), 1.0 / 10.0);
  // (unserved 2 + replicas 1) / 4.
  EXPECT_DOUBLE_EQ(report.cdn_server_load(), 0.75);
}

TEST(Simulator, MultiSlotRunsSchemePerSlot) {
  const auto hotspots = two_hotspots(1);  // capacity resets each slot
  SimulationConfig config;
  config.slot_seconds = 3600;
  Simulator simulator(hotspots, VideoCatalog{10}, config);
  std::vector<Request> requests{
      request_at({40.05, 116.46}, 1, 0),
      request_at({40.05, 116.46}, 1, 10),    // same slot: rejected
      request_at({40.05, 116.46}, 1, 3700),  // next slot: capacity is back
  };
  ScriptedScheme scheme({{1}, {}}, {0, 0, 0});
  const auto report = simulator.run(scheme, requests);
  ASSERT_EQ(report.slots().size(), 2u);
  EXPECT_EQ(report.slots()[0].served, 1u);
  EXPECT_EQ(report.slots()[0].rejected_capacity, 1u);
  EXPECT_EQ(report.slots()[1].served, 1u);
  // Caches persist across slots: the unchanged placement costs one origin
  // push total, not one per slot.
  EXPECT_EQ(report.total_replicas(), 1u);
}

TEST(Simulator, PlacementDeltasChargedOnChange) {
  const auto hotspots = two_hotspots(10);
  SimulationConfig config;
  config.slot_seconds = 3600;
  Simulator simulator(hotspots, VideoCatalog{10}, config);
  // Scheme that caches exactly the requested video of the slot.
  class PerSlotScheme final : public RedirectionScheme {
   public:
    [[nodiscard]] std::string name() const override { return "PerSlot"; }
    [[nodiscard]] SlotPlan plan_slot(const SchemeContext&,
                                     std::span<const Request> requests,
                                     const SlotDemand& demand) override {
      SlotPlan plan;
      plan.placements.resize(2);
      plan.placements[0] = {requests.front().video};
      const auto homes = demand.request_home();
      plan.assignment.assign(homes.begin(), homes.end());
      return plan;
    }
  };
  std::vector<Request> requests{
      request_at({40.05, 116.46}, 1, 0),
      request_at({40.05, 116.46}, 2, 3700),  // placement changes
      request_at({40.05, 116.46}, 2, 7300),  // placement unchanged
  };
  PerSlotScheme scheme;
  const auto report = simulator.run(scheme, requests);
  ASSERT_EQ(report.slots().size(), 3u);
  EXPECT_EQ(report.slots()[0].replicas, 1u);
  EXPECT_EQ(report.slots()[1].replicas, 1u);  // video 2 is a new push
  EXPECT_EQ(report.slots()[2].replicas, 0u);  // unchanged cache
}

TEST(Simulator, OfflineHotspotRejectsEverything) {
  const auto hotspots = two_hotspots(10);
  const std::vector<Request> requests{request_at({40.05, 116.46}, 1)};
  ScriptedScheme scheme({{1}, {}}, {0});
  const SlotPlan plan = [&] {
    SlotPlan p;
    p.placements = {{1}, {}};
    p.assignment = {0};
    return p;
  }();
  const std::vector<std::uint8_t> down{0, 1};  // hotspot 0 offline
  const auto metrics =
      admit_slot(hotspots, plan, requests, kCdnDistanceKm, nullptr, down);
  EXPECT_EQ(metrics.served, 0u);
  EXPECT_EQ(metrics.rejected_offline, 1u);
  EXPECT_DOUBLE_EQ(metrics.distance_sum_km, kCdnDistanceKm);
}

TEST(Simulator, ChurnZeroMatchesNoChurn) {
  const auto hotspots = two_hotspots(10);
  SimulationConfig with_churn_field;
  with_churn_field.offline_probability = 0.0;
  Simulator a(hotspots, VideoCatalog{10}, with_churn_field);
  Simulator b(hotspots, VideoCatalog{10});
  const std::vector<Request> requests{request_at({40.05, 116.46}, 1)};
  NearestScheme nearest_a;
  NearestScheme nearest_b;
  EXPECT_DOUBLE_EQ(a.run(nearest_a, requests).serving_ratio(),
                   b.run(nearest_b, requests).serving_ratio());
}

TEST(Simulator, ChurnDegradesServingProportionally) {
  std::vector<Hotspot> hotspots(20);
  for (int i = 0; i < 20; ++i) {
    hotspots[i].location = {40.0 + 0.004 * i, 116.5};
    hotspots[i].service_capacity = 100;
    hotspots[i].cache_capacity = 10;
  }
  std::vector<Request> requests;
  for (int i = 0; i < 2000; ++i) {
    requests.push_back(
        request_at({40.0 + 0.004 * (i % 20), 116.5}, 1, i));
  }
  SimulationConfig config;
  config.slot_seconds = 100;  // many slots -> many liveness rolls
  config.offline_probability = 0.3;
  Simulator simulator(hotspots, VideoCatalog{10}, config);
  NearestScheme scheme;
  const auto report = simulator.run(scheme, requests);
  // Serving drops to roughly (1 - p); allow generous slack for variance.
  EXPECT_NEAR(report.serving_ratio(), 0.7, 0.12);
  EXPECT_THROW(
      [&] {
        SimulationConfig bad;
        bad.offline_probability = 1.0;
        Simulator s(hotspots, VideoCatalog{10}, bad);
        NearestScheme n;
        (void)s.run(n, requests);
      }(),
      PreconditionError);
}

TEST(Simulator, RecordsHotspotLoadsWhenAsked) {
  const auto hotspots = two_hotspots(10);
  SimulationConfig config;
  config.record_hotspot_loads = true;
  Simulator simulator(hotspots, VideoCatalog{10}, config);
  const std::vector<Request> requests{request_at({40.05, 116.46}, 1)};
  ScriptedScheme scheme({{1}, {}}, {0});
  const auto report = simulator.run(scheme, requests);
  ASSERT_EQ(report.hotspot_loads().size(), 1u);
  EXPECT_EQ(report.hotspot_loads()[0][0], 1u);
  EXPECT_EQ(report.hotspot_loads()[0][1], 0u);
}

TEST(Simulator, EnforcesCacheContract) {
  const auto hotspots = two_hotspots(10);
  Simulator simulator(hotspots, VideoCatalog{10});
  const std::vector<Request> requests{request_at({40.05, 116.46}, 1)};
  // 11 videos > cache capacity 10: the simulator must fail loudly.
  std::vector<VideoId> too_many;
  for (VideoId v = 0; v < 11; ++v) too_many.push_back(v);
  ScriptedScheme scheme({too_many, {}}, {0});
  EXPECT_THROW((void)simulator.run(scheme, requests), InvariantError);
}

TEST(Simulator, NearestSchemeEndToEnd) {
  const auto hotspots = two_hotspots(10);
  Simulator simulator(hotspots, VideoCatalog{10});
  std::vector<Request> requests;
  for (int i = 0; i < 4; ++i) {
    requests.push_back(
        request_at(i % 2 == 0 ? GeoPoint{40.05, 116.46}
                              : GeoPoint{40.05, 116.54},
                   1));
  }
  NearestScheme scheme;
  const auto report = simulator.run(scheme, requests);
  EXPECT_DOUBLE_EQ(report.serving_ratio(), 1.0);
  EXPECT_EQ(report.total_replicas(), 2u);  // video 1 at both hotspots
}

TEST(Simulator, RejectsEmptyHotspotsOrCatalog) {
  EXPECT_THROW(Simulator({}, VideoCatalog{10}), PreconditionError);
  EXPECT_THROW(Simulator(two_hotspots(1), VideoCatalog{0}),
               PreconditionError);
}

TEST(Simulator, RejectsVideoOutsideCatalog) {
  // Video ids run 0..9 in a 10-video catalog. One id-10 row in a later
  // slot must fail the run with its id, on the sequential path and on the
  // pipelined one, where the slot is planned on a worker thread.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SimulationConfig config;
    config.slot_seconds = 3600;
    config.num_threads = threads;
    const Simulator simulator(two_hotspots(10), VideoCatalog{10}, config);
    std::vector<Request> requests;
    for (std::int64_t slot = 0; slot < 6; ++slot) {
      requests.push_back(request_at({40.05, 116.46}, 9, slot * 3600));
    }
    NearestScheme scheme;
    EXPECT_EQ(simulator.run(scheme, requests).total_requests(), 6u)
        << threads << " threads";
    requests[3].video = 10;
    try {
      (void)simulator.run(scheme, requests);
      ADD_FAILURE() << "video 10 accepted at " << threads << " threads";
    } catch (const ParseError& error) {
      EXPECT_NE(std::string(error.what()).find("video id 10 "),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(SimulationReport, EmptyTraceSafeMetrics) {
  const auto hotspots = two_hotspots(1);
  Simulator simulator(hotspots, VideoCatalog{10});
  NearestScheme scheme;
  const auto report = simulator.run(scheme, {});
  EXPECT_DOUBLE_EQ(report.serving_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(report.average_distance_km(), 0.0);
  EXPECT_DOUBLE_EQ(report.cdn_server_load(), 0.0);
}

/// Places video 1 at hotspot 1 only and sends every request there. The
/// requests sit next to hotspot 0, so each one is a redirect, and two a
/// slot overrun hotspot 1's service capacity of 1. Whether the scheme
/// claims capacity feasibility is a constructor argument; clones share the
/// counters, so a test can tell whether the lanes' clones planned.
class OverRedirectingScheme final : public RedirectionScheme {
 public:
  struct Counts {
    std::atomic<std::size_t> by_original{0};
    std::atomic<std::size_t> by_clones{0};
  };

  OverRedirectingScheme(bool claims_capacity, Counts& counts,
                        bool is_clone = false)
      : claims_capacity_(claims_capacity),
        counts_(counts),
        is_clone_(is_clone) {}

  [[nodiscard]] std::string name() const override { return "OverRedirecting"; }

  [[nodiscard]] SlotPlan plan_slot(const SchemeContext&,
                                   std::span<const Request> requests,
                                   const SlotDemand&) override {
    ++(is_clone_ ? counts_.by_clones : counts_.by_original);
    SlotPlan plan;
    plan.placements = {{}, {1}};
    plan.assignment.assign(requests.size(), 1);
    return plan;
  }

  [[nodiscard]] SchemePtr clone() const override {
    return std::make_unique<OverRedirectingScheme>(claims_capacity_, counts_,
                                                   /*is_clone=*/true);
  }

  [[nodiscard]] bool plans_within_capacity() const override {
    return claims_capacity_;
  }

 private:
  bool claims_capacity_;
  Counts& counts_;
  bool is_clone_;
};

/// Two requests for video 1 next to hotspot 0 in each of eight hourly
/// slots, planned by OverRedirectingScheme with the simulator's audit on.
SimulationReport run_over_redirecting(bool claims_capacity,
                                      std::size_t threads,
                                      OverRedirectingScheme::Counts& counts) {
  SimulationConfig config;
  config.slot_seconds = 3600;
  config.num_threads = threads;
  config.audit_level = AuditLevel::kPlan;
  const Simulator simulator(two_hotspots(1), VideoCatalog{10}, config);
  std::vector<Request> requests;
  for (std::int64_t slot = 0; slot < 8; ++slot) {
    for (int i = 0; i < 2; ++i) {
      requests.push_back(request_at({40.05, 116.46}, 1, slot * 3600 + i));
    }
  }
  OverRedirectingScheme scheme(claims_capacity, counts);
  return simulator.run(scheme, requests);
}

TEST(SimulatorVerdict, CapacityClaimFailsAnOverRedirectedReceiver) {
  // The verdict records the broken s_h instead of throwing, and admission
  // still runs: one request a slot is served, one rejected for capacity.
  // At 4 threads the lanes' clones plan every slot, with the same verdicts.
  OverRedirectingScheme::Counts sequential_counts;
  const SimulationReport sequential =
      run_over_redirecting(true, 1, sequential_counts);
  EXPECT_EQ(sequential_counts.by_original.load(), 8u);
  EXPECT_EQ(sequential_counts.by_clones.load(), 0u);
  OverRedirectingScheme::Counts parallel_counts;
  const SimulationReport parallel =
      run_over_redirecting(true, 4, parallel_counts);
  EXPECT_EQ(parallel_counts.by_original.load(), 0u);
  EXPECT_EQ(parallel_counts.by_clones.load(), 8u);

  for (const SimulationReport* report : {&sequential, &parallel}) {
    ASSERT_EQ(report->verdicts().size(), 8u);
    EXPECT_EQ(report->served_by_hotspots(), 8u);
    for (std::size_t s = 0; s < 8; ++s) {
      const AuditReport& audit = report->verdicts()[s].audit;
      EXPECT_EQ(report->slots()[s].rejected_capacity, 1u) << "slot " << s;
      ASSERT_EQ(audit.violations().size(), 1u) << audit.summary();
      EXPECT_TRUE(audit.has("service-capacity")) << audit.summary();
    }
  }
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(sequential.verdicts()[s].digest, parallel.verdicts()[s].digest)
        << "slot " << s;
    EXPECT_EQ(sequential.verdicts()[s].audit.summary(),
              parallel.verdicts()[s].audit.summary())
        << "slot " << s;
  }
}

TEST(SimulatorVerdict, SchemeWithoutCapacityClaimGetsACleanVerdict) {
  // The same plans from a scheme that makes no capacity claim (a baseline
  // leaves the excess to admission) pass the tiers every scheme owes.
  OverRedirectingScheme::Counts claimed_counts;
  const SimulationReport claimed =
      run_over_redirecting(true, 1, claimed_counts);
  for (const std::size_t threads : {1u, 4u}) {
    OverRedirectingScheme::Counts counts;
    const SimulationReport report =
        run_over_redirecting(false, threads, counts);
    ASSERT_EQ(report.verdicts().size(), 8u);
    for (std::size_t s = 0; s < 8; ++s) {
      const SlotVerdict& verdict = report.verdicts()[s];
      EXPECT_TRUE(verdict.audit.ok()) << verdict.audit.summary();
      EXPECT_EQ(verdict.digest, claimed.verdicts()[s].digest) << "slot " << s;
    }
  }
}

TEST(SimulatorVerdict, NoVerdictsWithTheAuditOff) {
  const auto hotspots = two_hotspots(10);
  Simulator simulator(hotspots, VideoCatalog{10});
  const std::vector<Request> requests{request_at({40.05, 116.46}, 1)};
  ScriptedScheme scheme({{1}, {}}, {0});
  EXPECT_TRUE(simulator.run(scheme, requests).verdicts().empty());
}

}  // namespace
}  // namespace ccdn
