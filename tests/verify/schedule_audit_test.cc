// Schedule-side auditor: digests, the universal plan contract, the
// RBCAer-family capacity guarantees, and Procedure 1's output contracts —
// each negative path seeded with one corruption and asserted by the exact
// invariant name it must produce.
#include "verify/schedule_audit.h"

#include <gtest/gtest.h>

#include "core/nearest_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/replication.h"
#include "core/virtual_rbcaer_scheme.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"

namespace ccdn {
namespace {

std::vector<Hotspot> two_hotspots() {
  return {
      {{40.00, 116.40}, /*service=*/3, /*cache=*/2},
      {{40.01, 116.41}, /*service=*/2, /*cache=*/2},
  };
}

TEST(PlanDigestTest, DeterministicAndSensitive) {
  const std::vector<HotspotIndex> assignment{0, 1, kCdnServer};
  const std::vector<std::vector<VideoId>> placements{{1, 5}, {2}};
  const std::uint64_t base = plan_digest(assignment, placements);
  EXPECT_EQ(base, plan_digest(assignment, placements));

  std::vector<HotspotIndex> reassigned = assignment;
  reassigned[0] = 1;
  EXPECT_NE(base, plan_digest(reassigned, placements));

  std::vector<std::vector<VideoId>> replaced = placements;
  replaced[1] = {3};
  EXPECT_NE(base, plan_digest(assignment, replaced));

  // Moving a video between hotspots must change the digest even though the
  // flattened id stream is identical (length prefixes see the move).
  const std::vector<std::vector<VideoId>> moved{{1}, {5, 2}};
  const std::vector<std::vector<VideoId>> original{{1, 5}, {2}};
  EXPECT_NE(plan_digest(assignment, moved), plan_digest(assignment, original));
}

TEST(ScheduleAuditTest, AssignmentSizeMismatchIsNamed) {
  const std::vector<HotspotIndex> assignment{0, 1};
  AuditReport report;
  audit_assignment(assignment, /*num_requests=*/3, /*num_hotspots=*/2, report);
  EXPECT_TRUE(report.has("assignment-size")) << report.summary();
}

TEST(ScheduleAuditTest, OutOfRangeAssignmentIsNamed) {
  const std::vector<HotspotIndex> assignment{0, 7, kCdnServer};
  AuditReport report;
  audit_assignment(assignment, 3, /*num_hotspots=*/2, report);
  EXPECT_TRUE(report.has("assignment-range")) << report.summary();
  EXPECT_EQ(report.violations().size(), 1u);  // the CDN sentinel is legal
}

TEST(ScheduleAuditTest, PlacementShapeViolationsAreNamed) {
  const auto hotspots = two_hotspots();
  AuditReport report;
  // Unsorted list at hotspot 0, over-capacity list at hotspot 1.
  const std::vector<std::vector<VideoId>> placements{{5, 1}, {1, 2, 3}};
  audit_placements(placements, hotspots, report);
  EXPECT_TRUE(report.has("placement-order")) << report.summary();
  EXPECT_TRUE(report.has("cache-capacity")) << report.summary();

  AuditReport count_report;
  audit_placements({{1}}, hotspots, count_report);
  EXPECT_TRUE(count_report.has("placement-count")) << count_report.summary();
}

/// Three requests homed at hotspot 0 (videos 1, 1, 2), caches holding
/// video 1 at both hotspots.
struct CapacitySlot {
  std::vector<Hotspot> hotspots = two_hotspots();
  std::vector<Request> requests{{0, 1, 0, {40.0, 116.4}},
                                {1, 1, 0, {40.0, 116.4}},
                                {2, 2, 0, {40.0, 116.4}}};
  std::vector<HotspotIndex> homes{0, 0, 0};
  std::vector<std::vector<VideoId>> placements{{1}, {1}};
};

TEST(ScheduleAuditTest, FeasibleRedirectionPasses) {
  CapacitySlot s;
  // One request stays home (servable), one redirects to 1 (placed there),
  // one goes to the CDN.
  const std::vector<HotspotIndex> assignment{0, 1, kCdnServer};
  AuditReport report;
  audit_capacity(assignment, s.placements, s.hotspots, s.requests, s.homes,
                 report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ScheduleAuditTest, RedirectToCacheMissIsNamed) {
  CapacitySlot s;
  // Request 2 wants video 2, which hotspot 1 does not cache.
  const std::vector<HotspotIndex> assignment{0, 0, 1};
  AuditReport report;
  audit_capacity(assignment, s.placements, s.hotspots, s.requests, s.homes,
                 report);
  EXPECT_TRUE(report.has("redirect-miss")) << report.summary();
}

TEST(ScheduleAuditTest, OversubscribedReceiverIsNamed) {
  CapacitySlot s;
  s.hotspots[1].service_capacity = 1;
  // Two redirected requests for video 1 land on hotspot 1, which can only
  // serve one.
  const std::vector<HotspotIndex> assignment{1, 1, kCdnServer};
  AuditReport report;
  audit_capacity(assignment, s.placements, s.hotspots, s.requests, s.homes,
                 report);
  EXPECT_TRUE(report.has("service-capacity")) << report.summary();
}

TEST(ScheduleAuditTest, ShapeMismatchShortCircuits) {
  CapacitySlot s;
  const std::vector<HotspotIndex> assignment{0};  // wrong length
  AuditReport report;
  audit_capacity(assignment, s.placements, s.hotspots, s.requests, s.homes,
                 report);
  EXPECT_TRUE(report.has("capacity-audit-shape")) << report.summary();
}

TEST(ScheduleAuditTest, TotalCapacityFeasiblePlanPasses) {
  CapacitySlot s;
  // Hotspot 0 serves both video-1 requests (s_0 = 3); the video-2 request
  // goes to the CDN — within the total-capacity invariant the LP rounding
  // promises.
  const std::vector<HotspotIndex> assignment{0, 0, kCdnServer};
  AuditReport report;
  audit_total_capacity(assignment, s.placements, s.hotspots, s.requests,
                       report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ScheduleAuditTest, TotalAssignedLoadPastCapacityIsNamed) {
  CapacitySlot s;
  s.hotspots[0].service_capacity = 1;
  // Both video-1 requests assigned to hotspot 0, but s_0 = 1. Unlike
  // audit_capacity — which treats home demand as admission's problem and
  // would pass this — the total invariant must flag it.
  const std::vector<HotspotIndex> assignment{0, 0, kCdnServer};
  AuditReport report;
  audit_total_capacity(assignment, s.placements, s.hotspots, s.requests,
                       report);
  EXPECT_TRUE(report.has("total-capacity")) << report.summary();
}

TEST(ScheduleAuditTest, AssignmentToMissingVideoIsNamed) {
  CapacitySlot s;
  // Request 2 wants video 2, which hotspot 0 does not cache; a direct
  // assignment there is infeasible no matter the capacity.
  const std::vector<HotspotIndex> assignment{0, 0, 0};
  AuditReport report;
  audit_total_capacity(assignment, s.placements, s.hotspots, s.requests,
                       report);
  EXPECT_TRUE(report.has("assignment-miss")) << report.summary();
}

TEST(ScheduleAuditTest, TotalCapacityShapeMismatchShortCircuits) {
  CapacitySlot s;
  const std::vector<HotspotIndex> assignment{0};  // wrong length
  AuditReport report;
  audit_total_capacity(assignment, s.placements, s.hotspots, s.requests,
                       report);
  EXPECT_TRUE(report.has("capacity-audit-shape")) << report.summary();
}

ReplicationResult small_replication() {
  ReplicationResult result;
  result.placements = {{1}, {1, 2}};
  result.redirects.resize(2);
  result.redirects[0] = {{/*video=*/1, {{/*hotspot=*/1, /*count=*/2}}}};
  result.total_redirected = 2;
  result.replicas = 3;
  return result;
}

TEST(ReplicationAuditTest, WellFormedResultPasses) {
  AuditReport report;
  audit_replication(small_replication(), two_hotspots(), /*budget=*/3, report);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(ReplicationAuditTest, BudgetViolationIsNamed) {
  AuditReport report;
  audit_replication(small_replication(), two_hotspots(), /*budget=*/2, report);
  EXPECT_TRUE(report.has("replication-budget")) << report.summary();
}

TEST(ReplicationAuditTest, ReplicaCountMismatchIsNamed) {
  ReplicationResult result = small_replication();
  result.replicas = 5;  // placements only hold 3
  AuditReport report;
  audit_replication(result, two_hotspots(), /*budget=*/9, report);
  EXPECT_TRUE(report.has("replica-count")) << report.summary();
}

TEST(ReplicationAuditTest, RedirectContractViolationsAreNamed) {
  ReplicationResult result = small_replication();
  // Target out of range, a zero-count redirect, and a redirect to a hotspot
  // missing the video; the running total no longer matches either.
  result.redirects[1] = {{/*video=*/2,
                          {{/*hotspot=*/5, /*count=*/1},
                           {/*hotspot=*/0, /*count=*/1},
                           {/*hotspot=*/1, /*count=*/0}}}};
  AuditReport report;
  audit_replication(result, two_hotspots(), /*budget=*/9, report);
  EXPECT_TRUE(report.has("redirect-target")) << report.summary();
  EXPECT_TRUE(report.has("redirect-miss")) << report.summary();
  EXPECT_TRUE(report.has("redirect-total")) << report.summary();
}

TEST(ScheduleAuditTest, AuditedRbcaerRunIsCleanAndDigested) {
  // End-to-end: RBCAer at kFull + the simulator's own audit produce a clean
  // run and one digested verdict per slot. In NDEBUG builds the schemes'
  // audit hooks compile out, but the simulator's verdicts, service
  // capacity included, are recorded in every build.
  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = 40;
  world_config.num_videos = 800;
  world_config.num_users = 3000;
  World world = generate_world(world_config);
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  trace_config.num_requests = 3000;
  trace_config.duration_hours = 6;
  const auto trace = generate_trace(world, trace_config);

  SimulationConfig sim_config;
  sim_config.slot_seconds = 3600;
  sim_config.audit_level = AuditLevel::kFull;
  Simulator simulator(world.hotspots(), VideoCatalog{world_config.num_videos},
                      sim_config);
  RbcaerConfig scheme_config;
  scheme_config.audit_level = AuditLevel::kFull;
  RbcaerScheme scheme(scheme_config);
  const SimulationReport report = simulator.run(scheme, trace);

  ASSERT_EQ(report.verdicts().size(), report.slots().size());
  for (const SlotVerdict& verdict : report.verdicts()) {
    EXPECT_NE(verdict.digest, 0u);
    EXPECT_TRUE(verdict.audit.ok()) << verdict.audit.summary();
  }
}

TEST(ScheduleAuditTest, AuditedThetaStepsAreClean) {
  // Every θ step's kFull certificate (flow conservation and no negative
  // residual cycle on the solved graph, before it is discarded), with
  // aggregation on (Gc steps plus the residual Gd pass) and off (Gd steps
  // only), on a fine θ grid so each slot runs many steps —
  // for the flat scheme and for VirtualRbcaerScheme's region-level steps,
  // unsharded and at 2 and 4 shards, where the exchange round's steps are
  // certified too. The audits run in checked builds only; release builds
  // still plan.
  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = 60;
  world_config.num_videos = 800;
  world_config.num_users = 3000;
  World world = generate_world(world_config);
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  trace_config.num_requests = 6000;
  trace_config.duration_hours = 4;
  const auto trace = generate_trace(world, trace_config);

  const auto expect_clean_run = [&](RedirectionScheme& scheme,
                                     std::size_t shards) {
    SimulationConfig sim_config;
    sim_config.slot_seconds = 3600;
    sim_config.audit_level = AuditLevel::kFull;
    sim_config.num_shards = shards;
    const Simulator simulator(world.hotspots(),
                              VideoCatalog{world_config.num_videos},
                              sim_config);
    const SimulationReport report = simulator.run(scheme, trace);
    ASSERT_EQ(report.verdicts().size(), report.slots().size());
    for (const SlotVerdict& verdict : report.verdicts()) {
      EXPECT_TRUE(verdict.audit.ok()) << scheme.name() << ": "
                                      << verdict.audit.summary();
    }
    EXPECT_GT(report.served_by_hotspots(), 0u) << scheme.name();
  };
  for (const std::size_t shards : {0, 2, 4}) {
    for (const bool aggregation : {true, false}) {
      RbcaerConfig scheme_config;
      scheme_config.audit_level = AuditLevel::kFull;
      scheme_config.content_aggregation = aggregation;
      scheme_config.theta1_km = 0.3;
      scheme_config.delta_km = 0.1;
      RbcaerScheme scheme(scheme_config);
      expect_clean_run(scheme, shards);

      VirtualRbcaerConfig virtual_config;
      virtual_config.regional.audit_level = AuditLevel::kFull;
      virtual_config.regional.content_aggregation = aggregation;
      virtual_config.regional.delta_km = 1.0;
      VirtualRbcaerScheme virtual_scheme(virtual_config);
      expect_clean_run(virtual_scheme, shards);
    }
  }
}

TEST(ScheduleAuditTest, SlotDigestsIdenticalAcrossThreadCounts) {
  // The verdicts turn thread-determinism into a slot-by-slot cross-check:
  // at 4 threads the lanes plan on scheme clones, and every slot's digest
  // and audit (service capacity included, which RBCAer claims) must match
  // the sequential run's, unsharded and at 4 shards. At 0.5% capacity the
  // hotspots overload, so the plans redirect and the capacity audit has
  // something to check.
  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = 40;
  world_config.num_videos = 800;
  world_config.num_users = 3000;
  World world = generate_world(world_config);
  assign_uniform_capacities(world, 0.005, 0.03);
  TraceConfig trace_config;
  trace_config.num_requests = 4000;
  trace_config.duration_hours = 8;
  const auto trace = generate_trace(world, trace_config);

  const auto run_with = [&](RedirectionScheme& scheme, std::size_t threads,
                            std::size_t shards) {
    SimulationConfig sim_config;
    sim_config.slot_seconds = 3600;
    sim_config.num_threads = threads;
    sim_config.num_shards = shards;
    sim_config.audit_level = AuditLevel::kPlan;
    Simulator simulator(world.hotspots(),
                        VideoCatalog{world_config.num_videos}, sim_config);
    return simulator.run(scheme, trace);
  };

  NearestScheme nearest;
  const SimulationReport nearest_run = run_with(nearest, 1, 0);
  for (const std::size_t shards : {0u, 4u}) {
    RbcaerScheme sequential_scheme;
    RbcaerScheme parallel_scheme;
    const SimulationReport sequential = run_with(sequential_scheme, 1, shards);
    const SimulationReport parallel = run_with(parallel_scheme, 4, shards);
    const auto& expected = sequential.verdicts();
    const auto& got = parallel.verdicts();
    ASSERT_FALSE(expected.empty());
    ASSERT_EQ(expected.size(), got.size());
    std::size_t like_nearest = 0;
    for (std::size_t s = 0; s < expected.size(); ++s) {
      if (expected[s].digest == nearest_run.verdicts()[s].digest) {
        ++like_nearest;
      }
      EXPECT_EQ(expected[s].digest, got[s].digest)
          << "shards " << shards << ", slot " << s;
      EXPECT_EQ(expected[s].audit.summary(), got[s].audit.summary())
          << "shards " << shards << ", slot " << s;
      EXPECT_TRUE(expected[s].audit.ok())
          << "shards " << shards << ", slot " << s << ": "
          << expected[s].audit.summary();
    }
    EXPECT_EQ(like_nearest, 0u) << "shards " << shards;
  }
}

}  // namespace
}  // namespace ccdn
