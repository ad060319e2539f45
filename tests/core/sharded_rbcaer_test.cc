#include "core/shard_solver.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/rbcaer_scheme.h"
#include "geo/zone_partition.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "verify/shard_audit.h"

namespace ccdn {
namespace {

/// A small but non-trivial world: enough hotspots that a 4-way spatial
/// partition has interior and boundary members, enough load imbalance that
/// the θ sweep actually moves flow.
struct Fixture {
  World world;
  GridIndex index;
  std::vector<Request> trace;

  Fixture() : world(make_world()), index(world.hotspot_locations(), 0.5) {
    TraceConfig trace_config;
    trace_config.num_requests = 3000;
    trace = generate_trace(world, trace_config);
  }

  static World make_world() {
    WorldConfig config = WorldConfig::evaluation_region();
    config.num_hotspots = 60;
    config.num_videos = 500;
    World world = generate_world(config);
    // mean load 50 requests/hotspot; capacity below it forces movement.
    assign_uniform_capacities(world, 50.0 / 500.0, 0.03);
    return world;
  }

  [[nodiscard]] SchemeContext context() const {
    return {world.hotspots(), index, VideoCatalog{500}, kCdnDistanceKm};
  }
};

SlotPlan plan_with(const Fixture& fixture, std::size_t shards,
                   bool aggregation) {
  RbcaerConfig config;
  config.content_aggregation = aggregation;
  config.num_shards = shards;
  RbcaerScheme scheme(config);
  const SchemeContext context = fixture.context();
  const SlotDemand demand(fixture.trace, fixture.index);
  return scheme.plan_slot(context, fixture.trace, demand);
}

// shard=1 runs the sharded orchestration (partition, child solve, merge)
// but must reproduce the unsharded plan bit for bit — the golden harness
// pins this same contract on the full scheme matrix.
TEST(ShardedRbcaer, ShardOneBitIdenticalToUnsharded) {
  const Fixture fixture;
  for (const bool aggregation : {true, false}) {
    const SlotPlan unsharded = plan_with(fixture, 0, aggregation);
    const SlotPlan sharded = plan_with(fixture, 1, aggregation);
    EXPECT_EQ(unsharded.assignment, sharded.assignment);
    EXPECT_EQ(unsharded.placements, sharded.placements);
  }
}

TEST(ShardedRbcaer, DiagnosticsReflectSharding) {
  const Fixture fixture;
  RbcaerConfig config;
  config.num_shards = 4;
  RbcaerScheme scheme(config);
  const SchemeContext context = fixture.context();
  const SlotDemand demand(fixture.trace, fixture.index);
  const SlotPlan plan = scheme.plan_slot(context, fixture.trace, demand);
  EXPECT_EQ(plan.assignment.size(), fixture.trace.size());
  const auto& diagnostics = scheme.last_diagnostics();
  EXPECT_EQ(diagnostics.shards, 4u);
  EXPECT_EQ(diagnostics.shard_flow_s.size(), 4u);
  // A 4-way cut of a 60-hotspot cloud with θ2-radius candidates always
  // leaves someone near a cut.
  EXPECT_GT(diagnostics.boundary_hotspots, 0u);
}

// The shards run one after another in the calling process, in shard order,
// so a side effect of the shard callback is visible to the caller.
TEST(ShardedSolve, RunsShardsInCallingProcessInShardOrder) {
  const std::vector<Hotspot> hotspots(4);
  const GridIndex index(std::vector<GeoPoint>(4, hotspots[0].location), 0.5);
  HotspotPartition partition;
  partition.phi = {0, 0, 0, 0};
  ShardAssignment assignment;
  assignment.num_shards = 4;
  assignment.shard_of = {0, 1, 2, 3};
  const std::vector<std::uint8_t> boundary(4, 0);
  std::vector<std::uint32_t> order;
  (void)solve_sharded(hotspots, index, partition, assignment, boundary, {},
                      [&order](std::uint32_t shard) {
                        order.push_back(shard);
                        return ShardFlowResult{};
                      });
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

// Negative coverage for the shard audits: out-of-shard locality and a
// non-boundary exchange sender must be flagged, clean inputs must not.
TEST(ShardAudit, FlagsCrossShardLocalFlow) {
  const std::vector<std::uint32_t> shard_of{0, 0, 1, 1};
  AuditReport clean;
  const std::vector<FlowEntry> local{{0, 1, 2}};
  audit_shard_flows(local, shard_of, 0, clean);
  EXPECT_TRUE(clean.ok()) << clean.summary();

  AuditReport report;
  const std::vector<FlowEntry> crossing{{0, 2, 2}};
  audit_shard_flows(crossing, shard_of, 0, report);
  EXPECT_TRUE(report.has("shard-locality")) << report.summary();
}

TEST(ShardAudit, FlagsNonBoundaryExchangeSender) {
  const std::vector<std::uint32_t> shard_of{0, 0, 1, 1};
  const std::vector<std::uint8_t> boundary{0, 1, 1, 0};
  AuditReport clean;
  // Boundary sender; receiver in its own shard is legal.
  const std::vector<FlowEntry> ok{{1, 0, 1}, {1, 3, 1}};
  audit_exchange_flows(ok, shard_of, boundary, clean);
  EXPECT_TRUE(clean.ok()) << clean.summary();

  AuditReport report;
  const std::vector<FlowEntry> bad{{3, 1, 1}};
  audit_exchange_flows(bad, shard_of, boundary, report);
  EXPECT_TRUE(report.has("exchange-not-boundary")) << report.summary();
}

}  // namespace
}  // namespace ccdn
