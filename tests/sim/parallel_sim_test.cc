// Determinism of the parallel slot-scheduling pipeline.
//
// Simulator::run with num_threads > 1 fans independent slots out to a
// thread pool and reduces them back in slot order; the resulting
// SimulationReport must be bit-identical to the sequential run, placement
// deltas included: each slot's replicas are charged in an ordered reduction
// over the computed plans.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "core/nearest_scheme.h"
#include "core/random_scheme.h"
#include "core/rbcaer_scheme.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "verify/schedule_audit.h"

namespace ccdn {
namespace {

struct Workload {
  World world;
  std::vector<Request> trace;

  Workload()
      : world(generate_world([] {
          WorldConfig config = WorldConfig::evaluation_region();
          config.num_hotspots = 60;
          config.num_videos = 2000;
          config.num_users = 8000;
          return config;
        }())),
        trace(generate_trace(world, [] {
          TraceConfig config;
          config.num_requests = 12000;  // ~24 hourly slots
          return config;
        }())) {
    assign_uniform_capacities(world, 0.05, 0.03);
  }

  [[nodiscard]] SimulationReport run(RedirectionScheme& scheme,
                                     std::size_t num_threads,
                                     std::size_t num_shards = 0) const {
    SimulationConfig config;
    config.slot_seconds = 3600;
    config.record_hotspot_loads = true;
    config.num_threads = num_threads;
    config.num_shards = num_shards;
    Simulator simulator(world.hotspots(),
                        VideoCatalog{world.config().num_videos}, config);
    return simulator.run(scheme, trace);
  }
};

/// Bit-exact comparison of everything except stage timings (wall-clock
/// measurements are the one intentionally non-deterministic report field).
void expect_identical(const SimulationReport& a, const SimulationReport& b) {
  EXPECT_EQ(a.total_requests(), b.total_requests());
  EXPECT_EQ(a.served_by_hotspots(), b.served_by_hotspots());
  EXPECT_EQ(a.total_replicas(), b.total_replicas());
  EXPECT_EQ(a.serving_ratio(), b.serving_ratio());
  EXPECT_EQ(a.average_distance_km(), b.average_distance_km());
  EXPECT_EQ(a.replication_cost(), b.replication_cost());
  EXPECT_EQ(a.cdn_server_load(), b.cdn_server_load());
  ASSERT_EQ(a.slots().size(), b.slots().size());
  for (std::size_t s = 0; s < a.slots().size(); ++s) {
    const SlotMetrics& sa = a.slots()[s];
    const SlotMetrics& sb = b.slots()[s];
    EXPECT_EQ(sa.requests, sb.requests) << "slot " << s;
    EXPECT_EQ(sa.served, sb.served) << "slot " << s;
    EXPECT_EQ(sa.rejected_capacity, sb.rejected_capacity) << "slot " << s;
    EXPECT_EQ(sa.rejected_placement, sb.rejected_placement) << "slot " << s;
    EXPECT_EQ(sa.sent_to_cdn, sb.sent_to_cdn) << "slot " << s;
    EXPECT_EQ(sa.replicas, sb.replicas) << "slot " << s;
    EXPECT_EQ(sa.distance_sum_km, sb.distance_sum_km) << "slot " << s;
  }
  ASSERT_EQ(a.hotspot_loads().size(), b.hotspot_loads().size());
  for (std::size_t s = 0; s < a.hotspot_loads().size(); ++s) {
    EXPECT_EQ(a.hotspot_loads()[s], b.hotspot_loads()[s]) << "slot " << s;
  }
  // Stage timings are still recorded per slot under every thread count.
  EXPECT_EQ(a.stage_timings().size(), b.stage_timings().size());
}

TEST(ParallelSimulator, RbcaerIdenticalAcrossThreadCounts) {
  const Workload workload;
  RbcaerScheme sequential_scheme;
  RbcaerScheme parallel_scheme;
  const auto sequential = workload.run(sequential_scheme, 1);
  const auto parallel = workload.run(parallel_scheme, 4);
  ASSERT_GT(sequential.slots().size(), 4u);
  expect_identical(sequential, parallel);
}

TEST(ParallelSimulator, ShardedSchemeIdenticalAcrossThreadCounts) {
  // The sharded solve runs its shards in-process inside each clone lane;
  // the report must match the sequential run bit for bit.
  const Workload workload;
  RbcaerScheme sequential_scheme;
  RbcaerScheme parallel_scheme;
  expect_identical(workload.run(sequential_scheme, 1, 2),
                   workload.run(parallel_scheme, 4, 2));
}

/// Replays every slot on a fresh clone of the wrapped scheme and counts
/// plans whose digest differs: the check that state a scheme keeps across
/// slots (the cached shard plan) never leaks
/// into a plan. clone() wraps the inner clone, so the simulator's lanes
/// run the check exactly as they run the scheme.
class ClonePurityScheme final : public RedirectionScheme {
 public:
  struct Counts {
    std::atomic<std::size_t> replays{0};
    std::atomic<std::size_t> mismatches{0};
  };

  ClonePurityScheme(SchemePtr inner, Counts& counts)
      : inner_(std::move(inner)), counts_(counts) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] SlotPlan plan_slot(const SchemeContext& context,
                                   std::span<const Request> requests,
                                   const SlotDemand& demand) override {
    SlotPlan plan = inner_->plan_slot(context, requests, demand);
    const SlotPlan replay =
        inner_->clone()->plan_slot(context, requests, demand);
    ++counts_.replays;
    if (plan_digest(replay) != plan_digest(plan)) ++counts_.mismatches;
    return plan;
  }

  [[nodiscard]] SchemePtr clone() const override {
    return std::make_unique<ClonePurityScheme>(inner_->clone(), counts_);
  }

 private:
  SchemePtr inner_;
  Counts& counts_;
};

TEST(ParallelSimulator, RbcaerDigestsMatchAcrossWindowsAndClonePurity) {
  // The windowed lanes hand each clone only every W-th slot (W = 2 x
  // threads: 4 at 2 threads, and 6 at 3, a stride that is not a power of
  // two), and the purity replay plans every slot again on a fresh clone:
  // neither may change a plan, whatever state a clone carries from its
  // earlier slots.
  WorldConfig world_config = WorldConfig::evaluation_region();
  world_config.num_hotspots = 40;
  world_config.num_videos = 800;
  world_config.seed = 11;
  World world = generate_world(world_config);
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  trace_config.num_requests = 5000;
  trace_config.duration_hours = 8;
  trace_config.seed = 11;
  const auto trace = generate_trace(world, trace_config);

  ClonePurityScheme::Counts purity_counts;
  const auto run = [&](std::size_t threads, bool purity) {
    SimulationConfig config;
    config.slot_seconds = 3600;
    config.audit_level = AuditLevel::kPlan;  // one verdict per slot
    config.num_threads = threads;
    const Simulator simulator(world.hotspots(),
                              VideoCatalog{world_config.num_videos}, config);
    SchemePtr scheme = std::make_unique<RbcaerScheme>();
    if (purity) {
      scheme = std::make_unique<ClonePurityScheme>(std::move(scheme),
                                                   purity_counts);
    }
    const SimulationReport report = simulator.run(*scheme, trace);
    std::vector<std::uint64_t> digests;
    for (const SlotVerdict& verdict : report.verdicts()) {
      digests.push_back(verdict.digest);
    }
    return digests;
  };

  const auto baseline = run(1, false);
  ASSERT_GT(baseline.size(), 6u);  // lanes are reused at both windows
  EXPECT_EQ(run(2, false), baseline);
  EXPECT_EQ(run(3, true), baseline);
  EXPECT_EQ(purity_counts.replays.load(), baseline.size());
  EXPECT_EQ(purity_counts.mismatches.load(), 0u);
}

TEST(ParallelSimulator, NearestIdenticalWithAllHardwareThreads) {
  const Workload workload;
  NearestScheme sequential_scheme;
  NearestScheme parallel_scheme;
  // num_threads = 0 means "use all hardware threads".
  expect_identical(workload.run(sequential_scheme, 1),
                   workload.run(parallel_scheme, 0));
}

TEST(ParallelSimulator, StatefulSchemeFallsBackToSequential) {
  const Workload workload;
  // RandomScheme draws from a cross-slot RNG, so it declines clone() and the
  // parallel run must take the sequential path — same draws, same report.
  RandomScheme sequential_scheme(1.5, /*seed=*/99);
  RandomScheme parallel_scheme(1.5, /*seed=*/99);
  EXPECT_EQ(sequential_scheme.clone(), nullptr);
  expect_identical(workload.run(sequential_scheme, 1),
                   workload.run(parallel_scheme, 4));
}

}  // namespace
}  // namespace ccdn
