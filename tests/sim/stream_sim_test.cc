// Streaming-vs-in-memory equivalence of the bounded-memory slot pipeline.
//
// Simulator::run(scheme, SlotSource&) must produce bit-identical reports
// AND per-slot verdicts to the in-memory span overload, for every scheme,
// at any thread count (and so at any inflight window, which is twice the
// thread count), placement-delta charging (ordered reduction) included.
// These tests drive the streaming path through a real chunked CSV source
// (TraceReader over the round-tripped trace), so the whole
// ingest-to-report chain is covered, not just the executor.
#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/nearest_scheme.h"
#include "core/random_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/virtual_rbcaer_scheme.h"
#include "trace/generator.h"
#include "trace/slot_source.h"
#include "trace/trace_io.h"
#include "trace/world.h"
#include "util/error.h"
#include "util/thread_pool.h"

namespace ccdn {
namespace {

struct StreamWorkload {
  World world;
  std::vector<Request> trace;
  std::string csv;

  StreamWorkload()
      : world(generate_world([] {
          WorldConfig config = WorldConfig::evaluation_region();
          config.num_hotspots = 40;
          config.num_videos = 1200;
          config.num_users = 5000;
          return config;
        }())),
        trace(generate_trace(world, [] {
          TraceConfig config;
          config.num_requests = 6000;  // ~24 hourly slots
          return config;
        }())) {
    assign_uniform_capacities(world, 0.05, 0.03);
    std::stringstream buffer;
    write_trace_csv(buffer, trace);
    csv = buffer.str();
  }

  [[nodiscard]] SimulationConfig make_config(std::size_t num_threads) const {
    SimulationConfig config;
    config.slot_seconds = 3600;
    config.record_hotspot_loads = true;
    config.num_threads = num_threads;
    config.audit_level = AuditLevel::kPlan;  // one verdict per slot
    return config;
  }

  [[nodiscard]] SimulationReport run_in_memory(
      RedirectionScheme& scheme, std::size_t num_threads = 1) const {
    Simulator simulator(world.hotspots(),
                        VideoCatalog{world.config().num_videos},
                        make_config(num_threads));
    return simulator.run(scheme, trace);
  }

  [[nodiscard]] SimulationReport run_streaming(
      RedirectionScheme& scheme, std::size_t num_threads) const {
    Simulator simulator(world.hotspots(),
                        VideoCatalog{world.config().num_videos},
                        make_config(num_threads));
    std::istringstream in(csv);
    TraceReader reader(in);
    CsvSlotSource source(reader, 3600);
    return simulator.run(scheme, source);
  }
};

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
  // The per-slot verdicts are the strongest check: equal digests mean the
  // exact (assignment, placements) decisions matched, slot by slot, and the
  // audits must agree too.
  ASSERT_EQ(a.verdicts().size(), b.verdicts().size());
  ASSERT_GT(a.verdicts().size(), 0u);
  for (std::size_t s = 0; s < a.verdicts().size(); ++s) {
    EXPECT_EQ(a.verdicts()[s].digest, b.verdicts()[s].digest) << "slot " << s;
    EXPECT_EQ(a.verdicts()[s].audit.summary(), b.verdicts()[s].audit.summary())
        << "slot " << s;
  }
}

TEST(StreamingSimulator, RbcaerIdenticalAcrossThreadsAndWindows) {
  const StreamWorkload workload;
  RbcaerScheme reference_scheme;
  const auto reference = workload.run_in_memory(reference_scheme);
  ASSERT_GT(reference.slots().size(), 4u);
  // Windows of 4, 6 and 8 slots: at 3 threads the lanes are reused at a
  // stride that is not a power of two.
  for (const std::size_t threads : {1u, 2u, 3u, 4u}) {
    RbcaerScheme scheme;
    expect_identical(reference, workload.run_streaming(scheme, threads));
  }
}

TEST(StreamingSimulator, VirtualRbcaerIdentical) {
  const StreamWorkload workload;
  VirtualRbcaerScheme reference_scheme;
  const auto reference = workload.run_in_memory(reference_scheme);
  for (const std::size_t threads : {1u, 3u}) {
    VirtualRbcaerScheme scheme;
    expect_identical(reference, workload.run_streaming(scheme, threads));
  }
}

TEST(StreamingSimulator, NearestIdentical) {
  const StreamWorkload workload;
  NearestScheme reference_scheme;
  const auto reference = workload.run_in_memory(reference_scheme);
  for (const std::size_t threads : {3u, 4u}) {
    NearestScheme scheme;
    expect_identical(reference, workload.run_streaming(scheme, threads));
  }
}

TEST(StreamingSimulator, StatefulRandomFallsBackAndStaysIdentical) {
  const StreamWorkload workload;
  RandomScheme reference_scheme(1.5, /*seed=*/99);
  ASSERT_EQ(reference_scheme.clone(), nullptr);
  const auto reference = workload.run_in_memory(reference_scheme);
  // Even with threads requested, a clone()-less scheme must take the
  // sequential streaming path and reproduce the same cross-slot RNG draws.
  RandomScheme scheme(1.5, /*seed=*/99);
  expect_identical(reference, workload.run_streaming(scheme, 4));
}

TEST(StreamingSimulator, RejectsSlotLengthMismatch) {
  const StreamWorkload workload;
  NearestScheme scheme;
  Simulator simulator(workload.world.hotspots(),
                      VideoCatalog{workload.world.config().num_videos},
                      workload.make_config(1));
  VectorSlotSource source(workload.trace, /*slot_seconds=*/7200);
  EXPECT_THROW((void)simulator.run(scheme, source), PreconditionError);
}

TEST(StreamingSimulator, FileSourceIdenticalWithItsPiecesOnTheLanes) {
  // CsvSlotSource(path) parses its pieces on the pool Simulator::run lends
  // at 4 threads, and inline at 1.
  const StreamWorkload workload;
  const std::string path = ::testing::TempDir() + "/ccdn_stream_sim.csv";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << workload.csv;
  }
  RbcaerScheme reference_scheme;
  const auto reference = workload.run_in_memory(reference_scheme);
  for (const std::size_t threads : {1u, 4u}) {
    Simulator simulator(workload.world.hotspots(),
                        VideoCatalog{workload.world.config().num_videos},
                        workload.make_config(threads));
    CsvSlotSource source(path, 3600);
    RbcaerScheme scheme;
    expect_identical(reference, simulator.run(scheme, source));
  }
  std::remove(path.c_str());
}

/// A VectorSlotSource that notes ThreadPool::lent() at every pull, and
/// throws a ParseError at pull `fail_at` when that is not 0.
class LentProbeSource final : public SlotSource {
 public:
  LentProbeSource(std::span<const Request> trace, std::size_t fail_at)
      : inner_(trace, 3600), fail_at_(fail_at) {}

  [[nodiscard]] std::optional<SlotBatch> next() override {
    lent.push_back(ThreadPool::lent());
    if (lent.size() == fail_at_) throw ParseError("probe");
    return inner_.next();
  }
  [[nodiscard]] std::int64_t slot_seconds() const noexcept override {
    return 3600;
  }

  std::vector<ThreadPool*> lent;

 private:
  VectorSlotSource inner_;
  std::size_t fail_at_;
};

TEST(StreamingSimulator, LendsItsPoolToThePullOnlyWhilePipelining) {
  const StreamWorkload workload;
  const auto run = [&](RedirectionScheme& scheme, std::size_t threads,
                       LentProbeSource& source) {
    Simulator simulator(workload.world.hotspots(),
                        VideoCatalog{workload.world.config().num_videos},
                        workload.make_config(threads));
    return simulator.run(scheme, source);
  };
  {
    // No pool is lent once a run returns or throws.
    NearestScheme scheme;
    LentProbeSource source(workload.trace, 0);
    (void)run(scheme, 4, source);
    EXPECT_NE(source.lent.front(), nullptr);
    EXPECT_EQ(ThreadPool::lent(), nullptr);
    LentProbeSource failing(workload.trace, 3);
    EXPECT_THROW((void)run(scheme, 4, failing), ParseError);
    EXPECT_NE(failing.lent.back(), nullptr);
    EXPECT_EQ(ThreadPool::lent(), nullptr);
  }
  ThreadPool outer(1);
  const ThreadPool::Lend outer_lend(outer);
  {
    // Pipelined: every pull sees the run's own pool, and the pool lent
    // before the run is lent again after it.
    NearestScheme scheme;
    LentProbeSource source(workload.trace, 0);
    (void)run(scheme, 4, source);
    ASSERT_GT(source.lent.size(), 4u);
    for (ThreadPool* pool : source.lent) {
      EXPECT_NE(pool, nullptr);
      EXPECT_NE(pool, &outer);
      EXPECT_EQ(pool, source.lent.front());
    }
    EXPECT_EQ(ThreadPool::lent(), &outer);
  }
  {
    // A run whose source throws lends nothing past it either.
    NearestScheme scheme;
    LentProbeSource source(workload.trace, 3);
    EXPECT_THROW((void)run(scheme, 4, source), ParseError);
    ASSERT_EQ(source.lent.size(), 3u);
    EXPECT_NE(source.lent.back(), &outer);
    EXPECT_EQ(ThreadPool::lent(), &outer);
  }
  {
    // Sequential runs (one thread, or a scheme that cannot be cloned) lend
    // no pool of their own.
    NearestScheme nearest;
    LentProbeSource one_thread(workload.trace, 0);
    (void)run(nearest, 1, one_thread);
    RandomScheme random(1.5, /*seed=*/99);
    LentProbeSource stateful(workload.trace, 0);
    (void)run(random, 4, stateful);
    for (const LentProbeSource* source : {&one_thread, &stateful}) {
      for (ThreadPool* pool : source->lent) EXPECT_EQ(pool, &outer);
    }
  }
  EXPECT_EQ(ThreadPool::lent(), &outer);
}

}  // namespace
}  // namespace ccdn
