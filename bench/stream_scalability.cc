// Streaming slot pipeline: peak memory and throughput vs trace scale.
//
// Measures the PR's bounded-memory claim directly: the same CSV trace is
// simulated once with the classic in-memory path (read_trace_csv + the
// materialized-span run) and once with the streaming path (CsvSlotSource),
// at 1x / 4x / 16x scale, where BOTH the request count and the trace
// duration grow — so the in-memory request vector grows linearly while the
// streaming window stays O(2 x threads x slot size).
//
// Peak RSS is a process-lifetime high watermark (getrusage never goes
// down), so each (mode, scale) case runs in a forked child and the parent
// reads the child's ru_maxrss from wait4. The parent pre-generates each
// trace CSV through the windowed TraceGenerator cursor, so even the 16x
// trace never materializes in any process.
//
// Prints a table, and with --json_out=<path> writes the rows as JSON (the
// shape of BENCH_stream.json and the other BENCH_*.json files) with
// elapsed seconds, slots/s, and peak RSS per case; the per-run digest XOR
// proves both modes computed identical plans.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/rbcaer_scheme.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/slot_source.h"
#include "trace/trace_io.h"
#include "trace/world.h"
#include "util/flags.h"
#include "util/fork_run.h"
#include "util/stopwatch.h"

namespace {

using namespace ccdn;

struct CaseConfig {
  std::string trace_path;
  bool stream = false;
  std::size_t threads = 4;
  std::int64_t slot_seconds = 3600;
};

/// What one child process reports back through the pipe; peak RSS is
/// filled in by the parent from the child's wait4 rusage.
struct CaseResult {
  double elapsed_s = 0.0;
  std::size_t slots = 0;
  std::size_t requests = 0;
  double serving_ratio = 0.0;
  std::uint64_t digest_xor = 0;
  double peak_rss_mb = 0.0;
};

World make_world() {
  WorldConfig config = WorldConfig::evaluation_region();
  config.num_hotspots = 60;
  config.num_videos = 2000;
  config.seed = 7;
  World world = generate_world(config);
  assign_uniform_capacities(world, 0.05, 0.03);
  return world;
}

/// Body of one measured case; runs inside the forked child.
CaseResult run_case(const CaseConfig& config) {
  World world = make_world();
  RbcaerScheme scheme;
  SimulationConfig sim_config;
  sim_config.slot_seconds = config.slot_seconds;
  sim_config.num_threads = config.threads;
  sim_config.audit_level = AuditLevel::kPlan;  // per-slot verdicts
  const Simulator simulator(world.hotspots(),
                            VideoCatalog{world.config().num_videos},
                            sim_config);
  Stopwatch clock;
  const SimulationReport report = [&] {
    if (config.stream) {
      CsvSlotSource source(config.trace_path, config.slot_seconds);
      return simulator.run(scheme, source);
    }
    const auto trace = read_trace_csv(config.trace_path);
    return simulator.run(scheme, trace);
  }();
  CaseResult result;
  result.elapsed_s = clock.elapsed_seconds();
  result.slots = report.slots().size();
  result.requests = report.total_requests();
  result.serving_ratio = report.serving_ratio();
  for (const SlotVerdict& verdict : report.verdicts()) {
    result.digest_xor ^= verdict.digest;
  }
  return result;
}

/// Fork, run the case in the child (util/fork_run.h), and read back
/// (result, child peak RSS). A child failure exits the bench with the
/// child's real exit code (or 128+signal), not a raw wait status.
CaseResult run_case_isolated(const CaseConfig& config) {
  const ForkResult forked = fork_run([&config] {
    const CaseResult result = run_case(config);
    std::vector<std::uint8_t> payload(sizeof(result));
    std::memcpy(payload.data(), &result, sizeof(result));
    return payload;
  });
  if (!forked.complete || forked.payload.size() != sizeof(CaseResult)) {
    std::fprintf(stderr, "stream_scalability: child failed (exit code %d)\n",
                 forked.exit_code);
    std::exit(forked.exit_code > 0 ? forked.exit_code : 2);
  }
  CaseResult result;
  std::memcpy(&result, forked.payload.data(), sizeof(result));
  result.peak_rss_mb = forked.peak_rss_mb;
  return result;
}

struct Row {
  std::size_t scale = 0;
  std::size_t requests = 0;
  CaseResult in_memory;
  CaseResult stream;
};

void write_json(const std::string& path, const std::vector<Row>& rows,
                std::size_t threads) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n  \"bench\": \"stream_scalability\",\n"
                    "  \"unit\": \"s\",\n  \"threads\": %zu,\n"
                    "  \"benchmarks\": [\n", threads);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    for (int mode = 0; mode < 2; ++mode) {
      const CaseResult& c = mode == 0 ? r.in_memory : r.stream;
      std::fprintf(
          out,
          "    {\"name\": \"%s/scale=%zux\", \"mode\": \"%s\", "
          "\"scale\": %zu, \"requests\": %zu, \"slots\": %zu, "
          "\"elapsed_s\": %.6f, \"slots_per_s\": %.3f, "
          "\"peak_rss_mb\": %.2f, \"digest_xor\": \"%016llx\"}%s\n",
          mode == 0 ? "in_memory" : "stream", r.scale,
          mode == 0 ? "in_memory" : "stream", r.scale, c.requests, c.slots,
          c.elapsed_s, static_cast<double>(c.slots) / c.elapsed_s,
          c.peak_rss_mb, static_cast<unsigned long long>(c.digest_xor),
          (i + 1 < rows.size() || mode == 0) ? "," : "");
    }
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("(wrote %s)\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::size_t base_requests = static_cast<std::size_t>(
      flags.get_int("base_requests", 30000));
  const std::size_t threads =
      static_cast<std::size_t>(flags.get_int("threads", 4));
  const std::string json_out = flags.get_string("json_out", "");

  std::printf("=== streaming slot pipeline: RSS and throughput vs scale "
              "===\n\n");
  std::printf("%-8s %10s %8s | %12s %12s | %12s %12s | %s\n", "scale",
              "requests", "slots", "inmem RSS", "stream RSS", "inmem sl/s",
              "stream sl/s", "identical");

  std::vector<Row> rows;
  const World world = make_world();
  for (const std::size_t scale : {1u, 4u, 16u}) {
    TraceConfig trace_config;
    trace_config.num_requests = base_requests * scale;
    trace_config.duration_hours = 24 * scale;
    trace_config.seed = 7;
    const std::string trace_path =
        "stream_scalability_" + std::to_string(scale) + "x.csv";
    {
      // Streamed generation: the full trace never materializes here either.
      TraceGenerator generator(world, trace_config);
      TraceWriter writer(trace_path);
      while (auto batch = generator.next_slot_batch()) writer.append(*batch);
    }

    CaseConfig case_config;
    case_config.trace_path = trace_path;
    case_config.threads = threads;
    Row row;
    row.scale = scale;
    row.requests = trace_config.num_requests;
    case_config.stream = false;
    row.in_memory = run_case_isolated(case_config);
    case_config.stream = true;
    row.stream = run_case_isolated(case_config);
    std::remove(trace_path.c_str());

    const bool identical =
        row.in_memory.digest_xor == row.stream.digest_xor &&
        row.in_memory.requests == row.stream.requests &&
        row.in_memory.slots == row.stream.slots;
    std::printf("%-8zu %10zu %8zu | %10.1fMB %10.1fMB | %12.2f %12.2f | %s\n",
                scale, row.requests, row.stream.slots,
                row.in_memory.peak_rss_mb, row.stream.peak_rss_mb,
                static_cast<double>(row.in_memory.slots) /
                    row.in_memory.elapsed_s,
                static_cast<double>(row.stream.slots) / row.stream.elapsed_s,
                identical ? "yes" : "NO (MISMATCH!)");
    if (!identical) {
      std::fprintf(stderr,
                   "stream_scalability: digest mismatch at scale %zux\n",
                   scale);
      return 1;
    }
    rows.push_back(row);
  }

  if (!json_out.empty()) write_json(json_out, rows, threads);
  std::printf("\nreading: in-memory peak RSS grows with the trace (the "
              "request vector is resident end to end) while streaming RSS "
              "stays near-flat — it holds at most the inflight window of "
              "slot batches; throughput matches because both modes share "
              "one pipelined executor.\n");
  return 0;
}
