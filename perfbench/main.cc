// ccdn_perfbench — one process of the end-to-end benchmark.
//
//   ccdn_perfbench generate --workload=W --seed=S --out=trace.csv
//       Write the workload's trace for seed S (TraceGenerator/TraceWriter).
//   ccdn_perfbench run --workload=W --in=trace.csv [--threads=N]
//                        [--max_slots=N]
//       Untraced run through Simulator::run; prints one JSON line.
//   ccdn_perfbench trace --workload=W --in=trace.csv --spans=out.json
//       Traced sequential run with the stage replay; prints one JSON line.
//
// perfbench/run.py drives these processes and turns their lines into the
// benchmark's metrics.
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "trace/generator.h"
#include "trace/trace_io.h"
#include "util/flags.h"

namespace perfbench {

namespace {

// clang-format off
constexpr Workload kWorkloads[] = {
  // name               hotspots  requests   hours  cap    cache  threads shards
  {"city-2m-hourly",     310,      2000000,   72,    0.05,  0.03,  4,      0},
  {"dense-1k-hourly",    1000,     1000000,   48,    0.003, 0.03,  1,      0},
  {"dense-1k-sharded",   1000,     1000000,   48,    0.003, 0.03,  1,      4},
};
// clang-format on

int cmd_generate(const Workload& workload, const ccdn::Flags& flags) {
  const std::string out = flags.get_string("out", "");
  if (out.empty()) throw std::invalid_argument("generate: --out is required");
  const ccdn::World world = make_world(workload);
  ccdn::TraceConfig config;
  config.num_requests = workload.requests;
  config.duration_hours = workload.hours;
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const ccdn::TraceGenerator generator(world, config, kSlotSeconds);
  ccdn::TraceWriter writer(out);
  writer.append(generator.generate());
  std::printf("wrote %zu requests to %s\n", writer.rows_written(),
              out.c_str());
  return 0;
}

}  // namespace

const Workload& find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

ccdn::World make_world(const Workload& workload) {
  ccdn::WorldConfig config = ccdn::WorldConfig::evaluation_region();
  config.num_hotspots = workload.hotspots;
  config.seed = kWorldSeed;
  return ccdn::generate_world(config);
}

Setup make_setup(const Workload& workload, std::size_t threads) {
  ccdn::World world = make_world(workload);
  ccdn::assign_uniform_capacities(world, workload.capacity, workload.cache);
  ccdn::SimulationConfig config;
  config.slot_seconds = kSlotSeconds;
  config.num_threads = threads != 0 ? threads : workload.threads;
  config.num_shards = workload.shards;
  Setup setup;
  setup.hotspots = world.hotspots();
  setup.catalog = ccdn::VideoCatalog{world.config().num_videos};
  setup.simulator = std::make_unique<ccdn::Simulator>(setup.hotspots,
                                                      setup.catalog, config);
  setup.scheme = std::make_unique<ccdn::RbcaerScheme>(ccdn::RbcaerConfig{});
  return setup;
}

void JsonLine::key(const char* name) {
  if (!first_) std::fputc(',', out_);
  first_ = false;
  std::fprintf(out_, "\"%s\":", name);
}

void JsonLine::num(const char* name, double value) {
  key(name);
  if (std::isfinite(value)) {
    std::fprintf(out_, "%.17g", value);
  } else {
    std::fputs("null", out_);  // run.py treats null as a failed check
  }
}

void JsonLine::count(const char* name, std::uint64_t value) {
  key(name);
  std::fprintf(out_, "%" PRIu64, value);
}

void JsonLine::quoted(const std::string& value) {
  std::fputc('"', out_);
  for (const char c : value) {
    if (c == '"' || c == '\\') std::fputc('\\', out_);
    std::fputc(c == '\n' ? ' ' : c, out_);
  }
  std::fputc('"', out_);
}

void JsonLine::nums(const char* name, const std::vector<double>& values) {
  key(name);
  std::fputc('[', out_);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(out_, i == 0 ? "%.17g" : ",%.17g", values[i]);
  }
  std::fputc(']', out_);
}

void JsonLine::strs(const char* name, const std::vector<std::string>& values) {
  key(name);
  std::fputc('[', out_);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) std::fputc(',', out_);
    quoted(values[i]);
  }
  std::fputc(']', out_);
}

std::string hex_digest(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, digest);
  return buf;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const ccdn::Flags flags(argc, argv);
    const auto& positional = flags.positional();
    const std::string command = positional.empty() ? "" : positional.front();
    const Workload& workload =
        find_workload(flags.get_string("workload", ""));
    if (command == "generate") return cmd_generate(workload, flags);
    RunOptions options;
    options.trace_path = flags.get_string("in", "");
    options.threads = static_cast<std::size_t>(flags.get_int("threads", 0));
    options.max_slots =
        static_cast<std::size_t>(flags.get_int("max_slots", 0));
    if (options.trace_path.empty()) {
      throw std::invalid_argument("--in is required");
    }
    if (command == "run") {
      run_untraced(workload, options, stdout);
      return 0;
    }
    if (command == "trace") {
      run_traced(workload, options, flags.get_string("spans", "spans.json"),
                 stdout);
      return 0;
    }
    std::fprintf(stderr, "usage: ccdn_perfbench <generate|run|trace> "
                         "--workload=W [flags]\n");
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "ccdn_perfbench: %s\n", error.what());
    return 1;
  }
}
