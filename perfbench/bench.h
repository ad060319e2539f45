// End-to-end slot-scheduling benchmark: workload table, run set-up and the
// two measurement modes shared by main.cc, run_mode.cc and trace_mode.cc.
//
// A workload fixes the world (hotspot map and capacities), the thread and
// shard counts of the simulator, and the shape of the generated trace; the
// benchmark seed picks the trace. The world is a fixed part of the workload
// (world seed kWorldSeed), as a real deployment's hotspot map is.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/rbcaer_scheme.h"
#include "sim/simulator.h"
#include "trace/world.h"

namespace perfbench {

inline constexpr std::uint64_t kWorldSeed = 42;
inline constexpr std::int64_t kSlotSeconds = 3600;
/// Set-up takes tens of milliseconds, so each run times it this many times
/// (run.py reports the fastest set-up of all runs).
inline constexpr std::size_t kSetupRepeats = 15;

struct Workload {
  const char* name;
  std::size_t hotspots;
  std::size_t requests;
  std::size_t hours;
  double capacity;  // service capacity, fraction of the catalog
  double cache;     // cache capacity, fraction of the catalog
  std::size_t threads;
  std::size_t shards;  // 0 = unsharded planning
};

/// The benchmark's workloads; throws std::invalid_argument on unknown names.
[[nodiscard]] const Workload& find_workload(const std::string& name);

/// The workload's world, before capacities (trace generation and set-up).
[[nodiscard]] ccdn::World make_world(const Workload& workload);

/// Everything a run builds before it touches the trace: the world with its
/// capacities, the Simulator (and its GridIndex), and the scheme.
struct Setup {
  std::vector<ccdn::Hotspot> hotspots;
  ccdn::VideoCatalog catalog;
  std::unique_ptr<ccdn::Simulator> simulator;
  std::unique_ptr<ccdn::RbcaerScheme> scheme;
};

/// `threads` overrides the workload's thread count when non-zero.
[[nodiscard]] Setup make_setup(const Workload& workload, std::size_t threads);

/// Seconds on the steady clock since an arbitrary fixed origin.
[[nodiscard]] inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunOptions {
  std::string trace_path;
  std::size_t threads = 0;    // 0 = the workload's own
  std::size_t max_slots = 0;  // 0 = whole trace (warm-up runs truncate)
};

/// Untraced run through Simulator::run on a CsvSlotSource, after
/// kSetupRepeats timed set-ups. Prints one JSON object to `out`.
void run_untraced(const Workload& workload, const RunOptions& options,
                  std::FILE* out);

/// Traced sequential run: spans around each layer's public calls plus a
/// replay of plan_slot's stages. Writes the spans to `spans_path` and prints
/// one JSON object of per-layer figures to `out`.
void run_traced(const Workload& workload, const RunOptions& options,
                const std::string& spans_path, std::FILE* out);

/// Minimal JSON object writer for the bench binary's one-line results.
class JsonLine {
 public:
  explicit JsonLine(std::FILE* out) : out_(out) { std::fputc('{', out_); }
  JsonLine(const JsonLine&) = delete;
  JsonLine& operator=(const JsonLine&) = delete;
  ~JsonLine() { std::fputs("}\n", out_); }

  void num(const char* key, double value);
  void count(const char* key, std::uint64_t value);
  void nums(const char* key, const std::vector<double>& values);
  void strs(const char* key, const std::vector<std::string>& values);

 private:
  void key(const char* name);
  void quoted(const std::string& value);
  std::FILE* out_;
  bool first_ = true;
};

/// Hex rendering of a plan digest, as pinned in pins.json.
[[nodiscard]] std::string hex_digest(std::uint64_t digest);

}  // namespace perfbench
