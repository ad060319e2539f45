// Hierarchical (virtual-hotspot) RBCAer: quality and scalability (paper
// §VI closing remark / future work, building on [28]).
//
// Part 1 — quality on the evaluation region: the virtual variant should
// stay near flat RBCAer while beating Nearest.
// Part 2 — scheduling latency vs deployment size: flat RBCAer's content
// clustering is O(N²) in hotspots; the virtual variant clusters K regions
// instead, which is what makes city-scale (5K hotspot) scheduling cheap.
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "cluster/content_distance.h"
#include "cluster/simd_kernels.h"
#include "cluster/topset_bitmap.h"
#include "core/nearest_scheme.h"
#include "core/rbcaer_scheme.h"
#include "core/virtual_rbcaer_scheme.h"
#include "model/demand.h"
#include "model/topsets.h"
#include "sim/simulator.h"
#include "trace/generator.h"
#include "trace/world.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

using namespace ccdn;

/// One row of the Jd-build comparison (Part 0).
struct GcBuildRow {
  std::size_t hotspots = 0;
  std::size_t pairs = 0;
  std::size_t universe = 0;
  double scalar_s = 0.0;           // seed path: serial sorted-merge
  double pairwise_s = 0.0;         // PR 2 kernel: per-pair bitmap jaccard()
  double bitmap_s = 0.0;           // batched jaccard_row, scalar kernel
  double avx2_s = -1.0;            // batched jaccard_row, AVX2 (-1: no AVX2)
  bool identical = false;          // every matrix bitwise equal
};

/// The PR 2 Jd build, reconstructed from the public API: pack the bitmap
/// and fill the condensed triangle pair by pair through jaccard(). This is
/// the baseline the AVX2 batch path is gated against (ISSUE 10 acceptance:
/// >= 2x at H=2000).
DistanceMatrix pairwise_bitmap_matrix(
    std::span<const std::vector<VideoId>> top_sets) {
  const TopsetBitmap bitmap(top_sets);
  const std::size_t n = top_sets.size();
  DistanceMatrix matrix(n);
  const auto out = matrix.condensed();
  std::size_t cursor = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      out[cursor++] = 1.0 - bitmap.jaccard(i, j);
    }
  }
  return matrix;
}

/// Run `build` `repeats` times, keep the fastest wall time and the last
/// matrix (all runs produce identical matrices — that is the contract
/// being measured).
template <typename Build>
std::pair<double, DistanceMatrix> time_best(std::size_t repeats,
                                            const Build& build) {
  double best = std::numeric_limits<double>::infinity();
  DistanceMatrix last(0);
  for (std::size_t r = 0; r < repeats; ++r) {
    Stopwatch clock;
    last = build();
    best = std::min(best, clock.elapsed_seconds());
  }
  return {best, std::move(last)};
}

/// Part 0 — the Jd-build ladder, min-of-`repeats` per cell: the seed
/// sorted-merge kernel, the PR 2 per-pair bitmap kernel, and the batched
/// jaccard_row engine (scalar, and AVX2 when the host has it). Every
/// matrix must be bitwise identical.
std::vector<GcBuildRow> gc_build_table(std::size_t repeats) {
  const bool avx2 = avx2_kernel_available();
  std::printf("-- Jd matrix build: kernel ladder (min of %zu) --\n", repeats);
  std::printf("%-10s %10s %12s %12s %12s %12s %10s\n", "hotspots",
              "universe", "scalar (s)", "pairwise (s)", "batch (s)",
              "avx2 (s)", "avx2_x");
  std::vector<GcBuildRow> rows;
  for (const std::size_t hotspots : {310u, 1000u, 2000u}) {
    WorldConfig config = WorldConfig::city_scale();
    config.num_hotspots = hotspots;
    World world = generate_world(config);
    TraceConfig trace_config;
    trace_config.num_requests = hotspots * 700;
    const auto trace = generate_trace(world, trace_config);
    const GridIndex index(world.hotspot_locations(), 0.5);
    const SlotDemand demand(trace, index);
    const auto top_sets = top_sets_per_hotspot(demand, 0.2);

    GcBuildRow row;
    row.hotspots = hotspots;
    row.pairs = hotspots * (hotspots - 1) / 2;
    auto [scalar_s, scalar] = time_best(repeats, [&] {
      return content_distance_matrix(top_sets, {.use_bitmap = false});
    });
    row.scalar_s = scalar_s;
    auto [pairwise_s, pairwise] = time_best(
        repeats, [&] { return pairwise_bitmap_matrix(top_sets); });
    row.pairwise_s = pairwise_s;
    auto [bitmap_s, bitmap] = time_best(repeats, [&] {
      return content_distance_matrix(
          top_sets, {.use_bitmap = true, .simd = SimdMode::kScalar});
    });
    row.bitmap_s = bitmap_s;
    DistanceMatrix vectored(0);
    if (avx2) {
      auto [avx2_s, matrix] = time_best(repeats, [&] {
        return content_distance_matrix(
            top_sets, {.use_bitmap = true, .simd = SimdMode::kAvx2});
      });
      row.avx2_s = avx2_s;
      vectored = std::move(matrix);
    }
    {
      const TopsetBitmap probe(top_sets);
      row.universe = probe.universe_size();
    }
    row.identical = true;
    const auto a = scalar.condensed();
    for (const DistanceMatrix* m : {&pairwise, &bitmap}) {
      const auto b = m->condensed();
      for (std::size_t s = 0; s < a.size(); ++s) {
        if (a[s] != b[s]) row.identical = false;
      }
    }
    if (avx2) {
      const auto b = vectored.condensed();
      for (std::size_t s = 0; s < a.size(); ++s) {
        if (a[s] != b[s]) row.identical = false;
      }
    }
    char avx2_text[32] = "(n/a)";
    char speedup_text[32] = "(n/a)";
    if (avx2) {
      std::snprintf(avx2_text, sizeof avx2_text, "%.3f", row.avx2_s);
      std::snprintf(speedup_text, sizeof speedup_text, "%.1fx",
                    row.pairwise_s / row.avx2_s);
    }
    std::printf("%-10zu %10zu %12.3f %12.3f %12.3f %12s %10s%s\n",
                row.hotspots, row.universe, row.scalar_s, row.pairwise_s,
                row.bitmap_s, avx2_text, speedup_text,
                row.identical ? "" : "  (MISMATCH!)");
    rows.push_back(row);
  }
  return rows;
}

/// Machine-readable perf trajectory for cross-PR tracking; same shape as a
/// google-benchmark --benchmark_out file's "benchmarks" array. False when
/// the file could not be written in full.
[[nodiscard]] bool write_gc_json(const std::string& path,
                                 const std::vector<GcBuildRow>& rows) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\n  \"bench\": \"gc_build\",\n  \"unit\": \"s\",\n"
                    "  \"benchmarks\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GcBuildRow& r = rows[i];
    // The avx2_s field is omitted entirely on hosts without AVX2 so
    // bench_gate treats it as a missing metric (note), not a regression.
    char avx2_fields[128] = "";
    if (r.avx2_s >= 0.0) {
      std::snprintf(avx2_fields, sizeof avx2_fields,
                    "\"avx2_s\": %.6f, \"avx2_speedup\": %.2f, ", r.avx2_s,
                    r.pairwise_s / r.avx2_s);
    }
    std::fprintf(
        out,
        "    {\"name\": \"jd_matrix/H=%zu\", \"hotspots\": %zu, "
        "\"pairs\": %zu, \"universe\": %zu, "
        "\"scalar_s\": %.6f, \"pairwise_s\": %.6f, \"bitmap_s\": %.6f, "
        "%s\"kernel_speedup\": %.2f, \"identical\": %s}%s\n",
        r.hotspots, r.hotspots, r.pairs, r.universe, r.scalar_s,
        r.pairwise_s, r.bitmap_s, avx2_fields, r.scalar_s / r.bitmap_s,
        r.identical ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  // The rows may sit in the stream's buffer until fclose flushes them, so
  // a full disk can surface there as well as in the error flag.
  const bool written = std::ferror(out) == 0;
  if (std::fclose(out) != 0 || !written) return false;
  std::printf("(wrote %s)\n\n", path.c_str());
  return true;
}

void quality_table() {
  World world = generate_world(WorldConfig::evaluation_region());
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  const auto trace = generate_trace(world, trace_config);
  SimulationConfig sim_config;
  sim_config.slot_seconds = 24 * 3600;
  const Simulator simulator(world.hotspots(),
                            VideoCatalog{world.config().num_videos},
                            sim_config);

  std::printf("-- quality on the evaluation region (310 hotspots) --\n");
  std::printf("%-18s %10s %10s %10s %10s\n", "scheme", "serving", "dist(km)",
              "repl", "cdn_load");
  NearestScheme nearest;
  RbcaerScheme flat;
  VirtualRbcaerScheme virtual_scheme;
  for (RedirectionScheme* scheme :
       {static_cast<RedirectionScheme*>(&nearest),
        static_cast<RedirectionScheme*>(&flat),
        static_cast<RedirectionScheme*>(&virtual_scheme)}) {
    const auto report = simulator.run(*scheme, trace);
    std::printf("%-18s %10.3f %10.2f %10.2f %10.3f\n",
                scheme->name().c_str(), report.serving_ratio(),
                report.average_distance_km(), report.replication_cost(),
                report.cdn_server_load());
  }
}

void scaling_table(std::size_t max_flat_hotspots) {
  std::printf("\n-- per-slot scheduling latency vs deployment size --\n");
  std::printf("%-10s %16s %18s %10s\n", "hotspots", "flat RBCAer (s)",
              "virtual RBCAer (s)", "regions");
  for (const std::size_t hotspots : {310u, 1000u, 2500u, 5000u}) {
    WorldConfig config = WorldConfig::city_scale();
    config.num_hotspots = hotspots;
    World world = generate_world(config);
    assign_uniform_capacities(world, 0.05, 0.03);
    TraceConfig trace_config;
    // Keep per-hotspot load comparable across sizes.
    trace_config.num_requests = hotspots * 700;
    const auto trace = generate_trace(world, trace_config);
    const GridIndex index(world.hotspot_locations(), 0.5);
    const SchemeContext context{world.hotspots(), index,
                                VideoCatalog{world.config().num_videos},
                                kCdnDistanceKm};
    const SlotDemand demand(trace, index);

    double flat_seconds = -1.0;
    if (hotspots <= max_flat_hotspots) {
      RbcaerScheme flat;
      Stopwatch stopwatch;
      (void)flat.plan_slot(context, trace, demand);
      flat_seconds = stopwatch.elapsed_seconds();
    }
    VirtualRbcaerScheme virtual_scheme;
    Stopwatch stopwatch;
    (void)virtual_scheme.plan_slot(context, trace, demand);
    const double virtual_seconds = stopwatch.elapsed_seconds();

    if (flat_seconds >= 0.0) {
      std::printf("%-10zu %16.2f %18.2f %10zu\n", hotspots, flat_seconds,
                  virtual_seconds,
                  virtual_scheme.last_diagnostics().num_regions);
    } else {
      std::printf("%-10zu %16s %18.2f %10zu\n", hotspots, "(skipped)",
                  virtual_seconds,
                  virtual_scheme.last_diagnostics().num_regions);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  std::printf("=== hierarchical RBCAer: virtual region-hotspots ===\n\n");
  // JSON only to a path on the command line: a run from the repo root
  // must not replace the committed BENCH_gc.json baseline.
  const std::string json_out = flags.get_string("json_out", "");
  const std::vector<GcBuildRow> gc_rows =
      gc_build_table(static_cast<std::size_t>(flags.get_int("repeats", 3)));
  if (!json_out.empty() && !write_gc_json(json_out, gc_rows)) {
    std::fprintf(stderr,
                 "hierarchical_scalability: error: cannot write: %s\n",
                 json_out.c_str());
    return 2;
  }
  // --gc_only: just the gated Jd-build ladder (the CI bench job uses it).
  if (flags.get_bool("gc_only", false)) return 0;
  quality_table();
  scaling_table(static_cast<std::size_t>(
      flags.get_int("max_flat_hotspots", 5000)));
  std::printf("\nreading: clustering drops from O(N^2) hotspot pairs to "
              "O(K^2) region pairs, so city-scale scheduling stays cheap; "
              "and because regions balance over a wider radius (6 km "
              "between centroids vs 1.5 km between hotspots) the virtual "
              "variant can even beat flat RBCAer where overload sits "
              "further from slack than theta2.\n");
  return 0;
}
