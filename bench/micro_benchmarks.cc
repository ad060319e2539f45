// google-benchmark micro-benchmarks for the substrate modules: the solver
// and index costs that determine RBCAer's per-slot scheduling latency
// (backs the paper's §V-D scalability discussion).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "cluster/content_distance.h"
#include "cluster/hierarchical.h"
#include "cluster/simd_kernels.h"
#include "cluster/topset_bitmap.h"
#include "core/balance_graph.h"
#include "core/rbcaer_scheme.h"
#include "flow/dinic.h"
#include "flow/mcmf.h"
#include "geo/grid_index.h"
#include "lp/simplex.h"
#include "model/demand.h"
#include "model/topsets.h"
#include "stats/zipf.h"
#include "trace/generator.h"
#include "trace/world.h"

namespace {

using namespace ccdn;

/// Min-of-repeats: the headline statistic for every bench here and the one
/// tools/bench_gate.py gates on — the minimum over repetitions is the run
/// least disturbed by the machine, so it tracks the code, not the noise.
double min_stat(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

FlowNetwork make_bipartite(Rng& rng, std::size_t side, double density) {
  FlowNetwork net(2 + 2 * side);
  for (std::size_t i = 0; i < side; ++i) {
    (void)net.add_edge(0, static_cast<NodeId>(2 + i),
                       rng.uniform_int(1, 100), 0.0);
    (void)net.add_edge(static_cast<NodeId>(2 + side + i), 1,
                       rng.uniform_int(1, 100), 0.0);
  }
  for (std::size_t i = 0; i < side; ++i) {
    for (std::size_t j = 0; j < side; ++j) {
      if (rng.chance(density)) {
        (void)net.add_edge(static_cast<NodeId>(2 + i),
                           static_cast<NodeId>(2 + side + j),
                           rng.uniform_int(1, 50), rng.uniform(0.1, 5.0));
      }
    }
  }
  return net;
}

void BM_McmfSpfa(benchmark::State& state) {
  Rng rng(1);
  const FlowNetwork base =
      make_bipartite(rng, static_cast<std::size_t>(state.range(0)), 0.2);
  for (auto _ : state) {
    FlowNetwork net = base;
    benchmark::DoNotOptimize(MinCostMaxFlow::solve(net, 0, 1));
  }
}
BENCHMARK(BM_McmfSpfa)->Arg(50)->Arg(150)->Arg(400)->ComputeStatistics("min", min_stat);

void BM_DinicMaxflow(benchmark::State& state) {
  Rng rng(2);
  const FlowNetwork base =
      make_bipartite(rng, static_cast<std::size_t>(state.range(0)), 0.2);
  for (auto _ : state) {
    FlowNetwork net = base;
    benchmark::DoNotOptimize(Dinic::solve(net, 0, 1));
  }
}
BENCHMARK(BM_DinicMaxflow)->Arg(50)->Arg(150)->Arg(400)->ComputeStatistics("min", min_stat);

/// Full residual-graph walk (every arc of every node, summing residuals):
/// the access pattern of one SPFA relaxation sweep, isolated from solver
/// logic. CSR keeps each slice contiguous in one pool.
void BM_ArcWalkCsr(benchmark::State& state) {
  Rng rng(21);
  const FlowNetwork net =
      make_bipartite(rng, static_cast<std::size_t>(state.range(0)), 0.2);
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (NodeId n = 0; n < net.num_nodes(); ++n) {
      for (const EdgeId e : net.out_edges(n)) sum += net.residual(e);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) *
      static_cast<std::int64_t>(2 * net.num_edges()));
}
BENCHMARK(BM_ArcWalkCsr)->Arg(400)->Arg(1200)
    ->ComputeStatistics("min", min_stat);

/// The matrix overload on uniform distances, which keep half of the pairs
/// under the 0.5 cut: cut-graph extraction, then the graph loop at a
/// density no slot reaches (the schemes' Jd graphs hold under 3% of the
/// pairs), so it guards the loop's worst case.
void BM_HierarchicalClustering(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  DistanceMatrix matrix(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      matrix.set(i, j, rng.uniform(0.0, 1.0));
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        hierarchical_cluster(matrix, Linkage::kComplete, 0.5));
  }
}
BENCHMARK(BM_HierarchicalClustering)->Arg(100)->Arg(310)->Arg(600)->ComputeStatistics("min", min_stat);

/// Zipf-skewed synthetic top-sets shaped like a city-scale slot (shared
/// popular head + sparse tails), cached per hotspot count.
const std::vector<std::vector<VideoId>>& synthetic_top_sets(std::size_t n) {
  static std::vector<std::pair<std::size_t, std::vector<std::vector<VideoId>>>>
      cache;
  for (const auto& [key, sets] : cache) {
    if (key == n) return sets;
  }
  Rng rng(11);
  const ZipfDistribution zipf(8000, 0.8);
  std::vector<std::vector<VideoId>> sets(n);
  for (auto& set : sets) {
    const std::size_t size = rng.index(100);
    while (set.size() < size) {
      const auto v = static_cast<VideoId>(zipf.sample(rng));
      if (!std::binary_search(set.begin(), set.end(), v)) {
        set.insert(std::lower_bound(set.begin(), set.end(), v), v);
      }
    }
  }
  cache.emplace_back(n, std::move(sets));
  return cache.back().second;
}

/// The schemes' clustering stage at the paper's 0.5 cut: the cut graph
/// straight from the Jd sweep, then complete linkage on it. These
/// synthetic sets put almost no pair under 0.5, so the Jd sweep with its
/// cut sink dominates the time.
void BM_HierarchicalClusteringJd(benchmark::State& state) {
  const auto& sets =
      synthetic_top_sets(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(hierarchical_cluster(
        content_cut_graph(sets, 0.5), Linkage::kComplete, 0.5));
  }
}
BENCHMARK(BM_HierarchicalClusteringJd)->Arg(310)->Arg(1000)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("min", min_stat);

void BM_ContentDistanceScalar(benchmark::State& state) {
  const auto& sets = synthetic_top_sets(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        content_distance_matrix(sets, {.use_bitmap = false}));
  }
}
BENCHMARK(BM_ContentDistanceScalar)->Arg(310)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("min", min_stat);

void BM_ContentDistanceBitmap(benchmark::State& state) {
  const auto& sets = synthetic_top_sets(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        content_distance_matrix(sets, {.use_bitmap = true}));
  }
}
BENCHMARK(BM_ContentDistanceBitmap)->Arg(310)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("min", min_stat);

/// PR 2 per-pair bitmap kernel: one mid-pack anchor against every other
/// row through jaccard() — the baseline the batched engine is gated
/// against.
void BM_JaccardPairwise(benchmark::State& state) {
  const auto& sets =
      synthetic_top_sets(static_cast<std::size_t>(state.range(0)));
  const TopsetBitmap bitmap(sets);
  const std::size_t anchor = bitmap.num_sets() / 2;
  std::vector<double> out(bitmap.num_sets());
  for (auto _ : state) {
    for (std::size_t j = 0; j < bitmap.num_sets(); ++j) {
      out[j] = bitmap.jaccard(anchor, j);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_JaccardPairwise)->Arg(310)->Arg(2000)
    ->Unit(benchmark::kMicrosecond)->ComputeStatistics("min", min_stat);

/// Batched jaccard_row over the same anchor/rows, scalar popcount kernel.
void BM_JaccardRowScalar(benchmark::State& state) {
  const auto& sets =
      synthetic_top_sets(static_cast<std::size_t>(state.range(0)));
  const TopsetBitmap bitmap(sets);
  const std::size_t anchor = bitmap.num_sets() / 2;
  std::vector<double> out(bitmap.num_sets());
  for (auto _ : state) {
    bitmap.jaccard_row(anchor, 0, bitmap.num_sets(), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_JaccardRowScalar)->Arg(310)->Arg(2000)
    ->Unit(benchmark::kMicrosecond)->ComputeStatistics("min", min_stat);

/// Batched jaccard_row against a pre-transposed RowTile — the AVX2 kernel
/// the tile-major Jd sweep runs; skips (with an error mark in the JSON,
/// which bench_gate reports as a missing metric, not a regression) on hosts
/// without AVX2. The pack_tile transpose happens once outside the timed
/// loop, mirroring its amortization across every anchor of a tile in
/// content_distance_matrix.
void BM_JaccardRowTileAvx2(benchmark::State& state) {
  if (!avx2_kernel_available()) {
    state.SkipWithError("AVX2 unavailable on this host");
    return;
  }
  const auto& sets =
      synthetic_top_sets(static_cast<std::size_t>(state.range(0)));
  const TopsetBitmap bitmap(sets);
  const std::size_t anchor = bitmap.num_sets() / 2;
  TopsetBitmap::RowTile tile;
  bitmap.pack_tile(0, bitmap.num_sets(), tile);
  std::vector<double> out(bitmap.num_sets());
  for (auto _ : state) {
    bitmap.jaccard_row(anchor, tile, 0, out, SimdMode::kAvx2);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_JaccardRowTileAvx2)->Arg(310)->Arg(2000)
    ->Unit(benchmark::kMicrosecond)->ComputeStatistics("min", min_stat);

void BM_TopsetBitmapPack(benchmark::State& state) {
  const auto& sets = synthetic_top_sets(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TopsetBitmap(sets));
  }
}
BENCHMARK(BM_TopsetBitmapPack)->Arg(310)->Arg(2000)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("min", min_stat);

void BM_GridIndexNearest(benchmark::State& state) {
  Rng rng(4);
  std::vector<GeoPoint> points;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    points.push_back({rng.uniform(40.0, 40.1), rng.uniform(116.4, 116.6)});
  }
  const GridIndex index(points, 0.5);
  std::size_t cursor = 0;
  for (auto _ : state) {
    const GeoPoint query{
        40.0 + 0.1 * static_cast<double>((cursor * 37) % 100) / 100.0,
        116.4 + 0.2 * static_cast<double>((cursor * 91) % 100) / 100.0};
    benchmark::DoNotOptimize(index.nearest(query));
    ++cursor;
  }
}
BENCHMARK(BM_GridIndexNearest)->Arg(310)->Arg(5000)->ComputeStatistics("min", min_stat);

void BM_ZipfSample(benchmark::State& state) {
  const ZipfDistribution zipf(static_cast<std::size_t>(state.range(0)), 1.0);
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(15190)->Arg(400000)->ComputeStatistics("min", min_stat);

void BM_SimplexSmallLp(benchmark::State& state) {
  // Random dense LP with n variables and 2n constraints.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Rng rng(6);
  LpProblem problem;
  for (std::uint32_t v = 0; v < n; ++v) {
    (void)problem.add_variable(rng.uniform(-1.0, 1.0));
  }
  for (std::uint32_t row = 0; row < 2 * n; ++row) {
    LpConstraint c;
    for (std::uint32_t v = 0; v < n; ++v) {
      c.terms.push_back({v, rng.uniform(0.0, 1.0)});
    }
    c.relation = Relation::kLessEq;
    c.rhs = rng.uniform(1.0, 5.0);
    problem.add_constraint(std::move(c));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SimplexSolver().solve(problem));
  }
}
BENCHMARK(BM_SimplexSmallLp)->Arg(10)->Arg(30)->Arg(60)->ComputeStatistics("min", min_stat);

/// Whole-slot planning cost for RBCAer at the paper's scale — the number
/// behind Fig. 8's RBCAer bar.
void BM_RbcaerPlanSlot(benchmark::State& state) {
  World world = generate_world(WorldConfig::evaluation_region());
  assign_uniform_capacities(world, 0.05, 0.03);
  TraceConfig trace_config;
  trace_config.num_requests = static_cast<std::size_t>(state.range(0));
  const auto trace = generate_trace(world, trace_config);
  const GridIndex index(world.hotspot_locations(), 0.5);
  const SchemeContext context{world.hotspots(), index,
                              VideoCatalog{world.config().num_videos},
                              kCdnDistanceKm};
  const SlotDemand demand(trace, index);
  for (auto _ : state) {
    RbcaerScheme scheme;
    benchmark::DoNotOptimize(scheme.plan_slot(context, trace, demand));
  }
}
BENCHMARK(BM_RbcaerPlanSlot)->Arg(50000)->Arg(212472)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("min", min_stat);

void BM_SlotDemandAggregation(benchmark::State& state) {
  World world = generate_world(WorldConfig::evaluation_region());
  TraceConfig trace_config;
  trace_config.num_requests = static_cast<std::size_t>(state.range(0));
  const auto trace = generate_trace(world, trace_config);
  const GridIndex index(world.hotspot_locations(), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SlotDemand(trace, index));
  }
}
BENCHMARK(BM_SlotDemandAggregation)->Arg(50000)->Arg(212472)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("min", min_stat);

/// One hourly slot of the city workload (28K requests: 2M over 72 slots)
/// aggregated at 310 or 1000 hotspots, the per-slot demand layer.
void BM_SlotDemand(benchmark::State& state) {
  WorldConfig config = WorldConfig::evaluation_region();
  config.num_hotspots = static_cast<std::size_t>(state.range(0));
  const World world = generate_world(config);
  TraceConfig trace_config;
  trace_config.num_requests = 28000;
  const auto trace = generate_trace(world, trace_config);
  const GridIndex index(world.hotspot_locations(), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SlotDemand(trace, index));
  }
}
BENCHMARK(BM_SlotDemand)->Arg(310)->Arg(1000)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("min", min_stat);

void BM_TopSets(benchmark::State& state) {
  World world = generate_world(WorldConfig::evaluation_region());
  TraceConfig trace_config;
  const auto trace = generate_trace(world, trace_config);
  const GridIndex index(world.hotspot_locations(), 0.5);
  const SlotDemand demand(trace, index);
  for (auto _ : state) {
    benchmark::DoNotOptimize(top_sets_per_hotspot(demand, 0.2));
  }
}
BENCHMARK(BM_TopSets)->Unit(benchmark::kMillisecond);

/// The batched Jd sweep pinned to the scalar popcount kernel. On an AVX2
/// host BM_ContentDistanceBitmap runs the AVX2 tile kernel, so this is the
/// only row that times the scalar sweep the forced-scalar build runs.
void BM_ContentDistanceBitmapScalar(benchmark::State& state) {
  const auto& sets = synthetic_top_sets(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(content_distance_matrix(
        sets, {.use_bitmap = true, .simd = SimdMode::kScalar}));
  }
}
BENCHMARK(BM_ContentDistanceBitmapScalar)->Arg(310)->Arg(1000)->Arg(2000)
    ->Unit(benchmark::kMillisecond)->ComputeStatistics("min", min_stat);

}  // namespace

// BENCHMARK_MAIN with default min-of-repeats reporting (3 repetitions,
// aggregates only — tools/bench_gate.py compares the "min" aggregate). JSON
// is written only where --benchmark_out=... names a file, so a run never
// replaces the committed BENCH_micro.json baseline by accident; pass
// --benchmark_repetitions=... to override the repetitions.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_reps = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_repetitions", 23) == 0) {
      has_reps = true;
    }
  }
  std::string reps_flag = "--benchmark_repetitions=3";
  std::string aggregates_flag = "--benchmark_report_aggregates_only=true";
  if (!has_reps) {
    args.push_back(reps_flag.data());
    args.push_back(aggregates_flag.data());
  }
  int effective_argc = static_cast<int>(args.size());
  benchmark::Initialize(&effective_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(effective_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
