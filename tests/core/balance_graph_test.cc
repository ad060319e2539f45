#include "core/balance_graph.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/reference_pair_scans.h"
#include "flow/mcmf.h"
#include "geo/grid_index.h"
#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

/// Four hotspots on a west-east line ~1.4 km apart.
std::vector<Hotspot> line_hotspots() {
  std::vector<Hotspot> hotspots(4);
  for (int i = 0; i < 4; ++i) {
    hotspots[i].location = {40.0, 116.40 + 0.0165 * i};  // ~1.4 km spacing
    hotspots[i].service_capacity = 10;
  }
  return hotspots;
}

TEST(HotspotPartition, SplitsByLoad) {
  const auto hotspots = line_hotspots();
  const std::vector<std::uint32_t> loads{15, 10, 4, 2};
  const auto partition = HotspotPartition::from_loads(hotspots, loads);
  EXPECT_EQ(partition.overloaded, (std::vector<std::uint32_t>{0}));
  EXPECT_EQ(partition.underutilized, (std::vector<std::uint32_t>{2, 3}));
  EXPECT_EQ(partition.phi[0], 5);
  EXPECT_EQ(partition.phi[1], 0);  // exactly balanced: neither set
  EXPECT_EQ(partition.phi[2], 6);
  EXPECT_EQ(partition.phi[3], 8);
}

TEST(HotspotPartition, MaxMovableIsMinOfSides) {
  const auto hotspots = line_hotspots();
  const auto partition = HotspotPartition::from_loads(
      hotspots, std::vector<std::uint32_t>{30, 10, 9, 8});
  // Overload 20; slack 1 + 2 = 3.
  EXPECT_EQ(partition.max_movable(), 3);
}

TEST(HotspotPartition, RejectsLengthMismatch) {
  const auto hotspots = line_hotspots();
  EXPECT_THROW((void)HotspotPartition::from_loads(
                   hotspots, std::vector<std::uint32_t>{1, 2}),
               PreconditionError);
}

TEST(CandidateEdges, RespectsRadiusStrictly) {
  const auto hotspots = line_hotspots();
  const auto partition = HotspotPartition::from_loads(
      hotspots, std::vector<std::uint32_t>{20, 20, 5, 5});
  // Distance 0->2 is ~2.8 km, 0->3 ~4.2 km, 1->2 ~1.4 km.
  const auto edges15 = candidate_edges_pairscan(hotspots, partition, 1.5);
  ASSERT_EQ(edges15.size(), 1u);
  EXPECT_EQ(edges15[0].from, 1u);
  EXPECT_EQ(edges15[0].to, 2u);
  const auto edges30 = candidate_edges_pairscan(hotspots, partition, 3.0);
  EXPECT_EQ(edges30.size(), 3u);  // 0->2, 1->2, 1->3
  const auto edges_all = candidate_edges_pairscan(hotspots, partition, 100.0);
  EXPECT_EQ(edges_all.size(), 4u);
}

TEST(CandidateEdges, IndexedMatchesPairScan) {
  // The pair scan is the oracle of the indexed query: the same edges in the
  // same order (overloaded order, then ascending receiver) with the same
  // distances, on every grid and radius, +inf included.
  Rng rng(25);
  const double inf = std::numeric_limits<double>::infinity();
  std::size_t edges_seen = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.index(120);
    std::vector<Hotspot> hotspots(n);
    std::vector<GeoPoint> locations;
    std::vector<std::uint32_t> loads;
    for (Hotspot& h : hotspots) {
      h.location = {rng.uniform(40.0, 40.1), rng.uniform(116.4, 116.6)};
      h.service_capacity = 10;
      locations.push_back(h.location);
      loads.push_back(static_cast<std::uint32_t>(rng.index(21)));
    }
    auto partition = HotspotPartition::from_loads(hotspots, loads);
    rng.shuffle(partition.overloaded);
    for (const double cell : {0.25, 0.5, 2.0}) {
      const GridIndex index(locations, cell);
      for (const double radius : {0.0, 0.5, 1.5, 30.0, inf}) {
        const auto want = candidate_edges_pairscan(hotspots, partition, radius);
        const auto got = candidate_edges(hotspots, partition, radius, index);
        ASSERT_EQ(got.size(), want.size())
            << "trial " << trial << ", cell " << cell << ", radius " << radius;
        for (std::size_t e = 0; e < want.size(); ++e) {
          ASSERT_EQ(got[e].from, want[e].from) << "edge " << e;
          ASSERT_EQ(got[e].to, want[e].to) << "edge " << e;
          ASSERT_EQ(got[e].distance_km, want[e].distance_km) << "edge " << e;
        }
        edges_seen += want.size();
      }
    }
  }
  EXPECT_GT(edges_seen, 0u);
}

TEST(BuildGd, StructureAndMaxflow) {
  const auto hotspots = line_hotspots();
  auto partition = HotspotPartition::from_loads(
      hotspots, std::vector<std::uint32_t>{17, 13, 6, 4});
  const auto candidates = candidate_edges_pairscan(hotspots, partition, 100.0);
  BalanceGraph graph = build_gd(partition, candidates, 100.0);
  EXPECT_EQ(graph.num_guide_nodes, 0u);
  EXPECT_EQ(graph.pair_edges.size(), 4u);
  const auto result =
      MinCostMaxFlow::solve(graph.net, graph.source, graph.sink);
  // Overload 7 + 3 = 10 vs slack 4 + 6 = 10.
  EXPECT_EQ(result.flow, 10);
  const auto flows = extract_flows(graph);
  std::int64_t total = 0;
  for (const auto& f : flows) {
    EXPECT_GT(f.amount, 0);
    total += f.amount;
  }
  EXPECT_EQ(total, 10);
}

TEST(BuildGd, PrefersNearbyReceivers) {
  const auto hotspots = line_hotspots();
  auto partition = HotspotPartition::from_loads(
      hotspots, std::vector<std::uint32_t>{10, 15, 5, 5});  // only 1 overloaded
  const auto candidates = candidate_edges_pairscan(hotspots, partition, 100.0);
  BalanceGraph graph = build_gd(partition, candidates, 100.0);
  (void)MinCostMaxFlow::solve(graph.net, graph.source, graph.sink);
  const auto flows = extract_flows(graph);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_EQ(flows[0].from, 1u);
  EXPECT_EQ(flows[0].to, 2u);  // hotspot 2 is nearer to 1 than hotspot 3
  EXPECT_EQ(flows[0].amount, 5);
}

TEST(BuildGd, DropsZeroSlackEndpoints) {
  const auto hotspots = line_hotspots();
  auto partition = HotspotPartition::from_loads(
      hotspots, std::vector<std::uint32_t>{17, 13, 6, 4});
  const auto candidates = candidate_edges_pairscan(hotspots, partition, 100.0);
  partition.phi[0] = 0;  // simulate earlier iterations consuming slack
  BalanceGraph graph = build_gd(partition, candidates, 100.0);
  for (const auto& pair : graph.pair_edges) {
    EXPECT_NE(pair.from, 0u);
  }
}

TEST(BuildGc, OwnClusterGroupGetsGuideNode) {
  const auto hotspots = line_hotspots();
  auto partition = HotspotPartition::from_loads(
      hotspots, std::vector<std::uint32_t>{17, 13, 6, 4});
  const auto candidates = candidate_edges_pairscan(hotspots, partition, 100.0);
  // Hotspots 1 and 2 share a cluster; senders 0,1 -> receiver 2 in cluster
  // of 2 triggers the own-cluster rule at least for sender 1.
  const std::vector<std::uint32_t> clusters{0, 1, 1, 2};
  BalanceGraph graph =
      build_gc(partition, candidates, 100.0, clusters, GuideOptions{});
  EXPECT_GT(graph.num_guide_nodes, 0u);
  // All pair edges must still be extractable after a solve.
  const auto result =
      MinCostMaxFlow::solve(graph.net, graph.source, graph.sink);
  EXPECT_EQ(result.flow, 10);  // guide nodes must not reduce the max flow
  const auto flows = extract_flows(graph);
  std::int64_t total = 0;
  for (const auto& f : flows) total += f.amount;
  EXPECT_EQ(total, 10);
}

TEST(BuildGc, SameMaxFlowAsGd) {
  // Property: inserting guide nodes never changes the achievable flow.
  const auto hotspots = line_hotspots();
  for (std::uint32_t c0 : {0u, 1u}) {
    auto partition = HotspotPartition::from_loads(
        hotspots, std::vector<std::uint32_t>{25, 13, 6, 1});
    const auto candidates = candidate_edges_pairscan(hotspots, partition, 100.0);
    const std::vector<std::uint32_t> clusters{c0, 1, 1, 1};
    BalanceGraph gd = build_gd(partition, candidates, 100.0);
    BalanceGraph gc =
        build_gc(partition, candidates, 100.0, clusters, GuideOptions{});
    const auto rd = MinCostMaxFlow::solve(gd.net, gd.source, gd.sink);
    const auto rc = MinCostMaxFlow::solve(gc.net, gc.source, gc.sink);
    EXPECT_EQ(rd.flow, rc.flow);
  }
}

TEST(BuildGc, FillThresholdControlsGuideCreation) {
  const auto hotspots = line_hotspots();
  auto partition = HotspotPartition::from_loads(
      hotspots, std::vector<std::uint32_t>{17, 13, 6, 4});
  const auto candidates = candidate_edges_pairscan(hotspots, partition, 100.0);
  // All distinct clusters: the own-cluster rule never fires, so guide
  // creation depends purely on the fill threshold.
  const std::vector<std::uint32_t> clusters{0, 1, 2, 3};
  GuideOptions generous;
  generous.fill_threshold = 0.0;  // every group qualifies
  BalanceGraph with_guides =
      build_gc(partition, candidates, 100.0, clusters, generous);
  EXPECT_GT(with_guides.num_guide_nodes, 0u);
  GuideOptions strict;
  strict.fill_threshold = 1e9;  // no group can fill enough
  BalanceGraph without =
      build_gc(partition, candidates, 100.0, clusters, strict);
  EXPECT_EQ(without.num_guide_nodes, 0u);
}

TEST(BuildGc, RejectsShortClusterLabels) {
  const auto hotspots = line_hotspots();
  auto partition = HotspotPartition::from_loads(
      hotspots, std::vector<std::uint32_t>{17, 13, 6, 4});
  const auto candidates = candidate_edges_pairscan(hotspots, partition, 100.0);
  const std::vector<std::uint32_t> too_short{0, 1};
  EXPECT_THROW((void)build_gc(partition, candidates, 100.0, too_short,
                              GuideOptions{}),
               PreconditionError);
}

TEST(BuildGc, AutoScaleMakesGuidePathsCompetitive) {
  // Raw guide cost is Σφ_ij/|H_jk| (request units, order 10-100); with
  // auto-scale it is normalized into the km range so guide paths actually
  // compete with direct edges. Verify via the solved flow cost: with
  // auto-scale off and a huge cost_scale, the MCMF cost explodes.
  const auto hotspots = line_hotspots();
  auto partition = HotspotPartition::from_loads(
      hotspots, std::vector<std::uint32_t>{40, 13, 6, 4});
  const auto candidates = candidate_edges_pairscan(hotspots, partition, 100.0);
  const std::vector<std::uint32_t> clusters{0, 0, 0, 0};  // all one cluster

  GuideOptions scaled;  // defaults: auto_scale = true
  BalanceGraph graph_scaled =
      build_gc(partition, candidates, 100.0, clusters, scaled);
  const auto scaled_result = MinCostMaxFlow::solve(
      graph_scaled.net, graph_scaled.source, graph_scaled.sink);

  GuideOptions raw;
  raw.auto_scale = false;
  raw.cost_scale = 1000.0;
  BalanceGraph graph_raw =
      build_gc(partition, candidates, 100.0, clusters, raw);
  const auto raw_result =
      MinCostMaxFlow::solve(graph_raw.net, graph_raw.source, graph_raw.sink);

  EXPECT_EQ(scaled_result.flow, raw_result.flow);  // max flow is unchanged
  EXPECT_LT(scaled_result.cost, raw_result.cost);
}

TEST(ExtractFlows, MergesAndOrdersPairs) {
  const auto hotspots = line_hotspots();
  auto partition = HotspotPartition::from_loads(
      hotspots, std::vector<std::uint32_t>{30, 12, 1, 1});
  const auto candidates = candidate_edges_pairscan(hotspots, partition, 100.0);
  BalanceGraph graph = build_gd(partition, candidates, 100.0);
  (void)MinCostMaxFlow::solve(graph.net, graph.source, graph.sink);
  const auto flows = extract_flows(graph);
  for (std::size_t i = 1; i < flows.size(); ++i) {
    EXPECT_TRUE(flows[i - 1].from < flows[i].from ||
                (flows[i - 1].from == flows[i].from &&
                 flows[i - 1].to < flows[i].to));
  }
}

}  // namespace
}  // namespace ccdn
