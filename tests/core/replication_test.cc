#include "core/replication.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/reference_replication.h"
#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

std::vector<Hotspot> hotspots_with(std::vector<std::uint32_t> service,
                                   std::vector<std::uint32_t> cache) {
  std::vector<Hotspot> hotspots(service.size());
  for (std::size_t h = 0; h < service.size(); ++h) {
    hotspots[h].service_capacity = service[h];
    hotspots[h].cache_capacity = cache[h];
  }
  return hotspots;
}

std::int64_t redirected_to(const ReplicationResult& result,
                           std::uint32_t origin, VideoId video,
                           std::uint32_t target) {
  for (const auto& vr : result.redirects[origin]) {
    if (vr.video != video) continue;
    for (const auto& t : vr.targets) {
      if (t.hotspot == target) return t.count;
    }
  }
  return 0;
}

TEST(Replication, NoFlowsMeansLocalFillOnly) {
  // Hotspot 0: demand for videos 1 (x3), 2 (x1); cache 1 -> only video 1.
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{
      {{1, 3}, {2, 1}}, {}});
  const auto hotspots = hotspots_with({10, 10}, {1, 1});
  const auto result =
      content_aggregation_replication(demand, hotspots, {}, 1000);
  EXPECT_EQ(result.placements[0], (std::vector<VideoId>{1}));
  EXPECT_TRUE(result.placements[1].empty());
  EXPECT_EQ(result.total_redirected, 0);
  EXPECT_EQ(result.replicas, 1u);
}

TEST(Replication, AggregatesSharedVideoAtReceiver) {
  // Senders 0 and 1 both overloaded with demand for video 7; receiver 2.
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{
      {{7, 5}}, {{7, 4}}, {}});
  const auto hotspots = hotspots_with({2, 2, 20}, {5, 5, 5});
  const std::vector<FlowEntry> flows{{0, 2, 3}, {1, 2, 2}};
  const auto result =
      content_aggregation_replication(demand, hotspots, flows, 1000);
  // One replica of video 7 at the receiver serves both senders' overflow.
  EXPECT_TRUE(std::binary_search(result.placements[2].begin(),
                                 result.placements[2].end(), VideoId{7}));
  EXPECT_EQ(redirected_to(result, 0, 7, 2), 3);
  EXPECT_EQ(redirected_to(result, 1, 7, 2), 2);
  EXPECT_EQ(result.total_redirected, 5);
}

TEST(Replication, PrefersHigherAggregateDemand) {
  // Receiver 2 can take 2 units from sender 0 which wants videos 5 (x1)
  // and 6 (x4): video 6 has the higher e_u and must be redirected.
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{
      {{5, 1}, {6, 4}}, {}, {}});
  const auto hotspots = hotspots_with({3, 10, 10}, {5, 5, 1});
  const std::vector<FlowEntry> flows{{0, 2, 2}};
  const auto result =
      content_aggregation_replication(demand, hotspots, flows, 1000);
  // Cache at receiver is 1: only one video can be placed, and it is 6.
  EXPECT_EQ(result.placements[2], (std::vector<VideoId>{6}));
  EXPECT_EQ(redirected_to(result, 0, 6, 2), 2);
  EXPECT_EQ(redirected_to(result, 0, 5, 2), 0);
}

TEST(Replication, RedirectBoundedByFlowAndDemand) {
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{
      {{3, 10}}, {}});
  const auto hotspots = hotspots_with({5, 5}, {5, 5});
  const std::vector<FlowEntry> flows{{0, 1, 4}};
  const auto result =
      content_aggregation_replication(demand, hotspots, flows, 1000);
  EXPECT_EQ(redirected_to(result, 0, 3, 1), 4);  // min(flow 4, demand 10)
}

TEST(Replication, SenderKeepsResidualDemandPlacement) {
  // Sender redirects 4 of 10 requests for video 3; it still has local
  // demand, so the final fill places video 3 locally too.
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{
      {{3, 10}}, {}});
  const auto hotspots = hotspots_with({6, 5}, {5, 5});
  const std::vector<FlowEntry> flows{{0, 1, 4}};
  const auto result =
      content_aggregation_replication(demand, hotspots, flows, 1000);
  EXPECT_TRUE(std::binary_search(result.placements[0].begin(),
                                 result.placements[0].end(), VideoId{3}));
}

TEST(Replication, BudgetStopsFinalFill) {
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{
      {{1, 5}, {2, 4}, {3, 3}}, {}});
  const auto hotspots = hotspots_with({20, 20}, {10, 10});
  const auto result =
      content_aggregation_replication(demand, hotspots, {}, 2);
  EXPECT_EQ(result.replicas, 2u);
  EXPECT_TRUE(result.budget_exhausted);
  // Highest-demand videos placed first.
  EXPECT_EQ(result.placements[0], (std::vector<VideoId>{1, 2}));
}

TEST(Replication, RedirectPhaseRespectsBudget) {
  // Sender 0 overflows demand for two videos toward receiver 1; without a
  // budget check the redirect phase would place both. Budget 1 must stop
  // the second placement and flag exhaustion.
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{
      {{1, 6}, {2, 5}}, {}});
  const auto hotspots = hotspots_with({2, 20}, {5, 5});
  const std::vector<FlowEntry> flows{{0, 1, 11}};
  const auto result =
      content_aggregation_replication(demand, hotspots, flows, 1);
  EXPECT_EQ(result.replicas, 1u);
  EXPECT_TRUE(result.budget_exhausted);
  // The higher-e_u video wins the single replica.
  EXPECT_EQ(result.placements[1], (std::vector<VideoId>{1}));
  EXPECT_EQ(redirected_to(result, 0, 1, 1), 6);
  EXPECT_EQ(redirected_to(result, 0, 2, 1), 0);
}

TEST(Replication, ZeroBudgetPlacesNothingInEitherPhase) {
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{
      {{1, 6}, {2, 5}}, {{3, 4}}, {}});
  const auto hotspots = hotspots_with({2, 2, 20}, {5, 5, 5});
  const std::vector<FlowEntry> flows{{0, 2, 4}, {1, 2, 2}};
  const auto result =
      content_aggregation_replication(demand, hotspots, flows, 0);
  EXPECT_EQ(result.replicas, 0u);
  EXPECT_EQ(result.total_redirected, 0);
  EXPECT_TRUE(result.budget_exhausted);
  for (const auto& placement : result.placements) {
    EXPECT_TRUE(placement.empty());
  }
}

TEST(Replication, BudgetInvariantOnRandomInstances) {
  // Whatever the demand/flow mix, replicas never exceed the budget, and an
  // exhausted budget means it was spent to the last unit.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed * 2654435761ULL + 3);
    const std::size_t m = 2 + rng.index(5);
    std::vector<std::vector<VideoDemand>> per_hotspot(m);
    for (auto& videos : per_hotspot) {
      const std::size_t count = rng.index(6);
      for (std::size_t k = 0; k < count; ++k) {
        videos.push_back(
            {static_cast<VideoId>(1 + rng.index(8)),
             static_cast<std::uint32_t>(rng.uniform_int(1, 9))});
      }
    }
    std::vector<std::uint32_t> service(m), cache(m);
    for (std::size_t h = 0; h < m; ++h) {
      service[h] = static_cast<std::uint32_t>(rng.uniform_int(0, 12));
      cache[h] = static_cast<std::uint32_t>(rng.uniform_int(0, 4));
    }
    std::vector<FlowEntry> flows;
    const std::size_t num_flows = rng.index(2 * m);
    for (std::size_t k = 0; k < num_flows; ++k) {
      const auto from = static_cast<std::uint32_t>(rng.index(m));
      auto to = static_cast<std::uint32_t>(rng.index(m));
      if (to == from) to = (to + 1) % static_cast<std::uint32_t>(m);
      flows.push_back({from, to, rng.uniform_int(1, 6)});
    }
    const auto budget = static_cast<std::size_t>(rng.uniform_int(0, 5));
    SlotDemand demand(per_hotspot);
    const auto result = content_aggregation_replication(
        demand, hotspots_with(service, cache), flows, budget);
    EXPECT_LE(result.replicas, budget) << "seed " << seed;
    if (result.budget_exhausted) {
      EXPECT_EQ(result.replicas, budget) << "seed " << seed;
    }
    std::size_t placed_total = 0;
    for (const auto& placement : result.placements) {
      placed_total += placement.size();
    }
    EXPECT_EQ(placed_total, result.replicas) << "seed " << seed;
  }
}

TEST(Replication, ServiceCapacityCapsFill) {
  // Hotspot can serve only 5 requests; caching beyond that serves no one.
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{
      {{1, 4}, {2, 3}, {3, 2}, {4, 1}}, {}});
  const auto hotspots = hotspots_with({5, 5}, {10, 10});
  const auto result =
      content_aggregation_replication(demand, hotspots, {}, 1000);
  // Videos 1 (4 requests) and 2 (3 requests) exhaust the capacity of 5;
  // videos 3 and 4 must not be replicated.
  EXPECT_EQ(result.placements[0], (std::vector<VideoId>{1, 2}));
}

TEST(Replication, CacheCapacityRespectedEverywhere) {
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{
      {{1, 9}, {2, 8}, {3, 7}}, {{4, 9}, {5, 8}}, {}});
  const auto hotspots = hotspots_with({4, 4, 30}, {2, 1, 2});
  const std::vector<FlowEntry> flows{{0, 2, 5}, {1, 2, 5}};
  const auto result =
      content_aggregation_replication(demand, hotspots, flows, 1000);
  for (std::size_t h = 0; h < hotspots.size(); ++h) {
    EXPECT_LE(result.placements[h].size(), hotspots[h].cache_capacity);
    EXPECT_TRUE(std::is_sorted(result.placements[h].begin(),
                               result.placements[h].end()));
  }
}

TEST(Replication, ReceiverCacheFullFallsBackGracefully) {
  // Receiver has zero cache: nothing can be redirected to it.
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{
      {{1, 9}}, {}});
  const auto hotspots = hotspots_with({4, 10}, {2, 0});
  const std::vector<FlowEntry> flows{{0, 1, 5}};
  const auto result =
      content_aggregation_replication(demand, hotspots, flows, 1000);
  EXPECT_EQ(result.total_redirected, 0);
  EXPECT_TRUE(result.placements[1].empty());
}

TEST(Replication, RejectsMalformedInputs) {
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{{}, {}});
  const auto hotspots = hotspots_with({1, 1}, {1, 1});
  EXPECT_THROW((void)content_aggregation_replication(
                   demand, hotspots, std::vector<FlowEntry>{{0, 5, 1}}, 10),
               PreconditionError);
  EXPECT_THROW((void)content_aggregation_replication(
                   demand, hotspots, std::vector<FlowEntry>{{0, 1, 0}}, 10),
               PreconditionError);
}

TEST(Replication, RedirectsSortedByVideo) {
  SlotDemand demand(std::vector<std::vector<VideoDemand>>{
      {{9, 3}, {2, 3}, {5, 3}}, {}});
  const auto hotspots = hotspots_with({0, 20}, {5, 5});
  const std::vector<FlowEntry> flows{{0, 1, 9}};
  const auto result =
      content_aggregation_replication(demand, hotspots, flows, 1000);
  const auto& redirects = result.redirects[0];
  ASSERT_EQ(redirects.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      redirects.begin(), redirects.end(),
      [](const VideoRedirect& a, const VideoRedirect& b) {
        return a.video < b.video;
      }));
  EXPECT_EQ(result.total_redirected, 9);
}

TEST(Replication, MatchesReferenceOnRandomInstances) {
  // Random demand, flows (duplicate (from, to) entries included), caches
  // of 0-3 videos and budgets from 0 to the request count; the plan and
  // the per-request assignment must equal the reference's exactly.
  std::size_t exhausted = 0;
  std::size_t full_receivers = 0;
  std::size_t redirected = 0;
  for (std::uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + 17);
    const std::size_t m = 2 + rng.index(9);
    std::vector<std::vector<VideoDemand>> per_hotspot(m);
    std::vector<std::pair<VideoId, HotspotIndex>> slot;
    for (std::size_t h = 0; h < m; ++h) {
      const std::size_t entries = rng.index(7);
      for (std::size_t k = 0; k < entries; ++k) {
        const auto video = static_cast<VideoId>(rng.index(12));
        const auto count = static_cast<std::uint32_t>(rng.uniform_int(1, 8));
        per_hotspot[h].push_back({video, count});
        for (std::uint32_t c = 0; c < count; ++c) {
          slot.push_back({video, static_cast<HotspotIndex>(h)});
        }
      }
    }
    rng.shuffle(slot);
    std::vector<Request> requests(slot.size());
    std::vector<HotspotIndex> homes(slot.size());
    for (std::size_t r = 0; r < slot.size(); ++r) {
      requests[r].video = slot[r].first;
      homes[r] = slot[r].second;
    }
    std::vector<std::uint32_t> service(m), cache(m);
    for (std::size_t h = 0; h < m; ++h) {
      service[h] = static_cast<std::uint32_t>(rng.uniform_int(0, 20));
      cache[h] = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
    }
    std::vector<FlowEntry> flows;
    const std::size_t num_flows = rng.index(3 * m);
    for (std::size_t k = 0; k < num_flows; ++k) {
      if (!flows.empty() && rng.chance(0.2)) {
        flows.push_back(flows[rng.index(flows.size())]);
        continue;
      }
      const auto from = static_cast<std::uint32_t>(rng.index(m));
      auto to = static_cast<std::uint32_t>(rng.index(m));
      if (to == from) to = (to + 1) % static_cast<std::uint32_t>(m);
      flows.push_back({from, to, rng.uniform_int(1, 10)});
    }
    // Half the budgets stay under the total cache room, so that the
    // budget, not the caches, runs out first.
    std::size_t budget_cap = requests.size();
    if (rng.chance(0.5)) {
      std::size_t room = 0;
      for (const std::uint32_t c : cache) room += c;
      budget_cap = std::min(budget_cap, room);
    }
    const auto budget = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(budget_cap)));
    const SlotDemand demand(per_hotspot);
    const auto hotspots = hotspots_with(service, cache);
    const ReplicationResult got =
        content_aggregation_replication(demand, hotspots, flows, budget);
    const ReplicationResult want =
        reference_replication(demand, hotspots, flows, budget);

    EXPECT_EQ(got.placements, want.placements) << "seed " << seed;
    EXPECT_EQ(got.replicas, want.replicas) << "seed " << seed;
    EXPECT_EQ(got.total_redirected, want.total_redirected) << "seed " << seed;
    EXPECT_EQ(got.budget_exhausted, want.budget_exhausted) << "seed " << seed;
    ASSERT_EQ(got.redirects.size(), want.redirects.size()) << "seed " << seed;
    for (std::size_t h = 0; h < m; ++h) {
      ASSERT_EQ(got.redirects[h].size(), want.redirects[h].size())
          << "seed " << seed << ", origin " << h;
      for (std::size_t k = 0; k < got.redirects[h].size(); ++k) {
        const VideoRedirect& g = got.redirects[h][k];
        const VideoRedirect& w = want.redirects[h][k];
        EXPECT_EQ(g.video, w.video) << "seed " << seed << ", origin " << h;
        ASSERT_EQ(g.targets.size(), w.targets.size())
            << "seed " << seed << ", origin " << h;
        for (std::size_t t = 0; t < g.targets.size(); ++t) {
          EXPECT_EQ(g.targets[t].hotspot, w.targets[t].hotspot)
              << "seed " << seed << ", origin " << h << ", target " << t;
          EXPECT_EQ(g.targets[t].count, w.targets[t].count)
              << "seed " << seed << ", origin " << h << ", target " << t;
        }
      }
    }
    EXPECT_EQ(materialize_assignment(requests, homes, got.redirects),
              reference_materialize_assignment(requests, homes,
                                               want.redirects))
        << "seed " << seed;

    exhausted += want.budget_exhausted ? 1 : 0;
    redirected += want.total_redirected > 0 ? 1 : 0;
    for (const FlowEntry& f : flows) {
      if (!want.budget_exhausted &&
          want.placements[f.to].size() == cache[f.to]) {
        ++full_receivers;
        break;
      }
    }
  }
  // The instances reach every branch the reference has: an exhausted
  // budget, a receiver whose cache is full, and committed redirects.
  EXPECT_GT(exhausted, 100u);
  EXPECT_GT(full_receivers, 100u);
  EXPECT_GT(redirected, 100u);
}

TEST(FillOrder, MatchesComparisonSortOnRandomDemand) {
  // fill_order's radix sort against std::sort with the fill order's
  // comparator. Rows may be empty, counts run from 1 to 10^4 and beyond
  // (merged duplicates, one 2^17), so a sort takes one to three passes;
  // some counts repeat across hotspots, and some pairs are drained, in
  // part or to 0.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    Rng rng(seed * 7919 + 3);
    const std::size_t m = 1 + rng.index(30);
    const std::int64_t max_count = rng.chance(0.5) ? 200 : 10000;
    const std::uint32_t shared[] = {1, 2, 3, 255, 256, 10000, 1U << 17};
    std::vector<std::vector<VideoDemand>> per_hotspot(m);
    for (auto& row : per_hotspot) {
      const std::size_t entries = rng.chance(0.2) ? 0 : rng.index(40);
      for (std::size_t k = 0; k < entries; ++k) {
        const auto video = static_cast<VideoId>(rng.index(500));
        const auto count =
            rng.chance(0.3)
                ? shared[rng.index(std::size(shared))]
                : static_cast<std::uint32_t>(rng.uniform_int(1, max_count));
        row.push_back({video, count});
      }
    }
    const SlotDemand demand(per_hotspot);
    RemainingDemand remaining(demand);
    for (std::uint32_t h = 0; h < m; ++h) {
      for (const VideoDemand& d : remaining.pairs(h)) {
        if (!rng.chance(0.2)) continue;
        remaining.subtract(
            h, d.video,
            static_cast<std::uint32_t>(rng.uniform_int(0, d.count)));
      }
    }

    std::vector<FillEntry> want;
    std::uint32_t pair = 0;
    for (std::uint32_t h = 0; h < m; ++h) {
      const auto row = remaining.pairs(h);
      const auto left = remaining.left(h);
      for (std::size_t k = 0; k < row.size(); ++k, ++pair) {
        if (left[k] > 0) want.push_back({left[k], h, row[k].video, pair});
      }
    }
    std::sort(want.begin(), want.end(),
              [](const FillEntry& a, const FillEntry& b) {
                if (a.count != b.count) return a.count > b.count;
                if (a.hotspot != b.hotspot) return a.hotspot < b.hotspot;
                return a.video < b.video;
              });
    const std::vector<FillEntry> got = fill_order(remaining);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].count, want[i].count) << "seed " << seed << ", " << i;
      EXPECT_EQ(got[i].hotspot, want[i].hotspot)
          << "seed " << seed << ", " << i;
      EXPECT_EQ(got[i].video, want[i].video) << "seed " << seed << ", " << i;
      EXPECT_EQ(got[i].pair, want[i].pair) << "seed " << seed << ", " << i;
    }
  }
}

}  // namespace
}  // namespace ccdn
