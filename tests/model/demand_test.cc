#include "model/demand.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "model/reference_demand.h"
#include "util/error.h"
#include "util/rng.h"

namespace ccdn {
namespace {

GridIndex two_hotspots() {
  // Two hotspots ~9 km apart east-west.
  return GridIndex({{40.05, 116.42}, {40.05, 116.58}}, 1.0);
}

Request make_request(VideoId video, double lat, double lon) {
  Request r;
  r.video = video;
  r.location = {lat, lon};
  return r;
}

TEST(SlotDemand, AggregatesAtNearestHotspot) {
  const GridIndex index = two_hotspots();
  const std::vector<Request> requests{
      make_request(1, 40.05, 116.43),  // near hotspot 0
      make_request(2, 40.05, 116.44),  // near hotspot 0
      make_request(1, 40.05, 116.57),  // near hotspot 1
  };
  const SlotDemand demand(requests, index);
  EXPECT_EQ(demand.num_hotspots(), 2u);
  EXPECT_EQ(demand.num_requests(), 3u);
  EXPECT_EQ(demand.load(0), 2u);
  EXPECT_EQ(demand.load(1), 1u);
  EXPECT_EQ(demand.request_home().size(), 3u);
  EXPECT_EQ(demand.request_home()[0], 0u);
  EXPECT_EQ(demand.request_home()[2], 1u);
}

TEST(SlotDemand, MergesDuplicateVideos) {
  const GridIndex index = two_hotspots();
  const std::vector<Request> requests{
      make_request(7, 40.05, 116.42), make_request(7, 40.05, 116.42),
      make_request(7, 40.05, 116.42), make_request(3, 40.05, 116.42)};
  const SlotDemand demand(requests, index);
  const auto demands = demand.video_demand(0);
  ASSERT_EQ(demands.size(), 2u);
  EXPECT_EQ(demands[0].video, 3u);
  EXPECT_EQ(demands[0].count, 1u);
  EXPECT_EQ(demands[1].video, 7u);
  EXPECT_EQ(demands[1].count, 3u);
}

TEST(SlotDemand, FirstPairLocatesEachRow) {
  // The rows lie end to end in hotspot order: hotspot h's pairs start at
  // first_pair(h), and first_pair(num_hotspots()) counts them all.
  std::vector<std::vector<VideoDemand>> per_hotspot(4);
  per_hotspot[0] = {{5, 2}, {3, 1}};
  per_hotspot[2] = {{9, 4}};
  per_hotspot[3] = {{1, 1}, {2, 1}, {1, 2}};  // video 1 merges
  const SlotDemand demand(std::move(per_hotspot));
  EXPECT_EQ(demand.first_pair(0), 0u);
  EXPECT_EQ(demand.first_pair(1), 2u);
  EXPECT_EQ(demand.first_pair(2), 2u);
  EXPECT_EQ(demand.first_pair(3), 3u);
  EXPECT_EQ(demand.first_pair(4), 5u);
  EXPECT_THROW((void)demand.first_pair(5), PreconditionError);

  const GridIndex index = two_hotspots();
  const std::vector<Request> requests{make_request(5, 40.05, 116.42),
                                      make_request(5, 40.05, 116.42),
                                      make_request(4, 40.05, 116.58)};
  const SlotDemand aggregated(requests, index);
  EXPECT_EQ(aggregated.first_pair(0), 0u);
  EXPECT_EQ(aggregated.first_pair(1), 1u);
  EXPECT_EQ(aggregated.first_pair(2), 2u);
}

TEST(SlotDemand, FromExplicitVectorsMergesAndSorts) {
  std::vector<std::vector<VideoDemand>> per_hotspot(2);
  per_hotspot[0] = {{5, 2}, {1, 1}, {5, 3}};  // unsorted with duplicate
  per_hotspot[1] = {};
  const SlotDemand demand(std::move(per_hotspot));
  EXPECT_EQ(demand.load(0), 6u);
  EXPECT_EQ(demand.load(1), 0u);
  const auto d0 = demand.video_demand(0);
  ASSERT_EQ(d0.size(), 2u);
  EXPECT_EQ(d0[0].video, 1u);
  EXPECT_EQ(d0[1].count, 5u);
  EXPECT_TRUE(demand.request_home().empty());
}

TEST(SlotDemand, EmptyRequestSpan) {
  const GridIndex index = two_hotspots();
  const SlotDemand demand(std::span<const Request>{}, index);
  EXPECT_EQ(demand.num_requests(), 0u);
  EXPECT_EQ(demand.load(0), 0u);
  EXPECT_EQ(demand.first_pair(2), 0u);
}

void expect_matches_reference(const SlotDemand& got,
                              const ReferenceDemand& want) {
  ASSERT_EQ(got.num_hotspots(), want.per_hotspot.size());
  EXPECT_EQ(got.num_requests(), want.total_requests);
  EXPECT_EQ(std::vector<HotspotIndex>(got.request_home().begin(),
                                      got.request_home().end()),
            want.request_home);
  std::size_t pairs = 0;
  for (HotspotIndex h = 0; h < want.per_hotspot.size(); ++h) {
    EXPECT_EQ(got.load(h), want.loads[h]) << "hotspot " << h;
    EXPECT_EQ(got.first_pair(h), pairs) << "hotspot " << h;
    const auto demands = got.video_demand(h);
    ASSERT_EQ(demands.size(), want.per_hotspot[h].size()) << "hotspot " << h;
    pairs += demands.size();
    for (std::size_t k = 0; k < demands.size(); ++k) {
      EXPECT_EQ(demands[k].video, want.per_hotspot[h][k].video);
      EXPECT_EQ(demands[k].count, want.per_hotspot[h][k].count);
    }
  }
}

/// request_pair()'s contract: each request's pair lies in its home's row
/// and holds its video, and each pair is named by as many requests as its
/// count.
void expect_request_pairs(const SlotDemand& demand,
                          std::span<const Request> requests) {
  const auto pairs = demand.request_pair();
  const auto homes = demand.request_home();
  ASSERT_EQ(pairs.size(), requests.size());
  const auto m = static_cast<HotspotIndex>(demand.num_hotspots());
  std::vector<std::uint32_t> named(demand.first_pair(m), 0);
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const HotspotIndex home = homes[r];
    const std::size_t first = demand.first_pair(home);
    ASSERT_GE(pairs[r], first) << "request " << r;
    ASSERT_LT(pairs[r], demand.first_pair(home + 1)) << "request " << r;
    EXPECT_EQ(demand.video_demand(home)[pairs[r] - first].video,
              requests[r].video)
        << "request " << r;
    ++named[pairs[r]];
  }
  for (HotspotIndex h = 0; h < m; ++h) {
    const auto row = demand.video_demand(h);
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(named[demand.first_pair(h) + k], row[k].count)
          << "hotspot " << h << ", pair " << k;
    }
  }
}

/// Video ids drawn from a few hundred values: a small catalog (many
/// repeats), a wide one, or the top of the 32-bit range.
VideoId draw_video(Rng& rng, int mode) {
  constexpr VideoId kMax = std::numeric_limits<VideoId>::max();
  switch (mode) {
    case 0:
      return static_cast<VideoId>(rng.index(40));
    case 1:
      return static_cast<VideoId>(rng.index(100000));
    default:
      return kMax - static_cast<VideoId>(rng.index(300));
  }
}

std::vector<GeoPoint> random_locations(Rng& rng, std::size_t n) {
  std::vector<GeoPoint> points;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back({rng.uniform(40.0, 40.1), rng.uniform(116.4, 116.6)});
  }
  return points;
}

TEST(SlotDemand, MatchesReferenceOnRandomSlots) {
  Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t hotspots = 1 + rng.index(trial % 3 == 0 ? 3 : 320);
    const GridIndex index(random_locations(rng, hotspots), 0.5);
    const int mode = trial % 3;
    std::vector<Request> requests(rng.index(4000));
    for (Request& r : requests) {
      r.video = draw_video(rng, mode);
      r.location = {rng.uniform(39.98, 40.12), rng.uniform(116.38, 116.62)};
    }
    const SlotDemand demand(requests, index);
    expect_matches_reference(demand, reference_demand(requests, index));
    expect_request_pairs(demand, requests);
  }
}

TEST(SlotDemand, MatchesReferenceOnEdgeSlots) {
  Rng rng(17);
  const GridIndex one(random_locations(rng, 1), 0.5);
  const GridIndex many(random_locations(rng, 25), 0.5);
  constexpr VideoId kMax = std::numeric_limits<VideoId>::max();
  // An empty span.
  for (const GridIndex* index : {&one, &many}) {
    expect_matches_reference(
        SlotDemand(std::span<const Request>{}, *index),
        reference_demand(std::span<const Request>{}, *index));
  }
  // One hotspot; then every request at one home of many.
  std::vector<Request> requests(500);
  for (Request& r : requests) {
    r.video = draw_video(rng, 0);
    r.location = {rng.uniform(40.0, 40.1), rng.uniform(116.4, 116.6)};
  }
  const SlotDemand at_one(requests, one);
  expect_matches_reference(at_one, reference_demand(requests, one));
  expect_request_pairs(at_one, requests);
  for (Request& r : requests) r.location = many.point(7);
  const SlotDemand at_seven(requests, many);
  expect_matches_reference(at_seven, reference_demand(requests, many));
  expect_request_pairs(at_seven, requests);
  // Video ids at the top of the range, 0 among them.
  const std::vector<VideoId> extremes{kMax, 0, kMax - 1, kMax, 1, kMax - 2, 0};
  for (std::size_t k = 0; k < requests.size(); ++k) {
    requests[k].video = extremes[k % extremes.size()];
    requests[k].location = many.point(k % 3);
  }
  const SlotDemand extreme(requests, many);
  expect_matches_reference(extreme, reference_demand(requests, many));
  expect_request_pairs(extreme, requests);
}

TEST(SlotDemand, PerHotspotConstructorsMatchReference) {
  Rng rng(99);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t hotspots = rng.index(30);
    std::vector<std::vector<VideoDemand>> per_hotspot(hotspots);
    for (auto& entries : per_hotspot) {
      entries.resize(rng.index(60));
      for (VideoDemand& d : entries) {
        // Repeated videos, and zero counts, which stay as entries.
        d.video = draw_video(rng, trial % 3);
        d.count = static_cast<std::uint32_t>(rng.index(5));
      }
    }
    const SlotDemand from_rows(per_hotspot);
    expect_matches_reference(from_rows, reference_demand(per_hotspot));
    EXPECT_TRUE(from_rows.request_pair().empty());
  }
}

}  // namespace
}  // namespace ccdn
