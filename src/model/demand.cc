#include "model/demand.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <numeric>

#include "util/error.h"

namespace ccdn {

SlotDemand::SlotDemand(std::span<const Request> requests,
                       const GridIndex& hotspot_index)
    : offsets_(hotspot_index.size() + 1, 0),
      loads_(hotspot_index.size(), 0),
      request_home_(requests.size()),
      total_requests_(requests.size()) {
  CCDN_REQUIRE(requests.size() <= std::numeric_limits<std::uint32_t>::max(),
               "a slot holds at most 2^32 - 1 requests");
  // The homes come from one batch lookup, which uses the two key arrays
  // as its sort space first. Then one pass counts requests per home, and
  // request r becomes the key (video << 32) | r.
  std::vector<std::uint64_t> keys(requests.size());
  std::vector<std::uint64_t> scratch(requests.size());
  hotspot_index.nearest_batch(
      [requests](std::size_t r) { return requests[r].location; }, keys,
      scratch, request_home_);
  VideoId max_video = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    ++loads_[request_home_[r]];
    max_video = std::max(max_video, requests[r].video);
    keys[r] = (std::uint64_t{requests[r].video} << 32) | r;
  }
  // A stable LSD radix sort by video, 8 bits a pass and only as many
  // passes as the largest id needs, puts the keys in video order...
  const int video_end = 32 + static_cast<int>(std::bit_width(max_video));
  for (int shift = 32; shift < video_end; shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const std::uint64_t key : keys) ++start[((key >> shift) & 0xff) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const std::uint64_t key : keys) {
      scratch[start[(key >> shift) & 0xff]++] = key;
    }
    keys.swap(scratch);
  }
  // ...and a stable counting sort by home then gives each home its
  // segment, ascending by video, to run-length encode into λ_hv, noting
  // each request's pair on the way.
  const auto request_of = [](std::uint64_t key) {
    return static_cast<std::uint32_t>(key);
  };
  std::vector<std::size_t> cursor(loads_.size(), 0);
  for (std::size_t h = 1; h < loads_.size(); ++h) {
    cursor[h] = cursor[h - 1] + loads_[h - 1];
  }
  for (const std::uint64_t key : keys) {
    scratch[cursor[request_home_[request_of(key)]]++] = key;
  }
  // The pairs are allocated only once the unsorted keys are freed, so the
  // slot's peak stays that of the two key arrays.
  std::vector<std::uint64_t>().swap(keys);
  request_pair_.resize(requests.size());
  std::size_t first = 0;
  for (std::size_t h = 0; h < loads_.size(); ++h) {
    const std::size_t last = first + loads_[h];
    for (std::size_t k = first; k < last; ++k) {
      const auto video = static_cast<VideoId>(scratch[k] >> 32);
      if (k == first || video != demands_.back().video) {
        demands_.push_back({video, 0});
      }
      ++demands_.back().count;
      request_pair_[request_of(scratch[k])] =
          static_cast<std::uint32_t>(demands_.size() - 1);
    }
    offsets_[h + 1] = demands_.size();
    first = last;
  }
}

SlotDemand::SlotDemand(std::vector<std::vector<VideoDemand>> per_hotspot) {
  assign_per_hotspot(std::move(per_hotspot));
}

SlotDemand::SlotDemand(
    std::vector<std::vector<VideoDemand>> predicted_per_hotspot,
    std::vector<HotspotIndex> request_home)
    : request_home_(std::move(request_home)) {
  for (const HotspotIndex home : request_home_) {
    CCDN_REQUIRE(home < predicted_per_hotspot.size(),
                 "request home out of range");
  }
  assign_per_hotspot(std::move(predicted_per_hotspot));
}

void SlotDemand::assign_per_hotspot(
    std::vector<std::vector<VideoDemand>> per_hotspot) {
  offsets_.assign(per_hotspot.size() + 1, 0);
  loads_.assign(per_hotspot.size(), 0);
  for (std::size_t h = 0; h < per_hotspot.size(); ++h) {
    auto& entries = per_hotspot[h];
    std::sort(entries.begin(), entries.end(),
              [](const VideoDemand& a, const VideoDemand& b) {
                return a.video < b.video;
              });
    const std::size_t first = demands_.size();
    for (const VideoDemand& d : entries) {
      if (demands_.size() > first && demands_.back().video == d.video) {
        demands_.back().count += d.count;
      } else {
        demands_.push_back(d);
      }
      loads_[h] += d.count;
    }
    total_requests_ += loads_[h];
    offsets_[h + 1] = demands_.size();
  }
}

std::uint32_t SlotDemand::load(HotspotIndex h) const {
  CCDN_REQUIRE(h < loads_.size(), "hotspot index out of range");
  return loads_[h];
}

std::span<const VideoDemand> SlotDemand::video_demand(HotspotIndex h) const {
  CCDN_REQUIRE(h < loads_.size(), "hotspot index out of range");
  return std::span<const VideoDemand>(demands_).subspan(
      offsets_[h], offsets_[h + 1] - offsets_[h]);
}

std::size_t SlotDemand::first_pair(HotspotIndex h) const {
  CCDN_REQUIRE(h < offsets_.size(), "hotspot index out of range");
  return offsets_[h];
}

}  // namespace ccdn
