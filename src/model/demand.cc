#include "model/demand.h"

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "util/error.h"

namespace ccdn {

SlotDemand::SlotDemand(std::span<const Request> requests,
                       const GridIndex& hotspot_index)
    : offsets_(hotspot_index.size() + 1, 0),
      loads_(hotspot_index.size(), 0),
      request_home_(requests.size()),
      total_requests_(requests.size()) {
  // One pass computes each request's home and counts requests per home;
  // a request becomes the key (home << 32) | video.
  std::vector<std::uint64_t> keys(requests.size());
  std::vector<std::uint64_t> scratch(requests.size());
  VideoId max_video = 0;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    const auto home = static_cast<HotspotIndex>(
        hotspot_index.nearest(requests[r].location));
    request_home_[r] = home;
    ++loads_[home];
    max_video = std::max(max_video, requests[r].video);
    keys[r] = (std::uint64_t{home} << 32) | requests[r].video;
  }
  // A stable LSD radix sort by video, 8 bits a pass and only as many
  // passes as the largest id needs, puts the keys in video order...
  const auto video_bits = static_cast<int>(std::bit_width(max_video));
  for (int shift = 0; shift < video_bits; shift += 8) {
    std::array<std::size_t, 257> start{};
    for (const std::uint64_t key : keys) ++start[((key >> shift) & 0xff) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    for (const std::uint64_t key : keys) {
      scratch[start[(key >> shift) & 0xff]++] = key;
    }
    keys.swap(scratch);
  }
  // ...and a stable counting sort by home then gives each home its
  // segment, ascending by video, to run-length encode into λ_hv.
  std::vector<std::size_t> cursor(loads_.size(), 0);
  for (std::size_t h = 1; h < loads_.size(); ++h) {
    cursor[h] = cursor[h - 1] + loads_[h - 1];
  }
  for (const std::uint64_t key : keys) scratch[cursor[key >> 32]++] = key;
  std::size_t first = 0;
  for (std::size_t h = 0; h < loads_.size(); ++h) {
    const std::size_t last = first + loads_[h];
    for (std::size_t k = first; k < last; ++k) {
      if (k == first || scratch[k] != scratch[k - 1]) {
        demands_.push_back({static_cast<VideoId>(scratch[k]), 0});
      }
      ++demands_.back().count;
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
