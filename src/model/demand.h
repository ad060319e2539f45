// Per-hotspot demand aggregation for one timeslot.
//
// Paper §III assumption 2: individual requests are aggregated at their
// nearest hotspot; the scheduler then redirects *aggregated* load between
// hotspots. SlotDemand is the λ_h / λ_hv view the RBCAer algorithm consumes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geo/grid_index.h"
#include "model/types.h"

namespace ccdn {

/// Demand for one video at one hotspot.
struct VideoDemand {
  VideoId video = 0;
  std::uint32_t count = 0;
};

class SlotDemand {
 public:
  /// Aggregate `requests` at their nearest hotspot. `hotspot_index` must be
  /// built over the hotspot locations (one point per hotspot).
  SlotDemand(std::span<const Request> requests,
             const GridIndex& hotspot_index);

  /// Construct directly from per-hotspot demand vectors (tests, synthetic
  /// workloads). Each inner vector may be unsorted; duplicates are merged.
  explicit SlotDemand(std::vector<std::vector<VideoDemand>> per_hotspot);

  /// Hybrid view for *predictive* scheduling: per-hotspot demand comes from
  /// a forecast while request homes come from the actual slot (so plans can
  /// still be materialized per request). `request_home` values must be
  /// valid hotspot indices.
  SlotDemand(std::vector<std::vector<VideoDemand>> predicted_per_hotspot,
             std::vector<HotspotIndex> request_home);

  [[nodiscard]] std::size_t num_hotspots() const noexcept {
    return loads_.size();
  }
  [[nodiscard]] std::size_t num_requests() const noexcept {
    return total_requests_;
  }

  /// λ_h: total requests aggregated at hotspot h.
  [[nodiscard]] std::uint32_t load(HotspotIndex h) const;

  /// λ_hv, sorted ascending by video id.
  [[nodiscard]] std::span<const VideoDemand> video_demand(
      HotspotIndex h) const;

  /// Position of hotspot h's first λ_hv pair when the video_demand() rows
  /// are laid end to end in hotspot order; first_pair(num_hotspots()) is
  /// the number of pairs. A per-pair table finds λ_hv at first_pair(h)
  /// plus the pair's position in h's row.
  [[nodiscard]] std::size_t first_pair(HotspotIndex h) const;

  /// Home hotspot of each request (same order as the input span); empty when
  /// constructed from per-hotspot vectors.
  [[nodiscard]] std::span<const HotspotIndex> request_home() const noexcept {
    return request_home_;
  }

  /// Each request's λ_hv pair (same order as the input span): the position,
  /// in first_pair()'s order, of its video in its home's row. Only the
  /// request constructor fills it; empty for the per-hotspot and hybrid
  /// views, whose rows are not built from the requests.
  [[nodiscard]] std::span<const std::uint32_t> request_pair() const noexcept {
    return request_pair_;
  }

 private:
  void assign_per_hotspot(std::vector<std::vector<VideoDemand>> per_hotspot);

  // λ_hv as CSR: hotspot h's entries are demands_[offsets_[h],
  // offsets_[h + 1]), ascending by video.
  std::vector<std::size_t> offsets_;
  std::vector<VideoDemand> demands_;
  std::vector<std::uint32_t> loads_;
  std::vector<HotspotIndex> request_home_;
  std::vector<std::uint32_t> request_pair_;
  std::size_t total_requests_ = 0;
};

}  // namespace ccdn
