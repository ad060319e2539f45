// Synthetic "world": hotspot deployment + demand geography.
//
// Substitutes the paper's proprietary datasets (iQiyi video sessions and the
// 1M-AP Wi-Fi deployment map). The world is a set of demand *zones* — urban
// activity clusters with a type-specific diurnal profile and a genre-skewed
// local video taste — plus a hotspot deployment correlated with, but not
// identical to, the demand density. Those two ingredients reproduce the
// paper's measured properties the algorithms depend on:
//   * highly skewed per-hotspot workload under Nearest routing (Fig. 2),
//   * weak workload correlation between nearby hotspots (Fig. 3a),
//   * diverse content similarity between nearby hotspots (Fig. 3b).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "geo/geo_point.h"
#include "model/types.h"
#include "util/rng.h"

namespace ccdn {

enum class ZoneType : std::uint8_t {
  kResidential = 0,
  kBusiness = 1,
  kEntertainment = 2,
  kMixed = 3,
};

/// Relative request intensity per hour of day (sums are not normalized).
[[nodiscard]] const std::array<double, 24>& diurnal_profile(ZoneType type);

struct Zone {
  GeoPoint center;
  double sigma_km = 1.0;   // spatial spread of the zone's users
  double weight = 1.0;     // relative demand share
  ZoneType type = ZoneType::kMixed;
  std::uint8_t preferred_genre = 0;
  /// Strength of the genre preference (multiplier on preferred-genre videos).
  double genre_boost = 3.0;
  /// The zone's own hourly activity curve: the type's diurnal profile,
  /// phase-shifted and noised per zone. Distinct zones therefore peak at
  /// different hours, which is what makes nearby hotspots' workloads weakly
  /// correlated (paper Fig. 3a).
  std::array<double, 24> hourly{};
};

struct WorldConfig {
  BoundingBox region{{40.00, 116.40}, {40.10, 116.60}};  // ~17 x 11 km
  std::size_t num_hotspots = 310;
  std::size_t num_zones = 10;
  std::uint32_t num_videos = 15190;
  std::uint32_t num_users = 60000;
  std::uint8_t num_genres = 6;
  /// Pareto shape for zone demand weights; smaller = more skew.
  double zone_weight_shape = 1.1;
  /// Spatial footprint of a demand zone (km); drawn uniformly per zone.
  /// Absolute, not region-relative: an urban community has the same
  /// physical size whether the map covers a district or the whole city.
  double zone_sigma_min_km = 0.4;
  double zone_sigma_max_km = 1.6;
  /// Fraction of hotspots placed uniformly (not tracking demand clusters).
  double hotspot_background_fraction = 0.35;
  /// 80/20 calibration targets for global popularity.
  double popularity_head_fraction = 0.2;
  double popularity_head_mass = 0.8;
  std::uint64_t seed = 42;

  /// The paper's evaluation region (§V-A): 310 hotspots, 15,190 videos,
  /// 17 x 11 km rectangle.
  [[nodiscard]] static WorldConfig evaluation_region();

  /// City-scale setting for the measurement study (§II): 5K hotspots
  /// sampled from the AP map, larger region, 0.4M-video catalog scaled to
  /// keep per-hotspot demand comparable.
  [[nodiscard]] static WorldConfig city_scale();
};

class World {
 public:
  World(WorldConfig config, std::vector<Hotspot> hotspots,
        std::vector<Zone> zones, std::vector<std::uint8_t> video_genres,
        double zipf_exponent);

  [[nodiscard]] const WorldConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<Hotspot>& hotspots() const noexcept {
    return hotspots_;
  }
  [[nodiscard]] std::vector<Hotspot>& mutable_hotspots() noexcept {
    return hotspots_;
  }
  [[nodiscard]] const std::vector<Zone>& zones() const noexcept {
    return zones_;
  }
  /// Genre of each video (videos are globally rank-ordered: id 0 is the
  /// globally most popular).
  [[nodiscard]] const std::vector<std::uint8_t>& video_genres() const noexcept {
    return video_genres_;
  }
  [[nodiscard]] double zipf_exponent() const noexcept { return zipf_exponent_; }

  /// Locations of all hotspots (for building a GridIndex).
  [[nodiscard]] std::vector<GeoPoint> hotspot_locations() const;

 private:
  WorldConfig config_;
  std::vector<Hotspot> hotspots_;
  std::vector<Zone> zones_;
  std::vector<std::uint8_t> video_genres_;
  double zipf_exponent_;
};

/// Generate a world from the config (deterministic in config.seed).
[[nodiscard]] World generate_world(const WorldConfig& config);

/// Assign uniform service/cache capacities to every hotspot, expressed as
/// fractions of the catalog size (the paper's parameterization: e.g.
/// s_h = 5% and c_h = 3% of the video set). Fractions must be positive.
void assign_uniform_capacities(World& world, double service_fraction,
                               double cache_fraction);

}  // namespace ccdn
