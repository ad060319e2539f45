#include "trace/world.h"

#include <algorithm>
#include <cmath>

#include "stats/zipf.h"
#include "util/error.h"

namespace ccdn {

const std::array<double, 24>& diurnal_profile(ZoneType type) {
  // Relative hourly intensity, hand-shaped after common VoD diurnal curves:
  // residential demand peaks at night, business during office hours,
  // entertainment around lunch and late evening.
  static const std::array<double, 24> kResidential = {
      0.30, 0.18, 0.10, 0.06, 0.05, 0.06, 0.12, 0.25, 0.35, 0.40, 0.42, 0.48,
      0.55, 0.50, 0.45, 0.45, 0.50, 0.62, 0.80, 0.95, 1.00, 0.95, 0.75, 0.50};
  static const std::array<double, 24> kBusiness = {
      0.05, 0.03, 0.02, 0.02, 0.02, 0.04, 0.10, 0.30, 0.65, 0.90, 1.00, 0.95,
      0.85, 0.90, 0.95, 0.90, 0.85, 0.70, 0.45, 0.25, 0.15, 0.10, 0.08, 0.06};
  static const std::array<double, 24> kEntertainment = {
      0.35, 0.20, 0.10, 0.05, 0.04, 0.04, 0.06, 0.10, 0.20, 0.35, 0.50, 0.75,
      0.90, 0.80, 0.60, 0.55, 0.60, 0.70, 0.85, 0.95, 1.00, 1.00, 0.85, 0.60};
  static const std::array<double, 24> kMixed = {
      0.20, 0.12, 0.07, 0.05, 0.04, 0.05, 0.10, 0.25, 0.45, 0.60, 0.65, 0.70,
      0.72, 0.70, 0.66, 0.64, 0.66, 0.70, 0.75, 0.82, 0.85, 0.75, 0.55, 0.35};
  switch (type) {
    case ZoneType::kResidential: return kResidential;
    case ZoneType::kBusiness: return kBusiness;
    case ZoneType::kEntertainment: return kEntertainment;
    case ZoneType::kMixed: return kMixed;
  }
  return kMixed;
}

WorldConfig WorldConfig::evaluation_region() { return WorldConfig{}; }

WorldConfig WorldConfig::city_scale() {
  WorldConfig config;
  // Beijing-like metro extent (~45 x 45 km) with the paper's 5K sampled
  // hotspots; catalog scaled up, demand zones denser.
  config.region = BoundingBox{{39.80, 116.20}, {40.20, 116.73}};
  config.num_hotspots = 5000;
  // Many micro-communities relative to hotspot count: each AP-scale
  // hotspot sees one community's taste, while a down-sampled deployment
  // (Fig. 3b's sample ratios) averages over several.
  config.num_zones = 600;
  config.num_videos = 60000;
  config.num_users = 300000;
  config.seed = 1337;
  return config;
}

World::World(WorldConfig config, std::vector<Hotspot> hotspots,
             std::vector<Zone> zones, std::vector<std::uint8_t> video_genres,
             double zipf_exponent)
    : config_(std::move(config)),
      hotspots_(std::move(hotspots)),
      zones_(std::move(zones)),
      video_genres_(std::move(video_genres)),
      zipf_exponent_(zipf_exponent) {}

std::vector<GeoPoint> World::hotspot_locations() const {
  std::vector<GeoPoint> locations;
  locations.reserve(hotspots_.size());
  for (const auto& h : hotspots_) locations.push_back(h.location);
  return locations;
}

namespace {

GeoPoint clamp_to(const BoundingBox& box, GeoPoint p) {
  p.lat = std::clamp(p.lat, box.min.lat, box.max.lat);
  p.lon = std::clamp(p.lon, box.min.lon, box.max.lon);
  return p;
}

GeoPoint gaussian_around(Rng& rng, const Projection& projection,
                         const BoundingBox& region, GeoPoint center,
                         double sigma_km) {
  const auto c = projection.to_xy(center);
  const Projection::Xy xy{c.x_km + rng.normal(0.0, sigma_km),
                          c.y_km + rng.normal(0.0, sigma_km)};
  return clamp_to(region, projection.to_geo(xy));
}

std::vector<Zone> make_zones(const WorldConfig& config, Rng& rng) {
  std::vector<Zone> zones(config.num_zones);
  for (std::size_t z = 0; z < zones.size(); ++z) {
    Zone& zone = zones[z];
    zone.center = {rng.uniform(config.region.min.lat, config.region.max.lat),
                   rng.uniform(config.region.min.lon, config.region.max.lon)};
    zone.sigma_km =
        rng.uniform(config.zone_sigma_min_km, config.zone_sigma_max_km);
    // Pareto-distributed demand weight: a few zones dominate — the source
    // of the Fig. 2 workload skew.
    const double u = std::max(1e-12, rng.uniform());
    zone.weight = std::pow(u, -1.0 / config.zone_weight_shape);
    const double type_draw = rng.uniform();
    if (type_draw < 0.40) {
      zone.type = ZoneType::kResidential;
    } else if (type_draw < 0.70) {
      zone.type = ZoneType::kBusiness;
    } else if (type_draw < 0.85) {
      zone.type = ZoneType::kEntertainment;
    } else {
      zone.type = ZoneType::kMixed;
    }
    zone.preferred_genre =
        static_cast<std::uint8_t>(rng.index(config.num_genres));
    zone.genre_boost = rng.uniform(2.0, 6.0);
    // Per-zone activity curve: shift the base profile by up to +/-4 hours
    // and perturb each hour log-normally. Without this, same-type zones
    // would be perfectly rank-correlated in time.
    const auto& base = diurnal_profile(zone.type);
    const auto shift = static_cast<std::size_t>(rng.uniform_int(0, 8));
    for (std::size_t hour = 0; hour < 24; ++hour) {
      const std::size_t source = (hour + 24 - 4 + shift) % 24;
      zone.hourly[hour] = base[source] * std::exp(rng.normal(0.0, 0.6));
    }
  }
  return zones;
}

std::vector<Hotspot> make_hotspots(const WorldConfig& config,
                                   const std::vector<Zone>& zones, Rng& rng) {
  std::vector<Hotspot> hotspots;
  hotspots.reserve(config.num_hotspots);
  const Projection projection(config.region.center());

  // Zone selection proportional to weight, but deliberately *not* the same
  // draw as request generation: hotspot deployment tracks where people live,
  // demand tracks when/where they watch, so the two densities differ.
  std::vector<double> cumulative(zones.size());
  double total = 0.0;
  for (std::size_t z = 0; z < zones.size(); ++z) {
    // Sub-linear in demand weight: hot zones are under-provisioned, another
    // ingredient of the Fig. 2 skew.
    total += std::sqrt(zones[z].weight);
    cumulative[z] = total;
  }
  for (std::size_t h = 0; h < config.num_hotspots; ++h) {
    Hotspot hotspot;
    if (rng.chance(config.hotspot_background_fraction)) {
      hotspot.location = {
          rng.uniform(config.region.min.lat, config.region.max.lat),
          rng.uniform(config.region.min.lon, config.region.max.lon)};
    } else {
      const double draw = rng.uniform(0.0, total);
      const std::size_t z = static_cast<std::size_t>(
          std::lower_bound(cumulative.begin(), cumulative.end(), draw) -
          cumulative.begin());
      const Zone& zone = zones[std::min(z, zones.size() - 1)];
      hotspot.location = gaussian_around(rng, projection, config.region,
                                         zone.center, zone.sigma_km * 1.4);
    }
    hotspots.push_back(hotspot);
  }
  return hotspots;
}

}  // namespace

World generate_world(const WorldConfig& config) {
  CCDN_REQUIRE(config.num_hotspots >= 1, "need at least one hotspot");
  CCDN_REQUIRE(config.num_videos >= 2, "need at least two videos");
  CCDN_REQUIRE(config.num_zones >= 1, "need at least one zone");
  CCDN_REQUIRE(config.num_genres >= 1, "need at least one genre");
  CCDN_REQUIRE(
      config.hotspot_background_fraction >= 0.0 &&
          config.hotspot_background_fraction <= 1.0,
      "background fraction outside [0,1]");

  Rng root(config.seed);
  Rng zone_rng = root.fork(1);
  Rng hotspot_rng = root.fork(2);
  Rng genre_rng = root.fork(3);

  std::vector<Zone> zones = make_zones(config, zone_rng);
  std::vector<Hotspot> hotspots = make_hotspots(config, zones, hotspot_rng);

  std::vector<std::uint8_t> genres(config.num_videos);
  for (auto& genre : genres) {
    genre = static_cast<std::uint8_t>(genre_rng.index(config.num_genres));
  }

  const double exponent = calibrate_zipf_exponent(
      config.num_videos, config.popularity_head_fraction,
      config.popularity_head_mass);

  return World(config, std::move(hotspots), std::move(zones),
               std::move(genres), exponent);
}

void assign_uniform_capacities(World& world, double service_fraction,
                               double cache_fraction) {
  CCDN_REQUIRE(service_fraction > 0.0, "service fraction must be positive");
  CCDN_REQUIRE(cache_fraction > 0.0, "cache fraction must be positive");
  const double videos = static_cast<double>(world.config().num_videos);
  const auto service = static_cast<std::uint32_t>(
      std::max(1.0, std::round(service_fraction * videos)));
  const auto cache = static_cast<std::uint32_t>(
      std::max(1.0, std::round(cache_fraction * videos)));
  for (auto& hotspot : world.mutable_hotspots()) {
    hotspot.service_capacity = service;
    hotspot.cache_capacity = cache;
  }
}

}  // namespace ccdn
