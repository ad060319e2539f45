#include "geo/geo_point.h"

#include <cmath>
#include <numbers>

namespace ccdn {

namespace {
constexpr double kDegToRad = std::numbers::pi / 180.0;
}

double haversine_km(const GeoPoint& a, const GeoPoint& b) noexcept {
  const double lat1 = a.lat * kDegToRad;
  const double lat2 = b.lat * kDegToRad;
  const double dlat = (b.lat - a.lat) * kDegToRad;
  const double dlon = (b.lon - a.lon) * kDegToRad;
  const double s1 = std::sin(dlat / 2.0);
  const double s2 = std::sin(dlon / 2.0);
  const double h = s1 * s1 + std::cos(lat1) * std::cos(lat2) * s2 * s2;
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(std::min(1.0, h)));
}

double equirect_km(const GeoPoint& a, const GeoPoint& b) noexcept {
  const double mean_lat = (a.lat + b.lat) / 2.0 * kDegToRad;
  const double x = (b.lon - a.lon) * kDegToRad * std::cos(mean_lat);
  const double y = (b.lat - a.lat) * kDegToRad;
  return kEarthRadiusKm * std::sqrt(x * x + y * y);
}

double BoundingBox::width_km() const noexcept {
  const double mid_lat = (min.lat + max.lat) / 2.0;
  return equirect_km({mid_lat, min.lon}, {mid_lat, max.lon});
}

double BoundingBox::height_km() const noexcept {
  return equirect_km({min.lat, min.lon}, {max.lat, min.lon});
}

Projection::Projection(GeoPoint reference) noexcept
    : reference_(reference),
      km_per_deg_lon_(kEarthRadiusKm * kDegToRad *
                      std::cos(reference.lat * kDegToRad)),
      km_per_deg_lat_(kEarthRadiusKm * kDegToRad) {}

GeoPoint Projection::to_geo(const Xy& xy) const noexcept {
  return {reference_.lat + xy.y_km / km_per_deg_lat_,
          reference_.lon + xy.x_km / km_per_deg_lon_};
}

}  // namespace ccdn
