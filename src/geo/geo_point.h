// Geographic coordinates and city-scale distance.
//
// The paper assumes network latency between two devices is proportional to
// geo-distance (§II, citing RTT/geo-distance measurements), so distance in km
// is the latency unit throughout the library.
#pragma once

#include <compare>

namespace ccdn {

/// WGS-84 style latitude/longitude in degrees.
struct GeoPoint {
  double lat = 0.0;
  double lon = 0.0;

  friend auto operator<=>(const GeoPoint&, const GeoPoint&) = default;
};

inline constexpr double kEarthRadiusKm = 6371.0088;

/// Great-circle distance (haversine), in km.
[[nodiscard]] double haversine_km(const GeoPoint& a, const GeoPoint& b) noexcept;

/// Equirectangular approximation, in km. Within ~0.1% of haversine at city
/// scale and several times cheaper; this is the default metric.
[[nodiscard]] double equirect_km(const GeoPoint& a, const GeoPoint& b) noexcept;

/// Default distance used by the library (equirectangular).
[[nodiscard]] inline double distance_km(const GeoPoint& a,
                                        const GeoPoint& b) noexcept {
  return equirect_km(a, b);
}

/// Axis-aligned lat/lon rectangle.
struct BoundingBox {
  GeoPoint min;  // south-west corner
  GeoPoint max;  // north-east corner

  [[nodiscard]] bool contains(const GeoPoint& p) const noexcept {
    return p.lat >= min.lat && p.lat <= max.lat && p.lon >= min.lon &&
           p.lon <= max.lon;
  }

  [[nodiscard]] GeoPoint center() const noexcept {
    return {(min.lat + max.lat) / 2.0, (min.lon + max.lon) / 2.0};
  }

  /// East-west extent in km (measured at the central latitude).
  [[nodiscard]] double width_km() const noexcept;
  /// North-south extent in km.
  [[nodiscard]] double height_km() const noexcept;
};

/// Local tangent-plane projection: maps lat/lon to (x, y) km offsets from a
/// reference point, with x pointing east and y pointing north. Inverse maps
/// km offsets back to coordinates. Accurate at city scale.
class Projection {
 public:
  explicit Projection(GeoPoint reference) noexcept;

  [[nodiscard]] GeoPoint reference() const noexcept { return reference_; }

  struct Xy {
    double x_km = 0.0;
    double y_km = 0.0;
  };

  /// Inline: the nearest-hotspot lookup projects every request twice.
  [[nodiscard]] Xy to_xy(const GeoPoint& p) const noexcept {
    return {(p.lon - reference_.lon) * km_per_deg_lon_,
            (p.lat - reference_.lat) * km_per_deg_lat_};
  }
  [[nodiscard]] GeoPoint to_geo(const Xy& xy) const noexcept;

 private:
  GeoPoint reference_;
  double km_per_deg_lon_;
  double km_per_deg_lat_;
};

}  // namespace ccdn
