// Geographic coordinates, great-circle distance, and the fixed locations the
// paper's evaluation uses (QUT campuses for Table II, Australian cities for
// Table III).
#pragma once

#include <span>
#include <string>

#include "common/units.hpp"

namespace geoproof::net {

/// Mean Earth radius of the spherical model every distance here uses.
inline constexpr double kEarthRadiusKm = 6371.0;

struct GeoPoint {
  double lat_deg = 0.0;
  double lon_deg = 0.0;

  bool operator==(const GeoPoint&) const = default;
};

/// Great-circle (haversine) distance.
Kilometers haversine(const GeoPoint& a, const GeoPoint& b);

/// Forward geodesic on the sphere: the point `distance` away from `from`
/// along the initial bearing `bearing_deg` (0 = north, 90 = east).
/// Inverse of haversine in the sense haversine(from, destination(from, b, d))
/// == d; used to lay out synthetic vantage/landmark fleets around a centre.
GeoPoint destination(const GeoPoint& from, double bearing_deg,
                     Kilometers distance);

/// A named place for workloads and reports.
struct Place {
  std::string name;
  GeoPoint pos;
};

namespace places {
/// Australian cities used by Table III (approximate city centres).
GeoPoint brisbane();
GeoPoint armidale();
GeoPoint sydney();
GeoPoint townsville();
GeoPoint melbourne();
GeoPoint adelaide();
GeoPoint hobart();
GeoPoint perth();
}  // namespace places

/// The Table III survey set: hosts around Australia with the paper's
/// measured ADSL2 latency from Brisbane, for calibration and comparison.
struct InternetSurveyRow {
  std::string url;
  std::string location;
  GeoPoint pos;
  double paper_distance_km;   // the paper's Google-Maps distance
  double paper_latency_ms;    // the paper's measured RTT
};
std::span<const InternetSurveyRow> table3_survey();

/// The Table II survey set: QUT machines with distance from the probing
/// workstation; all measured < 1 ms in the paper.
struct LanSurveyRow {
  std::string machine;
  std::string location;
  double distance_km;
};
std::span<const LanSurveyRow> table2_survey();

}  // namespace geoproof::net
