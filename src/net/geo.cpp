#include "net/geo.hpp"

#include <array>
#include <cmath>
#include <numbers>

namespace geoproof::net {

Kilometers haversine(const GeoPoint& a, const GeoPoint& b) {
  const double to_rad = std::numbers::pi / 180.0;
  const double phi1 = a.lat_deg * to_rad;
  const double phi2 = b.lat_deg * to_rad;
  const double dphi = (b.lat_deg - a.lat_deg) * to_rad;
  const double dlam = (b.lon_deg - a.lon_deg) * to_rad;
  const double s = std::sin(dphi / 2) * std::sin(dphi / 2) +
                   std::cos(phi1) * std::cos(phi2) * std::sin(dlam / 2) *
                       std::sin(dlam / 2);
  return Kilometers{2.0 * kEarthRadiusKm *
                    std::atan2(std::sqrt(s), std::sqrt(1.0 - s))};
}

GeoPoint destination(const GeoPoint& from, double bearing_deg,
                     Kilometers distance) {
  const double to_rad = std::numbers::pi / 180.0;
  const double delta = distance.value / kEarthRadiusKm;  // angular distance
  const double theta = bearing_deg * to_rad;
  const double phi1 = from.lat_deg * to_rad;
  const double lam1 = from.lon_deg * to_rad;
  const double phi2 = std::asin(std::sin(phi1) * std::cos(delta) +
                                std::cos(phi1) * std::sin(delta) *
                                    std::cos(theta));
  const double lam2 =
      lam1 + std::atan2(std::sin(theta) * std::sin(delta) * std::cos(phi1),
                        std::cos(delta) - std::sin(phi1) * std::sin(phi2));
  GeoPoint out{phi2 / to_rad, lam2 / to_rad};
  // Normalise longitude to [-180, 180).
  while (out.lon_deg >= 180.0) out.lon_deg -= 360.0;
  while (out.lon_deg < -180.0) out.lon_deg += 360.0;
  return out;
}

namespace places {
GeoPoint brisbane() { return {-27.4698, 153.0251}; }
GeoPoint armidale() { return {-30.5120, 151.6690}; }
GeoPoint sydney() { return {-33.8688, 151.2093}; }
GeoPoint townsville() { return {-19.2590, 146.8169}; }
GeoPoint melbourne() { return {-37.8136, 144.9631}; }
GeoPoint adelaide() { return {-34.9285, 138.6007}; }
GeoPoint hobart() { return {-42.8821, 147.3272}; }
GeoPoint perth() { return {-31.9505, 115.8605}; }
}  // namespace places

std::span<const InternetSurveyRow> table3_survey() {
  static const std::array<InternetSurveyRow, 9> rows = {{
      {"uq.edu.au", "Brisbane (AU)", places::brisbane(), 8, 18},
      {"qut.edu.au", "Brisbane (AU)", places::brisbane(), 12, 20},
      {"une.edu.au", "Armidale (AU)", places::armidale(), 350, 26},
      {"sydney.edu.au", "Sydney (AU)", places::sydney(), 722, 34},
      {"jcu.edu.au", "Townsville (AU)", places::townsville(), 1120, 39},
      {"mh.org.au", "Melbourne (AU)", places::melbourne(), 1363, 42},
      {"rah.sa.gov.au", "Adelaide (AU)", places::adelaide(), 1592, 54},
      {"utas.edu.au", "Hobart (AU)", places::hobart(), 1785, 64},
      {"uwa.edu.au", "Perth (AU)", places::perth(), 3605, 82},
  }};
  return rows;
}

std::span<const LanSurveyRow> table2_survey() {
  static const std::array<LanSurveyRow, 10> rows = {{
      {"1", "Same level", 0.0},
      {"2", "Same level", 0.01},
      {"3", "Same level", 0.02},
      {"4", "Same Campus", 0.5},
      {"5", "Other Campus", 3.2},
      {"6", "Same Campus", 0.5},
      {"7", "Other Campus", 3.2},
      {"8", "Other Campus", 45.0},
      {"9", "Other Campus", 3.2},
      {"10", "Other Campus", 3.2},
  }};
  return rows;
}

}  // namespace geoproof::net
