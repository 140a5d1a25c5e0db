#include "locate/delay_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/errors.hpp"
#include "net/geo.hpp"

namespace geoproof::locate {

DelayModel DelayModel::fit(std::span<const CalibrationPoint> points) {
  DelayModel model;
  DelayFit& f = model.fit_;
  f.points = points.size();
  if (points.size() < 2) return model;  // unusable; bound fallback

  double sum_d = 0.0, sum_t = 0.0;
  for (const CalibrationPoint& p : points) {
    sum_d += p.distance.value;
    sum_t += p.rtt.count();
  }
  const double n = static_cast<double>(points.size());
  const double mean_d = sum_d / n;
  const double mean_t = sum_t / n;

  double s_dd = 0.0, s_dt = 0.0, s_tt = 0.0;
  for (const CalibrationPoint& p : points) {
    const double dd = p.distance.value - mean_d;
    const double dt = p.rtt.count() - mean_t;
    s_dd += dd * dd;
    s_dt += dd * dt;
    s_tt += dt * dt;
  }
  if (s_dd <= 0.0) return model;  // all at one distance: no slope

  f.ms_per_km = s_dt / s_dd;
  f.intercept_ms = mean_t - f.ms_per_km * mean_d;

  double ss_res = 0.0;
  for (const CalibrationPoint& p : points) {
    const double predicted = f.intercept_ms + f.ms_per_km * p.distance.value;
    const double r = p.rtt.count() - predicted;
    ss_res += r * r;
  }
  f.r2 = s_tt > 0.0 ? 1.0 - ss_res / s_tt : 1.0;
  f.residual_stddev_ms =
      points.size() > 2 ? std::sqrt(ss_res / (n - 2.0)) : 0.0;
  return model;
}

DelayModel DelayModel::from_survey() {
  std::vector<CalibrationPoint> points;
  for (const net::InternetSurveyRow& row : net::table3_survey()) {
    points.push_back(CalibrationPoint{Kilometers{row.paper_distance_km},
                                      Millis{row.paper_latency_ms}});
  }
  return fit(points);
}

DelayModel DelayModel::from_internet_model(const net::InternetModel& model,
                                           Kilometers max_distance) {
  if (max_distance.value <= 0.0) {
    throw InvalidArgument("DelayModel: max_distance must be positive");
  }
  // A ladder of probe distances dense enough that the (linear) model is
  // recovered exactly; a future nonlinear model would show up in r2.
  constexpr unsigned kRungs = 12;
  std::vector<CalibrationPoint> points;
  points.reserve(kRungs);
  for (unsigned i = 1; i <= kRungs; ++i) {
    const Kilometers d{max_distance.value * i / kRungs};
    points.push_back(CalibrationPoint{d, model.rtt(d)});
  }
  return fit(points);
}

Kilometers DelayModel::upper_bound_distance(Millis rtt) {
  if (rtt.count() <= 0.0) return Kilometers{0.0};
  return distance_covered(Millis{rtt.count() / 2.0}, speeds::kLightVacuum);
}

Kilometers DelayModel::distance_for_rtt(Millis rtt) const {
  const Kilometers bound = upper_bound_distance(rtt);
  if (!fit_.usable()) return bound;
  const double km = (rtt.count() - fit_.intercept_ms) / fit_.ms_per_km;
  return Kilometers{std::clamp(km, 0.0, bound.value)};
}

Kilometers DelayModel::distance_sigma() const {
  if (!fit_.usable()) return Kilometers{0.0};
  return Kilometers{fit_.residual_stddev_ms / fit_.ms_per_km};
}

Kilometers DelayModel::spread_to_distance(Millis rtt_spread) const {
  const double spread = std::abs(rtt_spread.count());
  if (fit_.usable()) return Kilometers{spread / fit_.ms_per_km};
  return distance_covered(Millis{spread / 2.0}, speeds::kLightVacuum);
}

VantageRange DelayModel::range_for(const geoloc::Landmark& vantage,
                                   Millis rtt,
                                   const SampleStats& stats) const {
  VantageRange range;
  range.vantage = vantage;
  range.distance = distance_for_rtt(rtt);
  const double spread_km =
      spread_to_distance(Millis{stats.stddev_ms /
                                std::sqrt(static_cast<double>(
                                    std::max<std::size_t>(stats.count, 1)))})
          .value;
  range.sigma =
      Kilometers{std::max({distance_sigma().value, spread_km, 5.0})};
  return range;
}

}  // namespace geoproof::locate
