// Calibrated delay→distance conversion for the locate subsystem.
//
// Multilateration needs each vantage's RTT turned into a distance. The
// honest way to do that is to *calibrate*: fit a best line rtt = intercept
// + slope·distance against reference measurements (the paper's Table III
// survey, or probes of the simulation's own net::InternetModel), then
// invert it. When no usable calibration exists the model falls back to the
// paper's §III-A physical bound — nothing travels farther than (rtt/2)·c —
// which can only over-estimate distance, never under-estimate it.
#pragma once

#include <span>

#include "common/units.hpp"
#include "geoloc/schemes.hpp"
#include "locate/measurement.hpp"
#include "locate/multilaterate.hpp"
#include "net/latency.hpp"

namespace geoproof::locate {

/// One calibration measurement: a known great-circle distance and the RTT
/// observed over it.
struct CalibrationPoint {
  Kilometers distance;
  Millis rtt;
};

/// Ordinary-least-squares line rtt(d) = intercept_ms + ms_per_km · d plus
/// the quality stats callers gate on.
struct DelayFit {
  double intercept_ms = 0.0;
  double ms_per_km = 0.0;
  double r2 = 0.0;                 // coefficient of determination
  double residual_stddev_ms = 0.0; // stddev of rtt residuals around the line
  std::size_t points = 0;

  /// A fit is usable for inversion when it has enough points, a positive
  /// slope (delay must grow with distance) and explains most of the
  /// variance; anything else falls back to the physical bound.
  bool usable() const { return points >= 3 && ms_per_km > 0.0 && r2 >= 0.5; }
};

class DelayModel {
 public:
  /// Uncalibrated model: distance_for_rtt degrades to the physical bound.
  DelayModel() = default;

  /// Best-line fit over explicit (distance, rtt) calibration points.
  static DelayModel fit(std::span<const CalibrationPoint> points);

  /// Calibrate against the paper's Table III Internet survey (measured
  /// Brisbane ADSL2 RTTs over 8–3605 km).
  static DelayModel from_survey();

  /// Calibrate by probing a net::InternetModel's deterministic RTT at a
  /// ladder of distances — the fleet's way of learning the world it
  /// measures in, without being handed the model parameters.
  static DelayModel from_internet_model(const net::InternetModel& model,
                                        Kilometers max_distance);

  /// Delay-derived distance estimate: the calibrated inverse when the fit
  /// is usable (clamped to [0, upper_bound_distance]); the physical bound
  /// otherwise.
  Kilometers distance_for_rtt(Millis rtt) const;

  /// §III-A's speed-of-light bound: data cannot sit farther than
  /// (rtt/2) · c from the prober, whatever the route. Independent of any
  /// calibration.
  static Kilometers upper_bound_distance(Millis rtt);

  /// 1-sigma distance uncertainty of one converted sample, from the fit's
  /// RTT residual spread mapped through the slope (0 when uncalibrated —
  /// the bound carries no spread information).
  Kilometers distance_sigma() const;

  /// Map an RTT spread (e.g. a vantage's observed sample stddev) into
  /// distance units through the calibrated slope; falls back to the
  /// physical c/2 conversion when uncalibrated.
  Kilometers spread_to_distance(Millis rtt_spread) const;

  /// The one delay->range recipe every fix is built from (the one-shot
  /// fleet sweep, the streaming track, the auditor CLI): `vantage` at
  /// distance_for_rtt(rtt), with a 1-sigma uncertainty of the largest of
  /// the calibration residual (distance_sigma), the sample spread shrunk
  /// by the min filter's depth (stats.stddev_ms / sqrt(stats.count),
  /// through spread_to_distance) and a 5 km floor. The spread is reported
  /// by the vantage, so the solver treats it as advisory (weight-floored).
  VantageRange range_for(const geoloc::Landmark& vantage, Millis rtt,
                         const SampleStats& stats) const;

  bool calibrated() const { return fit_.usable(); }
  const DelayFit& fit_stats() const { return fit_; }

 private:
  DelayFit fit_;
};

}  // namespace geoproof::locate
