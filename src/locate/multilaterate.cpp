#include "locate/multilaterate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/errors.hpp"
#include "locate/measurement.hpp"  // locate::median

namespace geoproof::locate {

using net::GeoPoint;
using net::haversine;

Multilaterator::Multilaterator() : Multilaterator(Options{}) {}

Multilaterator::Multilaterator(Options options) : options_(options) {
  if (options_.grid < 4) {
    throw InvalidArgument("Multilaterator: grid too small");
  }
  if (options_.min_inlier_fraction <= 0.5 ||
      options_.min_inlier_fraction > 1.0) {
    throw InvalidArgument(
        "Multilaterator: min_inlier_fraction must be in (0.5, 1] — a "
        "minority-consistent estimate is exactly what a Byzantine fleet "
        "could forge");
  }
  if (options_.trim_factor < 1.0) {
    throw InvalidArgument("Multilaterator: trim_factor must be >= 1");
  }
}

namespace {

constexpr double kDeg = std::numbers::pi / 180.0;

struct BoundingBox {
  double lat_min, lat_max, lon_min, lon_max;
};

/// The fleet's coverage region: the box over the active vantage positions,
/// padded by a margin proportional to the fleet's extent. The search is
/// *constrained* to this region on purpose — multilateration outside the
/// vantage hull is extrapolation, and an unconstrained fit lets uniformly
/// inflated distances (a relayed or stalling prover) "converge" at a
/// far-field runaway point where the residuals artificially equalise.
/// Constrained, that inflation has nowhere to hide: residuals stay large
/// inside the region and the confidence radius honestly blows up.
BoundingBox coverage_box(std::span<const VantageRange> ranges,
                         const std::vector<std::size_t>& active) {
  // Longitudes are unwrapped to within ±180° of the first active vantage
  // before taking min/max: a fleet straddling the antimeridian must get
  // its ~real hull, not a 360°-wide box that would both wreck the coarse
  // grid's resolution and re-admit the far-field runaway this constraint
  // exists to exclude. Candidate points may end up with lon outside
  // [-180, 180) — unit vectors are periodic in longitude, so every cost
  // evaluation stays correct; the final estimate is re-normalised by the
  // caller.
  const double lon_ref = ranges[active.front()].vantage.pos.lon_deg;
  const auto unwrap = [lon_ref](double lon) {
    return lon_ref + std::remainder(lon - lon_ref, 360.0);
  };
  BoundingBox box{90.0, -90.0, 1e9, -1e9};
  for (const std::size_t i : active) {
    const GeoPoint& p = ranges[i].vantage.pos;
    const double lon = unwrap(p.lon_deg);
    box.lat_min = std::min(box.lat_min, p.lat_deg);
    box.lat_max = std::max(box.lat_max, p.lat_deg);
    box.lon_min = std::min(box.lon_min, lon);
    box.lon_max = std::max(box.lon_max, lon);
  }
  // 1 degree latitude ~ 111 km; longitude degrees shrink with latitude,
  // capped so polar fleets do not blow the box up to the whole globe.
  const double mid_lat = (box.lat_min + box.lat_max) / 2.0;
  const double cos_lat =
      std::max(0.2, std::cos(mid_lat * std::numbers::pi / 180.0));
  const double diag_km = std::hypot(
      (box.lat_max - box.lat_min) * 111.0,
      (box.lon_max - box.lon_min) * 111.0 * cos_lat);
  // Tight on purpose: the margin only admits provers slightly beyond the
  // hull. Every extra kilometre of slack is a kilometre of consistent
  // relay inflation the constrained fit could silently cancel by drifting
  // outward instead of reporting it in the radius.
  const double margin_km = 0.05 * diag_km + 200.0;
  box.lat_min = std::max(box.lat_min - margin_km / 111.0, -89.9);
  box.lat_max = std::min(box.lat_max + margin_km / 111.0, 89.9);
  box.lon_min -= margin_km / (111.0 * cos_lat);
  box.lon_max += margin_km / (111.0 * cos_lat);
  return box;
}

/// The refit's per-vantage weight floor: the active set's median sigma,
/// never below 1 km. Shared by solve_refine and the covariance so the
/// ellipse describes exactly the fit that produced the position.
double refit_weight_floor(std::span<const VantageRange> ranges,
                          const std::vector<std::size_t>& active) {
  std::vector<double> sigmas;
  sigmas.reserve(active.size());
  for (const std::size_t i : active) sigmas.push_back(ranges[i].sigma.value);
  return std::max(1.0, median(std::move(sigmas)));
}

/// Initial bearing from `from` to `to`, radians east of north.
double bearing_rad(const GeoPoint& from, const GeoPoint& to) {
  const double lat1 = from.lat_deg * kDeg, lat2 = to.lat_deg * kDeg;
  const double dlon = (to.lon_deg - from.lon_deg) * kDeg;
  const double y = std::sin(dlon) * std::cos(lat2);
  const double x = std::cos(lat1) * std::sin(lat2) -
                   std::sin(lat1) * std::cos(lat2) * std::cos(dlon);
  return std::atan2(y, x);
}

/// Covariance of the weighted-LS refit, linearised at `position` in the
/// local east-north plane: each inlier constrains the fix along the unit
/// bearing u_i from its vantage (∂range_i/∂p = u_i), so the Fisher
/// information is F = Σ u_i u_iᵀ / w_i² and the covariance is s²·F⁻¹ with
/// the residual scale s² = max(1, χ²/dof) — floored at 1 so a fit that is
/// merely lucky cannot claim less uncertainty than the vantages' own
/// sigmas. Eigen-decomposing C gives the semi-axes and orientation;
/// `radius_cap` (the confidence disk) clamps both axes.
ErrorEllipse refit_ellipse(std::span<const VantageRange> ranges,
                           const std::vector<std::size_t>& active,
                           const std::vector<double>& residuals,
                           const GeoPoint& position, double axis_factor,
                           double radius_cap) {
  ErrorEllipse out;
  if (active.size() < 3) return out;
  const double floor_km = refit_weight_floor(ranges, active);

  double fxx = 0.0, fxy = 0.0, fyy = 0.0, chi2 = 0.0;
  std::size_t used = 0;
  for (std::size_t k = 0; k < active.size(); ++k) {
    const VantageRange& r = ranges[active[k]];
    if (haversine(r.vantage.pos, position).value < 1e-6) continue;
    const double w = std::max(r.sigma.value, floor_km);
    const double theta = bearing_rad(r.vantage.pos, position);
    const double ux = std::sin(theta);  // east
    const double uy = std::cos(theta);  // north
    fxx += ux * ux / (w * w);
    fxy += ux * uy / (w * w);
    fyy += uy * uy / (w * w);
    const double z = residuals[k] / w;
    chi2 += z * z;
    ++used;
  }
  if (used < 3) return out;
  const double det = fxx * fyy - fxy * fxy;
  // Collinear bearings make F singular: the fix is unconstrained along one
  // axis, so no finite ellipse exists. (trace² * epsilon is the usual
  // relative-conditioning guard.)
  const double trace = fxx + fyy;
  if (det <= trace * trace * 1e-9) return out;

  const double s2 =
      std::max(1.0, chi2 / static_cast<double>(used > 2 ? used - 2 : 1));
  // C = s² F⁻¹; eigenvalues of the symmetric 2x2 via the trace/det form.
  const double cxx = s2 * fyy / det;
  const double cyy = s2 * fxx / det;
  const double cxy = -s2 * fxy / det;
  const double mid = (cxx + cyy) / 2.0;
  const double diff = std::hypot((cxx - cyy) / 2.0, cxy);
  const double lam_max = mid + diff;
  const double lam_min = std::max(0.0, mid - diff);
  // Major-axis direction: eigenvector angle from the east axis, converted
  // to a bearing east of north in [0, 180).
  const double alpha = 0.5 * std::atan2(2.0 * cxy, cxx - cyy);
  double bearing_deg = 90.0 - alpha * 180.0 / std::numbers::pi;
  bearing_deg = std::fmod(bearing_deg, 180.0);
  if (bearing_deg < 0.0) bearing_deg += 180.0;

  // The same confidence multiplier as the disk, so "ellipse vs disk" is an
  // apples-to-apples comparison of shapes at one coverage level.
  out.semi_major =
      Kilometers{std::min(axis_factor * std::sqrt(lam_max), radius_cap)};
  out.semi_minor = Kilometers{
      std::min(axis_factor * std::sqrt(lam_min), out.semi_major.value)};
  out.orientation_deg = bearing_deg;
  out.valid = true;
  return out;
}

/// A point's direction from the Earth's centre (ECEF, unit length). Between
/// two of these the great-circle distance is 2R·asin(chord / 2) — one
/// sqrt and one asin, against haversine's four sines, two cosines, two
/// square roots and an atan2 — and the chord form stays well-conditioned
/// at short range, where acos of the dot product does not.
struct UnitVec {
  double x, y, z;
};

UnitVec unit_vector(const GeoPoint& p) {
  const double lat = p.lat_deg * kDeg, lon = p.lon_deg * kDeg;
  return {std::cos(lat) * std::cos(lon), std::cos(lat) * std::sin(lon),
          std::sin(lat)};
}

double chord_distance_km(const UnitVec& a, const UnitVec& b) {
  const double dx = a.x - b.x, dy = a.y - b.y, dz = a.z - b.z;
  // min(): rounding can push an antipodal chord a hair past the diameter.
  const double half_chord = 0.5 * std::sqrt(dx * dx + dy * dy + dz * dz);
  return 2.0 * net::kEarthRadiusKm * std::asin(std::min(1.0, half_chord));
}

/// One active vantage as the cost functions see it, computed once per
/// solve: its unit vector, its claimed distance and (refit only) the
/// reciprocal of its weight.
struct VantageVec {
  UnitVec u;
  double distance_km;
  double inv_weight = 1.0;
};

std::vector<VantageVec> vantage_vectors(
    std::span<const VantageRange> ranges,
    const std::vector<std::size_t>& active) {
  std::vector<VantageVec> out;
  out.reserve(active.size());
  for (const std::size_t i : active) {
    out.push_back({unit_vector(ranges[i].vantage.pos),
                   ranges[i].distance.value});
  }
  return out;
}

/// One grid level's candidates: the row latitudes and column longitudes
/// with their sines and cosines, so a candidate's unit vector costs three
/// products. The coordinates are exactly the grid's
/// `box.lat_min + gy * dlat` / `box.lon_min + gx * dlon`.
class GridLevel {
 public:
  explicit GridLevel(unsigned grid)
      : grid_(grid), rows_(grid + 1), cols_(grid + 1) {}

  void fill(const BoundingBox& box) {
    dlat_ = (box.lat_max - box.lat_min) / grid_;
    dlon_ = (box.lon_max - box.lon_min) / grid_;
    for (unsigned g = 0; g <= grid_; ++g) {
      rows_[g] = Axis::at(box.lat_min + g * dlat_);
      cols_[g] = Axis::at(box.lon_min + g * dlon_);
    }
  }

  double dlat() const { return dlat_; }
  double dlon() const { return dlon_; }
  GeoPoint point(unsigned gy, unsigned gx) const {
    return {rows_[gy].deg, cols_[gx].deg};
  }
  UnitVec unit(unsigned gy, unsigned gx) const {
    return {rows_[gy].cos * cols_[gx].cos, rows_[gy].cos * cols_[gx].sin,
            rows_[gy].sin};
  }

 private:
  struct Axis {
    double deg, sin, cos;
    static Axis at(double deg) {
      return {deg, std::sin(deg * kDeg), std::cos(deg * kDeg)};
    }
  };
  unsigned grid_;
  std::vector<Axis> rows_, cols_;
  double dlat_ = 0.0, dlon_ = 0.0;
};

/// Coarse-to-fine search of `coarse` for the minimum of `cost`, a functor
/// over candidate unit vectors (a template parameter so the cost inlines
/// into the grid loops).
template <typename Cost>
GeoPoint grid_search(const BoundingBox& coarse, unsigned grid,
                     unsigned refinements, const Cost& cost) {
  // The robust (median) cost surface is multi-modal: a minority of
  // coincidentally-consistent circles can carve a second near-zero basin.
  // A single coarse-to-fine descent may commit to the wrong one, so keep
  // the best kBeam coarse cells and refine each; the true basin's lower
  // floor wins the final comparison.
  constexpr std::size_t kBeam = 5;
  GridLevel level(grid);
  level.fill(coarse);
  const double coarse_dlat = level.dlat();
  const double coarse_dlon = level.dlon();

  struct Candidate {
    double cost;
    GeoPoint point;
  };
  const auto by_cost = [](const Candidate& a, const Candidate& b) {
    return a.cost < b.cost;
  };
  std::vector<Candidate> beam;
  for (unsigned gy = 0; gy <= grid; ++gy) {
    for (unsigned gx = 0; gx <= grid; ++gx) {
      const Candidate c{cost(level.unit(gy, gx)), level.point(gy, gx)};
      if (beam.size() < kBeam) {
        beam.push_back(c);
        std::push_heap(beam.begin(), beam.end(), by_cost);
      } else if (c.cost < beam.front().cost) {
        std::pop_heap(beam.begin(), beam.end(), by_cost);
        beam.back() = c;
        std::push_heap(beam.begin(), beam.end(), by_cost);
      }
    }
  }

  GeoPoint best{};
  double best_cost = std::numeric_limits<double>::infinity();
  for (const Candidate& seed : beam) {
    // Zoom into a 3x3-cell window around the seed, then keep refining
    // around each level's winner (cf. geoloc's TBG baseline).
    GeoPoint local = seed.point;
    double local_cost = seed.cost;
    BoundingBox box{local.lat_deg - 1.5 * coarse_dlat,
                    local.lat_deg + 1.5 * coarse_dlat,
                    local.lon_deg - 1.5 * coarse_dlon,
                    local.lon_deg + 1.5 * coarse_dlon};
    for (unsigned depth = 1; depth <= refinements; ++depth) {
      level.fill(box);
      for (unsigned gy = 0; gy <= grid; ++gy) {
        for (unsigned gx = 0; gx <= grid; ++gx) {
          const double c = cost(level.unit(gy, gx));
          if (c < local_cost) {
            local_cost = c;
            local = level.point(gy, gx);
          }
        }
      }
      const double dlat = level.dlat(), dlon = level.dlon();
      box = BoundingBox{local.lat_deg - 1.5 * dlat, local.lat_deg + 1.5 * dlat,
                        local.lon_deg - 1.5 * dlon,
                        local.lon_deg + 1.5 * dlon};
    }
    if (local_cost < best_cost) {
      best_cost = local_cost;
      best = local;
    }
  }
  return best;
}

}  // namespace

bool VantageRange::solvable() const {
  return std::isfinite(distance.value) && distance.value >= 0.0 &&
         std::isfinite(sigma.value) && sigma.value >= 0.0;
}

double ErrorEllipse::area_km2() const {
  return std::numbers::pi * semi_major.value * semi_minor.value;
}

GeoPoint Multilaterator::solve_robust(std::span<const VantageRange> ranges,
                                      const std::vector<std::size_t>& active,
                                      std::size_t min_inliers) const {
  // Least-quantile-of-squares at the majority floor: the position
  // minimising the min_inliers-th smallest squared residual — i.e. the
  // best position that explains a 2f+1-of-3f+1 majority. A lying minority
  // cannot drag this fit (their residuals sit above the quantile), which
  // is what lets the trim loop see them stand out instead of being
  // averaged into everyone's error. And unlike the plain median, the
  // majority quantile cannot be gamed by a fit that "explains" only the
  // nearest half of the fleet — the failure mode a uniformly-inflated
  // (relayed) measurement set invites.
  const std::size_t quantile =
      std::min(active.size() - 1,
               std::max(active.size() / 2,
                        min_inliers > 0 ? min_inliers - 1 : 0));
  const std::vector<VantageVec> vantages = vantage_vectors(ranges, active);
  std::vector<double> scratch(vantages.size());
  const auto lqs = [&](const UnitVec& p) {
    for (std::size_t k = 0; k < vantages.size(); ++k) {
      const double err =
          chord_distance_km(vantages[k].u, p) - vantages[k].distance_km;
      scratch[k] = err * err;
    }
    std::nth_element(scratch.begin(),
                     scratch.begin() + static_cast<std::ptrdiff_t>(quantile),
                     scratch.end());
    return scratch[quantile];
  };
  return grid_search(coverage_box(ranges, active), options_.grid,
                     options_.refinements, lqs);
}

GeoPoint Multilaterator::solve_refine(
    std::span<const VantageRange> ranges,
    const std::vector<std::size_t>& active) const {
  // Weighted least squares over the (post-trim) inlier set — the
  // statistically efficient refit once the Byzantine vantages are out.
  // Weights are floored at the active set's median sigma: a vantage that
  // *claims* near-zero uncertainty (the obvious play for dominating a
  // weighted fit) gets no more say than the majority's typical confidence.
  const double weight_floor = refit_weight_floor(ranges, active);
  std::vector<VantageVec> vantages = vantage_vectors(ranges, active);
  for (std::size_t k = 0; k < vantages.size(); ++k) {
    vantages[k].inv_weight =
        1.0 / std::max(ranges[active[k]].sigma.value, weight_floor);
  }
  const auto weighted_ls = [&](const UnitVec& p) {
    double cost = 0.0;
    for (const VantageVec& v : vantages) {
      const double err =
          (chord_distance_km(v.u, p) - v.distance_km) * v.inv_weight;
      cost += err * err;
    }
    return cost;
  };
  return grid_search(coverage_box(ranges, active), options_.grid,
                     options_.refinements, weighted_ls);
}

PositionEstimate Multilaterator::estimate(
    std::span<const VantageRange> ranges) const {
  if (ranges.size() < 3) {
    throw InvalidArgument("Multilaterator: need >= 3 vantage ranges");
  }
  // A NaN range would poison every cost (and nth_element's ordering) and
  // drag the fix to the grid's first cell with nobody trimmed.
  for (const VantageRange& r : ranges) {
    if (!r.solvable()) {
      throw InvalidArgument(
          "Multilaterator: distance and sigma must be finite and >= 0");
    }
  }
  const std::size_t n = ranges.size();
  const std::size_t min_inliers = static_cast<std::size_t>(
      std::ceil(options_.min_inlier_fraction * static_cast<double>(n)));

  std::vector<std::size_t> active(n);
  for (std::size_t i = 0; i < n; ++i) active[i] = i;
  std::vector<std::size_t> trimmed;

  // Trim loop against the robust (least-median-of-squares) fit: compute
  // residuals, eject the worst vantage whose residual stands out against
  // the majority's scale, re-solve; stop at consistency or the majority
  // floor.
  std::vector<double> residuals;  // parallel to active
  const auto compute_residuals = [&](const GeoPoint& position) {
    residuals.clear();
    for (const std::size_t i : active) {
      residuals.push_back(std::abs(
          haversine(ranges[i].vantage.pos, position).value -
          ranges[i].distance.value));
    }
  };
  for (;;) {
    compute_residuals(solve_robust(ranges, active, min_inliers));
    const std::size_t floor = std::max<std::size_t>(min_inliers, 3);
    if (active.size() <= floor) break;

    // Batch-trim every vantage whose residual stands out against the
    // majority's robust scale (worst first, bounded by the majority
    // floor), then re-solve. The robust fit is what makes batching safe:
    // it is already pinned to the consistent majority, so all the
    // suspects' residuals are measured against the same honest geometry —
    // and one robust solve per *round* instead of per ejection keeps
    // 200-vantage fleets with dozens of liars tractable.
    const double scale = median(residuals);
    std::vector<std::pair<double, std::size_t>> suspects;  // (excess, pos)
    for (std::size_t k = 0; k < active.size(); ++k) {
      const double threshold = std::max(
          {options_.min_trim.value, options_.trim_factor * scale,
           options_.sigma_factor * ranges[active[k]].sigma.value});
      const double excess = residuals[k] - threshold;
      if (excess > 0.0) suspects.emplace_back(excess, k);
    }
    if (suspects.empty()) break;  // everyone consistent
    std::sort(suspects.begin(), suspects.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    const std::size_t capacity = active.size() - floor;
    suspects.resize(std::min(suspects.size(), capacity));
    std::vector<std::size_t> drop_pos;
    drop_pos.reserve(suspects.size());
    for (const auto& [excess, pos] : suspects) drop_pos.push_back(pos);
    std::sort(drop_pos.rbegin(), drop_pos.rend());  // erase back-to-front
    for (const std::size_t pos : drop_pos) {
      trimmed.push_back(active[pos]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }

  // Final position: the efficient weighted refit on the surviving inliers.
  GeoPoint position = solve_refine(ranges, active);
  // The search runs in unwrapped longitude space (see coverage_box);
  // bring the answer back to [-180, 180).
  position.lon_deg = std::remainder(position.lon_deg, 360.0);
  if (position.lon_deg == 180.0) position.lon_deg = -180.0;
  compute_residuals(position);

  PositionEstimate out;
  out.position = position;
  out.inliers = active;
  std::sort(trimmed.begin(), trimmed.end());
  out.outliers = std::move(trimmed);

  double sum_abs = 0.0, max_res = 0.0, max_sigma = 0.0;
  for (std::size_t k = 0; k < active.size(); ++k) {
    sum_abs += residuals[k];
    max_res = std::max(max_res, residuals[k]);
    max_sigma = std::max(max_sigma, ranges[active[k]].sigma.value);
  }
  out.mean_abs_residual_km =
      Kilometers{sum_abs / static_cast<double>(active.size())};
  out.max_inlier_residual_km = Kilometers{max_res};
  out.radius_km = Kilometers{std::max(
      options_.min_radius.value,
      options_.radius_factor * std::max(max_res, max_sigma))};
  out.ellipse = refit_ellipse(ranges, active, residuals, position,
                              options_.radius_factor, out.radius_km.value);

  // Converged = a majority-consistent inlier set whose residuals are all
  // within their own trim thresholds (no suspect left standing because the
  // majority floor stopped the trimming).
  const double scale = median(residuals);
  bool all_within = true;
  for (std::size_t k = 0; k < active.size(); ++k) {
    const double threshold = std::max(
        {options_.min_trim.value, options_.trim_factor * scale,
         options_.sigma_factor * ranges[active[k]].sigma.value});
    all_within = all_within && residuals[k] <= threshold;
  }
  out.converged = active.size() >= min_inliers && all_within;
  return out;
}

}  // namespace geoproof::locate
