// Byzantine-robust multilateration over great-circle distances.
//
// Input: one delay-derived distance estimate (plus uncertainty) per
// vantage. Output: the position minimising the trimmed least-squares
// residual, a confidence radius, and the inlier/outlier split.
//
// Robustness follows the BFT-PoLoc shape: solve on all vantages, compute
// residuals, and iteratively trim the worst vantage whose residual stands
// out against the *majority's* robust scale (median residual), re-solving
// after each trim. Trimming stops before the inlier set can drop below
// the configured majority fraction — with n = 3f + 1 vantages and the
// default 2/3 floor, up to f lying vantages can be ejected while any
// estimate that would require distrusting an honest majority is refused
// (converged = false). A *prover*-side attack (relayed or stalled
// responses) inflates every vantage's distance consistently, so no one is
// trimmed — instead the residuals, and therefore the confidence radius,
// inflate: the estimate honestly reports that the fleet cannot pin the
// prover down.
//
// Cost: each fit is a coarse-to-fine grid search — with the default
// Options a 33x33 coarse grid, then the best 5 cells refined 5 levels
// deep, ~28k cost evaluations — run once per trim round plus a refit.
// Each evaluation is one chord distance per active vantage: vantages are
// ECEF unit vectors computed once per fit, each grid level tabulates its
// row and column sines/cosines, and the distance is 2R·asin(|a − p| / 2),
// so the inner loop runs no trigonometry beyond one asin. estimate() is a pure
// function of its input: no state survives between calls.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "geoloc/schemes.hpp"
#include "net/geo.hpp"

namespace geoproof::locate {

/// One vantage's contribution: where it is, how far the prover appears,
/// and the 1-sigma uncertainty of that distance.
struct VantageRange {
  geoloc::Landmark vantage;
  Kilometers distance{0.0};
  Kilometers sigma{0.0};

  /// Distance and sigma are finite and >= 0: the solver's precondition.
  /// Finite but huge RTTs can still overflow DelayModel::range_for, so
  /// callers ranging untrusted reports drop a range that fails this.
  bool solvable() const;
};

/// Error ellipse of the weighted-LS refit, from the 2x2 covariance of the
/// fit in the local east-north tangent plane at the estimate. The
/// confidence *disk* (radius_km) is sized by the worst inlier residual —
/// deliberately conservative; the ellipse is the statistically efficient
/// refinement: the per-axis uncertainty of the refit given the inliers'
/// geometry and weights, which shrinks ~1/sqrt(n) with fleet size and is
/// anisotropic when the vantage bearings are. Semi-axes are clamped to the
/// disk, so ellipse ⊆ disk always holds and the disk stays the outer
/// bound downstream policy can rely on.
struct ErrorEllipse {
  Kilometers semi_major{0.0};
  Kilometers semi_minor{0.0};
  /// Bearing of the semi-major axis, degrees east of north, in [0, 180).
  double orientation_deg = 0.0;
  /// False when the inlier geometry cannot support a covariance (fewer
  /// than 3 usable inliers, or a degenerate — collinear-bearing — fit).
  bool valid = false;

  double area_km2() const;
};

/// The solver's answer. Indices in `inliers`/`outliers` refer to the input
/// span's order.
struct PositionEstimate {
  net::GeoPoint position{};
  /// Confidence radius: the prover is claimed to sit within radius_km of
  /// `position`. Grows with residual spread, so inconsistent measurements
  /// (a relayed prover) honestly report a loose fix.
  Kilometers radius_km{0.0};
  /// Residual-geometry error ellipse of the refit (see ErrorEllipse).
  ErrorEllipse ellipse{};
  std::vector<std::size_t> inliers;
  std::vector<std::size_t> outliers;
  Kilometers mean_abs_residual_km{0.0};
  Kilometers max_inlier_residual_km{0.0};
  /// True when a majority-consistent inlier set survived trimming.
  bool converged = false;
};

class Multilaterator {
 public:
  struct Options {
    /// Grid resolution and refinement depth of the coarse-to-fine search.
    unsigned grid = 32;
    unsigned refinements = 5;
    /// A vantage is trimmed when its residual exceeds
    /// max(min_trim, trim_factor · median residual, sigma_factor · sigma).
    double trim_factor = 3.0;
    Kilometers min_trim{150.0};
    double sigma_factor = 4.0;
    /// Trimming never drops the inlier set below
    /// ceil(min_inlier_fraction · n) — the 2f+1-of-3f+1 majority floor.
    double min_inlier_fraction = 2.0 / 3.0;
    /// Confidence-radius floor and multiplier over the inlier residual /
    /// sigma scale.
    Kilometers min_radius{25.0};
    double radius_factor = 1.5;
  };

  Multilaterator();
  explicit Multilaterator(Options options);

  /// Estimate from >= 3 vantage ranges. Throws InvalidArgument on fewer,
  /// or on any distance or sigma that is not finite and >= 0.
  PositionEstimate estimate(std::span<const VantageRange> ranges) const;

  const Options& options() const { return options_; }

 private:
  /// Least-quantile-of-squares fit at the majority floor, used inside the
  /// trim loop (the best position explaining a 2f+1-of-3f+1 majority).
  net::GeoPoint solve_robust(std::span<const VantageRange> ranges,
                             const std::vector<std::size_t>& active,
                             std::size_t min_inliers) const;
  /// Weighted least-squares refit on the final inlier set.
  net::GeoPoint solve_refine(std::span<const VantageRange> ranges,
                             const std::vector<std::size_t>& active) const;

  Options options_;
};

}  // namespace geoproof::locate
