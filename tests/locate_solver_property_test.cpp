// Property tests for the Byzantine-robust multilaterator: randomised
// synthetic geometries must be recovered within solver tolerance, and up
// to f materially-lying vantages out of 3f+1 must be ejected without
// dragging the estimate. A golden table pins the solver's exact answers
// on every one of those geometries plus a track-shaped fleet, so a faster
// kernel must reproduce the search, not just land near the truth.
#include "locate/multilaterate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <vector>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "geoloc/schemes.hpp"
#include "net/geo.hpp"

namespace geoproof::locate {
namespace {

using net::GeoPoint;
using net::haversine;

/// Solver tolerance for exact-distance inputs: the coarse-to-fine search
/// bottoms out well inside the default min_radius.
constexpr double kExactToleranceKm = 30.0;

struct Geometry {
  std::vector<VantageRange> ranges;
  GeoPoint truth;
};

/// Random fleet geometry with *exact* great-circle distances: `vantages`
/// spiral vantages around a random centre, the prover placed uniformly-ish
/// within the spread.
Geometry exact_geometry(Rng& rng, unsigned vantages, Kilometers spread) {
  Geometry g;
  const GeoPoint center{-40.0 + 30.0 * rng.next_double(),
                        110.0 + 40.0 * rng.next_double()};
  g.truth = net::destination(
      center, 360.0 * rng.next_double(),
      Kilometers{spread.value * 0.6 * rng.next_double()});
  for (const geoloc::Landmark& lm :
       geoloc::spiral_landmarks(center, spread, vantages)) {
    VantageRange r;
    r.vantage = lm;
    r.distance = haversine(lm.pos, g.truth);
    r.sigma = Kilometers{10.0};
    g.ranges.push_back(r);
  }
  return g;
}

// Each property's geometries come from one generator, so the golden table
// below replays exactly the inputs the property tests check.

std::vector<Geometry> exact_cases() {
  Rng rng(0x10ca7e01);
  std::vector<Geometry> out;
  for (unsigned trial = 0; trial < 20; ++trial) {
    const unsigned vantages = 6 + static_cast<unsigned>(rng.next_below(20));
    out.push_back(exact_geometry(rng, vantages, Kilometers{1800.0}));
  }
  return out;
}

struct LiarCase {
  unsigned f = 0;
  Geometry g;
  std::vector<std::size_t> liars;  // sorted
};

std::vector<LiarCase> liar_cases() {
  Rng rng(0x10ca7e02);
  std::vector<LiarCase> out;
  for (const unsigned f : {1u, 2u, 4u, 6u}) {
    const unsigned n = 3 * f + 1;
    LiarCase c;
    c.f = f;
    c.g = exact_geometry(rng, n, Kilometers{2000.0});
    // f liars, spread across the fleet, each materially wrong: the lie
    // displaces the claimed distance by 900-2400 km, flipped outward when
    // shrinking would bottom out near zero (a lie the geometry cannot
    // distinguish from a nearby prover is not material).
    for (unsigned k = 0; k < f; ++k) {
      const std::size_t liar = (k * 3 + 1) % n;
      double shift =
          (rng.next_bool() ? 1.0 : -1.0) * (900.0 + 1500.0 * rng.next_double());
      if (c.g.ranges[liar].distance.value + shift < 50.0) shift = -shift;
      c.g.ranges[liar].distance =
          Kilometers{c.g.ranges[liar].distance.value + shift};
      c.liars.push_back(liar);
    }
    std::sort(c.liars.begin(), c.liars.end());
    out.push_back(std::move(c));
  }
  return out;
}

/// f = 3, n = 3f+1, with 2f+1 liars: a coordinated majority pushing a
/// fake position. (An attacker controlling a majority wins any quorum
/// system; the solver's job is to never *reject honest vantages* to please
/// them beyond the floor.)
Geometry lying_majority_case() {
  Rng rng(0x10ca7e03);
  const unsigned f = 3;
  Geometry g = exact_geometry(rng, 3 * f + 1, Kilometers{2000.0});
  for (unsigned k = 0; k < 2 * f + 1; ++k) {
    g.ranges[k].distance = Kilometers{g.ranges[k].distance.value + 2500.0};
  }
  return g;
}

struct RelayCase {
  Geometry g;
  double relay_km = 0.0;
};

std::vector<RelayCase> relay_cases() {
  Rng rng(0x10ca7e04);
  std::vector<RelayCase> out;
  for (unsigned trial = 0; trial < 5; ++trial) {
    RelayCase c;
    c.g = exact_geometry(rng, 16, Kilometers{1500.0});
    c.relay_km = 800.0 + 1200.0 * rng.next_double();
    for (VantageRange& r : c.g.ranges) {
      r.distance = Kilometers{r.distance.value + c.relay_km};
    }
    out.push_back(std::move(c));
  }
  return out;
}

std::vector<Geometry> antimeridian_cases() {
  Rng rng(0x10ca7e05);
  std::vector<Geometry> out;
  for (unsigned trial = 0; trial < 5; ++trial) {
    Geometry g;
    const GeoPoint center{-20.0 + 10.0 * rng.next_double(), 179.0};
    g.truth = net::destination(center, 360.0 * rng.next_double(),
                               Kilometers{700.0 * rng.next_double()});
    for (const geoloc::Landmark& lm :
         geoloc::spiral_landmarks(center, Kilometers{1500.0}, 12)) {
      VantageRange r;
      r.vantage = lm;
      r.distance = haversine(lm.pos, g.truth);
      r.sigma = Kilometers{10.0};
      g.ranges.push_back(r);
    }
    out.push_back(std::move(g));
  }
  return out;
}

/// The continuous-tracking shape: 8 spiral vantages at 1500 km around
/// Brisbane, the prover at the 8th of 16 spiral homes within 400 km, and
/// vantage 2 lying +530 km (an 8 ms RTT inflation at 0.015 ms/km).
Geometry track_case() {
  const GeoPoint center = net::places::brisbane();
  Geometry g;
  g.truth = geoloc::spiral_landmarks(center, Kilometers{400.0}, 16, "home")[7]
                .pos;
  for (const geoloc::Landmark& lm :
       geoloc::spiral_landmarks(center, Kilometers{1500.0}, 8)) {
    VantageRange r;
    r.vantage = lm;
    r.distance = haversine(lm.pos, g.truth);
    r.sigma = Kilometers{15.0};
    g.ranges.push_back(r);
  }
  g.ranges[2].distance = Kilometers{g.ranges[2].distance.value + 530.0};
  return g;
}

TEST(MultilateratorProperty, RecoversExactGeometries) {
  const Multilaterator solver;
  const std::vector<Geometry> cases = exact_cases();
  for (unsigned trial = 0; trial < cases.size(); ++trial) {
    const Geometry& g = cases[trial];
    const PositionEstimate est = solver.estimate(g.ranges);
    EXPECT_TRUE(est.converged) << "trial " << trial;
    EXPECT_TRUE(est.outliers.empty()) << "trial " << trial;
    EXPECT_LT(haversine(est.position, g.truth).value, kExactToleranceKm)
        << "trial " << trial << " with " << g.ranges.size() << " vantages";
  }
}

TEST(MultilateratorProperty, RejectsUpToFLiarsOfThreeFPlusOne) {
  const Multilaterator solver;
  for (const LiarCase& c : liar_cases()) {
    const unsigned f = c.f;
    const unsigned n = 3 * f + 1;
    const PositionEstimate est = solver.estimate(c.g.ranges);
    EXPECT_TRUE(est.converged) << "f=" << f;
    EXPECT_EQ(est.outliers, c.liars) << "f=" << f;
    EXPECT_EQ(est.inliers.size(), n - f) << "f=" << f;
    EXPECT_LT(haversine(est.position, c.g.truth).value, kExactToleranceKm)
        << "f=" << f;
  }
}

TEST(MultilateratorProperty, MajorityFloorStopsTrimming) {
  // More than f liars of 3f+1: the solver must refuse to trim past the
  // 2f+1 majority floor rather than distrust an honest majority. With the
  // liars in the majority's tolerance band broken, the estimate may be
  // wrong — but it must say so via converged = false or surviving
  // outlier-sized residuals, never silently trim to a lying minority.
  const Multilaterator solver;
  const Geometry g = lying_majority_case();
  const std::size_t n = g.ranges.size();
  const PositionEstimate est = solver.estimate(g.ranges);
  const std::size_t min_inliers = static_cast<std::size_t>(
      std::ceil(solver.options().min_inlier_fraction * n));
  EXPECT_GE(est.inliers.size(), min_inliers);
  // The fleet is inconsistent beyond repair: the answer cannot be a
  // confident small-radius fix.
  EXPECT_FALSE(est.converged && est.radius_km.value <
                   solver.options().min_radius.value + 1.0);
}

TEST(MultilateratorProperty, RelayedDistancesInflateTheRadius) {
  // A prover-side relay inflates every distance consistently: there is no
  // lying *minority* to eject, so the honest majority must survive and the
  // inconsistency must surface as an inflated confidence radius (never a
  // tight fix on a wrong position).
  const Multilaterator solver;
  const std::vector<RelayCase> cases = relay_cases();
  for (unsigned trial = 0; trial < cases.size(); ++trial) {
    const Geometry& g = cases[trial].g;
    const double relay_km = cases[trial].relay_km;
    const PositionEstimate est = solver.estimate(g.ranges);
    const std::size_t min_inliers = static_cast<std::size_t>(
        std::ceil(solver.options().min_inlier_fraction * g.ranges.size()));
    EXPECT_GE(est.inliers.size(), min_inliers) << "trial " << trial;
    // The flag: an order of magnitude above an honest fix's radius, and a
    // substantial fraction of the injected relay leg. (A constrained fit
    // can cancel part of a *consistent* inflation by drifting to the
    // coverage margin — what it can never do is produce an honest-looking
    // tight radius.)
    EXPECT_GT(est.radius_km.value, 4.0 * solver.options().min_radius.value)
        << "trial " << trial;
    EXPECT_GT(est.radius_km.value, relay_km * 0.25) << "trial " << trial;
  }
}

TEST(MultilateratorProperty, FleetStraddlingTheAntimeridianStillResolves) {
  // Vantages either side of lon 180: the coverage box must span the ~real
  // hull (unwrapped longitudes), not a 360-degree band, and the estimate
  // must come back normalised to [-180, 180).
  const Multilaterator solver;
  const std::vector<Geometry> cases = antimeridian_cases();
  for (unsigned trial = 0; trial < cases.size(); ++trial) {
    const Geometry& g = cases[trial];
    const PositionEstimate est = solver.estimate(g.ranges);
    EXPECT_TRUE(est.converged) << "trial " << trial;
    EXPECT_LT(haversine(est.position, g.truth).value, kExactToleranceKm)
        << "trial " << trial;
    EXPECT_GE(est.position.lon_deg, -180.0) << "trial " << trial;
    EXPECT_LT(est.position.lon_deg, 180.0) << "trial " << trial;
  }
}

TEST(MultilateratorProperty, InputValidation) {
  const Multilaterator solver;
  std::vector<VantageRange> two(2);
  EXPECT_THROW(solver.estimate(two), InvalidArgument);

  Multilaterator::Options bad;
  bad.min_inlier_fraction = 0.4;  // minority-consistent estimates forbidden
  EXPECT_THROW(Multilaterator{bad}, InvalidArgument);
  Multilaterator::Options tiny;
  tiny.grid = 2;
  EXPECT_THROW(Multilaterator{tiny}, InvalidArgument);
}

TEST(MultilateratorProperty, RejectsNonFiniteOrNegativeRanges) {
  // A NaN range (NaN RTTs through the delay model) would otherwise pull
  // the fix to the grid corner with nobody trimmed; a negative one is no
  // distance at all.
  const Multilaterator solver;
  const std::vector<VantageRange> good = track_case().ranges;
  ASSERT_NO_THROW(solver.estimate(good));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double v : {nan, inf, -1.0}) {
    std::vector<VantageRange> ranges = good;
    ranges[3].distance = Kilometers{v};
    EXPECT_THROW(solver.estimate(ranges), InvalidArgument) << v;
    ranges = good;
    ranges[3].sigma = Kilometers{v};
    EXPECT_THROW(solver.estimate(ranges), InvalidArgument) << v;
  }
}

// ---------------------------------------------------------------------------
// Golden answers: every geometry above, in generator order, then the
// track-shaped fleet. Recorded from the haversine-per-evaluation grid
// search; any kernel must reproduce the same grid, beam and refinement, so
// the inlier/outlier split must match exactly and the position to 1e-6°.
// ---------------------------------------------------------------------------

struct GoldenFix {
  double lat_deg;
  double lon_deg;
  double radius_km;
  bool converged;
  /// Indices ejected; every other index must be an inlier, in input order.
  std::vector<std::size_t> outliers;
};

// clang-format off
const GoldenFix kGolden[] = {
    {-18.687840092286, 139.369782568752, 25.000000, true, {}},
    {-31.536207061341, 140.446738017593, 25.000000, true, {}},
    {-27.479361284508, 116.004928150724, 25.000000, true, {}},
    {-18.943153095258, 154.765996055187, 25.000000, true, {}},
    {-18.332024232418, 137.980358776903, 25.000000, true, {}},
    {-32.262138477015, 133.036418508364, 25.000000, true, {}},
    {-18.433158740930, 116.714917316924, 25.000000, true, {}},
    {-25.569350423311, 145.496851525239, 25.000000, true, {}},
    {-33.143323210530, 141.831916712636, 25.000000, true, {}},
    {-7.979695448073, 145.555592643564, 25.000000, true, {}},
    {-36.489515659200, 134.781413325843, 25.000000, true, {}},
    {-34.156821697816, 113.822125707321, 25.000000, true, {}},
    {-8.840300766031, 151.072555384147, 25.000000, true, {}},
    {-17.053819243407, 127.960402185076, 25.000000, true, {}},
    {-37.159691631187, 149.330412418765, 25.000000, true, {}},
    {-21.525733091988, 122.832019627753, 25.000000, true, {}},
    {-17.107827665275, 127.768256307216, 25.000000, true, {}},
    {-12.652478215559, 124.036327580847, 25.000000, true, {}},
    {-26.964753863250, 113.234219279977, 25.000000, true, {}},
    {-19.339357469607, 123.301251490714, 25.000000, true, {}},
    {-30.590092112919, 150.538911184743, 25.000000, true, {1}},
    {-20.829697917590, 123.732649550795, 25.000000, true, {1, 4}},
    {-25.977703588576, 134.499483304337, 25.000000, true, {1, 4, 7, 10}},
    {-12.055614993446, 142.358265524872, 25.000000, true, {1, 4, 7, 10, 13, 16}},
    {-28.585956793300, 98.244308352012, 1943.506007, true, {8, 9}},
    {-36.185895286139, 164.473188871726, 1441.347040, true, {9, 12, 14}},
    {-31.100880001090, 130.902697952633, 1558.405053, true, {11, 14, 15}},
    {-20.741527895506, 159.942554431386, 1294.994555, true, {9, 11, 12, 14}},
    {-28.992742834386, 110.844581933561, 895.752882, false, {8, 10, 11, 13, 15}},
    {-15.013897354779, 140.631438396552, 1211.950788, false, {7, 10, 12, 13, 15}},
    {-13.180115009907, -177.658999628079, 25.000000, true, {}},
    {-10.069332180914, -179.832437014292, 25.000000, true, {}},
    {-10.373079700809, 178.910706182827, 25.000000, true, {}},
    {-16.506184668757, 179.847799055953, 25.000000, true, {}},
    {-24.188919118511, 178.778079133980, 25.000000, true, {}},
    {-28.362107020198, 151.041847086419, 25.000000, true, {2}},
};
// clang-format on

std::vector<std::vector<VantageRange>> golden_inputs() {
  std::vector<std::vector<VantageRange>> out;
  for (Geometry& g : exact_cases()) out.push_back(std::move(g.ranges));
  for (LiarCase& c : liar_cases()) out.push_back(std::move(c.g.ranges));
  out.push_back(lying_majority_case().ranges);
  for (RelayCase& c : relay_cases()) out.push_back(std::move(c.g.ranges));
  for (Geometry& g : antimeridian_cases()) out.push_back(std::move(g.ranges));
  out.push_back(track_case().ranges);
  return out;
}

TEST(MultilateratorGolden, AnswersMatchTheRecordedSearch) {
  const Multilaterator solver;
  const std::vector<std::vector<VantageRange>> inputs = golden_inputs();
  ASSERT_EQ(inputs.size(), std::size(kGolden));
  for (std::size_t c = 0; c < inputs.size(); ++c) {
    const GoldenFix& want = kGolden[c];
    const PositionEstimate est = solver.estimate(inputs[c]);
    EXPECT_NEAR(est.position.lat_deg, want.lat_deg, 1e-6) << "case " << c;
    EXPECT_NEAR(est.position.lon_deg, want.lon_deg, 1e-6) << "case " << c;
    EXPECT_NEAR(est.radius_km.value, want.radius_km, 1e-3) << "case " << c;
    EXPECT_EQ(est.converged, want.converged) << "case " << c;
    EXPECT_EQ(est.outliers, want.outliers) << "case " << c;
    std::vector<std::size_t> inliers;
    for (std::size_t i = 0; i < inputs[c].size(); ++i) {
      if (std::find(want.outliers.begin(), want.outliers.end(), i) ==
          want.outliers.end()) {
        inliers.push_back(i);
      }
    }
    EXPECT_EQ(est.inliers, inliers) << "case " << c;
  }
}

}  // namespace
}  // namespace geoproof::locate
