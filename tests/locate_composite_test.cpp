// Composite audits: GeoProof + landmark triangulation of the device (§V-C),
// solved by the fleet's trimmed Multilaterator.
#include "locate/composite.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/errors.hpp"
#include "common/rng.hpp"

namespace geoproof::locate {
namespace {

using core::AuditFailure;
using core::DeploymentConfig;
using core::FileRecord;
using core::SimulatedDeployment;
using net::GeoPoint;

DeploymentConfig fast_config(net::GeoPoint site) {
  DeploymentConfig cfg;
  cfg.por.ecc_data_blocks = 48;
  cfg.por.ecc_parity_blocks = 16;
  cfg.provider.location = site;
  cfg.verifier.signer_height = 4;
  return cfg;
}

struct Fixture {
  SimulatedDeployment world;
  FileRecord record;
  explicit Fixture(net::GeoPoint site = net::places::brisbane())
      : world(fast_config(site)) {
    Rng rng(5);
    record = world.upload(rng.next_bytes(30000), 1);
  }
};

bool names(const std::vector<std::string>& list, const std::string& name) {
  return std::find(list.begin(), list.end(), name) != list.end();
}

TEST(MultiAuditor, HonestDeviceConsistent) {
  Fixture f;
  MultiAuditor multi({});
  const CompositeReport report = multi.audit(f.world, f.record, 10);
  EXPECT_TRUE(report.accepted) << report.summary();
  EXPECT_TRUE(report.geoproof.accepted);
  EXPECT_TRUE(report.triangulation.consistent);
  EXPECT_LT(report.triangulation.discrepancy.value, 250.0);
}

TEST(MultiAuditor, GpsSpoofCaughtTwice) {
  // The device physically sits in Brisbane but its GPS is spoofed to claim
  // Perth. The plain position check fails (claim != contract) AND the
  // triangulation disagrees with the claim.
  Fixture f;
  f.world.verifier().gps().spoof(net::places::perth());
  MultiAuditor multi({});
  const CompositeReport report = multi.audit(f.world, f.record, 10);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.geoproof.failed(AuditFailure::kPosition));
  EXPECT_FALSE(report.triangulation.consistent);
  EXPECT_GT(report.triangulation.discrepancy.value, 2000.0);
}

TEST(MultiAuditor, SpoofMatchingContractStillCaughtByTriangulation) {
  // Subtler attack: the provider moved the device (and data) to Perth but
  // spoofs the GPS to claim Brisbane - the contract site. The plain GPS
  // check now *passes*; only triangulation exposes the lie.
  Fixture f(net::places::brisbane());
  // Physically relocate the device: rebuild the world with the device's
  // true position in Perth but contract/expectation in Brisbane.
  DeploymentConfig cfg = fast_config(net::places::brisbane());
  cfg.verifier.position = net::places::perth();
  SimulatedDeployment world(cfg);
  Rng rng(6);
  const auto record = world.upload(rng.next_bytes(30000), 1);
  world.verifier().gps().spoof(net::places::brisbane());

  MultiAuditor multi({});
  const CompositeReport report = multi.audit(world, record, 10);
  // The naked GeoProof position check is fooled...
  EXPECT_FALSE(report.geoproof.failed(AuditFailure::kPosition));
  // ...but the landmark triangulation is not.
  EXPECT_FALSE(report.triangulation.consistent);
  EXPECT_FALSE(report.accepted);
}

TEST(MultiAuditor, PathDelaysCannotManufactureConsistency) {
  // §V-C's caveat: the provider controls the device's network and can
  // delay specific auditor paths. Delays inflate distances - they can
  // never make a Perth device triangulate to Brisbane.
  DeploymentConfig cfg = fast_config(net::places::brisbane());
  cfg.verifier.position = net::places::perth();
  SimulatedDeployment world(cfg);
  Rng rng(7);
  const auto record = world.upload(rng.next_bytes(30000), 1);
  world.verifier().gps().spoof(net::places::brisbane());

  MultiAuditor multi({});
  // Try delaying the probes from the landmarks nearest the true location,
  // hoping to "push" the fix east.
  multi.set_path_delay("Perth", Millis{60.0});
  multi.set_path_delay("Adelaide", Millis{40.0});
  const CompositeReport report = multi.audit(world, record, 10);
  EXPECT_FALSE(report.triangulation.consistent);
  EXPECT_FALSE(report.accepted);
}

TEST(MultiAuditor, PathDelaysCanOnlyHurtHonestDevices) {
  // Against an honest device, inserted delays are an availability attack:
  // they may break the consistency check, but never produce a false
  // "device is elsewhere and fine" acceptance.
  Fixture f;
  MultiAuditor multi({});
  multi.set_path_delay("Brisbane", Millis{80.0});
  multi.set_path_delay("Sydney", Millis{80.0});
  const CompositeReport report = multi.audit(f.world, f.record, 10);
  // GeoProof itself (LAN-side timing) is unaffected by auditor-path games.
  EXPECT_TRUE(report.geoproof.accepted);
  // The triangulation may or may not survive; what must never happen is a
  // consistent fix far from the true site.
  if (report.triangulation.consistent) {
    EXPECT_LT(report.triangulation.discrepancy.value, 250.0);
  }
  // The verdict names the delayed path the solver trimmed.
  EXPECT_TRUE(names(report.triangulation.trimmed, "Brisbane"))
      << report.summary();
}

TEST(MultiAuditor, DelayedMajorityCannotPassSydneyAsBrisbane) {
  // The provider controls every path to the device, not just a minority.
  // Device in Sydney, GPS spoofed to the Brisbane contract site: the five
  // paths from landmarks nearer Sydney are delayed until each RTT matches
  // that landmark's distance to Brisbane, so six of eight ranges fit the
  // claim. The Brisbane and Townsville ranges cannot be shortened, and
  // two disputing landmarks are more than one delayed path explains.
  DeploymentConfig cfg = fast_config(net::places::brisbane());
  cfg.verifier.position = net::places::sydney();
  SimulatedDeployment world(cfg);
  Rng rng(8);
  const auto record = world.upload(rng.next_bytes(30000), 1);
  world.verifier().gps().spoof(net::places::brisbane());

  MultiAuditor multi({});
  const net::InternetModel internet = MultiAuditor::Config{}.internet;
  for (const geoloc::Landmark& lm : geoloc::australian_landmarks()) {
    const Millis to_claim =
        internet.rtt(net::haversine(lm.pos, net::places::brisbane()));
    const Millis honest =
        internet.rtt(net::haversine(lm.pos, net::places::sydney()));
    if (to_claim > honest) multi.set_path_delay(lm.name, to_claim - honest);
  }
  const CompositeReport report = multi.audit(world, record, 10);
  EXPECT_FALSE(report.geoproof.failed(AuditFailure::kPosition));
  EXPECT_FALSE(report.triangulation.consistent) << report.summary();
  EXPECT_FALSE(report.accepted);

  // Dropping the Brisbane probe outright (an infinite delay) turns one
  // disputing range into an unusable one; it still counts.
  multi.set_path_delay(
      "Brisbane", Millis{std::numeric_limits<double>::infinity()});
  const CompositeReport dropped = multi.audit(world, record, 10);
  EXPECT_EQ(dropped.triangulation.unusable,
            std::vector<std::string>{"Brisbane"});
  EXPECT_FALSE(dropped.triangulation.consistent) << dropped.summary();
}

TEST(MultiAuditor, DegenerateLandmarkSetsAreInconsistentNotFatal) {
  // No two distinct landmarks: nothing to calibrate over and fewer than 3
  // ranges, so the check answers "inconsistent" instead of throwing.
  Fixture f;
  for (const std::size_t n : {0u, 1u}) {
    MultiAuditor::Config config;
    config.landmarks.resize(n);
    MultiAuditor multi(config);
    const CompositeReport report = multi.audit(f.world, f.record, 10);
    EXPECT_FALSE(report.triangulation.consistent);
    EXPECT_TRUE(std::isinf(report.triangulation.discrepancy.value));
  }
}

TEST(MultiAuditor, DelayValidation) {
  MultiAuditor multi({});
  EXPECT_THROW(multi.set_path_delay("Perth", Millis{-1.0}), InvalidArgument);
  multi.set_path_delay("Perth", Millis{10.0});
  multi.set_path_delay("Perth", Millis{0.0});  // clears
  SUCCEED();
}

net::InternetModel clean_model() {
  net::InternetModelParams p;
  p.jitter_stddev_ms = 0;
  return net::InternetModel(p);
}

// The Internet model is linear, so any calibration ladder fits it exactly;
// 4000 km spans the landmarks' widest pair, as MultiAuditor's does.
DelayModel calibrated(const net::InternetModel& internet) {
  return DelayModel::from_internet_model(internet, Kilometers{4000.0});
}

DelayModel clean_delay_model() { return calibrated(clean_model()); }

TEST(Triangulation, ConfirmsHonestClaim) {
  // Device really is in Brisbane and claims Brisbane: landmark delays
  // triangulate consistently.
  const GeoPoint truth = net::places::brisbane();
  const auto check = verify_position_by_triangulation(
      truth, geoloc::australian_landmarks(),
      geoloc::honest_probe(clean_model(), truth), clean_delay_model(),
      Kilometers{200.0});
  EXPECT_TRUE(check.consistent);
  EXPECT_LT(check.discrepancy.value, 200.0);
}

TEST(Triangulation, ExposesSpoofedGps) {
  // §V-C: the GPS says Brisbane but the device actually sits in Perth;
  // delay triangulation from independent landmarks pins it near Perth and
  // the claim fails.
  const GeoPoint actual = net::places::perth();
  const GeoPoint claimed = net::places::brisbane();
  const auto check = verify_position_by_triangulation(
      claimed, geoloc::australian_landmarks(),
      geoloc::honest_probe(clean_model(), actual), clean_delay_model(),
      Kilometers{200.0});
  EXPECT_FALSE(check.consistent);
  EXPECT_GT(check.discrepancy.value, 2000.0);
}

TEST(Triangulation, ProviderDelayOnlyHurtsItself) {
  // The provider controls the network around the device and can add delay
  // to the landmark probes - but padding makes the device look *farther*
  // from every landmark, never closer to the claimed site, so it cannot
  // manufacture consistency for a false claim.
  const GeoPoint actual = net::places::perth();
  const GeoPoint claimed = net::places::brisbane();
  const auto padded = geoloc::delay_padded_probe(
      geoloc::honest_probe(clean_model(), actual), Millis{30.0});
  const auto check = verify_position_by_triangulation(
      claimed, geoloc::australian_landmarks(), padded, clean_delay_model(),
      Kilometers{200.0});
  EXPECT_FALSE(check.consistent);
}

// The default-model world MultiAuditor runs in, probed directly so one
// landmark path at a time can be tampered with.
struct ProbeWorld {
  net::InternetModel internet{net::InternetModelParams{}};
  std::vector<geoloc::Landmark> landmarks = geoloc::australian_landmarks();
  DelayModel model = calibrated(internet);

  /// Honest probe of `actual`, with `extra` added on the named paths.
  geoloc::RttProbe probe(GeoPoint actual, std::vector<std::string> delayed,
                         Millis extra) const {
    return [inner = geoloc::honest_probe(internet, actual),
            delayed = std::move(delayed), extra](const geoloc::Landmark& lm) {
      return names(delayed, lm.name) ? inner(lm) + extra : inner(lm);
    };
  }

  /// The all-path attacker: a device at `actual` whose every path is
  /// delayed until its RTT matches `claimed` wherever delay can (it cannot
  /// shorten a path).
  geoloc::RttProbe delayed_to_claim(GeoPoint actual, GeoPoint claimed) const {
    return [this, actual, claimed](const geoloc::Landmark& lm) {
      return std::max(internet.rtt(net::haversine(lm.pos, actual)),
                      internet.rtt(net::haversine(lm.pos, claimed)));
    };
  }

  TriangulationCheck check(GeoPoint claimed,
                           const geoloc::RttProbe& probe) const {
    return verify_position_by_triangulation(claimed, landmarks, probe, model,
                                            Kilometers{250.0});
  }
};

TEST(Triangulation, UnusableRttIsDroppedNotFatal) {
  // One landmark's probe answers NaN, or +inf: the range fails
  // VantageRange::solvable(), so that landmark is dropped and the other
  // seven still confirm the honest device.
  const ProbeWorld w;
  const GeoPoint brisbane = net::places::brisbane();
  const auto honest = w.probe(brisbane, {}, Millis{0});
  const struct {
    std::string landmark;
    double rtt_ms;
  } cases[] = {{"Sydney", std::numeric_limits<double>::quiet_NaN()},
               {"Perth", std::numeric_limits<double>::infinity()}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.landmark);
    const geoloc::RttProbe probe = [&](const geoloc::Landmark& lm) {
      return lm.name == c.landmark ? Millis{c.rtt_ms} : honest(lm);
    };
    const TriangulationCheck check = w.check(brisbane, probe);
    EXPECT_TRUE(check.consistent);
    EXPECT_LT(check.discrepancy.value, 250.0);
    EXPECT_EQ(check.unusable, std::vector<std::string>{c.landmark});
  }
}

TEST(Triangulation, TooFewUsableRangesIsInconsistent) {
  const ProbeWorld w;
  const geoloc::RttProbe dead = [](const geoloc::Landmark&) {
    return Millis{std::numeric_limits<double>::quiet_NaN()};
  };
  const TriangulationCheck check = w.check(net::places::brisbane(), dead);
  EXPECT_FALSE(check.consistent);
  EXPECT_TRUE(std::isinf(check.discrepancy.value));
  EXPECT_EQ(check.unusable.size(), w.landmarks.size());
}

TEST(Triangulation, DelayedPairsNeverPlaceRelocatedDeviceAtClaim) {
  // §V-C delay insertion against relocation: the device sits in Perth and
  // claims Brisbane. Delaying any two landmark paths never makes the fix
  // consistent with the claim.
  const ProbeWorld w;
  for (std::size_t a = 0; a < w.landmarks.size(); ++a) {
    for (std::size_t b = a + 1; b < w.landmarks.size(); ++b) {
      for (const double ms : {60.0, 300.0}) {
        const auto probe =
            w.probe(net::places::perth(),
                    {w.landmarks[a].name, w.landmarks[b].name}, Millis{ms});
        const TriangulationCheck check =
            w.check(net::places::brisbane(), probe);
        EXPECT_FALSE(check.consistent)
            << w.landmarks[a].name << "+" << w.landmarks[b].name << " +"
            << ms << "ms: discrepancy " << check.discrepancy.value << "km";
      }
    }
  }
}

TEST(Triangulation, DelayHidesAtMostOneDisputingLandmark) {
  // A device at one landmark city claims another, every path delayed by
  // the all-path attacker. Acceptance requires that at most one landmark
  // is more than the tolerance farther from the device than from the
  // claim (Melbourne claiming Hobart is such a case: it looks exactly like
  // an honest Hobart device with its Hobart path delayed).
  const ProbeWorld w;
  for (const geoloc::Landmark& device : w.landmarks) {
    for (const geoloc::Landmark& claim : w.landmarks) {
      if (device.name == claim.name) continue;
      const auto probe = w.delayed_to_claim(device.pos, claim.pos);
      int farther = 0;
      for (const geoloc::Landmark& lm : w.landmarks) {
        farther += net::haversine(lm.pos, device.pos).value -
                       net::haversine(lm.pos, claim.pos).value >
                   250.0;
      }
      const TriangulationCheck check = w.check(claim.pos, probe);
      EXPECT_TRUE(!check.consistent || farther <= 1)
          << device.name << " claiming " << claim.name << ": " << farther
          << " landmarks farther, discrepancy " << check.discrepancy.value
          << "km";
    }
  }
}

TEST(Triangulation, InlandDevicesCannotPassAsBrisbane) {
  // Two inland devices claim Brisbane under the all-path attacker; each
  // is caught by a different half of the dispute count. At (-26°, 146°)
  // the solver trims only Brisbane, but two ranges lie more than the
  // tolerance beyond their claim distance; at (-31°, 148°) only one range
  // does and the fix lands on Brisbane, but the solver trims two.
  const ProbeWorld w;
  const GeoPoint brisbane = net::places::brisbane();
  for (const GeoPoint device :
       {GeoPoint{-26.0, 146.0}, GeoPoint{-31.0, 148.0}}) {
    const TriangulationCheck check =
        w.check(brisbane, w.delayed_to_claim(device, brisbane));
    EXPECT_FALSE(check.consistent)
        << device.lat_deg << "," << device.lon_deg << ": discrepancy "
        << check.discrepancy.value << "km";
  }
}

TEST(Triangulation, OneDelayedPathCannotBreakHonestDevice) {
  // §V-C delay insertion against an honest Brisbane device: one delayed
  // landmark path is trimmed as an outlier and the check still holds.
  const ProbeWorld w;
  for (const geoloc::Landmark& lm : w.landmarks) {
    for (const double ms : {10.0, 20.0, 40.0, 60.0, 120.0, 300.0}) {
      const GeoPoint brisbane = net::places::brisbane();
      const TriangulationCheck check =
          w.check(brisbane, w.probe(brisbane, {lm.name}, Millis{ms}));
      EXPECT_TRUE(check.consistent && check.discrepancy.value < 250.0)
          << lm.name << " +" << ms << "ms: discrepancy "
          << check.discrepancy.value << "km";
    }
  }
}

}  // namespace
}  // namespace geoproof::locate
