// Composite audits: GeoProof + landmark triangulation of the device (§V-C).
#include "core/multi_auditor.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/rng.hpp"

namespace geoproof::core {
namespace {

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
}

TEST(MultiAuditor, DelayValidation) {
  MultiAuditor multi({});
  EXPECT_THROW(multi.set_path_delay("Perth", Millis{-1.0}), InvalidArgument);
  multi.set_path_delay("Perth", Millis{10.0});
  multi.set_path_delay("Perth", Millis{0.0});  // clears
  SUCCEED();
}

}  // namespace
}  // namespace geoproof::core
