// End-to-end tests of the sentinel-variant GeoProof (§IV's original
// Juels-Kaliski flavour under the timed protocol).
#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/provider.hpp"
#include "core/scheme.hpp"
#include "core/verifier.hpp"
#include "net/channel.hpp"

namespace geoproof::core {
namespace {

const Bytes kMaster = bytes_of("sentinel geoproof master");

/// TPA config for a device at `site`. The fixed nonce seed keeps the
/// issued nonces, and so every run of these cases, reproducible.
AuditorConfig sentinel_config(const VerifierDevice& verifier,
                              net::GeoPoint site, LatencyPolicy policy) {
  AuditorConfig cfg;
  cfg.master_key = kMaster;
  cfg.verifier_pk = verifier.public_key();
  cfg.expected_position = site;
  cfg.policy = policy;
  cfg.nonce_seed = 0x5e17;
  return cfg;
}

struct SentinelWorld {
  por::SentinelParams params{.block_size = 16, .n_sentinels = 200};
  SimClock clock;
  CloudProvider provider;
  std::unique_ptr<net::SimRequestChannel> channel;
  net::SimAuditTimer timer{clock};
  std::unique_ptr<VerifierDevice> verifier;
  std::unique_ptr<SentinelAuditScheme> auditor;
  FileRecord record;
  por::SentinelEncoded encoded;

  explicit SentinelWorld(net::GeoPoint site = {-27.47, 153.02})
      : provider(
            CloudProvider::Config{.name = "dc", .location = site},
            clock) {
    Rng rng(3);
    const por::SentinelPor por(params);
    encoded = por.encode(rng.next_bytes(40000), 9, kMaster);
    provider.store_blocks(9, encoded.blocks, params.block_size);
    record = SentinelAuditScheme::file_record(encoded);

    net::LanModelParams lan;
    channel = std::make_unique<net::SimRequestChannel>(
        clock, net::lan_latency(net::LanModel(lan), Kilometers{0.1}, 5),
        provider.handler());
    VerifierDevice::Config vcfg;
    vcfg.position = site;
    verifier = std::make_unique<VerifierDevice>(vcfg, *channel, timer);

    auditor = std::make_unique<SentinelAuditScheme>(
        sentinel_config(*verifier, site,
                        LatencyPolicy::for_disk(storage::wd2500jd())),
        params);
  }

  AuditReport run(unsigned count) {
    const AuditRequest request = auditor->make_request(record, count);
    const SignedTranscript transcript = verifier->run_audit(request);
    return auditor->verify(record, transcript);
  }
};

TEST(SentinelGeoProof, HonestProviderAccepted) {
  SentinelWorld world;
  const AuditReport report = world.run(20);
  EXPECT_TRUE(report.accepted) << report.summary();
  EXPECT_EQ(report.bad_tags, 0u);
}

TEST(SentinelGeoProof, SentinelsAreConsumed) {
  SentinelWorld world;
  EXPECT_EQ(world.auditor->sentinels_remaining(9), 200u);
  (void)world.run(20);
  EXPECT_EQ(world.auditor->sentinels_remaining(9), 180u);
  // Exhausting the supply throws.
  (void)world.run(180);
  EXPECT_EQ(world.auditor->sentinels_remaining(9), 0u);
  EXPECT_THROW(world.auditor->make_request(world.record, 1), CryptoError);
}

TEST(SentinelGeoProof, RepeatedAuditsUseFreshSentinels) {
  SentinelWorld world;
  const auto r1 = world.auditor->make_request(world.record, 5);
  const auto r2 = world.auditor->make_request(world.record, 5);
  // Different sentinels -> different positions (with overwhelming prob.).
  EXPECT_NE(r1.positions, r2.positions);
}

TEST(SentinelGeoProof, CorruptedSentinelBlockDetected) {
  SentinelWorld world;
  // Corrupt the blocks at the first few sentinel positions.
  const por::SentinelPor por(world.params);
  for (unsigned j = 0; j < 5; ++j) {
    const std::uint64_t pos =
        por.sentinel_position(world.encoded, kMaster, j);
    world.provider.tamper_segment(9, pos, 0xff);
  }
  const AuditReport report = world.run(5);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kTag));
  EXPECT_EQ(report.bad_tags, 5u);
}

TEST(SentinelGeoProof, BulkCorruptionHitsSentinels) {
  // The sentinel design's point: the provider cannot tell sentinels from
  // data, so corrupting 30% of blocks hits ~30% of challenged sentinels.
  SentinelWorld world;
  Rng rng(9);
  for (std::uint64_t i = 0; i < world.encoded.total_blocks; ++i) {
    if (rng.next_bool(0.3)) world.provider.tamper_segment(9, i, 0x55);
  }
  const AuditReport report = world.run(40);
  EXPECT_FALSE(report.accepted);
  EXPECT_GT(report.bad_tags, 3u);
  EXPECT_LT(report.bad_tags, 25u);
}

TEST(SentinelGeoProof, GpsSpoofDetected) {
  SentinelWorld world;
  world.verifier->gps().spoof({-33.87, 151.21});
  const AuditReport report = world.run(5);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kPosition));
}

TEST(SentinelGeoProof, ReplayRejected) {
  SentinelWorld world;
  const auto request = world.auditor->make_request(world.record, 5);
  const SignedTranscript transcript = world.verifier->run_audit(request);
  EXPECT_TRUE(world.auditor->verify(world.record, transcript).accepted);
  const AuditReport replay = world.auditor->verify(world.record, transcript);
  EXPECT_FALSE(replay.accepted);
  EXPECT_TRUE(replay.failed(AuditFailure::kNonceMismatch));
}

TEST(SentinelGeoProof, TimingStillEnforced) {
  // Same audit, but the provider's disk is replaced by an implausibly slow
  // budget: every round violates.
  SentinelWorld world;
  SentinelAuditScheme strict(
      sentinel_config(*world.verifier, {-27.47, 153.02},
                      LatencyPolicy{Millis{0.01}, Millis{0.01}, Millis{0}}),
      world.params);
  const auto request = strict.make_request(world.record, 5);
  const SignedTranscript transcript = world.verifier->run_audit(request);
  const AuditReport report = strict.verify(world.record, transcript);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kTiming));
}

TEST(SentinelGeoProof, ConfigValidated) {
  AuditorConfig cfg;
  cfg.master_key = {};
  EXPECT_THROW(SentinelAuditScheme(cfg, por::SentinelParams{}),
               InvalidArgument);
}

}  // namespace
}  // namespace geoproof::core
