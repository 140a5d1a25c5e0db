// End-to-end GeoProof protocol tests over the simulated deployment:
// the honest path and every §V attack scenario.
#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/deployment.hpp"

namespace geoproof::core {
namespace {

DeploymentConfig fast_config() {
  DeploymentConfig cfg;
  // Small ECC geometry: encoding stays fast while every pipeline property
  // holds; the paper-scale geometry is covered by por tests and benches.
  cfg.por.ecc_data_blocks = 48;
  cfg.por.ecc_parity_blocks = 16;
  cfg.por.tag.tag_bits = 20;  // paper's tag width
  cfg.provider.location = {-27.47, 153.02};  // Brisbane data centre
  cfg.provider.name = "bne-dc1";
  cfg.verifier.signer_height = 5;  // 32 audits: plenty per test, fast setup
  return cfg;
}

Bytes test_file(std::size_t size, std::uint64_t seed = 1) {
  Rng rng(seed);
  return rng.next_bytes(size);
}

TEST(GeoProofProtocol, HonestProviderAccepted) {
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  const AuditReport report = world.run_audit(record, 20);
  EXPECT_TRUE(report.accepted) << report.summary();
  EXPECT_EQ(report.bad_tags, 0u);
  EXPECT_EQ(report.timing_violations, 0u);
  // RTTs are LAN + one disk look-up: inside the calibrated budget, above
  // the bare LAN time.
  EXPECT_LT(report.max_rtt.count(),
            world.scheme().policy().max_round_trip().count());
  EXPECT_GT(report.max_rtt.count(), 1.0);
}

TEST(GeoProofProtocol, RepeatedAuditsAllPass) {
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  for (int i = 0; i < 10; ++i) {
    const AuditReport report = world.run_audit(record, 10);
    EXPECT_TRUE(report.accepted) << "audit " << i << ": " << report.summary();
  }
}

TEST(GeoProofProtocol, CorruptedSegmentsCaughtByTags) {
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  Rng rng(7);
  // Corrupt 30% of segments: a 20-segment challenge virtually always hits.
  const unsigned corrupted = world.provider().corrupt_segments(1, 0.30, rng);
  ASSERT_GT(corrupted, 0u);
  const AuditReport report = world.run_audit(record, 20);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kTag)) << report.summary();
  EXPECT_GT(report.bad_tags, 0u);
}

TEST(GeoProofProtocol, SingleTamperedSegmentCaughtWhenChallenged) {
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  world.provider().tamper_segment(1, 3, 0xff);
  // Challenge every segment: the damaged one must be challenged and fail.
  const AuditReport report =
      world.run_audit(record, static_cast<std::uint32_t>(record.n_segments));
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.bad_tags, 1u);
}

TEST(GeoProofProtocol, RelayToFarDataCentreCaughtByTiming) {
  // Fig. 6 with a distant P~: Brisbane -> Sydney (~730 km) far exceeds the
  // calibrated budget even with the fastest disk.
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  world.deploy_remote_relay(1, Kilometers{730.0}, storage::ibm36z15());
  const AuditReport report = world.run_audit(record, 20);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kTiming)) << report.summary();
  // Tags are fine - the data is intact, just in the wrong place.
  EXPECT_EQ(report.bad_tags, 0u);
  EXPECT_GT(report.max_rtt.count(),
            world.scheme().policy().max_round_trip().count());
}

TEST(GeoProofProtocol, VeryNearRelayInsideBoundEvadesTiming) {
  // GeoProof bounds distance, it does not pinpoint: a relay to a data
  // centre *inside* the budget radius (§V-C(b)'s ~360 km with the fastest
  // disk; ~290 km under this budget/Internet model) is indistinguishable
  // from a slow local disk. Deterministic latencies make the boundary
  // crisp.
  DeploymentConfig cfg = fast_config();
  cfg.provider.sample_disk_latency = false;
  cfg.lan_jitter_seed = 0;
  cfg.internet.jitter_stddev_ms = 0;
  cfg.internet_jitter_seed = 0;
  SimulatedDeployment world(cfg);
  const auto record = world.upload(test_file(40000), 1);
  world.deploy_remote_relay(1, Kilometers{50.0}, storage::ibm36z15());
  const AuditReport in_bound = world.run_audit(record, 20);
  EXPECT_TRUE(in_bound.accepted) << in_bound.summary();

  // ...while past the bound the same setup is caught.
  world.restore_local_service();
  world.deploy_remote_relay(1, Kilometers{400.0}, storage::ibm36z15());
  const AuditReport out_of_bound = world.run_audit(record, 20);
  EXPECT_FALSE(out_of_bound.accepted);
  EXPECT_TRUE(out_of_bound.failed(AuditFailure::kTiming));
}

TEST(GeoProofProtocol, RestoreLocalServicePassesAgain) {
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  world.deploy_remote_relay(1, Kilometers{730.0}, storage::ibm36z15());
  EXPECT_FALSE(world.run_audit(record, 10).accepted);
  world.restore_local_service();
  EXPECT_TRUE(world.run_audit(record, 10).accepted);
}

TEST(GeoProofProtocol, GpsSpoofingDetectedByPositionCheck) {
  // The provider moves the device (or spoofs its GPS) to claim a Sydney
  // device is in Brisbane... here: the device reports Sydney while the
  // contract says Brisbane.
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  world.verifier().gps().spoof({-33.8688, 151.2093});  // Sydney
  const AuditReport report = world.run_audit(record, 10);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kPosition));
  EXPECT_GT(report.position_error.value, 700.0);
}

TEST(GeoProofProtocol, SmallGpsDriftTolerated) {
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  // 1-2 km of drift is inside the default 5 km tolerance.
  world.verifier().gps().spoof({-27.48, 153.04});
  const AuditReport report = world.run_audit(record, 10);
  EXPECT_TRUE(report.accepted) << report.summary();
}

TEST(GeoProofProtocol, ReplayedTranscriptRejected) {
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  const AuditRequest request = world.scheme().make_request(record, 10);
  const SignedTranscript transcript = world.verifier().run_audit(request);
  EXPECT_TRUE(world.scheme().verify(record, transcript).accepted);
  // Replaying the very same transcript must fail: nonce consumed.
  const AuditReport replay = world.scheme().verify(record, transcript);
  EXPECT_FALSE(replay.accepted);
  EXPECT_TRUE(replay.failed(AuditFailure::kNonceMismatch));
}

TEST(GeoProofProtocol, ForeignNonceRejected) {
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  AuditRequest forged;
  forged.file_id = record.file_id;
  forged.n_segments = record.n_segments;
  forged.k = 5;
  forged.nonce = bytes_of("never-issued-by-the-tpa");
  const SignedTranscript transcript = world.verifier().run_audit(forged);
  const AuditReport report = world.scheme().verify(record, transcript);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kNonceMismatch));
}

TEST(GeoProofProtocol, TamperedTranscriptSignatureFails) {
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  const AuditRequest request = world.scheme().make_request(record, 10);
  SignedTranscript transcript = world.verifier().run_audit(request);
  // The provider intercepts the transcript and shaves the recorded RTTs.
  for (auto& rtt : transcript.transcript.rtts) rtt = Millis{0.5};
  const AuditReport report = world.scheme().verify(record, transcript);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kSignature));
}

TEST(GeoProofProtocol, SegmentSubstitutionCaught) {
  // Provider answers challenge c_j with a *different* genuine segment:
  // the index inside the MAC catches it even though the bytes are valid.
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  const AuditRequest request = world.scheme().make_request(record, 10);
  SignedTranscript transcript = world.verifier().run_audit(request);
  std::swap(transcript.transcript.segments[0],
            transcript.transcript.segments[1]);
  const AuditReport report = world.scheme().verify(record, transcript);
  EXPECT_FALSE(report.accepted);
  // Both the signature (transcript altered) and tags break.
  EXPECT_TRUE(report.failed(AuditFailure::kSignature));
}

TEST(GeoProofProtocol, ChallengeCountMatchesRequest) {
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  const AuditRequest request = world.scheme().make_request(record, 17);
  const SignedTranscript transcript = world.verifier().run_audit(request);
  EXPECT_EQ(transcript.transcript.challenge.size(), 17u);
  EXPECT_EQ(transcript.transcript.rtts.size(), 17u);
  EXPECT_EQ(transcript.transcript.segments.size(), 17u);
}

TEST(GeoProofProtocol, AuditsConsumeSignerKeys) {
  DeploymentConfig cfg = fast_config();
  cfg.verifier.signer_height = 2;  // only 4 audits possible
  SimulatedDeployment world(cfg);
  const auto record = world.upload(test_file(20000), 1);
  EXPECT_EQ(world.verifier().audits_remaining(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(world.run_audit(record, 5).accepted);
  }
  EXPECT_EQ(world.verifier().audits_remaining(), 0u);
  EXPECT_THROW(world.run_audit(record, 5), Error);
}

TEST(GeoProofProtocol, FasterDiskLowersRtt) {
  DeploymentConfig slow_cfg = fast_config();
  slow_cfg.provider.disk = storage::find_disk("Hitachi DK23DA").value();
  slow_cfg.provider.sample_disk_latency = false;
  slow_cfg.lan_jitter_seed = 0;
  SimulatedDeployment slow(slow_cfg);

  DeploymentConfig fast_cfg = fast_config();
  fast_cfg.provider.disk = storage::ibm36z15();
  fast_cfg.provider.sample_disk_latency = false;
  fast_cfg.lan_jitter_seed = 0;
  SimulatedDeployment fast(fast_cfg);

  const Bytes file = test_file(40000);
  const auto rec_slow = slow.upload(file, 1);
  const auto rec_fast = fast.upload(file, 1);
  const AuditReport r_slow = slow.run_audit(rec_slow, 10);
  const AuditReport r_fast = fast.run_audit(rec_fast, 10);
  EXPECT_GT(r_slow.mean_rtt.count(), r_fast.mean_rtt.count());
}

TEST(GeoProofProtocol, PrecachedSegmentsShaveLatency) {
  // A provider that pre-warms a RAM cache answers faster than the disk
  // budget assumes — the cache ablation bench quantifies this; here we just
  // verify the mechanism is visible end-to-end.
  DeploymentConfig cfg = fast_config();
  cfg.provider.cache_segments = 4096;
  cfg.provider.sample_disk_latency = false;
  cfg.lan_jitter_seed = 0;
  SimulatedDeployment world(cfg);
  const auto record = world.upload(test_file(40000), 1);

  std::vector<std::uint64_t> all(record.n_segments);
  for (std::uint64_t i = 0; i < record.n_segments; ++i) {
    all[static_cast<std::size_t>(i)] = i;
  }
  world.provider().prewarm(1, all);
  const AuditReport cached = world.run_audit(record, 10);
  EXPECT_TRUE(cached.accepted);
  // Cache hit latency (0.05 ms) + LAN: far under one disk look-up.
  EXPECT_LT(cached.max_rtt.count(), 2.0);
}

TEST(GeoProofProtocol, ContractTimeCalibration) {
  // §V-C(b): measure the installed equipment at contract time, then judge
  // every audit against the measured budget.
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(40000), 1);
  const LatencyPolicy policy = world.calibrate_policy(record, 100, 1.25);
  // The empirical budget sits above honest RTTs but far below relay RTTs.
  EXPECT_GT(policy.max_round_trip().count(), 10.0);
  EXPECT_LT(policy.max_round_trip().count(), 40.0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(world.run_audit(record, 10).accepted) << i;
  }
  world.deploy_remote_relay(1, Kilometers{730.0}, storage::ibm36z15());
  EXPECT_FALSE(world.run_audit(record, 10).accepted);
}

TEST(GeoProofProtocol, CalibrationValidatesArguments) {
  SimulatedDeployment world(fast_config());
  const auto record = world.upload(test_file(20000), 1);
  EXPECT_THROW(world.calibrate_policy(record, 0), InvalidArgument);
  EXPECT_THROW(world.calibrate_policy(record, 10, 0.5), InvalidArgument);
}

TEST(GeoProofProtocol, AuditTrafficIsTinyAndFileSizeIndependent) {
  // §IV: "the size of the information exchanged between client and server
  // is very small and may even be independent of the size of stored data".
  SimulatedDeployment world(fast_config());
  const auto small_file = world.upload(test_file(20000, 1), 1);
  const auto big_file = world.upload(test_file(400000, 2), 2);
  const AuditReport r_small = world.run_audit(small_file, 10);
  const AuditReport r_big = world.run_audit(big_file, 10);
  // Identical k -> identical traffic, regardless of a 20x file size gap.
  EXPECT_EQ(r_small.bytes_exchanged, r_big.bytes_exchanged);
  // 10 rounds x (16-byte request + 83-byte segment) = 990 bytes.
  EXPECT_EQ(r_small.bytes_exchanged, 10u * (16 + 83));
}

TEST(GeoProofProtocol, MultipleFilesIndependent) {
  SimulatedDeployment world(fast_config());
  const auto rec_a = world.upload(test_file(30000, 1), 1);
  const auto rec_b = world.upload(test_file(30000, 2), 2);
  Rng rng(9);
  world.provider().corrupt_segments(2, 0.5, rng);
  EXPECT_TRUE(world.run_audit(rec_a, 15).accepted);
  EXPECT_FALSE(world.run_audit(rec_b, 15).accepted);
}

}  // namespace
}  // namespace geoproof::core
