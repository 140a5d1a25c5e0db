// End-to-end tests of GeoProof composed with dynamic POR: timed audits with
// Merkle proofs, verified updates, and freshness (anti-rollback).
#include "core/dynamic_geoproof.hpp"

#include <gtest/gtest.h>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/verifier.hpp"
#include "net/channel.hpp"
#include "por/encoder.hpp"

namespace geoproof::core {
namespace {

const Bytes kMaster = bytes_of("dynamic geoproof master");

/// TPA config for a device at the Brisbane site. The fixed nonce seed
/// also seeds the challenge sampler, so every run of these cases audits
/// the same segments.
AuditorConfig dynamic_config(const VerifierDevice& verifier,
                             LatencyPolicy policy) {
  AuditorConfig cfg;
  cfg.master_key = kMaster;
  cfg.verifier_pk = verifier.public_key();
  cfg.expected_position = {-27.47, 153.02};
  cfg.policy = policy;
  cfg.nonce_seed = 0xd7a;
  return cfg;
}

por::PorParams small_params() {
  por::PorParams p;
  p.ecc_data_blocks = 48;
  p.ecc_parity_blocks = 16;
  p.tag.tag_bits = 64;
  return p;
}

struct DynWorld {
  por::PorParams params = small_params();
  SimClock clock;
  std::unique_ptr<por::DynamicPorProvider> provider;
  std::unique_ptr<DynamicProviderService> service;
  std::unique_ptr<net::SimRequestChannel> channel;
  net::SimAuditTimer timer{clock};
  std::unique_ptr<VerifierDevice> verifier;
  std::unique_ptr<DynamicAuditScheme> auditor;
  FileRecord record;

  DynWorld() {
    Rng rng(4);
    const por::PorEncoder encoder(params);
    por::EncodedFile file = encoder.encode(rng.next_bytes(30000), 5, kMaster);
    provider = std::make_unique<por::DynamicPorProvider>(std::move(file));
    service = std::make_unique<DynamicProviderService>(
        *provider, clock, storage::DiskModel(storage::wd2500jd()));
    channel = std::make_unique<net::SimRequestChannel>(
        clock,
        net::lan_latency(net::LanModel{}, Kilometers{0.1}, 7),
        service->handler());
    VerifierDevice::Config vcfg;
    vcfg.position = {-27.47, 153.02};
    verifier = std::make_unique<VerifierDevice>(vcfg, *channel, timer);

    auditor = std::make_unique<DynamicAuditScheme>(
        dynamic_config(*verifier,
                       LatencyPolicy::for_disk(storage::wd2500jd())),
        params);
    record = auditor->register_file(5, provider->root(),
                                    provider->n_segments());
  }

  AuditReport run(std::uint32_t k) {
    const auto request = auditor->make_request(record, k);
    const SignedTranscript transcript = verifier->run_audit(request);
    return auditor->verify(record, transcript);
  }
};

TEST(DynamicGeoProof, HonestAuditAccepted) {
  DynWorld world;
  const AuditReport report = world.run(15);
  EXPECT_TRUE(report.accepted) << report.summary();
  EXPECT_EQ(report.bad_tags, 0u);
  // RTT includes the disk look-up, like the MAC flavour.
  EXPECT_GT(report.mean_rtt.count(), 2.0);
}

TEST(DynamicGeoProof, TamperedSegmentCaught) {
  DynWorld world;
  world.provider->tamper(3, 5, 0x80);
  // Challenge all segments so index 3 is definitely fetched.
  const AuditReport report =
      world.run(static_cast<std::uint32_t>(world.provider->n_segments()));
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kTag));
  EXPECT_GE(report.bad_tags, 1u);
}

TEST(DynamicGeoProof, VerifiedUpdateThenAuditPasses) {
  DynWorld world;
  // Owner updates segment 2 through the client.
  const std::uint64_t idx = 2;
  const Bytes new_data(world.params.blocks_per_segment *
                           world.params.block_size,
                       0xab);
  const Bytes new_segment =
      world.auditor->client(5).make_segment(idx, new_data);
  const por::ReadProof old_proof = world.provider->read(idx);
  ASSERT_TRUE(
      world.auditor->client(5).apply_write(idx, old_proof, new_segment));
  world.provider->write(idx, new_segment);

  // Roots agree; audits under the new root pass.
  EXPECT_EQ(world.auditor->root(5), world.provider->root());
  const AuditReport report = world.run(20);
  EXPECT_TRUE(report.accepted) << report.summary();
}

TEST(DynamicGeoProof, RollbackCaught) {
  // The provider acknowledges an update but keeps serving the old state:
  // the next audit fails because proofs no longer match the tracked root.
  DynWorld world;
  const std::uint64_t idx = 2;
  const Bytes new_segment = world.auditor->client(5).make_segment(
      idx,
      Bytes(world.params.blocks_per_segment * world.params.block_size, 0xcd));
  ASSERT_TRUE(world.auditor->client(5).apply_write(
      idx, world.provider->read(idx), new_segment));
  // Provider *drops* the write.
  const AuditReport report =
      world.run(static_cast<std::uint32_t>(world.provider->n_segments()));
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kTag));
}

TEST(DynamicGeoProof, ReplayRejected) {
  DynWorld world;
  const auto request = world.auditor->make_request(world.record, 5);
  const SignedTranscript transcript = world.verifier->run_audit(request);
  EXPECT_TRUE(world.auditor->verify(world.record, transcript).accepted);
  EXPECT_FALSE(world.auditor->verify(world.record, transcript).accepted);
}

TEST(DynamicGeoProof, MalformedProofCountsAsBadRound) {
  DynWorld world;
  const auto request = world.auditor->make_request(world.record, 3);
  SignedTranscript transcript = world.verifier->run_audit(request);
  transcript.transcript.segments[1] = bytes_of("not a proof");
  const AuditReport report = world.auditor->verify(world.record, transcript);
  EXPECT_FALSE(report.accepted);
  // Signature also fails (transcript was altered after signing); the tag
  // failure is still attributed.
  EXPECT_TRUE(report.failed(AuditFailure::kSignature));
}

TEST(DynamicGeoProof, SlowServiceCaughtByTiming) {
  DynWorld world;
  DynamicAuditScheme strict(
      dynamic_config(*world.verifier,
                     LatencyPolicy{Millis{0.01}, Millis{0.01}, Millis{0}}),
      world.params);
  const FileRecord record = strict.register_file(
      5, world.provider->root(), world.provider->n_segments());
  const auto request = strict.make_request(record, 5);
  const SignedTranscript transcript = world.verifier->run_audit(request);
  const AuditReport report = strict.verify(record, transcript);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kTiming));
}

TEST(DynamicGeoProof, ConfigValidated) {
  AuditorConfig cfg;
  cfg.master_key = bytes_of("k");
  DynamicAuditScheme scheme(cfg, small_params());
  EXPECT_THROW(scheme.register_file(1, crypto::Digest{}, 0), InvalidArgument);
  cfg.master_key = {};
  EXPECT_THROW(DynamicAuditScheme(cfg, small_params()), InvalidArgument);
}

}  // namespace
}  // namespace geoproof::core
