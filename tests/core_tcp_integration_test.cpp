// Integration: the full GeoProof protocol engine over a real TCP loopback
// connection with wall-clock timing - the "manual networking" path. The
// provider here serves segments from memory with an injectable artificial
// look-up delay, standing in for a disk at the far end of a socket.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/scheme.hpp"
#include "core/transcript.hpp"
#include "core/verifier.hpp"
#include "net/tcp.hpp"
#include "por/encoder.hpp"

namespace geoproof::core {
namespace {

const Bytes kMaster = bytes_of("tcp-integration-master");

por::PorParams small_params() {
  por::PorParams p;
  p.ecc_data_blocks = 48;
  p.ecc_parity_blocks = 16;
  return p;
}

struct TcpWorld {
  por::PorParams params = small_params();
  por::EncodedFile file;
  std::atomic<int> lookup_delay_ms{0};
  std::unique_ptr<net::TcpServer> server;

  explicit TcpWorld(std::uint64_t file_id = 1) {
    Rng rng(1);
    const por::PorEncoder encoder(params);
    file = encoder.encode(rng.next_bytes(30000), file_id, kMaster);
    server = std::make_unique<net::TcpServer>([this](BytesView request) {
      const Bytes& segment = lookup_segment(file, request);
      const int delay = lookup_delay_ms.load();
      if (delay > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay));
      }
      return segment;
    });
  }
};

MacAuditScheme make_scheme(const TcpWorld& world,
                           const crypto::Digest& verifier_pk,
                           Millis max_lookup) {
  AuditorConfig cfg;
  cfg.master_key = kMaster;
  cfg.verifier_pk = verifier_pk;
  cfg.expected_position = {-27.47, 153.02};
  // Generous network budget: loopback plus scheduler noise.
  cfg.policy = LatencyPolicy{Millis{20.0}, max_lookup, Millis{5.0}};
  return MacAuditScheme(cfg, world.params);
}

TEST(TcpIntegration, HonestAuditOverRealSockets) {
  TcpWorld world;
  net::TcpRequestChannel channel("127.0.0.1", world.server->port());
  net::SteadyAuditTimer timer;
  VerifierDevice::Config vcfg;
  vcfg.position = {-27.47, 153.02};
  VerifierDevice verifier(vcfg, channel, timer);

  MacAuditScheme scheme =
      make_scheme(world, verifier.public_key(), Millis{50.0});
  const FileRecord record{world.file.file_id, world.file.n_segments};

  const AuditRequest request = scheme.make_request(record, 15);
  const SignedTranscript transcript = verifier.run_audit(request);
  const AuditReport report = scheme.verify(record, transcript);
  EXPECT_TRUE(report.accepted) << report.summary();
  EXPECT_EQ(report.bad_tags, 0u);
  // Loopback RTTs exist and are sane.
  EXPECT_GT(report.max_rtt.count(), 0.0);
  EXPECT_LT(report.max_rtt.count(), 50.0);
}

TEST(TcpIntegration, SlowLookupsCaughtByWallClock) {
  TcpWorld world;
  world.lookup_delay_ms = 60;  // a "remote" provider: every round slow
  net::TcpRequestChannel channel("127.0.0.1", world.server->port());
  net::SteadyAuditTimer timer;
  VerifierDevice::Config vcfg;
  vcfg.position = {-27.47, 153.02};
  VerifierDevice verifier(vcfg, channel, timer);

  MacAuditScheme scheme =
      make_scheme(world, verifier.public_key(), Millis{10.0});
  const FileRecord record{world.file.file_id, world.file.n_segments};

  const AuditRequest request = scheme.make_request(record, 5);
  const SignedTranscript transcript = verifier.run_audit(request);
  const AuditReport report = scheme.verify(record, transcript);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kTiming)) << report.summary();
  EXPECT_GE(report.max_rtt.count(), 60.0);
}

TEST(TcpIntegration, TranscriptSurvivesWireSerialization) {
  // TPA and verifier on opposite ends: the signed transcript crosses the
  // wire as bytes and verifies after deserialisation.
  TcpWorld world;
  net::TcpRequestChannel channel("127.0.0.1", world.server->port());
  net::SteadyAuditTimer timer;
  VerifierDevice::Config vcfg;
  vcfg.position = {-27.47, 153.02};
  VerifierDevice verifier(vcfg, channel, timer);

  MacAuditScheme scheme =
      make_scheme(world, verifier.public_key(), Millis{50.0});
  const FileRecord record{world.file.file_id, world.file.n_segments};

  const AuditRequest request =
      AuditRequest::deserialize(scheme.make_request(record, 8).serialize());
  const Bytes wire = verifier.run_audit(request).serialize();
  const SignedTranscript transcript = SignedTranscript::deserialize(wire);
  EXPECT_TRUE(scheme.verify(record, transcript).accepted);
}

TEST(TcpIntegration, CorruptSegmentDetectedOverWire) {
  TcpWorld world;
  world.file.segments[4][2] ^= 0x10;  // damage before serving
  net::TcpRequestChannel channel("127.0.0.1", world.server->port());
  net::SteadyAuditTimer timer;
  VerifierDevice::Config vcfg;
  vcfg.position = {-27.47, 153.02};
  VerifierDevice verifier(vcfg, channel, timer);

  MacAuditScheme scheme =
      make_scheme(world, verifier.public_key(), Millis{50.0});
  const FileRecord record{world.file.file_id, world.file.n_segments};

  // Challenge everything so segment 4 is definitely fetched.
  const AuditRequest request = scheme.make_request(
      record, static_cast<std::uint32_t>(world.file.n_segments));
  const SignedTranscript transcript = verifier.run_audit(request);
  const AuditReport report = scheme.verify(record, transcript);
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.bad_tags, 1u);
}

}  // namespace
}  // namespace geoproof::core
