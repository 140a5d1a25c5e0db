// Integration: the full GeoProof protocol engine over a real TCP loopback
// connection with wall-clock timing - the "manual networking" path. The
// provider here serves segments from memory with an injectable artificial
// look-up delay, standing in for a disk at the far end of a socket. Each
// audit is a session on an EventLoop over net::AsyncTcpChannel.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <optional>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/scheme.hpp"
#include "core/transcript.hpp"
#include "core/verifier.hpp"
#include "net/async.hpp"
#include "net/tcp.hpp"
#include "por/encoder.hpp"
#include "tcp_client.hpp"

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
    server = std::make_unique<net::TcpServer>(
        [this](BytesView request, net::TcpServer::Reply reply) {
          const Bytes& segment = lookup_segment(file, request);
          const int delay = lookup_delay_ms.load();
          if (delay == 0) {
            reply.send(segment);
            return;
          }
          auto held = std::make_shared<net::TcpServer::Reply>(std::move(reply));
          held->loop().schedule_after(Millis{static_cast<double>(delay)},
                                      [held, &segment] { held->send(segment); });
        });
  }
};

/// The verifier device's side of the socket: its own loop and channel.
struct Device {
  net::EventLoop loop;
  net::AsyncTcpChannel channel;
  net::SteadyAuditTimer timer;
  VerifierDevice verifier;

  explicit Device(const TcpWorld& world)
      : channel(loop, "127.0.0.1", world.server->port()),
        verifier(config(), channel, timer) {}

  static VerifierDevice::Config config() {
    VerifierDevice::Config vcfg;
    vcfg.position = {-27.47, 153.02};
    return vcfg;
  }

  /// One AuditScheme::begin_audit session, pumped to its report.
  AuditReport audit(AuditScheme& scheme, const FileRecord& record,
                    std::uint32_t k) {
    std::optional<AuditReport> report;
    scheme.begin_audit(record, k, verifier,
                       [&](AuditReport&& r) { report = std::move(r); });
    EXPECT_TRUE(test::pump_until(loop, [&] { return report.has_value(); }));
    return std::move(report.value());
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
  Device device(world);

  MacAuditScheme scheme =
      make_scheme(world, device.verifier.public_key(), Millis{50.0});
  const FileRecord record{world.file.file_id, world.file.n_segments};

  const AuditReport report = device.audit(scheme, record, 15);
  EXPECT_TRUE(report.accepted) << report.summary();
  EXPECT_EQ(report.bad_tags, 0u);
  // Loopback RTTs exist and are sane.
  EXPECT_GT(report.max_rtt.count(), 0.0);
  EXPECT_LT(report.max_rtt.count(), 50.0);
}

TEST(TcpIntegration, SlowLookupsCaughtByWallClock) {
  TcpWorld world;
  world.lookup_delay_ms = 60;  // a "remote" provider: every round slow
  Device device(world);

  MacAuditScheme scheme =
      make_scheme(world, device.verifier.public_key(), Millis{10.0});
  const FileRecord record{world.file.file_id, world.file.n_segments};

  const AuditReport report = device.audit(scheme, record, 5);
  EXPECT_FALSE(report.accepted);
  EXPECT_TRUE(report.failed(AuditFailure::kTiming)) << report.summary();
  EXPECT_GE(report.max_rtt.count(), 60.0);
}

TEST(TcpIntegration, TranscriptSurvivesWireSerialization) {
  // TPA and verifier on opposite ends: the request and the signed
  // transcript cross the wire as bytes and verify after deserialisation.
  TcpWorld world;
  Device device(world);

  MacAuditScheme scheme =
      make_scheme(world, device.verifier.public_key(), Millis{50.0});
  const FileRecord record{world.file.file_id, world.file.n_segments};

  const AuditRequest request =
      AuditRequest::deserialize(scheme.make_request(record, 8).serialize());
  std::optional<Bytes> wire;
  device.verifier.begin_audit(
      request, [&](VerifierDevice::AuditOutcome&& outcome) {
        ASSERT_TRUE(outcome.ok()) << outcome.error;
        wire = outcome.transcript.serialize();
      });
  ASSERT_TRUE(test::pump_until(device.loop, [&] { return wire.has_value(); }));
  const SignedTranscript transcript = SignedTranscript::deserialize(*wire);
  EXPECT_TRUE(scheme.verify(record, transcript).accepted);
}

TEST(TcpIntegration, CorruptSegmentDetectedOverWire) {
  TcpWorld world;
  world.file.segments[4][2] ^= 0x10;  // damage before serving
  Device device(world);

  MacAuditScheme scheme =
      make_scheme(world, device.verifier.public_key(), Millis{50.0});
  const FileRecord record{world.file.file_id, world.file.n_segments};

  // Challenge everything so segment 4 is definitely fetched.
  const AuditReport report = device.audit(
      scheme, record, static_cast<std::uint32_t>(world.file.n_segments));
  EXPECT_FALSE(report.accepted);
  EXPECT_EQ(report.bad_tags, 1u);
}

}  // namespace
}  // namespace geoproof::core
