// The async audit path end to end: the VerifierDevice session state
// machine and AuditScheme::begin_audit, on the deterministic virtual-time
// world, including the session-overlap acceptance property (K concurrent
// sessions cost ~one session of virtual time, not K of them).
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/scheme.hpp"
#include "core/transcript.hpp"
#include "core/verifier.hpp"
#include "net/async.hpp"
#include "net/channel.hpp"
#include "por/encoder.hpp"

namespace geoproof::core {
namespace {

const Bytes kMaster = bytes_of("async-audit-master");
constexpr net::GeoPoint kSite{-27.47, 153.02};
constexpr double kOneWayMs = 2.0;  // per-leg latency => 4 ms RTT
constexpr std::uint32_t kChallenge = 5;

por::PorParams small_params() {
  por::PorParams p;
  p.ecc_data_blocks = 48;
  p.ecc_parity_blocks = 16;
  return p;
}

AuditorConfig base_config(const crypto::Digest& verifier_pk) {
  AuditorConfig cfg;
  cfg.master_key = kMaster;
  cfg.verifier_pk = verifier_pk;
  cfg.expected_position = kSite;
  cfg.policy = LatencyPolicy{Millis{20.0}, Millis{50.0}, Millis{5.0}};
  return cfg;
}

/// One provider site on a shared async world: an encoded file served by a
/// pure-latency handler (no service time), an async channel, an async
/// verifier device.
struct AsyncSite {
  por::EncodedFile file;
  std::unique_ptr<net::SimAsyncChannel> channel;
  std::unique_ptr<net::SimAuditTimer> timer;
  std::unique_ptr<VerifierDevice> verifier;
  FileRecord record;
};

std::unique_ptr<AsyncSite> make_async_site(SimClock& clock, EventQueue& queue,
                                           std::uint64_t file_id,
                                           double one_way_ms = kOneWayMs) {
  auto site = std::make_unique<AsyncSite>();
  Rng rng(100 + file_id);
  site->file = por::PorEncoder(small_params())
                   .encode(rng.next_bytes(20000), file_id, kMaster);
  const por::EncodedFile* file = &site->file;
  site->channel = std::make_unique<net::SimAsyncChannel>(
      clock, queue, [one_way_ms](std::size_t) { return Millis{one_way_ms}; },
      [file](BytesView request) {
        const SegmentRequest req = SegmentRequest::deserialize(request);
        if (req.file_id != file->file_id || req.index >= file->n_segments) {
          throw StorageError("unknown segment");
        }
        return file->segments[static_cast<std::size_t>(req.index)];
      });
  site->timer = std::make_unique<net::SimAuditTimer>(clock);
  VerifierDevice::Config vcfg;
  vcfg.position = kSite;
  vcfg.challenge_seed = 0xc4a11e + file_id;
  site->verifier =
      std::make_unique<VerifierDevice>(vcfg, *site->channel, *site->timer);
  site->record = FileRecord{file_id, site->file.n_segments, 0};
  return site;
}

// --------------------------------------------------------------------------
// VerifierDevice sessions
// --------------------------------------------------------------------------

TEST(AsyncVerifier, SessionMatchesBlockingTranscriptExactly) {
  // Same seeds, same file, same latency model: the async session must
  // produce a byte-identical signed transcript to the blocking device —
  // the adapter claim ("no duplicate protocol logic") made checkable.
  Rng rng(7);
  const por::EncodedFile file =
      por::PorEncoder(small_params()).encode(rng.next_bytes(20000), 1,
                                             kMaster);
  const auto handler = [&file](BytesView request) {
    const SegmentRequest req = SegmentRequest::deserialize(request);
    return file.segments[static_cast<std::size_t>(req.index)];
  };
  const auto latency = [](std::size_t) { return Millis{kOneWayMs}; };

  // Blocking world.
  SimClock clock_b;
  net::SimRequestChannel ch_b(clock_b, latency, handler);
  net::SimAuditTimer timer_b(clock_b);
  VerifierDevice dev_b(VerifierDevice::Config{.position = kSite}, ch_b,
                       timer_b);

  // Async world (separate clock, same parameters).
  SimClock clock_a;
  EventQueue queue_a(clock_a);
  net::SimAsyncChannel ch_a(clock_a, queue_a, latency, handler);
  net::SimAuditTimer timer_a(clock_a);
  VerifierDevice dev_a(VerifierDevice::Config{.position = kSite}, ch_a,
                       timer_a);

  MacAuditScheme scheme_b(base_config(dev_b.public_key()), small_params());
  MacAuditScheme scheme_a(base_config(dev_a.public_key()), small_params());
  const FileRecord record{1, file.n_segments, 0};

  const SignedTranscript blocking =
      dev_b.run_audit(scheme_b.make_request(record, kChallenge));

  std::optional<SignedTranscript> async_result;
  dev_a.begin_audit(scheme_a.make_request(record, kChallenge),
                    [&](VerifierDevice::AuditOutcome&& out) {
                      ASSERT_TRUE(out.ok()) << out.error;
                      async_result = std::move(out.transcript);
                    });
  EXPECT_FALSE(async_result.has_value());  // in flight until pumped
  queue_a.run_all();
  ASSERT_TRUE(async_result.has_value());

  EXPECT_EQ(blocking.serialize(), async_result->serialize());
  EXPECT_TRUE(scheme_b.verify(record, blocking).accepted);
  EXPECT_TRUE(scheme_a.verify(record, *async_result).accepted);
}

TEST(AsyncVerifier, InlineCompletionsDoNotNestOneFramePerRound) {
  // A blocking channel completes each round inside begin_request. The
  // session must run those rounds in a loop, not recurse once per round:
  // catching a 0.05% corruption rate at 99% confidence needs k ~ 9,200,
  // and 50,000 nested rounds would overflow an 8 MB stack.
  constexpr std::uint32_t kRounds = 50000;
  SimClock clock;
  const Bytes segment(8, 0x5a);
  net::SimRequestChannel channel(
      clock, [](std::size_t) { return Millis{kOneWayMs}; },
      [&segment](BytesView) { return segment; });
  net::SimAuditTimer timer(clock);
  VerifierDevice device(VerifierDevice::Config{.position = kSite}, channel,
                        timer);

  AuditRequest request;
  request.file_id = 1;
  request.n_segments = std::uint64_t{1} << 20;
  request.k = kRounds;
  request.nonce = Bytes(16, 0xaa);
  const SignedTranscript signed_t = device.run_audit(request);
  const AuditTranscript& t = signed_t.transcript;
  ASSERT_EQ(t.rtts.size(), kRounds);
  ASSERT_EQ(t.segments.size(), kRounds);
  EXPECT_EQ(t.rtts.front().count(), 2 * kOneWayMs);
  EXPECT_EQ(t.rtts.back().count(), 2 * kOneWayMs);
  EXPECT_TRUE(crypto::merkle_verify(device.public_key(), t.serialize(),
                                    signed_t.signature));
}

TEST(AsyncVerifier, ConcurrentSessionsOverlapInVirtualTime) {
  // The acceptance property: K = 6 full audit sessions of kChallenge
  // rounds, round trip 2*kOneWayMs each, all in flight on one world —
  // total virtual time equals ONE session's time, while the blocking
  // transport pays K times that.
  constexpr std::uint64_t kSessions = 6;
  SimClock clock;
  EventQueue queue(clock);

  std::vector<std::unique_ptr<AsyncSite>> sites;
  for (std::uint64_t id = 1; id <= kSessions; ++id) {
    sites.push_back(make_async_site(clock, queue, id));
  }
  MacAuditScheme scheme(base_config(sites[0]->verifier->public_key()),
                        small_params());

  unsigned accepted = 0;
  for (auto& site : sites) {
    scheme.begin_audit(site->record, kChallenge, *site->verifier,
                       [&](AuditReport&& report) {
                         EXPECT_TRUE(report.accepted) << report.summary();
                         ++accepted;
                       });
  }
  EXPECT_EQ(accepted, 0u);
  queue.run_all();
  EXPECT_EQ(accepted, kSessions);

  const double elapsed_ms = to_millis(clock.now()).count();
  const double one_session_ms = kChallenge * 2 * kOneWayMs;
  EXPECT_NEAR(elapsed_ms, one_session_ms, 1e-9)
      << "sessions serialised instead of overlapping";

  // The blocking baseline really would cost K sessions end to end.
  SimClock blocking_clock;
  double blocking_total = 0;
  {
    net::SimAuditTimer timer(blocking_clock);
    for (std::uint64_t id = 1; id <= kSessions; ++id) {
      Rng rng(100 + id);
      const por::EncodedFile file = por::PorEncoder(small_params())
                                        .encode(rng.next_bytes(20000), id,
                                                kMaster);
      net::SimRequestChannel ch(
          blocking_clock, [](std::size_t) { return Millis{kOneWayMs}; },
          [&file](BytesView request) {
            const SegmentRequest req = SegmentRequest::deserialize(request);
            return file.segments[static_cast<std::size_t>(req.index)];
          });
      VerifierDevice::Config vcfg;
      vcfg.position = kSite;
      vcfg.challenge_seed = 0xc4a11e + id;
      VerifierDevice dev(vcfg, ch, timer);
      (void)dev.run_audit(scheme.make_request(
          FileRecord{id, file.n_segments, 0}, kChallenge));
    }
    blocking_total = to_millis(blocking_clock.now()).count();
  }
  EXPECT_NEAR(blocking_total, kSessions * one_session_ms, 1e-9);
}

TEST(AsyncVerifier, TransportErrorDeliversOutcomeNotThrow) {
  SimClock clock;
  EventQueue queue(clock);
  net::SimAsyncChannel channel(
      clock, queue, [](std::size_t) { return Millis{1.0}; },
      [](BytesView) -> Bytes { throw StorageError("segment store down"); });
  net::SimAuditTimer timer(clock);
  VerifierDevice device(VerifierDevice::Config{.position = kSite}, channel,
                        timer);

  AuditRequest request;
  request.file_id = 1;
  request.n_segments = 64;
  request.k = 3;
  request.nonce = Bytes(16, 0xaa);

  std::optional<VerifierDevice::AuditOutcome> outcome;
  device.begin_audit(request, [&](VerifierDevice::AuditOutcome&& out) {
    outcome = std::move(out);
  });
  queue.run_all();
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->ok());
  EXPECT_NE(outcome->error.find("segment store down"), std::string::npos);
}

TEST(AsyncVerifier, SignerExhaustionBecomesAbortedReportNotThrow) {
  // The device's one-time signing keys run out mid-sweep: inside a channel
  // completion that must surface as a kAborted report, not an exception
  // unwinding through whoever pumps the queue (which would kill a whole
  // engine shard).
  SimClock clock;
  EventQueue queue(clock);
  Rng rng(5);
  const por::EncodedFile file =
      por::PorEncoder(small_params()).encode(rng.next_bytes(20000), 1,
                                             kMaster);
  net::SimAsyncChannel channel(
      clock, queue, [](std::size_t) { return Millis{1.0}; },
      [&file](BytesView request) {
        const SegmentRequest req = SegmentRequest::deserialize(request);
        return file.segments[static_cast<std::size_t>(req.index)];
      });
  net::SimAuditTimer timer(clock);
  VerifierDevice::Config vcfg;
  vcfg.position = kSite;
  vcfg.signer_height = 2;  // only 4 audits possible
  VerifierDevice device(vcfg, channel, timer);
  MacAuditScheme scheme(base_config(device.public_key()), small_params());
  const FileRecord record{1, file.n_segments, 0};

  std::vector<AuditReport> reports;
  for (int i = 0; i < 5; ++i) {
    scheme.begin_audit(record, 3, device,
                       [&](AuditReport&& r) { reports.push_back(std::move(r)); });
    queue.run_all();
  }
  ASSERT_EQ(reports.size(), 5u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(reports[static_cast<std::size_t>(i)].accepted)
        << reports[static_cast<std::size_t>(i)].summary();
  }
  EXPECT_FALSE(reports[4].accepted);
  EXPECT_TRUE(reports[4].failed(AuditFailure::kAborted));
  EXPECT_EQ(device.audits_remaining(), 0u);
}

TEST(AsyncVerifier, RunAuditOnAsyncWiringThrows) {
  SimClock clock;
  EventQueue queue(clock);
  auto site = make_async_site(clock, queue, 1);
  MacAuditScheme scheme(base_config(site->verifier->public_key()),
                        small_params());
  EXPECT_THROW(
      (void)site->verifier->run_audit(scheme.make_request(site->record, 3)),
      ProtocolError);
  EXPECT_THROW((void)site->verifier->run_audit_batch(
                   {scheme.make_request(site->record, 3)}),
               ProtocolError);
  // Refused before any request reached the channel.
  EXPECT_EQ(site->channel->in_flight(), 0u);
  EXPECT_EQ(site->channel->exchanges(), 0u);
}

TEST(AsyncScheme, MidSessionFailureReportsAborted) {
  // The provider dies after the session started: the device delivers a
  // failed outcome (no transcript to judge), which begin_audit turns into
  // a kAborted report on the pumping thread instead of an exception.
  SimClock clock;
  EventQueue queue(clock);
  net::SimAsyncChannel channel(
      clock, queue, [](std::size_t) { return Millis{1.0}; },
      [](BytesView) -> Bytes { throw StorageError("gone"); });
  net::SimAuditTimer timer(clock);
  VerifierDevice device(VerifierDevice::Config{.position = kSite}, channel,
                        timer);
  MacAuditScheme scheme(base_config(device.public_key()), small_params());
  const FileRecord record{3, 64, 0};

  std::optional<AuditReport> report;
  scheme.begin_audit(record, kChallenge, device,
                     [&](AuditReport&& r) { report = std::move(r); });
  EXPECT_FALSE(report.has_value());  // in flight until pumped
  queue.run_all();
  ASSERT_TRUE(report.has_value());
  EXPECT_FALSE(report->accepted);
  EXPECT_TRUE(report->failed(AuditFailure::kAborted));
  EXPECT_EQ(report->failures.size(), 1u);
}

}  // namespace
}  // namespace geoproof::core
