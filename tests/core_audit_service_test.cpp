#include "core/audit_service.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <type_traits>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/deployment.hpp"
#include "core/dynamic_geoproof.hpp"
#include "core/provider.hpp"

namespace geoproof::core {
namespace {

// Every per-registration call names its file id: the service has no
// id-less overloads or one-registration constructor that would have to
// guess which registration a mixed registry means.
template <typename S>
concept SingleRegistrationShape =
    std::is_constructible_v<S, AuditScheme&, VerifierDevice&, FileRecord,
                            std::uint32_t> ||
    requires(S& s, const SimClock& c) { s.run_once(c); } ||
    requires(const S& s) { s.history(); } ||
    requires(const S& s) { s.consecutive_failures(); };
static_assert(!SingleRegistrationShape<AuditService>);

DeploymentConfig fast_config() {
  DeploymentConfig cfg;
  cfg.por.ecc_data_blocks = 48;
  cfg.por.ecc_parity_blocks = 16;
  cfg.provider.location = {-27.47, 153.02};
  return cfg;
}

struct ServiceFixture {
  SimulatedDeployment world{fast_config()};
  FileRecord record;
  ServiceFixture() {
    Rng rng(3);
    record = world.upload(rng.next_bytes(30000), 1);
  }
  /// A service holding this world's one registration.
  AuditService service(std::uint32_t challenge_size) {
    AuditService s;
    s.add(world.scheme(), world.verifier(), record, challenge_size);
    return s;
  }
  const AuditReport& run_once(AuditService& s) {
    return s.run_once(world.clock(), record.file_id);
  }
};

TEST(AuditService, RunOnceRecordsHistory) {
  ServiceFixture f;
  AuditService service = f.service(10);
  const AuditReport& report = f.run_once(service);
  EXPECT_TRUE(report.accepted);
  ASSERT_EQ(service.history(f.record.file_id).size(), 1u);
  EXPECT_EQ(service.compliance().total, 1u);
  EXPECT_EQ(service.compliance().passed, 1u);
}

TEST(AuditService, ZeroChallengeRejected) {
  ServiceFixture f;
  AuditService service;
  EXPECT_THROW(service.add(f.world.scheme(), f.world.verifier(), f.record, 0),
               InvalidArgument);
  EXPECT_EQ(service.size(), 0u);
}

TEST(AuditService, ScheduledAuditsRunAtIntervals) {
  ServiceFixture f;
  AuditService service = f.service(5);
  const Nanos hour = std::chrono::duration_cast<Nanos>(std::chrono::hours(1));
  const Nanos start = f.world.clock().now() + hour;
  service.schedule(f.world.queue(), f.world.clock(), start, hour, 5);
  f.world.queue().run_all();
  const auto& history = service.history(f.record.file_id);
  ASSERT_EQ(history.size(), 5u);
  // Entries are time-ordered and roughly an hour apart. Audits start
  // exactly on the hour but the recorded time is completion, and each
  // audit consumes a few virtual milliseconds, so gaps float around the
  // hour by up to one audit's duration either way.
  const Nanos tolerance =
      std::chrono::duration_cast<Nanos>(std::chrono::seconds(5));
  for (std::size_t i = 1; i < 5; ++i) {
    const Nanos gap = history[i].at - history[i - 1].at;
    EXPECT_GE(gap, hour - tolerance);
    EXPECT_LT(gap, hour + tolerance);
  }
  EXPECT_TRUE(service.compliance().meets(0.99));
}

TEST(AuditService, ComplianceTracksFailures) {
  ServiceFixture f;
  AuditService service = f.service(10);
  // Two clean audits.
  (void)f.run_once(service);
  (void)f.run_once(service);
  // Provider relocates the data; subsequent audits fail.
  f.world.deploy_remote_relay(1, Kilometers{1500.0}, storage::ibm36z15());
  (void)f.run_once(service);
  (void)f.run_once(service);
  (void)f.run_once(service);

  const auto compliance = service.compliance();
  EXPECT_EQ(compliance.total, 5u);
  EXPECT_EQ(compliance.passed, 2u);
  EXPECT_FALSE(compliance.meets(0.99));
  EXPECT_EQ(service.consecutive_failures(f.record.file_id), 3u);
}

TEST(AuditService, ConsecutiveFailuresResetOnRecovery) {
  ServiceFixture f;
  AuditService service = f.service(10);
  f.world.deploy_remote_relay(1, Kilometers{1500.0}, storage::ibm36z15());
  (void)f.run_once(service);
  EXPECT_EQ(service.consecutive_failures(f.record.file_id), 1u);
  f.world.restore_local_service();
  (void)f.run_once(service);
  EXPECT_EQ(service.consecutive_failures(f.record.file_id), 0u);
}

TEST(AuditService, EmptyHistoryIsCompliant) {
  ServiceFixture f;
  AuditService service = f.service(10);
  EXPECT_EQ(service.compliance().total, 0u);
  EXPECT_DOUBLE_EQ(service.compliance().rate(), 1.0);
  EXPECT_EQ(service.consecutive_failures(f.record.file_id), 0u);
}

TEST(AuditService, DuplicateFileIdRejected) {
  ServiceFixture f;
  AuditService service = f.service(10);
  EXPECT_THROW(
      service.add(f.world.scheme(), f.world.verifier(), f.record, 10),
      InvalidArgument);
  EXPECT_THROW(service.run_once(f.world.clock(), /*file_id=*/999),
               InvalidArgument);
}

// One service instance, two flavours, two files, one simulated world: a
// MAC-audited file and a dynamic-POR-audited file scheduled through the
// same registry on one event queue. This is the heterogeneous loop the
// sharded audit engine and the multicloud sweeps are built on.
struct MixedWorld {
  static constexpr net::GeoPoint kSite{-27.47, 153.02};
  const Bytes master = bytes_of("mixed-scheme master key");
  por::PorParams params;
  SimClock clock;
  EventQueue queue{clock};
  net::SimAuditTimer timer{clock};

  // MAC target: CloudProvider-backed.
  std::unique_ptr<CloudProvider> provider;
  std::unique_ptr<net::SimRequestChannel> mac_channel;
  std::unique_ptr<VerifierDevice> mac_verifier;
  std::unique_ptr<MacAuditScheme> mac_scheme;
  FileRecord mac_record;

  // Dynamic target: Merkle-proof provider.
  std::unique_ptr<por::DynamicPorProvider> dyn_provider;
  std::unique_ptr<DynamicProviderService> dyn_provider_service;
  std::unique_ptr<net::SimRequestChannel> dyn_channel;
  std::unique_ptr<VerifierDevice> dyn_verifier;
  std::unique_ptr<DynamicAuditScheme> dyn_scheme;
  FileRecord dyn_record;

  MixedWorld() {
    params.ecc_data_blocks = 48;
    params.ecc_parity_blocks = 16;
    Rng rng(11);
    const por::PorEncoder encoder(params);
    const auto lan = [this](net::RequestHandler handler, std::uint64_t seed) {
      return std::make_unique<net::SimRequestChannel>(
          clock, net::lan_latency(net::LanModel{}, Kilometers{0.1}, seed),
          std::move(handler));
    };
    AuditorConfig base;
    base.master_key = master;
    base.expected_position = kSite;
    base.policy = LatencyPolicy::for_disk(storage::wd2500jd());
    VerifierDevice::Config vcfg;
    vcfg.position = kSite;
    vcfg.signer_height = 4;  // 16 audits per device: exhaustion is testable

    provider = std::make_unique<CloudProvider>(
        CloudProvider::Config{.name = "dc", .location = kSite}, clock);
    const por::EncodedFile mac_file =
        encoder.encode(rng.next_bytes(25000), 1, master);
    provider->store(mac_file);
    mac_record = FileRecord{1, mac_file.n_segments, 0};
    mac_channel = lan(provider->handler(), 5);
    mac_verifier =
        std::make_unique<VerifierDevice>(vcfg, *mac_channel, timer);
    AuditorConfig mac_cfg = base;
    mac_cfg.verifier_pk = mac_verifier->public_key();
    mac_scheme = std::make_unique<MacAuditScheme>(mac_cfg, params);

    por::EncodedFile dyn_file = encoder.encode(rng.next_bytes(25000), 2,
                                               master);
    dyn_provider = std::make_unique<por::DynamicPorProvider>(
        std::move(dyn_file));
    dyn_provider_service = std::make_unique<DynamicProviderService>(
        *dyn_provider, clock, storage::DiskModel(storage::wd2500jd()));
    dyn_channel = lan(dyn_provider_service->handler(), 7);
    dyn_verifier =
        std::make_unique<VerifierDevice>(vcfg, *dyn_channel, timer);
    AuditorConfig dyn_cfg = base;
    dyn_cfg.verifier_pk = dyn_verifier->public_key();
    dyn_scheme = std::make_unique<DynamicAuditScheme>(dyn_cfg, params);
    dyn_record = dyn_scheme->register_file(2, dyn_provider->root(),
                                           dyn_provider->n_segments());
  }
};

TEST(AuditService, MixedSchemesThroughOneService) {
  MixedWorld w;
  AuditService service;
  const auto mac_id =
      service.add(*w.mac_scheme, *w.mac_verifier, w.mac_record, 8, "mac/dc");
  const auto dyn_id = service.add(*w.dyn_scheme, *w.dyn_verifier,
                                  w.dyn_record, 8, "dynamic/dc");
  ASSERT_EQ(service.size(), 2u);

  const Nanos hour = std::chrono::duration_cast<Nanos>(std::chrono::hours(1));
  service.schedule(w.queue, w.clock, w.clock.now() + hour, hour, 4);
  w.queue.run_all();

  EXPECT_EQ(service.history(mac_id).size(), 4u);
  EXPECT_EQ(service.history(dyn_id).size(), 4u);
  EXPECT_EQ(service.compliance(mac_id).passed, 4u);
  EXPECT_EQ(service.compliance(dyn_id).passed, 4u);
  EXPECT_EQ(service.compliance().total, 8u);  // aggregate across registry

  // The dynamic provider rots; only its registration's compliance drops.
  for (std::uint64_t i = 0; i < w.dyn_record.n_segments; ++i) {
    w.dyn_provider->tamper(i, 0, 0x80);
  }
  EXPECT_EQ(service.run_all(w.clock), 1u);  // one of two passes
  EXPECT_TRUE(service.history(mac_id).back().report.accepted);
  EXPECT_FALSE(service.history(dyn_id).back().report.accepted);
  EXPECT_TRUE(service.history(dyn_id).back().report.failed(
      AuditFailure::kTag));
  EXPECT_EQ(service.consecutive_failures(dyn_id), 1u);
  EXPECT_EQ(service.consecutive_failures(mac_id), 0u);
  EXPECT_FALSE(service.summary().empty());

  // Per-registration calls name their file id (SingleRegistrationShape
  // pins that no id-less overload exists); a foreign id is refused.
  EXPECT_THROW(service.run_once(w.clock, /*file_id=*/3), InvalidArgument);
  EXPECT_THROW(service.history(/*file_id=*/3), InvalidArgument);
}

TEST(AuditService, SchemeErrorInScheduledAuditDoesNotAbortQueue) {
  // The verifier device's signing key is finite; exhausting it mid-schedule
  // throws from inside the queue callback. That must surface as kAborted
  // entries for the affected registration, not kill everyone's audits.
  MixedWorld w;
  AuditService service;
  const auto mac_id =
      service.add(*w.mac_scheme, *w.mac_verifier, w.mac_record, 8);
  const auto dyn_id = service.add(*w.dyn_scheme, *w.dyn_verifier,
                                  w.dyn_record, 8);
  // Burn the MAC device's signing keys down to one remaining audit.
  while (w.mac_verifier->audits_remaining() > 1) {
    (void)service.run_once(w.clock, mac_id);
  }
  const std::size_t before = service.history(mac_id).size();

  const Nanos hour = std::chrono::duration_cast<Nanos>(std::chrono::hours(1));
  service.schedule(w.queue, w.clock, w.clock.now() + hour, hour, 3);
  w.queue.run_all();  // must not throw

  // MAC: one real audit, then two aborted entries; dynamic untouched.
  ASSERT_EQ(service.history(mac_id).size(), before + 3);
  EXPECT_TRUE(service.history(mac_id)[before].report.accepted);
  EXPECT_TRUE(service.history(mac_id).back().report.failed(
      AuditFailure::kAborted));
  EXPECT_EQ(service.history(dyn_id).size(), 3u);
  EXPECT_EQ(service.compliance(dyn_id).passed, 3u);
  EXPECT_GE(service.consecutive_failures(mac_id), 2u);
}

TEST(AuditService, NonLibraryHandlerExceptionInScheduledAuditIsIsolated) {
  // A provider handler throwing a plain std::runtime_error (no
  // geoproof::Error) must be isolated like any scheme/device error: the
  // broken registration records kAborted, the other one is still audited.
  MixedWorld w;
  net::SimRequestChannel broken(
      w.clock, [](std::size_t) { return Millis{0.1}; },
      [](BytesView) -> Bytes { throw std::runtime_error("handler bug"); });
  VerifierDevice::Config vcfg;
  vcfg.position = MixedWorld::kSite;
  vcfg.signer_height = 4;
  VerifierDevice dead(vcfg, broken, w.timer);
  AuditService service;
  const auto mac_id = service.add(*w.mac_scheme, dead, w.mac_record, 8);
  const auto dyn_id = service.add(*w.dyn_scheme, *w.dyn_verifier,
                                  w.dyn_record, 8);

  const Nanos hour = std::chrono::duration_cast<Nanos>(std::chrono::hours(1));
  service.schedule(w.queue, w.clock, w.clock.now() + hour, hour, 2);
  ASSERT_NO_THROW(w.queue.run_all());

  ASSERT_EQ(service.history(mac_id).size(), 2u);
  for (const auto& entry : service.history(mac_id)) {
    EXPECT_TRUE(entry.report.failed(AuditFailure::kAborted));
  }
  EXPECT_EQ(service.history(dyn_id).size(), 2u);
  EXPECT_EQ(service.compliance(dyn_id).passed, 2u);
}

TEST(AuditService, RemoveAfterScheduleDropsOnlyThatRegistration) {
  // A registration removed after its audits were scheduled must not blow
  // up the event queue; the surviving registration's audits still run.
  MixedWorld w;
  AuditService service;
  const auto mac_id =
      service.add(*w.mac_scheme, *w.mac_verifier, w.mac_record, 8);
  const auto dyn_id = service.add(*w.dyn_scheme, *w.dyn_verifier,
                                  w.dyn_record, 8);
  const Nanos hour = std::chrono::duration_cast<Nanos>(std::chrono::hours(1));
  service.schedule(w.queue, w.clock, w.clock.now() + hour, hour, 3);
  service.remove(dyn_id);
  w.queue.run_all();
  EXPECT_EQ(service.history(mac_id).size(), 3u);
  EXPECT_FALSE(service.has(dyn_id));
  EXPECT_EQ(service.compliance().total, 3u);
}

}  // namespace
}  // namespace geoproof::core
