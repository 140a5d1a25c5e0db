// The arena registry must be behaviourally indistinguishable from the
// std::map registry it replaced — same ordering, same labels, same
// duplicate/unknown-id errors, same compliance arithmetic — while its new
// capabilities (bounded history rings, epoch compliance snapshots, batched
// signing, dense slot handles) hold their own invariants. This suite pins
// both halves, including a 1e5-registration sharded recording stress run
// under the TSan preset.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <type_traits>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/audit_service.hpp"
#include "core/deployment.hpp"
#include "core/provider.hpp"
#include "core/sharded_engine.hpp"

namespace geoproof::core {
namespace {

// The widened-counter contract: every compliance path carries uint64
// end-to-end. A narrowing anywhere (the old compliance_all() cast to
// unsigned, the old unsigned run_all return) fails to compile here.
static_assert(std::is_same_v<decltype(AuditService::Compliance::total),
                             std::uint64_t>);
static_assert(std::is_same_v<decltype(AuditService::Compliance::passed),
                             std::uint64_t>);
static_assert(
    std::is_same_v<decltype(std::declval<AuditService&>().run_all(
                       std::declval<const SimClock&>())),
                   std::uint64_t>);
static_assert(
    std::is_same_v<decltype(std::declval<const AuditService&>()
                                .consecutive_failures(std::uint64_t{1})),
                   std::uint64_t>);
static_assert(
    std::is_same_v<decltype(std::declval<ShardedAuditEngine&>().sweep_once()),
                   std::uint64_t>);

// One CloudProvider world holding n MAC-audited files behind a single
// channel, device and scheme — the shape a batched (scheme, verifier)
// group audits in one signature.
struct MacFarm {
  static constexpr net::GeoPoint kSite{-27.47, 153.02};
  const Bytes master = bytes_of("registry-equivalence master key");
  por::PorParams params;
  SimClock clock;
  EventQueue queue{clock};
  net::SimAuditTimer timer{clock};
  std::unique_ptr<CloudProvider> provider;
  std::unique_ptr<net::SimRequestChannel> channel;
  std::unique_ptr<VerifierDevice> verifier;
  std::unique_ptr<MacAuditScheme> scheme;
  std::vector<FileRecord> records;

  explicit MacFarm(std::uint64_t n_files, std::uint64_t first_id = 1,
                   unsigned signer_height = 8, std::uint64_t seed = 11) {
    params.ecc_data_blocks = 48;
    params.ecc_parity_blocks = 16;
    Rng rng(seed);
    const por::PorEncoder encoder(params);
    provider = std::make_unique<CloudProvider>(
        CloudProvider::Config{.name = "dc", .location = kSite}, clock);
    for (std::uint64_t i = 0; i < n_files; ++i) {
      const std::uint64_t id = first_id + i;
      const por::EncodedFile file =
          encoder.encode(rng.next_bytes(12000), id, master);
      provider->store(file);
      records.push_back(FileRecord{id, file.n_segments, 0});
    }
    channel = std::make_unique<net::SimRequestChannel>(
        clock, net::lan_latency(net::LanModel{}, Kilometers{0.1}, seed + 1),
        provider->handler());
    VerifierDevice::Config vcfg;
    vcfg.position = kSite;
    vcfg.signer_height = signer_height;
    verifier = std::make_unique<VerifierDevice>(vcfg, *channel, timer);
    AuditorConfig cfg;
    cfg.master_key = master;
    cfg.expected_position = kSite;
    cfg.policy = LatencyPolicy::for_disk(storage::wd2500jd());
    cfg.verifier_pk = verifier->public_key();
    scheme = std::make_unique<MacAuditScheme>(cfg, params);
  }

  std::uint64_t add_all(AuditService& service, std::uint32_t k = 8) {
    for (const FileRecord& r : records) {
      service.add(*scheme, *verifier, r, k);
    }
    return records.back().file_id;
  }
};

TEST(RegistryEquivalence, ArenaPreservesMapRegistrySemantics) {
  MacFarm farm(3, /*first_id=*/1);
  AuditService service;
  // Register out of ascending order; iteration order must not follow
  // insertion order.
  service.add(*farm.scheme, *farm.verifier, farm.records[2], 8);
  service.add(*farm.scheme, *farm.verifier, farm.records[0], 8);
  service.add(*farm.scheme, *farm.verifier, farm.records[1], 8,
              "custom-label");
  EXPECT_EQ(service.size(), 3u);
  EXPECT_EQ(service.file_ids(), (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(service.registration(1).label, "mac/file-1");
  EXPECT_EQ(service.registration(2).label, "custom-label");
  EXPECT_THROW(
      service.add(*farm.scheme, *farm.verifier, farm.records[0], 8),
      InvalidArgument);
  EXPECT_THROW(service.registration(99), InvalidArgument);
  EXPECT_THROW(service.slot_of(99), InvalidArgument);
  EXPECT_TRUE(service.has(2));

  // Dense slot handles: stable while registered, recycled after removal.
  const std::uint32_t slot_two = service.slot_of(2);
  (void)service.run_once(farm.clock, 2);
  EXPECT_EQ(service.slot_of(2), slot_two);
  service.remove(2);
  EXPECT_FALSE(service.has(2));
  EXPECT_EQ(service.file_ids(), (std::vector<std::uint64_t>{1, 3}));
  service.add(*farm.scheme, *farm.verifier, farm.records[1], 8);
  EXPECT_EQ(service.slot_of(2), slot_two) << "freed slot must be reused";
  // The re-registered id starts from scratch: the removed counters must
  // not leak into its (or the aggregate's) compliance.
  EXPECT_EQ(service.compliance(2).total, 0u);
  EXPECT_EQ(service.compliance().total, 0u);

  // run_all sweeps in ascending-id order: completion times must ascend
  // with id on the shared virtual clock.
  EXPECT_EQ(service.run_all(farm.clock), 3u);
  EXPECT_LT(service.history(1).back().at, service.history(2).back().at);
  EXPECT_LT(service.history(2).back().at, service.history(3).back().at);
}

TEST(RegistryEquivalence, BatchVerdictsMatchSingleAuditVerdicts) {
  MacFarm farm(4);
  AuditService service;
  farm.add_all(service);
  // Rot one file so the batch carries a mixed verdict.
  farm.provider->tamper_segment(3, 0, 0x80);
  for (const FileRecord& r : farm.records) {
    farm.provider->tamper_segment(r.file_id, 1, 0x00);  // no-op control
  }

  // Single-audit path first (fresh nonces per call, so the two passes are
  // independent): every file but 3 passes. k == n_segments makes the
  // challenge deterministic in coverage, so file 3's bad segment is hit.
  const std::uint32_t k = static_cast<std::uint32_t>(
      farm.records[0].n_segments);
  AuditService singles;
  for (const FileRecord& r : farm.records) {
    singles.add(*farm.scheme, *farm.verifier, r, k);
  }
  std::uint64_t single_passed = 0;
  for (const FileRecord& r : farm.records) {
    if (singles.run_once(farm.clock, r.file_id).accepted) ++single_passed;
  }
  EXPECT_EQ(single_passed, 3u);
  EXPECT_FALSE(singles.history(3).back().report.accepted);
  EXPECT_TRUE(singles.history(3).back().report.failed(AuditFailure::kTag));

  // Batched path: same verdicts, one report per id, hook sees them all.
  AuditService batched;
  for (const FileRecord& r : farm.records) {
    batched.add(*farm.scheme, *farm.verifier, r, k);
  }
  std::vector<std::uint64_t> ids = batched.file_ids();
  std::vector<std::uint64_t> hook_ids;
  const AuditService::Now now = [&farm] { return farm.clock.now(); };
  const std::uint64_t passed = batched.run_batch(
      now, ids, [&hook_ids](std::uint64_t id, const AuditReport& report) {
        hook_ids.push_back(id);
        EXPECT_EQ(report.accepted, id != 3);
      });
  EXPECT_EQ(passed, 3u);
  EXPECT_EQ(hook_ids, ids);
  for (const FileRecord& r : farm.records) {
    ASSERT_EQ(batched.history(r.file_id).size(), 1u);
    EXPECT_EQ(batched.history(r.file_id).back().report.accepted,
              r.file_id != 3);
    EXPECT_EQ(batched.compliance(r.file_id).total, 1u);
  }
  EXPECT_FALSE(
      batched.history(3).back().report.failed(AuditFailure::kSignature));
  EXPECT_TRUE(batched.history(3).back().report.failed(AuditFailure::kTag));
}

TEST(RegistryEquivalence, BatchConsumesOneSigningKeyPerGroup) {
  MacFarm farm(6);
  AuditService service;
  farm.add_all(service);
  const AuditService::Now now = [&farm] { return farm.clock.now(); };

  const std::uint32_t before = farm.verifier->audits_remaining();
  EXPECT_EQ(service.run_batch(now, service.file_ids()), 6u);
  EXPECT_EQ(farm.verifier->audits_remaining(), before - 1)
      << "one (scheme, verifier) group must spend exactly one one-time key";

  // The single-audit path spends one key per audit — the gap run_batch
  // amortises away.
  EXPECT_EQ(service.run_all(farm.clock), 6u);
  EXPECT_EQ(farm.verifier->audits_remaining(), before - 7);
  EXPECT_EQ(service.compliance().total, 12u);
  EXPECT_EQ(service.compliance().passed, 12u);
}

TEST(RegistryEquivalence, BatchFaultIsolatesFailingGroup) {
  // Two devices, two groups in one run: exhausting the first device's keys
  // must abort only its group's audits; the second group still runs.
  MacFarm small(2, /*first_id=*/1, /*signer_height=*/2);  // 4 keys
  MacFarm healthy(2, /*first_id=*/11);
  AuditService service;
  small.add_all(service);
  healthy.add_all(service);
  const AuditService::Now now = [&small] { return small.clock.now(); };

  while (small.verifier->audits_remaining() > 0) {
    (void)service.run_once(small.clock, 1);
  }
  const std::uint64_t spent = service.compliance().total;

  const std::vector<std::uint64_t> ids = service.file_ids();  // 1,2,11,12
  const std::uint64_t passed = service.run_batch(now, ids);
  EXPECT_EQ(passed, 2u);
  EXPECT_TRUE(
      service.history(1).back().report.failed(AuditFailure::kAborted));
  EXPECT_TRUE(
      service.history(2).back().report.failed(AuditFailure::kAborted));
  EXPECT_TRUE(service.history(11).back().report.accepted);
  EXPECT_TRUE(service.history(12).back().report.accepted);
  EXPECT_EQ(service.compliance().total, spent + 4);
  EXPECT_EQ(service.consecutive_failures(1), 1u);
  EXPECT_EQ(service.consecutive_failures(11), 0u);
}

TEST(RegistryEquivalence, ThrowingReportHookRecordsEveryMemberOnce) {
  // The hook runs outside the fault isolation: its exception reaches the
  // caller, and neither skips a member's record nor re-records an already
  // recorded audit as kAborted.
  MacFarm farm(3);
  AuditService service;
  farm.add_all(service);
  const AuditService::Now now = [&farm] { return farm.clock.now(); };

  unsigned calls = 0;
  EXPECT_THROW(service.run_batch(now, service.file_ids(),
                                 [&calls](std::uint64_t, const AuditReport&) {
                                   if (++calls == 2) {
                                     throw Error("report sink down");
                                   }
                                 }),
               Error);
  EXPECT_EQ(calls, 2u);
  for (const FileRecord& r : farm.records) {
    ASSERT_EQ(service.history(r.file_id).size(), 1u) << "file " << r.file_id;
    EXPECT_TRUE(service.history(r.file_id).back().report.accepted);
  }
  EXPECT_EQ(service.compliance().total, 3u);
  EXPECT_EQ(service.compliance().passed, 3u);
}

TEST(RegistryEquivalence, GroupEndDelimitsSameDeviceRuns) {
  // group_end is the one grouping rule: maximal consecutive runs sharing a
  // (scheme, verifier) pair, so interleaved devices split into singletons.
  MacFarm a(2, /*first_id=*/1);
  MacFarm b(2, /*first_id=*/11);
  AuditService service;
  a.add_all(service);
  b.add_all(service);
  const std::vector<std::uint64_t> ids = {1, 2, 11, 12, 1};
  EXPECT_EQ(service.group_end(ids, 0), 2u);
  EXPECT_EQ(service.group_end(ids, 1), 2u);
  EXPECT_EQ(service.group_end(ids, 2), 4u);
  EXPECT_EQ(service.group_end(ids, 4), 5u);
  EXPECT_THROW((void)service.group_end(ids, 5), InvalidArgument);
  EXPECT_THROW((void)service.group_end({1, 99}, 1), InvalidArgument);

  // Walking groups by hand through run_group spends one key per group and
  // records exactly what run_batch would.
  const AuditService::Now now = [&a] { return a.clock.now(); };
  const std::uint32_t a_keys = a.verifier->audits_remaining();
  const std::uint32_t b_keys = b.verifier->audits_remaining();
  std::uint64_t passed = 0;
  for (std::size_t begin = 0; begin < 4;) {
    const std::size_t end = service.group_end(ids, begin);
    passed += service.run_group(now, ids, begin, end);
    begin = end;
  }
  EXPECT_EQ(passed, 4u);
  EXPECT_EQ(a.verifier->audits_remaining(), a_keys - 1);
  EXPECT_EQ(b.verifier->audits_remaining(), b_keys - 1);
  EXPECT_EQ(service.compliance().total, 4u);

  // run_group refuses ranges group_end would never produce instead of
  // auditing a foreign device's registration under the lead's pair.
  EXPECT_THROW(service.run_group(now, ids, 1, 3), InvalidArgument);
  EXPECT_THROW(service.run_group(now, ids, 2, 2), InvalidArgument);
  EXPECT_THROW(service.run_group(now, ids, 4, 6), InvalidArgument);
  EXPECT_EQ(service.compliance().total, 4u) << "refused groups record nothing";
}

TEST(RegistryEquivalence, BoundedRingKeepsCountersExact) {
  // Drive a full-retention service and a ring-limited one through the same
  // deterministic world sequence: counters must agree exactly; the ring
  // must hold the chronological tail of the full history.
  DeploymentConfig cfg;
  cfg.por.ecc_data_blocks = 48;
  cfg.por.ecc_parity_blocks = 16;
  cfg.provider.location = {-27.47, 153.02};

  const auto drive = [&cfg](AuditService::Options options) {
    SimulatedDeployment world(cfg);
    Rng rng(3);
    const FileRecord record = world.upload(rng.next_bytes(30000), 1);
    AuditService service(options);
    service.add(world.scheme(), world.verifier(), record, 10);
    (void)service.run_once(world.clock(), 1);
    (void)service.run_once(world.clock(), 1);
    world.deploy_remote_relay(1, Kilometers{1500.0}, storage::ibm36z15());
    (void)service.run_once(world.clock(), 1);
    (void)service.run_once(world.clock(), 1);
    (void)service.run_once(world.clock(), 1);
    world.restore_local_service();
    (void)service.run_once(world.clock(), 1);
    (void)service.run_once(world.clock(), 1);
    return service;
  };

  AuditService full = drive({});
  AuditService ring = drive({.history_limit = 3});

  EXPECT_EQ(full.history(1).size(), 7u);
  ASSERT_EQ(ring.history(1).size(), 3u);
  EXPECT_EQ(ring.compliance(1).total, full.compliance(1).total);
  EXPECT_EQ(ring.compliance(1).passed, full.compliance(1).passed);
  EXPECT_EQ(ring.compliance(1).total, 7u);
  EXPECT_EQ(ring.compliance(1).passed, 4u);
  EXPECT_EQ(ring.consecutive_failures(1), full.consecutive_failures(1));
  // history() canonicalises the ring to chronological order: it must be
  // exactly the last three full-retention entries.
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& want = full.history(1)[4 + i];
    const auto& got = ring.history(1)[i];
    EXPECT_EQ(got.at, want.at);
    EXPECT_EQ(got.report.accepted, want.report.accepted);
  }
  // tail_failures survives eviction: fail 3x then pass 2x leaves 0; a ring
  // of 3 that ends fail-fail-fail-pass-pass still reports the exact tail.
  EXPECT_EQ(ring.consecutive_failures(1), 0u);
}

TEST(RegistryEquivalence, ComplianceArithmeticSurvivesPast32Bits) {
  // The seed's unsigned counters wrapped at 2^32 audits (a year of a
  // million registrations auditing hourly is ~9e9). The struct must carry
  // and compute on values past the old wrap point.
  AuditService::Compliance c;
  c.total = (std::uint64_t{1} << 32) + 10;
  c.passed = (std::uint64_t{1} << 32) + 9;
  EXPECT_GT(c.rate(), 0.999);
  EXPECT_LT(c.rate(), 1.0);
  EXPECT_TRUE(c.meets(0.99));
  EXPECT_FALSE(c.meets(1.0));
}

TEST(RegistryEquivalence, ShardedBatchedSweepMatchesRunAll) {
  // Two farms (own worlds, clocks, devices) partitioned onto two shards,
  // swept with batch_size > 1: every audit passes, each device spends one
  // key per sweep, and the engine's aggregate equals the service's.
  MacFarm farm_a(4, /*first_id=*/1);
  MacFarm farm_b(4, /*first_id=*/101);
  AuditService service;
  farm_a.add_all(service);
  farm_b.add_all(service);

  ShardedAuditEngine::Options opt;
  opt.shards = 2;
  opt.partitioner = [](std::uint64_t file_id, std::size_t) -> std::size_t {
    return file_id >= 101 ? 1 : 0;  // co-locate each simulated world
  };
  opt.work_stealing = false;  // a thief would pump a foreign world's clock
  opt.batch_size = 4;
  ShardedAuditEngine engine(service, opt);

  const std::uint32_t keys_a = farm_a.verifier->audits_remaining();
  const std::uint32_t keys_b = farm_b.verifier->audits_remaining();
  EXPECT_EQ(engine.sweep_once(), 8u);
  EXPECT_EQ(farm_a.verifier->audits_remaining(), keys_a - 1);
  EXPECT_EQ(farm_b.verifier->audits_remaining(), keys_b - 1);

  const auto engine_view = engine.compliance_all();
  const auto service_view = service.compliance();
  EXPECT_EQ(engine_view.total, 8u);
  EXPECT_EQ(engine_view.passed, 8u);
  EXPECT_EQ(service_view.total, engine_view.total);
  EXPECT_EQ(service_view.passed, engine_view.passed);
  for (const std::uint64_t id : service.file_ids()) {
    EXPECT_EQ(service.history(id).size(), 1u);
    EXPECT_TRUE(service.history(id).back().report.accepted);
  }
}

TEST(RegistryEquivalence, EpochSnapshotsStayConsistentUnderShardedRecording) {
  // The 1e5-registration stress: 8 shards record results concurrently
  // (distinct ids, per the service contract) while a reader thread
  // snapshots aggregate compliance. Every snapshot must satisfy
  // passed <= total with both monotone — the epoch protocol's whole claim
  // — and the final counters must be exact. Run under the TSan preset.
  MacFarm farm(1);
  AuditService service(AuditService::Options{.history_limit = 4});
  const std::uint64_t kRegs = 100000;
  for (std::uint64_t id = 1; id <= kRegs; ++id) {
    service.add(*farm.scheme, *farm.verifier, FileRecord{id, 64, 0}, 4);
  }
  EXPECT_EQ(service.size(), kRegs);

  ShardedAuditEngine::Options opt;
  opt.shards = 8;
  ShardedAuditEngine engine(service, opt);
  const auto plan = engine.shard_plan();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> snapshots{0};
  std::atomic<bool> ordered{true};
  std::atomic<bool> monotone{true};
  std::thread reader([&] {
    std::uint64_t last_total = 0;
    std::uint64_t last_epoch = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto c = service.compliance();
      if (c.passed > c.total) ordered.store(false);
      if (c.total < last_total || c.epoch < last_epoch) {
        monotone.store(false);
      }
      last_total = c.total;
      last_epoch = c.epoch;
      snapshots.fetch_add(1, std::memory_order_relaxed);
    }
  });

  engine.run_on_shards([&](std::size_t shard) {
    for (const std::uint64_t id : plan[shard]) {
      AuditReport report;
      report.accepted = (id % 3) != 0;
      if (!report.accepted) {
        report.failures.push_back(AuditFailure::kTag);
      }
      service.record(id, Nanos{0}, std::move(report));
    }
  });
  stop.store(true);
  reader.join();

  EXPECT_TRUE(ordered.load()) << "snapshot saw passed > total";
  EXPECT_TRUE(monotone.load()) << "snapshot went backwards";
  EXPECT_GT(snapshots.load(), 0u);

  std::uint64_t want_passed = 0;
  for (std::uint64_t id = 1; id <= kRegs; ++id) {
    if ((id % 3) != 0) ++want_passed;
  }
  const auto final = service.compliance();
  EXPECT_EQ(final.total, kRegs);
  EXPECT_EQ(final.passed, want_passed);
  EXPECT_EQ(final.epoch, kRegs);
  EXPECT_EQ(service.compliance(3).total, 1u);
  EXPECT_EQ(service.compliance(3).passed, 0u);
  EXPECT_EQ(service.consecutive_failures(3), 1u);
  EXPECT_EQ(service.consecutive_failures(4), 0u);
}

}  // namespace
}  // namespace geoproof::core
