// Deterministic concurrency harness for core::ShardedAuditEngine.
//
// Every world here is fully seeded (file contents, LAN jitter, disk
// sampling, challenge sampling, signing keys), so two fleets built with
// the same arguments behave identically — which is what lets the suite
// assert *bit-identical* single-shard equivalence with
// AuditService::run_all, stable partitioning, exact compliance
// aggregation, fault isolation, and a ≥64-registration multi-shard
// stress run (the TSan CI job's main course).
//
// Fleet layout: one scheme instance per flavour, shared by every
// registration of that flavour (deliberately — that is the shared-state
// path the engine must keep safe across shards); one MiniWorld (clock,
// provider, channel, verifier) per registration, so the timed paths are
// shard-independent. All verifier devices use the same burned-in signer
// seed, hence one public key per fleet — which is what makes one TPA
// config per flavour possible.
#include "core/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/dynamic_geoproof.hpp"
#include "core/provider.hpp"
#include "core/verifier.hpp"
#include "net/channel.hpp"

namespace geoproof::core {
namespace {

constexpr net::GeoPoint kSite{-27.47, 153.02};
const Bytes kMaster = bytes_of("sharded-engine master key");
constexpr std::uint32_t kChallenge = 3;

por::PorParams small_por() {
  por::PorParams p;
  p.ecc_data_blocks = 16;
  p.ecc_parity_blocks = 4;
  return p;
}

/// One registration's private timed path: its own virtual clock, provider,
/// LAN channel and verifier device. Schemes are shared at fleet level.
struct MiniWorld {
  SimClock clock;
  net::SimAuditTimer timer{clock};
  std::unique_ptr<CloudProvider> provider;                    // mac/sentinel
  std::unique_ptr<por::DynamicPorProvider> dyn_provider;      // dynamic
  std::unique_ptr<DynamicProviderService> dyn_service;
  std::unique_ptr<net::SimRequestChannel> channel;
  std::unique_ptr<VerifierDevice> verifier;
  FileRecord record;
};

enum class Flavour { kMac, kSentinel, kDynamic };

struct FleetSpec {
  unsigned files_per_flavour = 2;
  std::uint64_t seed = 101;
  unsigned sentinel_supply = 40;  // per-file sentinels
  std::size_t file_bytes = 1200;
};

struct Fleet {
  std::unique_ptr<MacAuditScheme> mac;
  std::unique_ptr<SentinelAuditScheme> sentinel;
  std::unique_ptr<DynamicAuditScheme> dynamic;
  std::vector<std::unique_ptr<MiniWorld>> worlds;
  AuditService service;

  /// The clock history entries are stamped with (world 0's — any fixed
  /// choice works, as long as run_all and the engine use the same one).
  SimClock& stamp_clock() { return worlds.front()->clock; }
  ShardedAuditEngine::ShardClock stamp_reader() {
    SimClock* clock = &stamp_clock();
    return [clock] { return clock->now(); };
  }
};

std::unique_ptr<MiniWorld> make_world(Flavour flavour, const FleetSpec& spec,
                                      std::uint64_t file_id, Rng& rng) {
  auto world = std::make_unique<MiniWorld>();
  MiniWorld& w = *world;
  const Bytes content = rng.next_bytes(spec.file_bytes);
  const auto lan = [&w, file_id](net::RequestHandler handler) {
    return std::make_unique<net::SimRequestChannel>(
        w.clock, net::lan_latency(net::LanModel{}, Kilometers{0.1}, file_id),
        std::move(handler));
  };
  CloudProvider::Config pcfg;
  pcfg.name = "dc-" + std::to_string(file_id);
  pcfg.location = kSite;
  pcfg.seed = 0x9e0 + file_id;

  switch (flavour) {
    case Flavour::kMac: {
      w.provider = std::make_unique<CloudProvider>(pcfg, w.clock);
      const por::EncodedFile encoded =
          por::PorEncoder(small_por()).encode(content, file_id, kMaster);
      w.provider->store(encoded);
      w.record = FileRecord{file_id, encoded.n_segments, 0};
      w.channel = lan(w.provider->handler());
      break;
    }
    case Flavour::kSentinel: {
      const por::SentinelParams params{.block_size = 16,
                                       .n_sentinels = spec.sentinel_supply};
      w.provider = std::make_unique<CloudProvider>(pcfg, w.clock);
      const por::SentinelEncoded encoded =
          por::SentinelPor(params).encode(content, file_id, kMaster);
      w.provider->store_blocks(file_id, encoded.blocks, params.block_size);
      w.record = SentinelAuditScheme::file_record(encoded);
      w.channel = lan(w.provider->handler());
      break;
    }
    case Flavour::kDynamic: {
      w.dyn_provider = std::make_unique<por::DynamicPorProvider>(
          por::PorEncoder(small_por()).encode(content, file_id, kMaster));
      w.dyn_service = std::make_unique<DynamicProviderService>(
          *w.dyn_provider, w.clock, storage::DiskModel(storage::wd2500jd()),
          /*sample_latency=*/true, /*seed=*/0xd1 + file_id);
      w.channel = lan(w.dyn_service->handler());
      break;
    }
  }
  VerifierDevice::Config vcfg;  // default signer seed: one pk per fleet
  vcfg.position = kSite;
  // 2^6 = 64 audits per device: an order of magnitude more than any test
  // here runs, and keygen stays cheap enough to build 60+ worlds quickly.
  vcfg.signer_height = 6;
  w.verifier = std::make_unique<VerifierDevice>(vcfg, *w.channel, w.timer);
  return world;
}

AuditorConfig fleet_config(const VerifierDevice& verifier) {
  AuditorConfig cfg;
  cfg.master_key = kMaster;
  cfg.verifier_pk = verifier.public_key();
  cfg.expected_position = kSite;
  cfg.policy = LatencyPolicy::for_disk(storage::wd2500jd());
  return cfg;
}

/// files_per_flavour registrations of each of the three flavours, file ids
/// interleaved (1 = mac, 2 = sentinel, 3 = dynamic, 4 = mac, ...) so the
/// default modulo partitioner mixes flavours within every shard.
Fleet make_fleet(const FleetSpec& spec) {
  Fleet fleet;
  Rng rng(spec.seed);
  std::uint64_t next_id = 1;
  for (unsigned i = 0; i < spec.files_per_flavour; ++i) {
    for (const Flavour flavour :
         {Flavour::kMac, Flavour::kSentinel, Flavour::kDynamic}) {
      const std::uint64_t id = next_id++;
      fleet.worlds.push_back(make_world(flavour, spec, id, rng));
      MiniWorld& w = *fleet.worlds.back();
      switch (flavour) {
        case Flavour::kMac:
          if (!fleet.mac) {
            fleet.mac = std::make_unique<MacAuditScheme>(
                fleet_config(*w.verifier), small_por());
          }
          fleet.service.add(*fleet.mac, *w.verifier, w.record, kChallenge);
          break;
        case Flavour::kSentinel:
          if (!fleet.sentinel) {
            fleet.sentinel = std::make_unique<SentinelAuditScheme>(
                fleet_config(*w.verifier),
                por::SentinelParams{.block_size = 16,
                                    .n_sentinels = spec.sentinel_supply});
          }
          fleet.service.add(*fleet.sentinel, *w.verifier, w.record,
                            kChallenge);
          break;
        case Flavour::kDynamic:
          if (!fleet.dynamic) {
            fleet.dynamic = std::make_unique<DynamicAuditScheme>(
                fleet_config(*w.verifier), small_por());
          }
          w.record = fleet.dynamic->register_file(
              id, w.dyn_provider->root(), w.dyn_provider->n_segments());
          fleet.service.add(*fleet.dynamic, *w.verifier, w.record,
                            kChallenge);
          break;
      }
    }
  }
  return fleet;
}

void expect_identical_histories(const AuditService& a,
                                const AuditService& b) {
  ASSERT_EQ(a.file_ids(), b.file_ids());
  for (const std::uint64_t id : a.file_ids()) {
    const auto& ha = a.history(id);
    const auto& hb = b.history(id);
    ASSERT_EQ(ha.size(), hb.size()) << "file " << id;
    for (std::size_t i = 0; i < ha.size(); ++i) {
      SCOPED_TRACE("file " + std::to_string(id) + " entry " +
                   std::to_string(i));
      EXPECT_EQ(ha[i].at, hb[i].at);
      const AuditReport& ra = ha[i].report;
      const AuditReport& rb = hb[i].report;
      EXPECT_EQ(ra.accepted, rb.accepted);
      EXPECT_EQ(ra.failures, rb.failures);
      EXPECT_EQ(ra.max_rtt, rb.max_rtt);
      EXPECT_EQ(ra.mean_rtt, rb.mean_rtt);
      EXPECT_EQ(ra.bad_tags, rb.bad_tags);
      EXPECT_EQ(ra.timing_violations, rb.timing_violations);
      EXPECT_EQ(ra.position_error.value, rb.position_error.value);
      EXPECT_EQ(ra.bytes_exchanged, rb.bytes_exchanged);
    }
  }
}

// ---------------------------------------------------------------------------
// Single-shard equivalence: the engine with one shard IS run_all.
// ---------------------------------------------------------------------------

TEST(ShardedEngine, SingleShardMatchesRunAllBitForBit) {
  const FleetSpec spec;  // 2 files x 3 flavours
  Fleet reference = make_fleet(spec);
  Fleet sharded = make_fleet(spec);

  ShardedAuditEngine::Options opts;
  opts.shards = 1;
  ShardedAuditEngine::ShardClock reader = sharded.stamp_reader();
  opts.clock_source = [&reader](std::size_t) { return reader; };
  ShardedAuditEngine engine(sharded.service, opts);

  unsigned reference_passed = 0;
  unsigned engine_passed = 0;
  for (int sweep = 0; sweep < 3; ++sweep) {
    reference_passed += reference.service.run_all(reference.stamp_clock());
    engine_passed += engine.sweep_once();
  }
  EXPECT_EQ(engine_passed, reference_passed);
  expect_identical_histories(reference.service, sharded.service);

  const auto aggregate = sharded.service.compliance();
  EXPECT_EQ(engine.compliance_all().total, aggregate.total);
  EXPECT_EQ(engine.compliance_all().passed, aggregate.passed);
}

// ---------------------------------------------------------------------------
// Partitioning
// ---------------------------------------------------------------------------

TEST(ShardedEngine, PartitioningIsStableAndInjectable) {
  Fleet fleet = make_fleet({.files_per_flavour = 4, .seed = 7});
  ShardedAuditEngine::Options opts;
  opts.shards = 4;
  ShardedAuditEngine engine(fleet.service, opts);

  const auto plan = engine.shard_plan();
  ASSERT_EQ(plan.size(), 4u);
  std::set<std::uint64_t> seen;
  for (std::size_t s = 0; s < plan.size(); ++s) {
    for (std::size_t i = 0; i < plan[s].size(); ++i) {
      // Default partitioner: modulo, ascending within the shard.
      EXPECT_EQ(plan[s][i] % 4, s);
      if (i > 0) {
        EXPECT_LT(plan[s][i - 1], plan[s][i]);
      }
      EXPECT_TRUE(seen.insert(plan[s][i]).second);
      EXPECT_EQ(engine.shard_of(plan[s][i]), s);
    }
  }
  EXPECT_EQ(seen.size(), fleet.service.size());
  // The plan is a pure function of (registry, partitioner).
  EXPECT_EQ(engine.shard_plan(), plan);

  // A custom partitioner is honoured (everything on shard 2), and shards
  // with empty queues don't stall the sweep.
  ShardedAuditEngine::Options pinned_opts;
  pinned_opts.shards = 4;
  pinned_opts.partitioner = [](std::uint64_t, std::size_t) -> std::size_t {
    return 2;
  };
  pinned_opts.work_stealing = false;
  ShardedAuditEngine pinned(fleet.service, pinned_opts);
  const auto pinned_plan = pinned.shard_plan();
  EXPECT_TRUE(pinned_plan[0].empty());
  EXPECT_TRUE(pinned_plan[1].empty());
  EXPECT_TRUE(pinned_plan[3].empty());
  EXPECT_EQ(pinned_plan[2].size(), fleet.service.size());
  EXPECT_EQ(pinned.sweep_once(), fleet.service.size());

  // An out-of-range partitioner is an error, not a silent wrap.
  ShardedAuditEngine::Options broken_opts;
  broken_opts.shards = 2;
  broken_opts.partitioner = [](std::uint64_t, std::size_t shards) {
    return shards;  // one past the end
  };
  ShardedAuditEngine broken(fleet.service, broken_opts);
  EXPECT_THROW(broken.shard_of(1), InvalidArgument);
  EXPECT_THROW(broken.sweep_once(), InvalidArgument);

  ShardedAuditEngine::Options no_shards;
  no_shards.shards = 0;
  EXPECT_THROW(ShardedAuditEngine(fleet.service, no_shards),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Compliance aggregation across shards
// ---------------------------------------------------------------------------

TEST(ShardedEngine, AggregatesComplianceAcrossShards) {
  Fleet fleet = make_fleet({.files_per_flavour = 4, .seed = 33});
  // Corrupt two MAC providers' stored segments: ids 1 and 4 are MAC
  // registrations (flavours interleave 1=mac, 2=sentinel, 3=dynamic, ...).
  for (const std::uint64_t bad_id : {1ull, 4ull}) {
    MiniWorld& w = *fleet.worlds[bad_id - 1];
    for (std::uint64_t i = 0; i < w.record.n_segments; ++i) {
      w.provider->tamper_segment(bad_id, i, 0xff);
    }
  }

  ShardedAuditEngine::Options opts;
  opts.shards = 4;
  ShardedAuditEngine engine(fleet.service, opts);
  const unsigned passed = engine.sweep_once();

  const unsigned total = static_cast<unsigned>(fleet.service.size());
  EXPECT_EQ(passed, total - 2);
  EXPECT_EQ(engine.compliance_all().total, total);
  EXPECT_EQ(engine.compliance_all().passed, total - 2);
  EXPECT_FALSE(engine.compliance_all().meets(1.0));
  EXPECT_TRUE(engine.compliance_all().meets(0.8));

  // The engine's atomic aggregate equals the service's per-file merge.
  const auto service_view = fleet.service.compliance();
  EXPECT_EQ(engine.compliance_all().total, service_view.total);
  EXPECT_EQ(engine.compliance_all().passed, service_view.passed);
  for (const std::uint64_t id : fleet.service.file_ids()) {
    const auto c = fleet.service.compliance(id);
    EXPECT_EQ(c.total, 1u);
    EXPECT_EQ(c.passed, (id == 1 || id == 4) ? 0u : 1u) << "file " << id;
  }
}

// ---------------------------------------------------------------------------
// Fault isolation: one aborting scheme doesn't stall other shards.
// ---------------------------------------------------------------------------

TEST(ShardedEngine, AbortingSchemeIsIsolatedToItsRegistration) {
  // Sentinel supply of 2 * kChallenge: sweeps 1-2 succeed, sweep 3 throws
  // inside plan_challenge for every sentinel registration.
  Fleet fleet = make_fleet({.files_per_flavour = 3,
                            .seed = 55,
                            .sentinel_supply = 2 * kChallenge});
  ShardedAuditEngine::Options opts;
  opts.shards = 3;
  ShardedAuditEngine engine(fleet.service, opts);

  EXPECT_EQ(engine.sweep_once(), fleet.service.size());
  EXPECT_EQ(engine.sweep_once(), fleet.service.size());
  // Third sweep: the 3 sentinel registrations abort, everyone else passes.
  EXPECT_EQ(engine.sweep_once(), fleet.service.size() - 3);
  EXPECT_EQ(engine.stats().aborted, 3u);

  for (const std::uint64_t id : fleet.service.file_ids()) {
    const auto& history = fleet.service.history(id);
    ASSERT_EQ(history.size(), 3u) << "file " << id;  // nobody got stalled
    const bool is_sentinel = (id % 3) == 2;  // ids 2, 5, 8
    EXPECT_EQ(history.back().report.accepted, !is_sentinel) << "file " << id;
    EXPECT_EQ(history.back().report.failed(AuditFailure::kAborted),
              is_sentinel)
        << "file " << id;
  }
}

TEST(ShardedEngine, BatchedSweepIsolatesNonLibraryHandlerException) {
  // A channel handler throwing a plain std::runtime_error (no
  // geoproof::Error) passes through the blocking channel adapter as is.
  // Under batch_size > 1 it must abort only its group: the sweep
  // completes and every other registration is audited.
  Fleet fleet = make_fleet({.files_per_flavour = 2, .seed = 77});
  MiniWorld& w = *fleet.worlds[0];  // file 1: MAC
  net::SimRequestChannel broken(
      w.clock, [](std::size_t) { return Millis{0.1}; },
      [](BytesView) -> Bytes { throw std::runtime_error("handler bug"); });
  VerifierDevice::Config vcfg;
  vcfg.position = kSite;
  vcfg.signer_height = 6;
  VerifierDevice dead(vcfg, broken, w.timer);
  fleet.service.remove(1);
  fleet.service.add(*fleet.mac, dead, w.record, kChallenge);

  ShardedAuditEngine::Options opts;
  opts.shards = 2;
  opts.batch_size = 4;
  ShardedAuditEngine engine(fleet.service, opts);
  std::uint64_t passed = 0;
  ASSERT_NO_THROW(passed = engine.sweep_once());
  EXPECT_EQ(passed, fleet.service.size() - 1);
  EXPECT_EQ(engine.stats().audits, fleet.service.size());
  EXPECT_EQ(engine.stats().aborted, 1u);
  for (const std::uint64_t id : fleet.service.file_ids()) {
    const auto& history = fleet.service.history(id);
    ASSERT_EQ(history.size(), 1u) << "file " << id;
    EXPECT_EQ(history.back().report.failed(AuditFailure::kAborted), id == 1)
        << "file " << id;
  }
}

// ---------------------------------------------------------------------------
// Seeded many-registration stress: >= 64 registrations, all flavours,
// many shards, work stealing on. The TSan job leans on this test.
// ---------------------------------------------------------------------------

TEST(ShardedEngine, StressManyRegistrationsAcrossShards) {
  // 22 x 3 = 66 registrations (>= 64), one shared scheme per flavour.
  Fleet fleet = make_fleet({.files_per_flavour = 22, .seed = 2024});
  const unsigned total = static_cast<unsigned>(fleet.service.size());
  ASSERT_GE(total, 64u);

  ShardedAuditEngine::Options opts;
  opts.shards = 8;
  opts.seed = 0xfeed;
  ShardedAuditEngine engine(fleet.service, opts);

  constexpr unsigned kSweeps = 2;
  unsigned passed = 0;
  for (unsigned i = 0; i < kSweeps; ++i) passed += engine.sweep_once();

  EXPECT_EQ(passed, kSweeps * total);
  EXPECT_EQ(engine.compliance_all().total, kSweeps * total);
  EXPECT_EQ(engine.compliance_all().passed, kSweeps * total);
  EXPECT_EQ(engine.stats().sweeps, kSweeps);
  EXPECT_EQ(engine.stats().aborted, 0u);

  const auto service_view = fleet.service.compliance();
  EXPECT_EQ(service_view.total, kSweeps * total);
  EXPECT_EQ(service_view.passed, kSweeps * total);
  for (const std::uint64_t id : fleet.service.file_ids()) {
    EXPECT_EQ(fleet.service.history(id).size(), kSweeps) << "file " << id;
  }
  // Shared TPA state stayed consistent: every issued nonce was consumed.
  EXPECT_EQ(fleet.mac->nonces().outstanding(), 0u);
  EXPECT_EQ(fleet.sentinel->nonces().outstanding(), 0u);
  EXPECT_EQ(fleet.dynamic->nonces().outstanding(), 0u);
}

// ---------------------------------------------------------------------------
// Wall-clock mode and run_for
// ---------------------------------------------------------------------------

TEST(ShardedEngine, WallClockModeStampsAndRuns) {
  Fleet fleet = make_fleet({.files_per_flavour = 2, .seed = 91});
  ShardedAuditEngine::Options opts;
  opts.shards = 2;
  ShardedAuditEngine engine(fleet.service, opts);  // default wall clocks

  EXPECT_EQ(engine.sweep_once(), fleet.service.size());
  for (const std::uint64_t id : fleet.service.file_ids()) {
    ASSERT_EQ(fleet.service.history(id).size(), 1u);
    EXPECT_GE(fleet.service.history(id).front().at, Nanos{0});
  }
}

TEST(ShardedEngine, RegistryChurnBetweenSweepsIsHonoured) {
  // Removing a registration between sweeps (never during one) must shrink
  // the next sweep's plan and drop the engine's per-device bookkeeping for
  // devices no longer registered.
  Fleet fleet = make_fleet({.files_per_flavour = 2, .seed = 12});
  ShardedAuditEngine::Options opts;
  opts.shards = 2;
  ShardedAuditEngine engine(fleet.service, opts);

  const auto total = static_cast<unsigned>(fleet.service.size());
  EXPECT_EQ(engine.sweep_once(), total);
  fleet.service.remove(1);
  EXPECT_EQ(engine.sweep_once(), total - 1);
  EXPECT_FALSE(fleet.service.has(1));
  for (const std::uint64_t id : fleet.service.file_ids()) {
    EXPECT_EQ(fleet.service.history(id).size(), 2u) << "file " << id;
  }
  EXPECT_EQ(engine.stats().audits, 2u * total - 1);
}

TEST(ShardedEngine, RunForCompletesWholeSweeps) {
  Fleet fleet = make_fleet({.files_per_flavour = 2, .seed = 17});
  ShardedAuditEngine::Options opts;
  opts.shards = 2;
  ShardedAuditEngine engine(fleet.service, opts);

  const auto report = engine.run_for(std::chrono::milliseconds(1));
  EXPECT_GE(report.delta.sweeps, 1u);
  EXPECT_EQ(report.delta.audits,
            report.delta.sweeps * fleet.service.size());
  EXPECT_EQ(report.delta.passed, report.delta.audits);
  EXPECT_GT(report.audits_per_second, 0.0);
  // Histories reflect exactly the completed sweeps (no partial sweep).
  for (const std::uint64_t id : fleet.service.file_ids()) {
    EXPECT_EQ(fleet.service.history(id).size(), report.delta.sweeps);
  }
  EXPECT_FALSE(engine.summary().empty());
}

// ---------------------------------------------------------------------------
// Parked worker pool + the generic run_on_shards hook
// ---------------------------------------------------------------------------

TEST(ShardedEngine, RunOnShardsRunsEveryShardExactlyOnce) {
  Fleet fleet = make_fleet({.files_per_flavour = 1, .seed = 31});
  ShardedAuditEngine::Options opts;
  opts.shards = 4;
  ShardedAuditEngine engine(fleet.service, opts);

  std::vector<std::atomic<unsigned>> hits(4);
  for (int round = 0; round < 3; ++round) {
    engine.run_on_shards([&hits](std::size_t shard) {
      hits[shard].fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_EQ(hits[s].load(), 3u) << "shard " << s;
  }
  EXPECT_THROW(engine.run_on_shards(nullptr), InvalidArgument);
}

TEST(ShardedEngine, RunOnShardsPropagatesWorkerExceptions) {
  Fleet fleet = make_fleet({.files_per_flavour = 1, .seed = 37});
  ShardedAuditEngine::Options opts;
  opts.shards = 3;
  ShardedAuditEngine engine(fleet.service, opts);

  EXPECT_THROW(engine.run_on_shards([](std::size_t shard) {
    if (shard == 2) throw ProtocolError("shard 2 is unwell");
  }),
               ProtocolError);
  // The pool survives a throwing dispatch: subsequent work still runs on
  // every shard, and regular sweeps still work.
  std::atomic<unsigned> total{0};
  engine.run_on_shards(
      [&total](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(total.load(), 3u);
  EXPECT_EQ(engine.sweep_once(), fleet.service.size());
}

TEST(ShardedEngine, ParkedPoolReusesWorkersAcrossManySweeps) {
  // Many small sweeps on a parked engine: the pool must neither deadlock
  // nor miss a dispatch (each sweep audits the full registry exactly once).
  Fleet fleet = make_fleet({.files_per_flavour = 2, .seed = 41});
  ShardedAuditEngine::Options opts;
  opts.shards = 4;
  ShardedAuditEngine engine(fleet.service, opts);
  const auto total = static_cast<unsigned>(fleet.service.size());
  for (int sweep = 0; sweep < 8; ++sweep) {
    EXPECT_EQ(engine.sweep_once(), total) << "sweep " << sweep;
  }
  EXPECT_EQ(engine.stats().sweeps, 8u);
  EXPECT_EQ(engine.stats().audits, 8u * total);
}

}  // namespace
}  // namespace geoproof::core
