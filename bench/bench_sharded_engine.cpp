// Sharded audit engine throughput: audits/sec for one full-registry sweep
// at 1/2/4/8 shards, against the same 16-registration fleet. The 1-shard
// row is the apples-to-apples baseline for AuditService::run_all (see
// bench_audit_service); the scaling across rows is what the ROADMAP's
// sharded-engine item promised.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/provider.hpp"
#include "core/sharded_engine.hpp"
#include "net/channel.hpp"

namespace {

using namespace geoproof;
using namespace geoproof::core;

constexpr net::GeoPoint kSite{-27.47, 153.02};
constexpr unsigned kRegistrations = 16;
constexpr std::uint32_t kChallenge = 8;

por::PorParams bench_params() {
  por::PorParams p;
  p.ecc_data_blocks = 48;
  p.ecc_parity_blocks = 16;
  return p;
}

/// One registration's private world (clock, provider, LAN, verifier); the
/// fleet shares a single MacAuditScheme, so shards contend on the real
/// TPA-side shared state (nonce ledger).
struct ShardWorld {
  SimClock clock;
  net::SimAuditTimer timer{clock};
  std::unique_ptr<CloudProvider> provider;
  std::unique_ptr<net::SimRequestChannel> channel;
  std::unique_ptr<VerifierDevice> verifier;
  FileRecord record;
};

struct ShardedFleet {
  const Bytes master = bytes_of("bench-sharded-engine-master");
  por::PorParams params = bench_params();
  std::vector<std::unique_ptr<ShardWorld>> worlds;
  std::unique_ptr<MacAuditScheme> scheme;
  std::unique_ptr<AuditService> service;
  std::unique_ptr<ShardedAuditEngine> engine;
  std::size_t shards = 1;

  explicit ShardedFleet(std::size_t n_shards) : shards(n_shards) {
    rebuild();
  }

  void rebuild() {
    Rng rng(29);
    const por::PorEncoder encoder(params);
    worlds.clear();
    service = std::make_unique<AuditService>();
    scheme.reset();
    for (std::uint64_t id = 1; id <= kRegistrations; ++id) {
      auto world = std::make_unique<ShardWorld>();
      ShardWorld& w = *world;
      CloudProvider::Config pcfg;
      pcfg.name = "dc-" + std::to_string(id);
      pcfg.location = kSite;
      pcfg.seed = 0x9e0 + id;
      w.provider = std::make_unique<CloudProvider>(pcfg, w.clock);
      const por::EncodedFile encoded =
          encoder.encode(rng.next_bytes(20000), id, master);
      w.provider->store(encoded);
      w.record = FileRecord{id, encoded.n_segments, 0};
      w.channel = std::make_unique<net::SimRequestChannel>(
          w.clock, net::lan_latency(net::LanModel{}, Kilometers{0.1}, id),
          w.provider->handler());
      VerifierDevice::Config vcfg;  // shared signer seed => one fleet pk
      vcfg.position = kSite;
      vcfg.signer_height = 10;  // 1024 audits per device between rebuilds
      w.verifier = std::make_unique<VerifierDevice>(vcfg, *w.channel, w.timer);
      worlds.push_back(std::move(world));
    }
    AuditorConfig cfg;
    cfg.master_key = master;
    cfg.verifier_pk = worlds.front()->verifier->public_key();
    cfg.expected_position = kSite;
    cfg.policy = LatencyPolicy::for_disk(storage::wd2500jd());
    scheme = std::make_unique<MacAuditScheme>(cfg, params);
    for (auto& world : worlds) {
      service->add(*scheme, *world->verifier, world->record, kChallenge);
    }
    ShardedAuditEngine::Options opts;
    opts.shards = shards;
    engine = std::make_unique<ShardedAuditEngine>(*service, opts);
  }

  void ensure_keys(benchmark::State& state) {
    for (const auto& world : worlds) {
      if (world->verifier->audits_remaining() < 2) {
        state.PauseTiming();
        rebuild();
        state.ResumeTiming();
        return;
      }
    }
  }
};

/// One sweep of the whole registry (16 heterogeneous provider worlds)
/// fanned across the configured shard count, on the parked worker pool.
void BM_ShardedSweep(benchmark::State& state) {
  ShardedFleet fleet(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    fleet.ensure_keys(state);
    benchmark::DoNotOptimize(fleet.engine->sweep_once());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kRegistrations);
  state.counters["shards"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_ShardedSweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
