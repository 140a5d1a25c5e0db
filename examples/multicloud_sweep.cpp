// Multicloud compliance sweeps through the sharded audit engine: twelve
// provider data centres, three GeoProof flavours (MAC, sentinel, dynamic),
// ONE scheme instance per flavour shared by every registration of that
// flavour, audited concurrently by a work-stealing 4-shard engine.
//
// This is the GeoFINDR-style scenario (PAPERS.md): a data owner spreads
// replicas across many clouds and sweeps them all, repeatedly, to catch
// the providers that moved or rotted the data. Midway, one provider
// starts relaying to a remote data centre 1400 km away (timing failures),
// one corrupts its stored blocks (sentinel-value failures) and one rots a
// Merkle-audited working set (proof failures); per-registration
// compliance separates all three.
//
// Run: ./build/examples/multicloud_sweep
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/dynamic_geoproof.hpp"
#include "core/provider.hpp"
#include "core/sharded_engine.hpp"
#include "net/channel.hpp"
#include "net/latency.hpp"

using namespace geoproof;
using namespace geoproof::core;

namespace {

constexpr unsigned kProviders = 12;  // 4 per flavour
constexpr std::uint32_t kMacChallenge = 8;
constexpr std::uint32_t kSentinelChallenge = 4;  // sentinels are consumable
constexpr unsigned kSentinelSupply = 2000;       // per-file sentinels

enum class Flavour { kMac, kSentinel, kDynamic };

Flavour flavour_of(std::uint64_t id) {
  switch ((id - 1) % 3) {
    case 0: return Flavour::kMac;
    case 1: return Flavour::kSentinel;
    default: return Flavour::kDynamic;
  }
}

const char* flavour_name(Flavour f) {
  switch (f) {
    case Flavour::kMac: return "mac";
    case Flavour::kSentinel: return "sentinel";
    default: return "dynamic";
  }
}

/// One provider data centre: its own virtual clock, storage, LAN channel
/// and on-site verifier device. The contracted site is Brisbane for every
/// provider; what differs is the disk class and (later) the behaviour.
struct Site {
  SimClock clock;
  net::SimAuditTimer timer{clock};
  std::unique_ptr<CloudProvider> provider;
  std::unique_ptr<por::DynamicPorProvider> dyn_provider;
  std::unique_ptr<DynamicProviderService> dyn_service;
  std::unique_ptr<net::SimRequestChannel> channel;
  std::unique_ptr<VerifierDevice> verifier;
  std::unique_ptr<CloudProvider> relay_target;  // keeps a deployed relay alive
  std::shared_ptr<net::SimRequestChannel> relay_channel;
  std::unique_ptr<por::EncodedFile> encoded;  // retained for relay mirroring
  FileRecord record;
  std::string disk_name;
};

const storage::DiskSpec& disk_for(std::uint64_t id) {
  static const storage::DiskSpec disks[3] = {
      storage::wd2500jd(), storage::find_disk("IBM 73LZX").value(),
      storage::find_disk("Hitachi DK23DA").value()};
  return disks[id % 3];
}

/// Every provider must pass while honest, whatever its disk: take the
/// elementwise-worst per-disk calibration as the fleet policy.
LatencyPolicy fleet_policy() {
  LatencyPolicy policy{Millis{0}, Millis{0}, Millis{0}};
  for (std::uint64_t id = 0; id < 3; ++id) {
    const LatencyPolicy p = LatencyPolicy::for_disk(disk_for(id));
    policy.max_network_rtt = std::max(policy.max_network_rtt, p.max_network_rtt);
    policy.max_lookup = std::max(policy.max_lookup, p.max_lookup);
    policy.slack = std::max(policy.slack, p.slack);
  }
  return policy;
}

}  // namespace

int main() {
  std::printf("GeoProof multicloud sweep: %u providers, 3 flavours, one\n"
              "scheme per flavour, 4 work-stealing shards\n"
              "========================================================\n\n",
              kProviders);

  const net::GeoPoint contracted = net::places::brisbane();
  const Bytes master = bytes_of("multicloud-sweep-master");
  Rng rng(2026);
  por::PorParams por_params;
  por_params.ecc_data_blocks = 48;
  por_params.ecc_parity_blocks = 16;
  const por::SentinelParams sentinel_params{.block_size = 16,
                                            .n_sentinels = kSentinelSupply};

  std::vector<std::unique_ptr<Site>> sites;
  for (std::uint64_t id = 1; id <= kProviders; ++id) {
    auto site = std::make_unique<Site>();
    Site& s = *site;
    const Bytes replica = rng.next_bytes(30000);
    s.disk_name = disk_for(id).name;
    CloudProvider::Config pcfg;
    pcfg.name = "dc-" + std::to_string(id);
    pcfg.location = contracted;
    pcfg.disk = disk_for(id);
    pcfg.seed = 0x9e0 + id;
    const auto lan = [&s, id](net::RequestHandler handler) {
      return std::make_unique<net::SimRequestChannel>(
          s.clock, net::lan_latency(net::LanModel{}, Kilometers{0.1}, id),
          std::move(handler));
    };
    switch (flavour_of(id)) {
      case Flavour::kMac: {
        s.provider = std::make_unique<CloudProvider>(pcfg, s.clock);
        s.encoded = std::make_unique<por::EncodedFile>(
            por::PorEncoder(por_params).encode(replica, id, master));
        s.provider->store(*s.encoded);
        s.record = FileRecord{id, s.encoded->n_segments, 0};
        s.channel = lan(s.provider->handler());
        break;
      }
      case Flavour::kSentinel: {
        s.provider = std::make_unique<CloudProvider>(pcfg, s.clock);
        const por::SentinelEncoded encoded =
            por::SentinelPor(sentinel_params).encode(replica, id, master);
        s.provider->store_blocks(id, encoded.blocks,
                                 sentinel_params.block_size);
        s.record = SentinelAuditScheme::file_record(encoded);
        s.channel = lan(s.provider->handler());
        break;
      }
      case Flavour::kDynamic: {
        s.dyn_provider = std::make_unique<por::DynamicPorProvider>(
            por::PorEncoder(por_params).encode(replica, id, master));
        s.dyn_service = std::make_unique<DynamicProviderService>(
            *s.dyn_provider, s.clock, storage::DiskModel(disk_for(id)));
        s.channel = lan(s.dyn_service->handler());
        break;
      }
    }
    VerifierDevice::Config vcfg;  // shared burned-in signer seed => one pk
    vcfg.position = contracted;
    s.verifier = std::make_unique<VerifierDevice>(vcfg, *s.channel, s.timer);
    sites.push_back(std::move(site));
  }

  // One TPA scheme per flavour — the sharded engine drives all twelve
  // registrations through these three instances concurrently, which is
  // exactly the shared-state path the AuditScheme thread-safety contract
  // covers.
  AuditorConfig base;
  base.master_key = master;
  base.verifier_pk = sites.front()->verifier->public_key();
  base.expected_position = contracted;
  base.policy = fleet_policy();
  MacAuditScheme mac(base, por_params);
  SentinelAuditScheme sentinel(base, sentinel_params);
  DynamicAuditScheme dynamic(base, por_params);

  AuditService service;
  for (std::uint64_t id = 1; id <= kProviders; ++id) {
    Site& s = *sites[id - 1];
    const std::string label =
        std::string(flavour_name(flavour_of(id))) + "/dc-" +
        std::to_string(id);
    switch (flavour_of(id)) {
      case Flavour::kMac:
        service.add(mac, *s.verifier, s.record, kMacChallenge, label);
        break;
      case Flavour::kSentinel:
        service.add(sentinel, *s.verifier, s.record, kSentinelChallenge,
                    label);
        break;
      case Flavour::kDynamic:
        s.record = dynamic.register_file(id, s.dyn_provider->root(),
                                         s.dyn_provider->n_segments());
        service.add(dynamic, *s.verifier, s.record, kMacChallenge, label);
        break;
    }
  }

  ShardedAuditEngine::Options opts;
  opts.shards = 4;
  opts.seed = 0x6e0f1;
  ShardedAuditEngine engine(service, opts);

  std::printf("shard plan (file ids per shard):\n");
  const auto plan = engine.shard_plan();
  for (std::size_t sh = 0; sh < plan.size(); ++sh) {
    std::printf("  shard %zu:", sh);
    for (const std::uint64_t id : plan[sh]) std::printf(" %llu",
        static_cast<unsigned long long>(id));
    std::printf("\n");
  }

  // Phase 1: everyone honest — a short continuous run for throughput.
  const auto honest = engine.run_for(std::chrono::milliseconds(20));
  std::printf("\nhonest phase: %llu audits in %llu sweeps, %.0f audits/sec "
              "(%llu stolen by idle shards)\n",
              static_cast<unsigned long long>(honest.delta.audits),
              static_cast<unsigned long long>(honest.delta.sweeps),
              honest.audits_per_second,
              static_cast<unsigned long long>(honest.delta.steals));

  // Phase 2: three providers go bad, one per flavour / failure mode.
  //  - dc-1 (mac): relays to a data centre 1400 km away  -> timing
  //  - dc-2 (sentinel): corrupts its stored blocks       -> sentinel tags
  //  - dc-3 (dynamic): rots the Merkle-audited replica   -> proofs
  {
    Site& s = *sites[0];
    CloudProvider::Config rcfg;
    rcfg.name = "dc-1-remote";
    rcfg.disk = storage::ibm36z15();
    auto remote = std::make_unique<CloudProvider>(rcfg, s.clock);
    remote->store(*s.encoded);  // a faithful mirror — only the distance lies
    s.relay_channel = std::make_shared<net::SimRequestChannel>(
        s.clock,
        net::internet_latency(net::InternetModel(net::InternetModelParams{}),
                              Kilometers{1400.0}, 0x1e7),
        remote->handler());
    s.provider->set_relay(s.relay_channel);
    s.relay_target = std::move(remote);
  }
  {
    Rng corrupt_rng(99);
    sites[1]->provider->corrupt_segments(2, 0.5, corrupt_rng);
  }
  {
    Site& s = *sites[2];
    for (std::uint64_t i = 0; i < s.record.n_segments; i += 2) {
      s.dyn_provider->tamper(i, 0, 0xff);
    }
  }

  constexpr unsigned kBadSweeps = 4;
  unsigned bad_passed = 0;
  for (unsigned i = 0; i < kBadSweeps; ++i) bad_passed += engine.sweep_once();
  std::printf("after the breach: %u/%u audits passing per sweep\n\n",
              bad_passed / kBadSweeps, kProviders);

  std::printf("%-16s %-14s %8s %8s %9s %10s %s\n", "registration", "disk",
              "audits", "passed", "rate", "SLA(99%)", "last failure");
  for (const std::uint64_t id : service.file_ids()) {
    const auto& reg = service.registration(id);
    const auto c = service.compliance(id);
    const auto& last = service.history(id).back().report;
    std::printf("%-16s %-14s %8llu %8llu %8.1f%% %10s %s\n",
                reg.label.c_str(), sites[id - 1]->disk_name.c_str(),
                static_cast<unsigned long long>(c.total),
                static_cast<unsigned long long>(c.passed),
                100.0 * c.rate(), c.meets(0.99) ? "MET" : "BREACHED",
                last.accepted ? "-" : last.summary().c_str());
  }

  std::printf("\nengine: %s\n", engine.summary().c_str());
  const auto aggregate = engine.compliance_all();
  std::printf("fleet aggregate: %llu/%llu engine-driven audits passed "
              "(%.1f%%)\n",
              static_cast<unsigned long long>(aggregate.passed),
              static_cast<unsigned long long>(aggregate.total),
              100.0 * aggregate.rate());
  std::printf("\nreading the table: timing failures = the data moved; tag "
              "failures = the data rotted (sentinel values or Merkle "
              "proofs). One engine, three flavours, every provider watched "
              "concurrently.\n");
  return 0;
}
