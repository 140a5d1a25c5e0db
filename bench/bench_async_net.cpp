// Async transport throughput: audits/sec over real TCP at 1/8/64 in-flight
// sessions on one auditor thread. Each provider is its own TcpServer with a
// fixed per-request service delay; the auditor holds every provider's
// session on one EventLoop, so a sweep of N providers pays about
// k x (rtt + service), not N times that.
#include <benchmark/benchmark.h>

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "core/scheme.hpp"
#include "core/transcript.hpp"
#include "core/verifier.hpp"
#include "net/async.hpp"
#include "net/tcp.hpp"

namespace {

using namespace geoproof;
using namespace geoproof::core;

constexpr net::GeoPoint kSite{-27.47, 153.02};
constexpr std::uint32_t kChallenge = 4;
/// Per-request provider service time, at the paper's disk look-up scale
/// (§V-C(b): ~5-13 ms). This is the wait the event loop overlaps across
/// providers.
constexpr auto kServiceDelay = std::chrono::milliseconds(5);

por::PorParams bench_params() {
  por::PorParams p;
  p.ecc_data_blocks = 48;
  p.ecc_parity_blocks = 16;
  return p;
}

/// One provider data centre: an encoded file behind a real TcpServer whose
/// handler pays a fixed service delay per request (disk stand-in).
struct Provider {
  por::EncodedFile file;
  std::unique_ptr<net::TcpServer> server;

  explicit Provider(std::uint64_t file_id, const Bytes& master) {
    Rng rng(40 + file_id);
    file = por::PorEncoder(bench_params())
               .encode(rng.next_bytes(12000), file_id, master);
    const por::EncodedFile* f = &file;
    server = std::make_unique<net::TcpServer>([f](BytesView request) {
      const Bytes& segment = lookup_segment(*f, request);
      std::this_thread::sleep_for(kServiceDelay);
      return segment;
    });
  }
};

struct Fleet {
  const Bytes master = bytes_of("bench-async-net-master");
  std::vector<std::unique_ptr<Provider>> providers;
  std::unique_ptr<MacAuditScheme> scheme;
  net::SteadyAuditTimer timer;

  explicit Fleet(std::size_t n) {
    for (std::uint64_t id = 1; id <= n; ++id) {
      providers.push_back(std::make_unique<Provider>(id, master));
    }
    // All devices share the burned-in signer seed and height, so one
    // public key covers the fleet.
    AuditorConfig cfg;
    cfg.master_key = master;
    cfg.verifier_pk = crypto::MerkleSigner(device_config().signer_seed,
                                           device_config().signer_height)
                          .public_key();
    cfg.expected_position = kSite;
    cfg.policy = LatencyPolicy{Millis{50.0}, Millis{100.0}, Millis{50.0}};
    scheme = std::make_unique<MacAuditScheme>(cfg, bench_params());
  }

  FileRecord record(std::size_t i) const {
    const por::EncodedFile& f = providers[i]->file;
    return FileRecord{f.file_id, f.n_segments, 0};
  }

  static VerifierDevice::Config device_config() {
    VerifierDevice::Config vcfg;
    vcfg.position = kSite;
    // Key generation is O(2^height) per device and this bench builds up
    // to 64 devices per run, so keep the tree shallow; iteration counts
    // stay far below 512 audits per device.
    vcfg.signer_height = 9;
    return vcfg;
  }
};

/// Event-loop transport: the same auditor thread holds all N sessions in
/// flight on one EventLoop, overlapping every provider's service delay.
void BM_AsyncTcpAudits(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Fleet fleet(n);
  net::EventLoop loop;
  std::vector<std::unique_ptr<net::AsyncTcpChannel>> channels;
  std::vector<std::unique_ptr<VerifierDevice>> devices;
  for (std::size_t i = 0; i < n; ++i) {
    channels.push_back(std::make_unique<net::AsyncTcpChannel>(
        loop, "127.0.0.1", fleet.providers[i]->server->port()));
    devices.push_back(std::make_unique<VerifierDevice>(
        Fleet::device_config(), *channels.back(), fleet.timer));
  }

  unsigned passed = 0;
  std::uint64_t audited = 0;
  for (auto _ : state) {
    std::size_t completed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      fleet.scheme->begin_audit(fleet.record(i), kChallenge, *devices[i],
                                [&](AuditReport&& report) {
                                  passed += report.accepted;
                                  ++completed;
                                });
    }
    while (completed < n) loop.pump(Millis{10.0});
    audited += n;
    benchmark::DoNotOptimize(passed);
  }
  if (passed != audited) {
    state.SkipWithError("async audits failed");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["in_flight"] = benchmark::Counter(static_cast<double>(n));
  state.counters["providers"] = benchmark::Counter(static_cast<double>(n));
}
BENCHMARK(BM_AsyncTcpAudits)->Arg(1)->Arg(8)->Arg(64)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
