// Experiment F4-F5 — Figs. 4-5: the GeoProof architecture and protocol.
//
// Runs full audits on the simulated deployment and reports the virtual-time
// behaviour the protocol is built around: per-round RTT decomposition
// (LAN vs disk look-up), audit duration versus challenge size k, and the
// effect of the provider's disk class. Also wall-clock microbenchmarks of
// the protocol engine (challenge sampling, signing, verification).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "common/rng.hpp"
#include "core/deployment.hpp"

namespace {

using namespace geoproof;
using namespace geoproof::core;

DeploymentConfig bench_config() {
  DeploymentConfig cfg;
  cfg.por.ecc_data_blocks = 48;
  cfg.por.ecc_parity_blocks = 16;
  cfg.provider.location = {-27.47, 153.02};
  cfg.verifier.signer_height = 12;  // BM_FullAudit iterates thousands of times
  return cfg;
}

void print_protocol_sweeps() {
  std::printf("\n=== Fig. 5: GeoProof audit behaviour (virtual time) ===\n");

  std::printf("\n--- Audit cost vs challenge size k (WD 2500JD) ---\n");
  std::printf("%6s %14s %12s %12s %12s\n", "k", "audit ms", "mean RTT",
              "max RTT", "verdict");
  {
    SimulatedDeployment world(bench_config());
    Rng rng(1);
    const auto record = world.upload(rng.next_bytes(200000), 1);
    for (const std::uint32_t k : {5u, 10u, 20u, 50u, 100u}) {
      const Nanos before = world.clock().now();
      const AuditReport report = world.run_audit(record, k);
      const double audit_ms =
          to_millis(world.clock().now() - before).count();
      std::printf("%6u %14.2f %12.3f %12.3f %12s\n", k, audit_ms,
                  report.mean_rtt.count(), report.max_rtt.count(),
                  report.accepted ? "accepted" : "REJECTED");
    }
  }

  std::printf("\n--- Mean round RTT by provider disk (k = 20) ---\n");
  std::printf("%-16s %12s %12s %14s %10s\n", "Disk", "mean RTT", "max RTT",
              "budget ms", "verdict");
  for (const auto& disk : storage::disk_catalog()) {
    DeploymentConfig cfg = bench_config();
    cfg.provider.disk = disk;
    SimulatedDeployment world(cfg);
    Rng rng(2);
    const auto record = world.upload(rng.next_bytes(100000), 1);
    const AuditReport report = world.run_audit(record, 20);
    std::printf("%-16s %12.3f %12.3f %14.2f %10s\n", disk.name.c_str(),
                report.mean_rtt.count(), report.max_rtt.count(),
                world.scheme().policy().max_round_trip().count(),
                report.accepted ? "accepted" : "REJECTED");
  }

  std::printf("\n--- RTT decomposition (deterministic latencies, k = 20) ---\n");
  {
    DeploymentConfig cfg = bench_config();
    cfg.provider.sample_disk_latency = false;
    cfg.lan_jitter_seed = 0;
    SimulatedDeployment world(cfg);
    Rng rng(3);
    const auto record = world.upload(rng.next_bytes(100000), 1);
    const AuditReport report = world.run_audit(record, 20);
    const net::LanModel lan(cfg.lan);
    const double lan_rtt =
        lan.rtt(cfg.verifier_distance, 16, cfg.por.segment_bytes()).count();
    const storage::DiskModel disk(cfg.provider.disk);
    const std::size_t read_bytes =
        ((cfg.por.segment_bytes() + 511) / 512) * 512;
    std::printf("  measured round RTT: %.4f ms = LAN %.4f ms + look-up "
                "%.4f ms\n",
                report.mean_rtt.count(), lan_rtt,
                disk.lookup_time(read_bytes).count());
    std::printf("  (paper budget: Δt_VP <= 3 ms, Δt_L <= 13 ms, Δt_max ~ "
                "16 ms)\n\n");
  }
}

// The device's one-time keys are finite; rebuild the world when exhausted
// so the benchmark can iterate indefinitely.
struct BenchWorld {
  std::unique_ptr<SimulatedDeployment> world;
  FileRecord record;

  BenchWorld() { rebuild(); }
  void rebuild() {
    world = std::make_unique<SimulatedDeployment>(bench_config());
    Rng rng(4);
    record = world->upload(rng.next_bytes(100000), 1);
  }
  void ensure_keys(benchmark::State& state) {
    if (world->verifier().audits_remaining() == 0) {
      state.PauseTiming();
      rebuild();
      state.ResumeTiming();
    }
  }
};

void BM_FullAudit(benchmark::State& state) {
  BenchWorld bw;
  const auto k = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    bw.ensure_keys(state);
    benchmark::DoNotOptimize(bw.world->run_audit(bw.record, k));
  }
}
BENCHMARK(BM_FullAudit)->Arg(10)->Arg(50);

void BM_TranscriptVerify(benchmark::State& state) {
  BenchWorld bw;
  for (auto _ : state) {
    state.PauseTiming();
    if (bw.world->verifier().audits_remaining() == 0) bw.rebuild();
    const AuditRequest request = bw.world->scheme().make_request(bw.record, 20);
    const SignedTranscript transcript = bw.world->verifier().run_audit(request);
    state.ResumeTiming();
    benchmark::DoNotOptimize(bw.world->scheme().verify(bw.record, transcript));
  }
}
BENCHMARK(BM_TranscriptVerify);

}  // namespace

int main(int argc, char** argv) {
  print_protocol_sweeps();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
