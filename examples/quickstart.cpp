// Quickstart: the complete GeoProof flow in one file.
//
//   1. A data owner encodes a file with the POR setup pipeline.
//   2. The encoded file is uploaded to a (simulated) Brisbane data centre.
//   3. The TPA runs a GeoProof audit through the tamper-proof verifier
//      device on the provider's LAN.
//   4. The TPA's four verification steps produce the verdict.
//
// Build & run:  cmake --build build && ./build/examples/quickstart
#include <cstdio>

#include "common/rng.hpp"
#include "core/deployment.hpp"

using namespace geoproof;
using namespace geoproof::core;

int main() {
  std::printf("GeoProof quickstart\n===================\n\n");

  // --- configure the world -------------------------------------------
  DeploymentConfig config;
  config.provider.name = "bne-dc1";
  config.provider.location = {-27.4698, 153.0251};  // Brisbane
  config.provider.disk = storage::wd2500jd();       // the paper's avg disk
  // Small ECC geometry keeps the demo snappy; swap for the paper's
  // (255, 223) by removing these two lines.
  config.por.ecc_data_blocks = 48;
  config.por.ecc_parity_blocks = 16;
  SimulatedDeployment world(config);

  std::printf("provider: %s at (%.4f, %.4f), disk %s\n",
              config.provider.name.c_str(), config.provider.location.lat_deg,
              config.provider.location.lon_deg,
              config.provider.disk.name.c_str());
  std::printf("policy:   max round trip %.2f ms (calibrated to the disk)\n\n",
              world.scheme().policy().max_round_trip().count());

  // --- owner: encode + upload ----------------------------------------
  Rng rng(2024);
  const Bytes file = rng.next_bytes(1 << 20);  // 1 MiB of owner data
  const auto record = world.upload(file, /*file_id=*/1);
  std::printf("uploaded file 1: %zu bytes -> %llu segments of %zu bytes "
              "(expansion from ECC+MAC)\n\n",
              file.size(), static_cast<unsigned long long>(record.n_segments),
              config.por.segment_bytes());

  // --- TPA: audit ------------------------------------------------------
  // The TPA is programmed against the polymorphic audit API: every flavour
  // (MAC, sentinel, dynamic) exposes the same make_request/verify pair
  // through core::AuditScheme, which is also what AuditService schedules.
  AuditScheme& tpa = world.scheme();
  const std::uint32_t k = 20;
  std::printf("running GeoProof audit (scheme '%s') with k = %u timed "
              "challenges...\n",
              tpa.name().c_str(), k);
  const AuditRequest request = tpa.make_request(record, k);
  const SignedTranscript transcript = world.verifier().run_audit(request);
  const AuditReport report = tpa.verify(record, transcript);
  std::printf("  %s\n", report.summary().c_str());
  std::printf("  per-round RTT: mean %.3f ms, max %.3f ms (LAN + disk "
              "look-up)\n\n",
              report.mean_rtt.count(), report.max_rtt.count());

  // --- what an attack looks like --------------------------------------
  std::printf("now the provider secretly moves the data ~730 km away "
              "(Sydney) and relays...\n");
  world.deploy_remote_relay(1, Kilometers{730.0}, storage::ibm36z15());
  const AuditReport attacked = world.run_audit(record, k);
  std::printf("  %s\n", attacked.summary().c_str());
  std::printf("\nverdict: the timed challenge-response phase exposes the "
              "relocation; tags stay valid because the data is intact - "
              "it is simply in the wrong place.\n");
  return 0;
}
