// geoproofd — the prover/provider daemon.
//
// Encodes a deterministic pseudorandom file under the POR pipeline and
// serves timed segment requests (core::SegmentRequest frames) until
// SIGTERM/SIGINT. Stdout carries the machine handshake for spawning
// harnesses:
//
//   READY port=<p> [metrics_port=<m>]
//   FILE id=<id> segments=<n> segment_bytes=<b>
//
// --metrics-port serves GET /metrics (Prometheus text) and GET /statusz
// (JSON) from the process obs registry; port 0 asks the kernel and the
// chosen port rides the READY line. Everything else is logfmt on stderr.
// Exit codes: 0 clean shutdown, 2 flag error, 1 fatal.

#include <cstdio>
#include <string>

#include "app_shell.hpp"
#include "common/log.hpp"
#include "daemon/prover_daemon.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace geoproof;

  daemon::ProverConfig config;
  apps::CommonFlags common;
  FlagParser flags("geoproofd", "GeoProof prover/provider daemon");
  flags.add("host", &config.host, "address to bind");
  std::uint64_t port = 0;
  flags.add("port", &port, "port to bind (0 = kernel-chosen, printed in READY)");
  flags.add("file-id", &config.file_id, "file id to store and serve");
  flags.add("file-bytes", &config.file_bytes, "original file size to encode");
  flags.add("seed", &config.seed, "file content + key seed");
  flags.add("stall-ms", &config.stall_ms,
            "adversarial stall added to every answer");
  apps::add_common_flags(flags, common);
  if (const auto exit_code =
          apps::parse_flags("geoproofd", flags, common, argc, argv)) {
    return *exit_code;
  }
  config.port = static_cast<std::uint16_t>(port);
  const std::string metrics_host = config.host;

  daemon::ShutdownSignal shutdown;
  daemon::ProverDaemon prover(std::move(config));
  const auto metrics_server =
      apps::start_metrics(common, metrics_host, "geoproof_prover", [&prover] {
        return obs::Fields{{"requests_served_total", prover.requests_served()},
                           {"segments", prover.n_segments()}};
      });

  apps::print_ready(prover.port(), metrics_server.get());
  std::printf("FILE id=%llu segments=%llu segment_bytes=%zu\n",
              static_cast<unsigned long long>(prover.file_id()),
              static_cast<unsigned long long>(prover.n_segments()),
              prover.segment_bytes());
  std::fflush(stdout);
  apps::wait_for_shutdown(shutdown);

  log::info("geoproofd", "shutting down",
            {{"signal", shutdown.received()},
             {"requests_served", prover.requests_served()}});
  prover.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return geoproof::apps::guarded_main("geoproofd", run, argc, argv);
}
