// geoproof-vantage — a trusted landmark daemon.
//
// Serves the auditor's control protocol (daemon/wire.hpp) and runs timed
// distance-bounding sweeps against a prover on request, many at once on
// its serving loop. Stdout handshake:
//
//   READY port=<p> [metrics_port=<m>]
//
// --extra-oneway-ms emulates this vantage's geographic distance to the
// prover (each round waits 2x it on a loop timer inside the timed window);
// --lie-rtt-ms turns the vantage Byzantine; --metrics-port serves
// /metrics + /statusz from the process obs registry, including the
// geoproof_vantage snapshot (sweeps, rounds, violations and the sessions
// in flight). Exit codes: 0 clean shutdown, 2 flag error, 1 fatal.

#include <cstdio>
#include <string>

#include "app_shell.hpp"
#include "common/log.hpp"
#include "daemon/vantage_daemon.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace geoproof;

  daemon::VantageConfig config;
  apps::CommonFlags common;
  FlagParser flags("geoproof-vantage", "GeoProof vantage (landmark) daemon");
  flags.add("name", &config.name, "vantage name reported to the auditor");
  flags.add("lat", &config.latitude_deg, "advertised latitude (degrees)");
  flags.add("lon", &config.longitude_deg, "advertised longitude (degrees)");
  flags.add("host", &config.host, "address to bind");
  std::uint64_t port = 0;
  flags.add("port", &port, "port to bind (0 = kernel-chosen, printed in READY)");
  flags.add("extra-oneway-ms", &config.extra_oneway_ms,
            "emulated one-way path delay to the prover (ms); each timed "
            "round waits 2x this on a timer before its request goes out");
  flags.add("lie-rtt-ms", &config.lie_rtt_ms,
            "Byzantine mode: fabricate samples around this RTT");
  apps::add_common_flags(flags, common);
  if (const auto exit_code =
          apps::parse_flags("geoproof-vantage", flags, common, argc, argv)) {
    return *exit_code;
  }
  config.port = static_cast<std::uint16_t>(port);
  const std::string metrics_host = config.host;

  daemon::ShutdownSignal shutdown;
  daemon::VantageDaemon vantage(std::move(config));
  const auto metrics_server =
      apps::start_metrics(common, metrics_host, "geoproof_vantage", [&vantage] {
        return obs::Fields{{"sweeps_total", vantage.sweeps()},
                           {"rounds_total", vantage.rounds()},
                           {"violations_total", vantage.violations()},
                           {"sessions_in_flight", vantage.sessions_in_flight()}};
      });

  apps::print_ready(vantage.port(), metrics_server.get());
  std::fflush(stdout);
  apps::wait_for_shutdown(shutdown);

  log::info("geoproof-vantage", "shutting down",
            {{"signal", shutdown.received()}, {"sweeps", vantage.sweeps()}});
  vantage.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return geoproof::apps::guarded_main("geoproof-vantage", run, argc, argv);
}
