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
#include <exception>
#include <memory>
#include <string>

#include "common/flags.hpp"
#include "common/log.hpp"
#include "daemon/signal.hpp"
#include "daemon/vantage_daemon.hpp"
#include "net/async.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_server.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace geoproof;

  daemon::VantageConfig config;
  std::string log_level = "info";
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
  std::int64_t metrics_port = -1;
  flags.add("metrics-port", &metrics_port,
            "serve /metrics + /statusz on this port (0 = kernel-chosen, "
            "printed in READY; -1 = off)");
  add_log_level_flag(flags, &log_level);

  switch (flags.parse(argc, argv)) {
    case FlagParser::ParseStatus::kHelp:
      std::fputs(flags.usage().c_str(), stdout);
      return 0;
    case FlagParser::ParseStatus::kError:
      std::fprintf(stderr, "geoproof-vantage: %s\n%s", flags.error().c_str(),
                   flags.usage().c_str());
      return 2;
    case FlagParser::ParseStatus::kOk:
      break;
  }
  config.port = static_cast<std::uint16_t>(port);
  std::string level_error;
  if (!apply_log_level(log_level, level_error)) {
    std::fprintf(stderr, "geoproof-vantage: %s\n%s", level_error.c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (metrics_port > 65535) {
    std::fprintf(stderr, "geoproof-vantage: --metrics-port out of range\n");
    return 2;
  }
  const std::string metrics_host = config.host;

  daemon::ShutdownSignal shutdown;
  daemon::VantageDaemon vantage(std::move(config));

  std::unique_ptr<obs::MetricsServer> metrics_server;
  if (metrics_port >= 0) {
    obs::Registry& registry = obs::Registry::process();
    registry.add_snapshot("geoproof_vantage", [&vantage] {
      return obs::Fields{{"sweeps_total", vantage.sweeps()},
                         {"rounds_total", vantage.rounds()},
                         {"violations_total", vantage.violations()},
                         {"sessions_in_flight", vantage.sessions_in_flight()}};
    });
    obs::MetricsServer::Options options;
    options.host = metrics_host;
    options.port = static_cast<std::uint16_t>(metrics_port);
    metrics_server = std::make_unique<obs::MetricsServer>(registry, options);
  }

  std::printf("READY port=%u", vantage.port());
  if (metrics_server != nullptr) {
    std::printf(" metrics_port=%u", metrics_server->port());
  }
  std::printf("\n");
  std::fflush(stdout);

  net::EventLoop loop;
  loop.add_fd(shutdown.fd(), /*want_read=*/true, /*want_write=*/false,
              [&](bool, bool, bool) {
                shutdown.consume();
                loop.stop();
              });
  loop.run();
  loop.remove_fd(shutdown.fd());

  log::info("geoproof-vantage", "shutting down",
            {{"signal", shutdown.received()}, {"sweeps", vantage.sweeps()}});
  vantage.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "geoproof-vantage: fatal: %s\n", err.what());
    return 1;
  }
}
