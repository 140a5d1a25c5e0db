// The main() shell the GeoProof binaries share: the --metrics-port and
// --log-level flags with their checks, the /metrics server start-up, the
// READY handshake line and the main thread parked until SIGTERM/SIGINT.
// Messages and exit codes are the binaries' contract with spawning
// harnesses: flag errors exit 2, an escaped exception exits 1.
#pragma once

#include <cstdint>
#include <cstdio>
#include <exception>
#include <memory>
#include <optional>
#include <string>

#include "common/flags.hpp"
#include "daemon/signal.hpp"
#include "net/async.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_server.hpp"

namespace geoproof::apps {

inline constexpr const char* kDaemonMetricsHelp =
    "serve /metrics + /statusz on this port (0 = kernel-chosen, printed in "
    "READY; -1 = off)";

/// The flags every binary takes besides its own.
struct CommonFlags {
  std::string log_level = "info";
  std::int64_t metrics_port = -1;  // -1 = off
};

inline void add_common_flags(FlagParser& flags, CommonFlags& common,
                             const char* metrics_help = kDaemonMetricsHelp) {
  flags.add("metrics-port", &common.metrics_port, metrics_help);
  add_log_level_flag(flags, &common.log_level);
}

/// Parse argv and check the common flags. Returns the exit code to leave
/// with (0 after --help, 2 on a flag error), or nullopt to run.
inline std::optional<int> parse_flags(const char* prog, FlagParser& flags,
                                      const CommonFlags& common, int argc,
                                      char** argv) {
  switch (flags.parse(argc, argv)) {
    case FlagParser::ParseStatus::kHelp:
      std::fputs(flags.usage().c_str(), stdout);
      return 0;
    case FlagParser::ParseStatus::kError:
      std::fprintf(stderr, "%s: %s\n%s", prog, flags.error().c_str(),
                   flags.usage().c_str());
      return 2;
    case FlagParser::ParseStatus::kOk:
      break;
  }
  std::string level_error;
  if (!apply_log_level(common.log_level, level_error)) {
    std::fprintf(stderr, "%s: %s\n%s", prog, level_error.c_str(),
                 flags.usage().c_str());
    return 2;
  }
  if (common.metrics_port > 65535) {
    std::fprintf(stderr, "%s: --metrics-port out of range\n", prog);
    return 2;
  }
  return std::nullopt;
}

/// Serve the process registry on --metrics-port, with a daemon's snapshot
/// registered under `prefix`; null when the flag is off.
inline std::unique_ptr<obs::MetricsServer> start_metrics(
    const CommonFlags& common, const std::string& host,
    const std::string& prefix, obs::Registry::SnapshotFn snapshot) {
  if (common.metrics_port < 0) return nullptr;
  obs::Registry& registry = obs::Registry::process();
  registry.add_snapshot(prefix, std::move(snapshot));
  obs::MetricsServer::Options options;
  options.host = host;
  options.port = static_cast<std::uint16_t>(common.metrics_port);
  return std::make_unique<obs::MetricsServer>(registry, options);
}

/// "READY port=<p>[ metrics_port=<m>]" — the line harnesses wait for.
inline void print_ready(std::uint16_t port,
                        const obs::MetricsServer* metrics) {
  std::printf("READY port=%u", port);
  if (metrics != nullptr) std::printf(" metrics_port=%u", metrics->port());
  std::printf("\n");
}

/// Park the main thread on its own loop watching the signal pipe; the
/// daemon's server pumps its own loop on its own thread.
inline void wait_for_shutdown(daemon::ShutdownSignal& shutdown) {
  net::EventLoop loop;
  loop.add_fd(shutdown.fd(), /*want_read=*/true, /*want_write=*/false,
              [&](bool, bool, bool) {
                shutdown.consume();
                loop.stop();
              });
  loop.run();
  loop.remove_fd(shutdown.fd());
}

/// main(): run `run`, reporting an escaped exception as "<prog>: fatal:".
inline int guarded_main(const char* prog, int (*run)(int, char**), int argc,
                        char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "%s: fatal: %s\n", prog, err.what());
    return 1;
  }
}

}  // namespace geoproof::apps
