// geoproof-audit — the auditor CLI.
//
// Fans MeasureRequests out to a vantage fleet (one --vantage host:port per
// landmark), converts the reported RTT sample sets to distances through a
// calibrated delay model, and multilaterates a position fix. The JSON
// audit report goes to stdout; logs go to stderr.
//
// With --track the CLI becomes a streaming monitor: --sweeps repeated
// fleet measurements feed a track::TrackService and every sweep emits one
// JSON track-update line (fix + error ellipse, change-point state,
// relocation alarms, optional geo-fence verdict) to stdout. --metrics-port
// (valid with --track only: one-shot stdout is a single JSON document)
// serves /metrics + /statusz mid-stream and announces the bound port
// first, on its own stdout line:
//
//   METRICS port=<m>
//
// Exit codes: 0 converged fix produced (one-shot) / stream finished with
// no alarm (--track), 3 audit ran but no converged fix, 4 stream raised a
// relocation alarm, 2 flag error, 1 fatal.

#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "app_shell.hpp"
#include "common/errors.hpp"
#include "daemon/auditor_client.hpp"
#include "daemon/track_stream.hpp"
#include "obs/span.hpp"

namespace {

geoproof::daemon::VantageEndpoint parse_endpoint(const std::string& spec) {
  const auto colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    throw geoproof::InvalidArgument("--vantage expects host:port, got \"" +
                                    spec + "\"");
  }
  geoproof::daemon::VantageEndpoint ep;
  ep.host = spec.substr(0, colon);
  const int port = std::stoi(spec.substr(colon + 1));
  if (port <= 0 || port > 65535) {
    throw geoproof::InvalidArgument("--vantage port out of range in \"" +
                                    spec + "\"");
  }
  ep.port = static_cast<std::uint16_t>(port);
  return ep;
}

int run(int argc, char** argv) {
  using namespace geoproof;

  daemon::AuditorConfig config;
  std::vector<std::string> vantage_specs;
  std::uint64_t prover_port = 0;
  std::uint64_t rounds = 8;
  apps::CommonFlags common;
  bool track = false;
  std::uint64_t sweeps = 10;
  double interval_ms = 0.0;
  std::uint64_t window = 4;
  double alarm_km = 300.0;
  double fence_lat = 0.0;
  double fence_lon = 0.0;
  double fence_radius_km = 0.0;
  FlagParser flags("geoproof-audit",
                   "GeoProof auditor: drive a vantage fleet to a position fix");
  flags.add("vantage", &vantage_specs, "vantage endpoint host:port (repeat)");
  flags.add("prover-host", &config.prover_host, "prover address");
  flags.add("prover-port", &prover_port, "prover port");
  flags.add("file-id", &config.file_id, "audited file id");
  flags.add("n-segments", &config.n_segments,
            "segment count of the audited file (from geoproofd's FILE line)");
  flags.add("rounds", &rounds, "timed rounds per vantage");
  flags.add("probe-seed", &config.probe_seed, "challenge-sequence seed");
  flags.add("max-rtt-ms", &config.max_rtt_ms,
            "per-round violation threshold forwarded to vantages (0 = off)");
  flags.add("timeout-ms", &config.sweep_timeout_ms,
            "deadline for one vantage's whole sweep");
  flags.add("cal-ms-per-km", &config.cal_ms_per_km,
            "delay-model calibration slope (0 = physical bound only)");
  flags.add("cal-intercept-ms", &config.cal_intercept_ms,
            "delay-model calibration intercept");
  flags.add("track", &track,
            "streaming mode: repeated sweeps, one JSON line each");
  flags.add("sweeps", &sweeps, "sweeps to run in --track mode");
  flags.add("interval-ms", &interval_ms,
            "pause between --track sweeps (0 = back to back)");
  flags.add("window", &window,
            "per-vantage RTT window in sweeps (--track mode)");
  flags.add("alarm-km", &alarm_km,
            "relocation-alarm displacement gate in km (--track mode)");
  flags.add("fence-lat", &fence_lat, "geo-fence centre latitude");
  flags.add("fence-lon", &fence_lon, "geo-fence centre longitude");
  flags.add("fence-radius-km", &fence_radius_km,
            "geo-fence radius (0 = no fence)");
  apps::add_common_flags(
      flags, common,
      "serve /metrics + /statusz on this port while streaming "
      "(--track only; 0 = kernel-chosen, printed as METRICS port=N; "
      "-1 = off)");
  if (const auto exit_code =
          apps::parse_flags("geoproof-audit", flags, common, argc, argv)) {
    return *exit_code;
  }
  if (common.metrics_port >= 0 && !track) {
    std::fprintf(stderr,
                 "geoproof-audit: --metrics-port requires --track (one-shot "
                 "stdout is a single JSON document)\n");
    return 2;
  }

  config.prover_port = static_cast<std::uint16_t>(prover_port);
  config.rounds = static_cast<std::uint32_t>(rounds);
  try {
    for (const std::string& spec : vantage_specs) {
      config.vantages.push_back(parse_endpoint(spec));
    }
    if (config.vantages.empty()) {
      throw InvalidArgument("at least one --vantage is required");
    }
  } catch (const std::exception& err) {
    std::fprintf(stderr, "geoproof-audit: %s\n", err.what());
    return 2;
  }

  if (track) {
    daemon::TrackStreamConfig stream;
    stream.auditor = config;
    stream.sweeps = sweeps;
    stream.interval_ms = interval_ms;
    stream.track.window = static_cast<std::size_t>(window);
    stream.track.changepoint.min_displacement = Kilometers{alarm_km};
    if (fence_radius_km > 0.0) {
      stream.fence = core::GeoFencePolicy{
          net::GeoPoint{fence_lat, fence_lon}, Kilometers{fence_radius_km}};
    }

    // Spans before the server (teardown order: server first), so /statusz
    // never reads a dead recorder.
    obs::SpanRecorder span_recorder;
    std::unique_ptr<obs::MetricsServer> metrics_server;
    if (common.metrics_port >= 0) {
      obs::Registry& registry = obs::Registry::process();
      stream.auditor.metrics = &registry;
      stream.spans = &span_recorder;
      obs::MetricsServer::Options options;
      options.port = static_cast<std::uint16_t>(common.metrics_port);
      options.spans = &span_recorder;
      metrics_server = std::make_unique<obs::MetricsServer>(registry, options);
      std::printf("METRICS port=%u\n", metrics_server->port());
      std::fflush(stdout);
    }

    daemon::TrackStreamer streamer(stream);
    const daemon::TrackStreamResult result =
        streamer.run([](const std::string& line) {
          std::fputs(line.c_str(), stdout);
          std::fputc('\n', stdout);
          std::fflush(stdout);  // the harness tails the stream live
        });
    if (result.alarms > 0) return 4;
    return result.fixes > 0 ? 0 : 3;
  }

  daemon::AuditorClient client(config);
  const daemon::FleetReport report = client.run();

  const std::string json = daemon::to_json(client.config(), report);
  std::fputs(json.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);

  return report.have_estimate && report.estimate.converged ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  return geoproof::apps::guarded_main("geoproof-audit", run, argc, argv);
}
