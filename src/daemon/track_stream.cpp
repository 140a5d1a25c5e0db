#include "daemon/track_stream.hpp"

#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/errors.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace geoproof::daemon {

namespace {

void write_fix(JsonWriter& w, const track::TrackFix& fix) {
  const locate::PositionEstimate& est = fix.estimate;
  w.begin_object();
  w.kv("lat", est.position.lat_deg);
  w.kv("lon", est.position.lon_deg);
  w.kv("radius_km", est.radius_km.value);
  w.kv("converged", est.converged);
  w.kv("vantages_used", static_cast<std::uint64_t>(fix.vantages_used));
  w.key("ellipse");
  if (est.ellipse.valid) {
    w.begin_object();
    w.kv("semi_major_km", est.ellipse.semi_major.value);
    w.kv("semi_minor_km", est.ellipse.semi_minor.value);
    w.kv("orientation_deg", est.ellipse.orientation_deg);
    w.kv("area_km2", est.ellipse.area_km2());
    w.end_object();
  } else {
    w.null();
  }
  w.end_object();
}

std::string update_line(std::uint64_t sweep, const FleetReport& fleet,
                        const track::TrackService::Report& report,
                        const std::optional<track::RelocationAlarm>& alarm) {
  JsonWriter w;
  w.begin_object();
  w.kv("type", "track-update");
  w.kv("sweep", sweep);
  w.kv("provider", report.name);
  w.kv("responded", static_cast<std::uint64_t>(fleet.responded));
  w.kv("completed", static_cast<std::uint64_t>(fleet.completed));
  w.key("fix");
  if (report.fix) {
    write_fix(w, *report.fix);
  } else {
    w.null();
  }
  w.kv("state", track::to_string(report.state));
  w.kv("score", report.score);
  w.kv("alarms", report.alarms);
  w.key("alarm");
  if (alarm) {
    w.begin_object();
    w.kv("displacement_km", alarm->displacement.value);
    w.kv("from_lat", alarm->reference.lat_deg);
    w.kv("from_lon", alarm->reference.lon_deg);
    w.kv("to_lat", alarm->fix.lat_deg);
    w.kv("to_lon", alarm->fix.lon_deg);
    w.kv("score", alarm->score);
    w.end_object();
  } else {
    w.null();
  }
  w.key("fence");
  if (report.fence) {
    w.value(core::to_string(*report.fence));
  } else {
    w.null();
  }
  w.end_object();
  return std::move(w).str();
}

}  // namespace

TrackStreamer::TrackStreamer(TrackStreamConfig config)
    : config_(std::move(config)) {
  if (config_.sweeps == 0) {
    throw InvalidArgument("TrackStreamer: sweeps must be >= 1");
  }
  if (config_.interval_ms < 0.0) {
    throw InvalidArgument("TrackStreamer: interval must be >= 0");
  }
}

TrackStreamResult TrackStreamer::run(
    const std::function<void(const std::string& line)>& emit) {
  if (!emit) throw InvalidArgument("TrackStreamer: null emit sink");

  track::TrackService::Options service_options;
  service_options.track = config_.track;
  track::TrackService service(service_options);
  if (config_.auditor.metrics != nullptr) {
    service.register_metrics(*config_.auditor.metrics);
  }
  if (config_.spans != nullptr) {
    service.set_span_recorder(config_.spans, [] { return steady_now(); });
  }
  const std::uint64_t provider = service.add(
      config_.provider_name, calibrate_model(config_.auditor), config_.fence);

  TrackStreamResult result;
  for (std::uint64_t sweep = 1; sweep <= config_.sweeps; ++sweep) {
    AuditorConfig sweep_config = config_.auditor;
    // Fresh challenge sequences every sweep: repeating the seed would
    // re-measure the prover's cache, not the path.
    sweep_config.probe_seed =
        config_.auditor.probe_seed + 0x517cc1b727220a95ULL * sweep;
    // Fan-out only: the track's windowed re-solve is this sweep's fix, so
    // the one-shot estimation step would be solved and thrown away.
    AuditorClient client(std::move(sweep_config));
    const FleetReport fleet = client.measure();

    for (const VantageOutcome& outcome : fleet.outcomes) {
      if (!outcome.responded || !outcome.report.completed) continue;
      service.record(provider, observation_of(outcome.report));
    }

    const std::vector<track::TrackService::ProviderAlarm> raised =
        service.commit_sweep(sweep);
    std::optional<track::RelocationAlarm> alarm;
    if (!raised.empty()) {
      alarm = raised.front().alarm;
      log::warn("track", "relocation alarm",
                {{"sweep", sweep},
                 {"displacement_km", alarm->displacement.value},
                 {"score", alarm->score}});
    }

    const track::TrackService::Report report = service.report(provider);
    ++result.sweeps_run;
    result.fixes = report.fixes;
    result.alarms = report.alarms;
    emit(update_line(sweep, fleet, report, alarm));

    if (config_.interval_ms > 0.0 && sweep < config_.sweeps) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(config_.interval_ms));
    }
  }
  return result;
}

}  // namespace geoproof::daemon
