#include "daemon/auditor_client.hpp"

#include <algorithm>
#include <memory>

#include "common/errors.hpp"
#include "common/json.hpp"
#include "common/log.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"

namespace geoproof::daemon {

locate::DelayModel calibrate_model(const AuditorConfig& config) {
  if (config.cal_ms_per_km <= 0.0) return locate::DelayModel{};
  // The emulated world is linear by construction, so a synthetic ladder
  // of points on the declared line calibrates exactly (r2 = 1).
  std::vector<locate::CalibrationPoint> points;
  for (int i = 1; i <= 8; ++i) {
    const Kilometers d{500.0 * i};
    points.push_back({d, Millis{config.cal_intercept_ms +
                                config.cal_ms_per_km * d.value}});
  }
  return locate::DelayModel::fit(points);
}

locate::VantageObservation observation_of(const SampleReport& report) {
  std::vector<Millis> samples;
  samples.reserve(report.rtt_ms.size());
  for (const double ms : report.rtt_ms) samples.push_back(Millis{ms});
  locate::VantageObservation obs;
  obs.vantage = geoloc::Landmark{
      report.vantage_name,
      net::GeoPoint{report.latitude_deg, report.longitude_deg}};
  obs.stats = locate::SampleStats::of(samples);
  obs.reported_rtt = locate::min_filtered(samples);
  obs.timing_violations = report.timing_violations;
  obs.completed = !samples.empty();
  return obs;
}

AuditorClient::AuditorClient(AuditorConfig config)
    : config_(std::move(config)) {}

FleetReport AuditorClient::run() {
  FleetReport fleet = measure();
  estimate(fleet);
  return fleet;
}

FleetReport AuditorClient::measure() {
  if (config_.vantages.empty()) {
    throw InvalidArgument("AuditorClient: no vantages");
  }
  if (config_.n_segments == 0) {
    throw InvalidArgument("AuditorClient: n_segments must be > 0");
  }

  FleetReport fleet;
  fleet.outcomes.resize(config_.vantages.size());

  // Instrumentation (optional): the async-channel counters live here, not
  // in net, because the client knows what a request *means* — one vantage
  // sweep with a deadline on the loop's timers.
  obs::Counter* requests_total = nullptr;
  obs::Counter* deadline_misses = nullptr;
  obs::Counter* errors_total = nullptr;
  obs::Gauge* inflight = nullptr;
  if (config_.metrics != nullptr) {
    config_.metrics->counter("geoproof_audit_sweeps_total").inc();
    requests_total = &config_.metrics->counter("geoproof_async_requests_total");
    deadline_misses =
        &config_.metrics->counter("geoproof_async_deadline_misses_total");
    errors_total = &config_.metrics->counter("geoproof_async_errors_total");
    inflight = &config_.metrics->gauge("geoproof_async_inflight_requests");
  }

  MeasureRequest request;
  request.prover_host = config_.prover_host;
  request.prover_port = config_.prover_port;
  request.file_id = config_.file_id;
  request.n_segments = config_.n_segments;
  request.rounds = config_.rounds;
  request.max_rtt_ms = config_.max_rtt_ms;

  net::EventLoop loop;
  std::vector<std::unique_ptr<net::AsyncTcpChannel>> channels(
      config_.vantages.size());
  std::size_t outstanding = 0;

  for (std::size_t i = 0; i < config_.vantages.size(); ++i) {
    VantageOutcome& outcome = fleet.outcomes[i];
    outcome.endpoint = config_.vantages[i];
    // Distinct per-vantage seed: same audit seed, uncorrelated challenge
    // sequences (two vantages hammering identical segments would measure
    // the prover's cache, not the path).
    request.probe_seed = config_.probe_seed + 0x9e3779b9u * (i + 1);
    try {
      channels[i] = std::make_unique<net::AsyncTcpChannel>(
          loop, outcome.endpoint.host, outcome.endpoint.port);
    } catch (const std::exception& err) {
      outcome.error = err.what();
      log::warn("audit", "vantage connect failed",
                {{"host", outcome.endpoint.host},
                 {"port", outcome.endpoint.port},
                 {"error", err.what()}});
      continue;
    }
    ++outstanding;
    if (requests_total != nullptr) requests_total->inc();
    if (inflight != nullptr) inflight->add(1);
    channels[i]->begin_request(
        encode(request),
        [&outcome, &outstanding, inflight, deadline_misses,
         errors_total](net::AsyncResult&& result) {
          --outstanding;
          if (inflight != nullptr) inflight->sub(1);
          if (!result.ok()) {
            if (errors_total != nullptr) errors_total->inc();
            if (result.status == net::AsyncStatus::kTimeout) {
              if (deadline_misses != nullptr) deadline_misses->inc();
              outcome.error = "sweep deadline expired";
            } else {
              outcome.error = result.error;
            }
            return;
          }
          try {
            switch (type_of(result.payload)) {
              case MsgType::kSampleReport:
                outcome.report = decode_sample_report(result.payload);
                outcome.responded = true;
                break;
              case MsgType::kErrorReply:
                outcome.error = decode_error_reply(result.payload).message;
                break;
              default:
                outcome.error = "unexpected reply type";
            }
          } catch (const std::exception& err) {
            outcome.error = err.what();
          }
        },
        Millis{config_.sweep_timeout_ms});
  }

  while (outstanding > 0) {
    loop.pump(Millis{50.0});
  }
  channels.clear();  // loop-thread-only teardown, before the loop dies

  for (VantageOutcome& outcome : fleet.outcomes) {
    if (!outcome.responded) continue;
    ++fleet.responded;
    if (!outcome.report.completed) {
      if (outcome.error.empty()) outcome.error = outcome.report.error;
      continue;
    }
    ++fleet.completed;
    if (config_.metrics != nullptr) {
      // Per-vantage RTT distribution: the samples the vantage measured,
      // keyed by its self-reported name (stable across sweeps).
      obs::Histogram& rtts = config_.metrics->histogram(
          "geoproof_vantage_rtt_seconds",
          {{"vantage", outcome.report.vantage_name}});
      for (const double ms : outcome.report.rtt_ms) {
        rtts.record(to_nanos(Millis{ms}));
      }
    }
  }
  return fleet;
}

void AuditorClient::estimate(FleetReport& fleet) const {
  const locate::DelayModel model = calibrate_model(config_);
  fleet.calibration = model.fit_stats();

  std::vector<locate::VantageRange> ranges;
  std::vector<std::size_t> range_owner;  // ranges index -> outcomes index
  for (std::size_t i = 0; i < fleet.outcomes.size(); ++i) {
    VantageOutcome& outcome = fleet.outcomes[i];
    if (!outcome.responded || !outcome.report.completed) continue;
    const locate::VantageObservation obs = observation_of(outcome.report);
    const locate::VantageRange range =
        model.range_for(obs.vantage, obs.reported_rtt, obs.stats);
    if (!range.solvable()) {
      // Finite samples can still overflow the range (e.g. their variance):
      // this vantage's evidence is unusable, not the whole fleet's.
      outcome.error = "samples give a non-finite range";
      continue;
    }
    outcome.distance = range.distance;
    outcome.sigma = range.sigma;
    ranges.push_back(range);
    range_owner.push_back(i);
  }

  if (ranges.size() >= 3) {
    const locate::Multilaterator solver;
    fleet.estimate = solver.estimate(ranges);
    fleet.have_estimate = true;
    // Remap solver indices (over `ranges`) back onto the fleet order.
    for (auto& idx : fleet.estimate.inliers) idx = range_owner[idx];
    for (auto& idx : fleet.estimate.outliers) idx = range_owner[idx];
    log::info("audit", "position fix",
              {{"lat", fleet.estimate.position.lat_deg},
               {"lon", fleet.estimate.position.lon_deg},
               {"radius_km", fleet.estimate.radius_km.value},
               {"inliers", static_cast<std::uint64_t>(
                               fleet.estimate.inliers.size())},
               {"converged", fleet.estimate.converged}});
  } else {
    log::warn("audit", "too few completed sweeps for a fix",
              {{"completed", static_cast<std::uint64_t>(fleet.completed)}});
  }
}

std::string to_json(const AuditorConfig& config, const FleetReport& report) {
  JsonWriter w;
  w.begin_object();

  w.key("config");
  w.begin_object();
  w.kv("prover_host", config.prover_host);
  w.kv("prover_port", static_cast<std::uint64_t>(config.prover_port));
  w.kv("file_id", config.file_id);
  w.kv("n_segments", config.n_segments);
  w.kv("rounds", static_cast<std::uint64_t>(config.rounds));
  w.kv("probe_seed", config.probe_seed);
  w.kv("vantages", static_cast<std::uint64_t>(config.vantages.size()));
  w.end_object();

  w.key("calibration");
  w.begin_object();
  w.kv("usable", report.calibration.usable());
  w.kv("ms_per_km", report.calibration.ms_per_km);
  w.kv("intercept_ms", report.calibration.intercept_ms);
  w.kv("r2", report.calibration.r2);
  w.end_object();

  w.kv("responded", static_cast<std::uint64_t>(report.responded));
  w.kv("completed", static_cast<std::uint64_t>(report.completed));

  w.key("vantages");
  w.begin_array();
  for (const VantageOutcome& outcome : report.outcomes) {
    w.begin_object();
    w.kv("host", outcome.endpoint.host);
    w.kv("port", static_cast<std::uint64_t>(outcome.endpoint.port));
    w.kv("responded", outcome.responded);
    if (!outcome.error.empty()) w.kv("error", outcome.error);
    if (outcome.responded) {
      w.kv("name", outcome.report.vantage_name);
      w.kv("lat", outcome.report.latitude_deg);
      w.kv("lon", outcome.report.longitude_deg);
      w.kv("completed", outcome.report.completed);
      w.kv("samples", static_cast<std::uint64_t>(outcome.report.rtt_ms.size()));
      if (!outcome.report.rtt_ms.empty()) {
        const auto [min_it, max_it] = std::minmax_element(
            outcome.report.rtt_ms.begin(), outcome.report.rtt_ms.end());
        w.kv("min_rtt_ms", *min_it);
        w.kv("max_rtt_ms", *max_it);
      }
      w.kv("timing_violations",
           static_cast<std::uint64_t>(outcome.report.timing_violations));
      w.kv("elapsed_ms", outcome.report.elapsed_ms);
      if (outcome.report.completed) {
        w.kv("distance_km", outcome.distance.value);
        w.kv("sigma_km", outcome.sigma.value);
      }
    }
    w.end_object();
  }
  w.end_array();

  w.key("estimate");
  if (report.have_estimate) {
    w.begin_object();
    w.kv("lat", report.estimate.position.lat_deg);
    w.kv("lon", report.estimate.position.lon_deg);
    w.kv("radius_km", report.estimate.radius_km.value);
    w.kv("mean_abs_residual_km", report.estimate.mean_abs_residual_km.value);
    w.kv("converged", report.estimate.converged);
    w.key("ellipse");
    if (report.estimate.ellipse.valid) {
      w.begin_object();
      w.kv("semi_major_km", report.estimate.ellipse.semi_major.value);
      w.kv("semi_minor_km", report.estimate.ellipse.semi_minor.value);
      w.kv("orientation_deg", report.estimate.ellipse.orientation_deg);
      w.kv("area_km2", report.estimate.ellipse.area_km2());
      w.end_object();
    } else {
      w.null();
    }
    w.key("inliers");
    w.begin_array();
    for (const std::size_t idx : report.estimate.inliers) {
      w.value(static_cast<std::uint64_t>(idx));
    }
    w.end_array();
    w.key("outliers");
    w.begin_array();
    for (const std::size_t idx : report.estimate.outliers) {
      w.value(static_cast<std::uint64_t>(idx));
    }
    w.end_array();
    w.end_object();
  } else {
    w.null();
  }

  w.end_object();
  return std::move(w).str();
}

}  // namespace geoproof::daemon
