// The auditor CLI core: drive a fleet of vantage daemons to a position fix.
//
// One EventLoop on the calling thread, one net::AsyncTcpChannel per
// vantage: MeasureRequests fan out concurrently (every vantage sweeps at
// the same time, the GeoFINDR shape) and each carries a deadline on the
// loop's timers so one dead vantage cannot hang the audit. Completed
// SampleReports flow through the locate pipeline the simulations use —
// SampleStats + min filter, calibrated DelayModel inversion, Byzantine
// Multilaterator — so the spawned-process path and the simulated path
// share every line of estimation code.
//
// Calibration: the auditor is honest and never sees ground truth. It
// learns rtt(d) either from explicit (ms_per_km, intercept_ms) flags — the
// harness's emulated world is linear by construction — or falls back to
// the paper's §III-A physical bound.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "daemon/wire.hpp"
#include "locate/delay_model.hpp"
#include "locate/measurement.hpp"
#include "locate/multilaterate.hpp"

namespace geoproof::obs {
class Registry;
}  // namespace geoproof::obs

namespace geoproof::daemon {

struct VantageEndpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct AuditorConfig {
  std::vector<VantageEndpoint> vantages;
  /// Prover coordinates passed through to every vantage.
  std::string prover_host = "127.0.0.1";
  std::uint16_t prover_port = 0;
  std::uint64_t file_id = 1;
  std::uint64_t n_segments = 0;
  std::uint32_t rounds = 8;
  std::uint64_t probe_seed = 1;
  /// Per-round violation threshold forwarded to the vantages (0 = off).
  double max_rtt_ms = 0.0;
  /// Deadline for one vantage's whole sweep (wire round trip included).
  double sweep_timeout_ms = 30'000.0;
  /// Linear calibration of the measured world: rtt = intercept + slope*d.
  /// slope <= 0 leaves the model uncalibrated (physical bound only).
  double cal_ms_per_km = 0.0;
  double cal_intercept_ms = 0.0;
  /// Optional instrumentation sink (null = off): sweep/request counters,
  /// the in-flight request gauge, deadline misses, and per-vantage RTT
  /// histograms (geoproof_vantage_rtt_seconds{vantage=...}). Must outlive
  /// every run() that sees it.
  obs::Registry* metrics = nullptr;
};

/// What one vantage contributed to the audit.
struct VantageOutcome {
  VantageEndpoint endpoint;
  /// Transport worked and a SampleReport came back (it may still carry
  /// completed = false).
  bool responded = false;
  std::string error;
  SampleReport report;
  /// Delay-derived range (valid when report.completed).
  Kilometers distance{0.0};
  Kilometers sigma{0.0};
};

struct FleetReport {
  std::vector<VantageOutcome> outcomes;
  std::size_t responded = 0;
  std::size_t completed = 0;
  locate::DelayFit calibration;
  /// Valid when `have_estimate` (>= 3 completed sweeps).
  bool have_estimate = false;
  locate::PositionEstimate estimate;
};

/// Serialise a full audit report (config echo, per-vantage evidence, the
/// fix) as a single JSON document — the CLI's stdout contract with the
/// functional harness.
std::string to_json(const AuditorConfig& config, const FleetReport& report);

/// The auditor's delay-model calibration recipe: a best-line fit of the
/// declared linear world (cal_ms_per_km / cal_intercept_ms), or the
/// uncalibrated physical-bound model when no slope is declared. Shared by
/// the one-shot client and the streaming tracker.
locate::DelayModel calibrate_model(const AuditorConfig& config);

/// A SampleReport as a locate observation: the vantage's self-reported
/// position, the statistics of its samples and the min-filtered delay it
/// reports. The one conversion the one-shot fix and the streaming tracker
/// share.
locate::VantageObservation observation_of(const SampleReport& report);

class AuditorClient {
 public:
  explicit AuditorClient(AuditorConfig config);

  const AuditorConfig& config() const { return config_; }

  /// Run the audit to completion on the calling thread: measure(), then
  /// estimate(). Throws InvalidArgument on an empty fleet or zero segments.
  FleetReport run();

  /// The fan-out step: every vantage's MeasureRequest in flight at once
  /// on one EventLoop pumped by the calling thread. Fills each outcome,
  /// the responded / completed tallies and the per-vantage RTT histograms;
  /// calibrates and solves nothing. The streaming tracker stops here and
  /// feeds the outcomes to its own windowed track.
  FleetReport measure();

  /// The estimation step: calibrate, range every completed outcome
  /// (DelayModel::range_for over observation_of) and, with at least three
  /// ranges, solve for the fix.
  void estimate(FleetReport& fleet) const;

 private:
  AuditorConfig config_;
};

}  // namespace geoproof::daemon
