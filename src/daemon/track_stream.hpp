// Streaming tracking mode for the auditor CLI: repeated fleet sweeps fed
// through a track::TrackService, one JSON track-update line per sweep.
//
// Each sweep is one AuditorClient::measure fan-out (same wire protocol as
// the one-shot audit, no one-shot solve); the per-vantage RTT sample sets
// become locate::VantageObservations (observation_of) and flow into the
// provider's PositionTrack, whose windowed re-solve and change-point
// detector turn the sweep stream into fixes, error ellipses, and
// relocation alarms.
// Lines go to the injected sink, so the CLI streams to stdout while tests
// capture in-process.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "core/policy.hpp"
#include "daemon/auditor_client.hpp"
#include "track/track_service.hpp"

namespace geoproof::obs {
class SpanRecorder;
}  // namespace geoproof::obs

namespace geoproof::daemon {

struct TrackStreamConfig {
  /// Per-sweep measurement fan-out (vantages, prover, rounds,
  /// calibration). The probe seed is re-derived per sweep so successive
  /// sweeps challenge different segments.
  AuditorConfig auditor;
  /// Sweeps to run (>= 1).
  std::uint64_t sweeps = 10;
  /// Wall-clock pause between sweeps (0 = back to back).
  double interval_ms = 0.0;
  /// Track configuration (window, solver, change-point thresholds).
  track::TrackOptions track{};
  /// Optional geo-fence the streamed reports are judged against.
  std::optional<core::GeoFencePolicy> fence;
  std::string provider_name = "prover";
  /// Optional span recorder: every commit_sweep records one "commit" span
  /// on the process steady clock. The track service's stats snapshot (and
  /// the per-sweep AuditorClient counters) land in `auditor.metrics`.
  /// Both must outlive run().
  obs::SpanRecorder* spans = nullptr;
};

struct TrackStreamResult {
  std::uint64_t sweeps_run = 0;
  std::uint64_t fixes = 0;
  std::uint64_t alarms = 0;
};

class TrackStreamer {
 public:
  explicit TrackStreamer(TrackStreamConfig config);

  const TrackStreamConfig& config() const { return config_; }

  /// Run the configured number of sweeps on the calling thread, invoking
  /// `emit` with one JSON line (no trailing newline) after every sweep.
  TrackStreamResult run(
      const std::function<void(const std::string& line)>& emit);

 private:
  TrackStreamConfig config_;
};

}  // namespace geoproof::daemon
