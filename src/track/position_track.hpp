// One provider's continuous position track: per-vantage sliding RTT
// windows, online re-solve, and relocation detection.
//
// Feeding: every sweep, each vantage contributes one
// locate::VantageObservation (from a live probe, or from a signed audit
// transcript via locate::observe_transcript) — ingest() pushes its
// reported RTT into that vantage's bounded locate::SampleWindow. Then
// commit_sweep() re-solves: per vantage, the window's eviction-exact
// minimum is the best-of-window delay estimate (the streaming analogue of
// the one-shot min filter), converted to a distance through the track's
// calibrated locate::DelayModel, and the resulting ranges go through
// locate::Multilaterator. The fix carries the refit error ellipse; its
// semi-major axis normalises the ChangePointDetector's displacement
// score.
//
// The window is deliberately small (default 4 sweeps): a min-filter
// window is also a detection *lag* — after a relocation, the old
// (smaller) RTT minima stay resident until the window fully turns over,
// so the fix cannot move before `window` sweeps have passed. Small
// windows keep that lag inside the alarm budget while still smoothing
// per-sweep jitter.
//
// Not thread-safe; TrackService serialises access per track.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>

#include "common/units.hpp"
#include "locate/delay_model.hpp"
#include "locate/measurement.hpp"
#include "locate/multilaterate.hpp"
#include "track/changepoint.hpp"

namespace geoproof::track {

struct TrackOptions {
  /// Per-vantage RTT window, in sweeps. Bounds relocation-detection lag:
  /// the fix cannot move until the pre-move minima age out.
  std::size_t window = 4;
  /// Retained fixes (bounded ring; oldest dropped).
  std::size_t history = 64;
  /// Minimum vantages with data before the track attempts a solve.
  std::size_t min_vantages = 3;
  locate::Multilaterator::Options solver{};
  ChangePointOptions changepoint{};
};

/// One solved track update.
struct TrackFix {
  std::uint64_t sweep = 0;
  locate::PositionEstimate estimate{};
  std::size_t vantages_used = 0;
};

class PositionTrack {
 public:
  /// The delay model converts windowed RTT minima to distances; copied in
  /// (a track outlives any one sweep's fleet).
  PositionTrack(locate::DelayModel model, TrackOptions options);
  explicit PositionTrack(locate::DelayModel model)
      : PositionTrack(std::move(model), TrackOptions{}) {}

  /// Record one vantage's observation for the in-progress sweep.
  /// Incomplete observations (failed probe, or a non-finite RTT) are
  /// counted but not windowed.
  void ingest(const locate::VantageObservation& obs);

  /// Close the sweep: re-solve from the current windows and feed the
  /// change-point detector. Returns the alarm iff this sweep raised one.
  /// No-op (returns nullopt, records no fix) while fewer than
  /// min_vantages vantages have samples.
  std::optional<RelocationAlarm> commit_sweep(std::uint64_t sweep);

  const std::optional<TrackFix>& last_fix() const { return last_fix_; }
  const std::deque<TrackFix>& history() const { return history_; }
  const ChangePointDetector& detector() const { return detector_; }
  const TrackOptions& options() const { return options_; }
  const locate::DelayModel& model() const { return model_; }

  std::size_t vantage_count() const { return vantages_.size(); }
  std::uint64_t sweeps_committed() const { return sweeps_; }
  std::uint64_t fixes_solved() const { return fixes_; }
  std::uint64_t incomplete_observations() const { return incomplete_; }

 private:
  struct VantageState {
    geoloc::Landmark vantage;
    locate::SampleWindow window;
  };

  locate::DelayModel model_;
  TrackOptions options_;
  locate::Multilaterator solver_;
  ChangePointDetector detector_;
  /// Keyed by vantage name: observations arrive per vantage, in any
  /// order, possibly from different threads' sweeps over time.
  std::map<std::string, VantageState> vantages_;
  std::optional<TrackFix> last_fix_;
  std::deque<TrackFix> history_;
  std::uint64_t sweeps_ = 0;
  std::uint64_t fixes_ = 0;
  std::uint64_t incomplete_ = 0;
};

}  // namespace geoproof::track
