#include "track/position_track.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/errors.hpp"

namespace geoproof::track {

PositionTrack::PositionTrack(locate::DelayModel model, TrackOptions options)
    : model_(std::move(model)),
      options_(options),
      solver_(options.solver),
      detector_(options.changepoint) {
  if (options_.window == 0) {
    throw InvalidArgument("PositionTrack: window must be >= 1");
  }
  if (options_.min_vantages < 3) {
    throw InvalidArgument(
        "PositionTrack: min_vantages must be >= 3 (multilateration needs "
        "three ranges)");
  }
  options_.history = std::max<std::size_t>(1, options_.history);
}

void PositionTrack::ingest(const locate::VantageObservation& obs) {
  // A NaN RTT would sit in the window and turn every later range NaN.
  if (!obs.completed || !std::isfinite(obs.reported_rtt.count())) {
    ++incomplete_;
    return;
  }
  auto it = vantages_.find(obs.vantage.name);
  if (it == vantages_.end()) {
    it = vantages_
             .emplace(obs.vantage.name,
                      VantageState{obs.vantage,
                                   locate::SampleWindow(options_.window)})
             .first;
  }
  // A vantage that re-registers from a new position restarts its window:
  // mixing RTTs measured from two places would corrupt the min filter.
  if (net::haversine(it->second.vantage.pos, obs.vantage.pos).value > 1.0) {
    it->second.vantage = obs.vantage;
    it->second.window.clear();
  }
  it->second.window.push(obs.reported_rtt);
}

std::optional<RelocationAlarm> PositionTrack::commit_sweep(
    std::uint64_t sweep) {
  ++sweeps_;
  std::vector<locate::VantageRange> ranges;
  ranges.reserve(vantages_.size());
  for (const auto& [name, state] : vantages_) {
    if (state.window.empty()) continue;
    locate::VantageRange range = model_.range_for(
        state.vantage, state.window.min(), state.window.stats());
    // A huge (finite) RTT in the window overflows its variance; the vantage
    // sits out until that sample ages out rather than end the track.
    if (!range.solvable()) continue;
    ranges.push_back(std::move(range));
  }
  if (ranges.size() < options_.min_vantages) return std::nullopt;

  TrackFix fix;
  fix.sweep = sweep;
  fix.estimate = solver_.estimate(ranges);
  fix.vantages_used = ranges.size();
  ++fixes_;

  // Normalise drift by the fix's own uncertainty: the ellipse's major
  // axis when the refit geometry supports one, the conservative disk
  // otherwise.
  const Kilometers scale = fix.estimate.ellipse.valid
                               ? fix.estimate.ellipse.semi_major
                               : fix.estimate.radius_km;
  std::optional<RelocationAlarm> alarm =
      detector_.update(sweep, fix.estimate.position, scale);

  last_fix_ = fix;
  history_.push_back(std::move(fix));
  while (history_.size() > options_.history) history_.pop_front();
  return alarm;
}

}  // namespace geoproof::track
