#include "locate/measurement.hpp"

#include <algorithm>
#include <cmath>

#include "common/errors.hpp"

namespace geoproof::locate {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  double upper = values[mid];
  if (values.size() % 2 == 0) {
    upper = (*std::max_element(values.begin(),
                               values.begin() +
                                   static_cast<std::ptrdiff_t>(mid)) +
             upper) /
            2.0;
  }
  return upper;
}

SampleStats SampleStats::of(std::span<const Millis> samples) {
  SampleStats s;
  s.count = samples.size();
  if (samples.empty()) return s;

  std::vector<double> sorted;
  sorted.reserve(samples.size());
  double sum = 0.0;
  for (const Millis& m : samples) {
    sorted.push_back(m.count());
    sum += m.count();
  }
  std::sort(sorted.begin(), sorted.end());
  s.min = Millis{sorted.front()};
  s.max = Millis{sorted.back()};
  s.mean = Millis{sum / static_cast<double>(s.count)};
  s.median = Millis{geoproof::locate::median(sorted)};
  if (s.count > 1) {
    double ss = 0.0;
    for (const double v : sorted) {
      const double d = v - s.mean.count();
      ss += d * d;
    }
    s.stddev_ms = std::sqrt(ss / static_cast<double>(s.count - 1));
  }
  return s;
}

SampleWindow::SampleWindow(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ == 0) {
    throw InvalidArgument("SampleWindow: capacity must be >= 1");
  }
  ring_.resize(capacity_);
}

void SampleWindow::push(Millis sample) {
  if (count_ == capacity_) {
    // Evicting the oldest sample; it is the min candidate at the deque
    // front iff front.seq matches. (Any other candidate of equal value is
    // younger and stays — `>=` domination on push guarantees front.seq is
    // the *oldest* holder of the minimum.)
    const std::uint64_t evict_seq = next_seq_ - count_;
    if (!minima_.empty() && minima_.front().second == evict_seq) {
      minima_.pop_front();
    }
    ring_[head_] = sample;
    head_ = (head_ + 1) % capacity_;
  } else {
    ring_[(head_ + count_) % capacity_] = sample;
    ++count_;
  }
  // Dominated candidates (≥ the new sample, but older, so evicted no
  // later) can never be the window minimum again.
  while (!minima_.empty() && minima_.back().first >= sample.count()) {
    minima_.pop_back();
  }
  minima_.emplace_back(sample.count(), next_seq_);
  ++next_seq_;
}

Millis SampleWindow::min() const {
  if (minima_.empty()) return Millis{0};
  return Millis{minima_.front().first};
}

SampleStats SampleWindow::stats() const { return SampleStats::of(samples()); }

std::vector<Millis> SampleWindow::samples() const {
  std::vector<Millis> out;
  out.reserve(count_);
  for (std::size_t i = 0; i < count_; ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
}

void SampleWindow::clear() {
  head_ = 0;
  count_ = 0;
  next_seq_ = 0;
  minima_.clear();
}

Millis min_filtered(std::span<const Millis> samples) {
  Millis best{0};
  bool first = true;
  for (const Millis& m : samples) {
    if (first || m < best) {
      best = m;
      first = false;
    }
  }
  return best;
}

VantageObservation observe_exchange(const geoloc::Landmark& vantage,
                                    const distbound::ExchangeResult& result) {
  VantageObservation obs;
  obs.vantage = vantage;
  const std::vector<Millis> samples = distbound::rtt_samples(result);
  obs.stats = SampleStats::of(samples);
  obs.reported_rtt = obs.stats.min;
  obs.timing_violations = result.timing_violations;
  obs.completed = !samples.empty();
  return obs;
}

VantageObservation observe_transcript(
    const geoloc::Landmark& vantage, const core::AuditTranscript& transcript) {
  VantageObservation obs;
  obs.vantage = vantage;
  obs.stats = SampleStats::of(transcript.rtts);
  obs.reported_rtt = obs.stats.min;
  obs.completed = !transcript.rtts.empty();
  return obs;
}

VantageObservation probe(SimClock& clock, const geoloc::Landmark& vantage,
                         Millis one_way,
                         const std::function<Millis(unsigned round)>&
                             responder_delay,
                         const ProbeParams& params, Rng& rng) {
  if (one_way.count() < 0.0) {
    throw InvalidArgument("locate::probe: negative one-way latency");
  }
  distbound::ExchangeParams xparams;
  xparams.rounds = params.rounds;
  xparams.max_rtt = params.max_rtt;
  // The probe carries no secret bits — the vantage only wants the timing —
  // so the prover just echoes the challenge and every answer verifies.
  const distbound::BitResponder responder =
      [&clock, &responder_delay](unsigned round, bool challenge) {
        if (responder_delay) {
          const Millis d = responder_delay(round);
          if (d.count() > 0.0) clock.advance(d);
        }
        return challenge;
      };
  const distbound::BitResponder expected = [](unsigned, bool challenge) {
    return challenge;
  };
  const Nanos start = clock.now();
  VantageObservation obs = observe_exchange(
      vantage, distbound::run_bit_exchange(clock, one_way, xparams, responder,
                                           expected, rng));
  obs.probe_elapsed = to_millis(clock.now() - start);
  return obs;
}

}  // namespace geoproof::locate
