// Per-vantage delay measurement: raw RTT sample sets and their quality
// statistics.
//
// A vantage measures its delay to the prover by running the same rapid
// bit-exchange phase GeoProof's distance bounding uses
// (distbound::run_bit_exchange): every round is one independent RTT
// sample of the same path, charged to the vantage's virtual clock.
// observe_transcript also ingests full GeoProof audit transcripts (the
// rtts the verifier signed), so scheme audits double as delay
// measurements.
//
// Sample filtering: `min_filtered` is the classic best-of-k estimator for
// queueing-dominated jitter — load can only *add* delay, so the minimum of
// k rounds converges on the propagation floor. Observations default their
// reported delay to it; the full order statistics stay available for
// quality gating and uncertainty estimates.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "core/transcript.hpp"
#include "distbound/bit_exchange.hpp"
#include "geoloc/schemes.hpp"

namespace geoproof::locate {

/// Median of a sample set: average of the middle pair for even sizes,
/// 0 on empty. The one median used by SampleStats, the multilaterator's
/// robust scale and the locate benches — keep the even-size semantics in
/// one place.
double median(std::vector<double> values);

/// Order statistics of one vantage's RTT sample set.
struct SampleStats {
  std::size_t count = 0;
  Millis min{0};
  Millis max{0};
  Millis mean{0};
  Millis median{0};
  double stddev_ms = 0.0;

  static SampleStats of(std::span<const Millis> samples);
};

/// Best-of-k min filter (0 on an empty set).
Millis min_filtered(std::span<const Millis> samples);

/// Bounded sliding window of RTT samples with an eviction-exact minimum.
///
/// The streaming counterpart of `min_filtered`: a track keeps the last
/// `capacity` samples per vantage and re-reads the window minimum every
/// sweep. A naive running-min silently keeps a stale floor after the
/// sample that produced it ages out — fatal for relocation detection,
/// where the whole point is that the old (smaller) RTTs must *leave* the
/// window. A monotonic deque of (value, seq) candidates makes `min()`
/// O(1) and exact under eviction: push pops dominated candidates from the
/// back, eviction pops the front iff the front *is* the evicted sample.
class SampleWindow {
 public:
  /// Throws InvalidArgument on capacity == 0.
  explicit SampleWindow(std::size_t capacity);

  /// Append a sample, evicting the oldest when the window is full.
  void push(Millis sample);

  /// Exact minimum of the current contents, O(1). Millis{0} on empty.
  Millis min() const;

  /// Order statistics over the current contents (recomputed, O(n log n)).
  SampleStats stats() const;

  /// Current contents, oldest first.
  std::vector<Millis> samples() const;

  std::size_t size() const { return count_; }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return count_ == 0; }
  /// True once the window has wrapped at least once — every sample that
  /// predates the last `capacity` pushes has been evicted.
  bool full() const { return count_ == capacity_; }

  void clear();

 private:
  std::size_t capacity_;
  std::vector<Millis> ring_;
  std::size_t head_ = 0;   // index of the oldest sample
  std::size_t count_ = 0;
  std::uint64_t next_seq_ = 0;  // seq of the *next* push
  /// Min candidates: strictly increasing in value, increasing in seq.
  std::deque<std::pair<double, std::uint64_t>> minima_;
};

/// What one vantage observed about one prover in one measurement round.
struct VantageObservation {
  geoloc::Landmark vantage;
  SampleStats stats;
  /// The delay estimate the vantage *reports* (min-filtered by default; a
  /// lying vantage fabricates this — the rest of the pipeline must not
  /// trust it more than 2f+1-of-3f+1 consistency allows).
  Millis reported_rtt{0};
  unsigned timing_violations = 0;
  bool completed = false;
  /// Virtual time the whole probe consumed on the vantage's clock.
  Millis probe_elapsed{0};
};

/// Measurement parameters for one vantage-prover probe.
struct ProbeParams {
  /// RTT samples per probe (bit-exchange rounds).
  unsigned rounds = 16;
  /// Per-round acceptance threshold fed to the exchange; rounds above it
  /// count as timing violations but still yield samples.
  Millis max_rtt{1.0e6};
};

/// Probe the prover as seen from `vantage` on the vantage's own virtual
/// clock: `one_way` models the vantage→prover path and `responder_delay`
/// (may be empty) is charged to `clock` inside each round (prover
/// processing stalls, per-round jitter) — both may encode adversarial
/// behaviour. Each vantage is its own machine with its own clock, so many
/// vantages probe concurrently on separate threads.
VantageObservation probe(SimClock& clock, const geoloc::Landmark& vantage,
                         Millis one_way,
                         const std::function<Millis(unsigned round)>&
                             responder_delay,
                         const ProbeParams& params, Rng& rng);

/// Build an observation from a finished bit exchange.
VantageObservation observe_exchange(const geoloc::Landmark& vantage,
                                    const distbound::ExchangeResult& result);

/// Build an observation from a signed GeoProof audit transcript — the
/// Δt_1..Δt_k the verifier timed are exactly a delay sample set, so every
/// compliance audit a vantage runs doubles as a measurement.
VantageObservation observe_transcript(const geoloc::Landmark& vantage,
                                      const core::AuditTranscript& transcript);

}  // namespace geoproof::locate
