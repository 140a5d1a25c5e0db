// The vantage fleet: dozens-to-hundreds of simulated vantage auditors
// measuring one prover, multilaterated into a position estimate.
//
// This is the GeoFINDR setting grafted onto GeoProof's machinery: instead
// of one GPS-equipped verifier near the contracted site, many vantage
// points (other cloud instances, other auditors) each time a rapid bit
// exchange against the prover and the fleet solves for where the prover
// *actually* is. Each vantage is its own simulated machine (private
// SimClock); a sweep partitions vantages across the sharded
// audit engine's workers via run_on_shards, so a whole fleet measurement
// runs concurrently on the parked worker pool.
//
// Adversary models:
//  - lying vantage  (Byzantine measurement plane): reports a fabricated
//    delay; the multilaterator's residual trimming must eject it.
//  - delayed prover: stalls every response, inflating all distances — the
//    fleet's confidence radius inflates, it never *under*-estimates.
//  - relayed prover: answers via a front at the claimed site while the
//    data lives elsewhere; every path gains the relay leg, which shows up
//    as an inflated radius around the claimed site.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "core/sharded_engine.hpp"
#include "geoloc/schemes.hpp"
#include "locate/delay_model.hpp"
#include "locate/measurement.hpp"
#include "locate/multilaterate.hpp"
#include "net/geo.hpp"
#include "net/latency.hpp"

namespace geoproof::locate {

enum class ProverBehaviour {
  kHonest,   // answers from `actual` (== the claimed site when truthful)
  kDelayed,  // honest path + a per-round processing stall
  kRelayed,  // a front at `claimed` forwards every round to `actual`
};

struct ProverConfig {
  std::string name = "prover";
  /// The site the provider contracted to serve from (the relay front for
  /// kRelayed).
  net::GeoPoint claimed{};
  /// Where responses really originate.
  net::GeoPoint actual{};
  ProverBehaviour behaviour = ProverBehaviour::kHonest;
  /// kDelayed: stall charged inside every round.
  Millis processing{0};
};

/// A Byzantine vantage: instead of its measurement, it reports
/// `reported_rtt` (e.g. a near-zero delay claiming the prover is next to
/// it, dragging the estimate its way).
struct VantageLie {
  std::size_t vantage = 0;
  Millis reported_rtt{0};
};

struct FleetOptions {
  /// Vantage count (>= 3); placed on a deterministic spiral around
  /// `center` out to `spread`.
  unsigned vantages = 32;
  net::GeoPoint center{};
  Kilometers spread{1500.0};
  /// Per-vantage path model; jitter_stddev_ms drives the per-round
  /// one-sided queueing jitter each vantage observes.
  net::InternetModelParams internet{};
  /// RTT samples per vantage per sweep.
  unsigned rounds = 16;
  std::uint64_t seed = 0x10ca7e;
  /// Byzantine vantages for this fleet (indices into the vantage list).
  std::vector<VantageLie> lies;
  Multilaterator::Options solver{};
};

/// One fleet measurement of one prover.
struct FleetSweep {
  ProverConfig prover;
  std::vector<VantageObservation> observations;  // vantage order
  std::vector<VantageRange> ranges;              // as fed to the solver
  PositionEstimate estimate;
  Kilometers error_vs_actual{0.0};
  Kilometers error_vs_claimed{0.0};
  /// Virtual time of the slowest vantage's world (vantages measure in
  /// parallel worlds; a sweep takes as long as its slowest probe).
  Millis virtual_elapsed{0};
  /// Ground truth of which vantages lied, for rejection scoring.
  std::vector<std::size_t> lying_vantages;

  /// Of the vantages that lied, how many the solver ejected; and how many
  /// honest vantages it wrongly ejected.
  std::size_t rejected_liars() const;
  std::size_t rejected_honest() const;
};

class VantageFleet {
 public:
  explicit VantageFleet(FleetOptions options);

  const FleetOptions& options() const { return options_; }
  const std::vector<geoloc::Landmark>& vantages() const { return vantages_; }
  /// The fleet's calibrated delay→distance model (bestline fit against its
  /// own Internet model, §V-F parameters).
  const DelayModel& delay_model() const { return delay_model_; }

  /// The position error an honest, non-relayed prover should stay within:
  /// the configured latency noise mapped into distance, floored at the
  /// solver's confidence-radius floor.
  Kilometers honest_error_bound() const;

  /// Measure + multilaterate one prover on the calling thread.
  FleetSweep sweep(const ProverConfig& prover) const;

  /// The concurrent form: vantages are partitioned round-robin across the
  /// engine's shards and each shard probes its vantages on the engine's
  /// (parked) workers via run_on_shards. Deterministic: identical
  /// observations to the serial form — shard workers only advance disjoint
  /// vantage clocks.
  FleetSweep sweep(const ProverConfig& prover,
                   core::ShardedAuditEngine& engine) const;

  /// Sweep several provers back-to-back (each gets a fresh measurement).
  std::vector<FleetSweep> sweep_all(std::span<const ProverConfig> provers,
                                    core::ShardedAuditEngine& engine) const;

 private:
  void probe_vantage(std::size_t index, const ProverConfig& prover,
                     FleetSweep& sweep) const;
  FleetSweep finish_sweep(FleetSweep sweep) const;

  FleetOptions options_;
  std::vector<geoloc::Landmark> vantages_;
  net::InternetModel internet_;
  DelayModel delay_model_;
  Multilaterator solver_;
};

}  // namespace geoproof::locate
