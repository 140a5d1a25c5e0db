#include "locate/fleet.hpp"

#include <algorithm>

#include "common/errors.hpp"

namespace geoproof::locate {

using net::haversine;

std::size_t FleetSweep::rejected_liars() const {
  std::size_t n = 0;
  for (const std::size_t liar : lying_vantages) {
    if (std::find(estimate.outliers.begin(), estimate.outliers.end(), liar) !=
        estimate.outliers.end()) {
      ++n;
    }
  }
  return n;
}

std::size_t FleetSweep::rejected_honest() const {
  std::size_t n = 0;
  for (const std::size_t out : estimate.outliers) {
    if (std::find(lying_vantages.begin(), lying_vantages.end(), out) ==
        lying_vantages.end()) {
      ++n;
    }
  }
  return n;
}

VantageFleet::VantageFleet(FleetOptions options)
    : options_(std::move(options)),
      internet_(net::InternetModel(options_.internet)),
      solver_(options_.solver) {
  if (options_.vantages < 3) {
    throw InvalidArgument("VantageFleet: need >= 3 vantages");
  }
  if (options_.rounds == 0) {
    throw InvalidArgument("VantageFleet: rounds must be >= 1");
  }
  for (const VantageLie& lie : options_.lies) {
    if (lie.vantage >= options_.vantages) {
      throw InvalidArgument("VantageFleet: lie names an unknown vantage");
    }
  }
  vantages_ = geoloc::spiral_landmarks(options_.center, options_.spread,
                                       options_.vantages);
  // The fleet learns its world's delay→distance line by probing the model
  // across the spread it operates over (plus the slack a remote prover
  // would add).
  delay_model_ = DelayModel::from_internet_model(
      internet_, Kilometers{options_.spread.value * 3.0 + 1000.0});
}

Kilometers VantageFleet::honest_error_bound() const {
  const Kilometers noise =
      delay_model_.spread_to_distance(Millis{options_.internet.jitter_stddev_ms});
  return Kilometers{std::max(options_.solver.min_radius.value, noise.value)};
}

void VantageFleet::probe_vantage(std::size_t index,
                                 const ProverConfig& prover,
                                 FleetSweep& sweep) const {
  const geoloc::Landmark& vantage = vantages_[index];

  // The vantage→prover path per the prover's behaviour. A relay front
  // terminates the vantage's connection at the claimed site and forwards
  // to the real one, so the path gains the whole second leg (including its
  // access latency — relays are servers too).
  Millis one_way{0};
  switch (prover.behaviour) {
    case ProverBehaviour::kHonest:
    case ProverBehaviour::kDelayed:
      one_way = internet_.one_way(haversine(vantage.pos, prover.actual));
      break;
    case ProverBehaviour::kRelayed:
      one_way = internet_.one_way(haversine(vantage.pos, prover.claimed)) +
                internet_.one_way(haversine(prover.claimed, prover.actual));
      break;
  }
  const Millis stall =
      prover.behaviour == ProverBehaviour::kDelayed ? prover.processing
                                                    : Millis{0};

  // Each vantage is its own machine: private clock, private rng streams
  // (challenge bits and queueing jitter drawn independently, so sweeps are
  // reproducible from (seed, vantage) regardless of shard layout).
  SimClock clock;
  Rng challenge_rng = Rng::stream(options_.seed, 2 * index);
  Rng jitter_rng = Rng::stream(options_.seed, 2 * index + 1);

  const double jitter_stddev = options_.internet.jitter_stddev_ms;
  const auto responder_delay = [&jitter_rng, jitter_stddev,
                                stall](unsigned /*round*/) {
    // One-sided queueing jitter: load can only add delay (cf.
    // LanModel::sample_one_way); roughly half the rounds ride the
    // uncongested floor, which is what makes min-filtering converge.
    const double jitter =
        std::max(0.0, jitter_rng.next_gaussian() * jitter_stddev);
    return stall + Millis{jitter};
  };

  ProbeParams params;
  params.rounds = options_.rounds;
  sweep.observations[index] =
      probe(clock, vantage, one_way, responder_delay, params, challenge_rng);
  sweep.observations[index].vantage = vantage;
}

FleetSweep VantageFleet::finish_sweep(FleetSweep sweep) const {
  // Byzantine vantages substitute their fabricated report after measuring
  // (the lie is in what they *say*, not in what the network did).
  for (const VantageLie& lie : options_.lies) {
    sweep.observations[lie.vantage].reported_rtt = lie.reported_rtt;
    sweep.lying_vantages.push_back(lie.vantage);
  }
  std::sort(sweep.lying_vantages.begin(), sweep.lying_vantages.end());

  sweep.ranges.reserve(sweep.observations.size());
  for (const VantageObservation& obs : sweep.observations) {
    sweep.ranges.push_back(
        delay_model_.range_for(obs.vantage, obs.reported_rtt, obs.stats));
    sweep.virtual_elapsed = std::max(sweep.virtual_elapsed, obs.probe_elapsed);
  }

  sweep.estimate = solver_.estimate(sweep.ranges);
  sweep.error_vs_actual =
      haversine(sweep.estimate.position, sweep.prover.actual);
  sweep.error_vs_claimed =
      haversine(sweep.estimate.position, sweep.prover.claimed);
  return sweep;
}

FleetSweep VantageFleet::sweep(const ProverConfig& prover) const {
  FleetSweep out;
  out.prover = prover;
  out.observations.resize(options_.vantages);
  for (std::size_t i = 0; i < options_.vantages; ++i) {
    probe_vantage(i, prover, out);
  }
  return finish_sweep(std::move(out));
}

FleetSweep VantageFleet::sweep(const ProverConfig& prover,
                               core::ShardedAuditEngine& engine) const {
  FleetSweep out;
  out.prover = prover;
  out.observations.resize(options_.vantages);
  const std::size_t shards = engine.shards();
  // Round-robin partition; every vantage world is private to one shard's
  // worker for the duration of the dispatch, and distinct observation
  // slots make the writes race-free.
  engine.run_on_shards([this, &prover, &out, shards](std::size_t shard) {
    for (std::size_t i = shard; i < options_.vantages; i += shards) {
      probe_vantage(i, prover, out);
    }
  });
  return finish_sweep(std::move(out));
}

std::vector<FleetSweep> VantageFleet::sweep_all(
    std::span<const ProverConfig> provers,
    core::ShardedAuditEngine& engine) const {
  std::vector<FleetSweep> out;
  out.reserve(provers.size());
  for (const ProverConfig& prover : provers) {
    out.push_back(sweep(prover, engine));
  }
  return out;
}

}  // namespace geoproof::locate
