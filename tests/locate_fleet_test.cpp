// End-to-end vantage-fleet sweeps: deterministic measurement through the
// rapid bit exchange, delay-model conversion, Byzantine-robust
// multilateration, and the concurrent form on the sharded engine's parked
// workers. This suite runs under TSan in CI (the run_on_shards fan-out
// writes disjoint observation slots from many worker threads).
#include "locate/fleet.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "common/errors.hpp"
#include "locate/measurement.hpp"
#include "net/geo.hpp"

namespace geoproof::locate {
namespace {

using net::GeoPoint;
using net::haversine;

FleetOptions base_options(unsigned vantages = 24) {
  FleetOptions opts;
  opts.vantages = vantages;
  opts.center = net::places::brisbane();
  opts.spread = Kilometers{1500.0};
  opts.rounds = 16;
  opts.seed = 0xf1ee7;
  return opts;
}

ProverConfig honest_prover() {
  ProverConfig p;
  p.name = "honest";
  p.claimed = p.actual = GeoPoint{-26.5, 152.0};
  return p;
}

TEST(VantageFleet, HonestProverLocalisedWithinNoiseBound) {
  const VantageFleet fleet(base_options());
  const FleetSweep sweep = fleet.sweep(honest_prover());
  EXPECT_TRUE(sweep.estimate.converged);
  EXPECT_TRUE(sweep.estimate.outliers.empty());
  EXPECT_LT(sweep.error_vs_actual.value, fleet.honest_error_bound().value);
  EXPECT_LE(sweep.estimate.radius_km.value,
            2.0 * fleet.honest_error_bound().value);
  // Every vantage completed its full sample set.
  for (const VantageObservation& obs : sweep.observations) {
    EXPECT_TRUE(obs.completed);
    EXPECT_EQ(obs.stats.count, 16u);
    EXPECT_GT(obs.reported_rtt.count(), 0.0);
  }
}

TEST(VantageFleet, SweepsAreDeterministic) {
  const VantageFleet fleet(base_options());
  const FleetSweep a = fleet.sweep(honest_prover());
  const FleetSweep b = fleet.sweep(honest_prover());
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (std::size_t i = 0; i < a.observations.size(); ++i) {
    EXPECT_EQ(a.observations[i].reported_rtt.count(),
              b.observations[i].reported_rtt.count());
    EXPECT_EQ(a.observations[i].stats.mean.count(),
              b.observations[i].stats.mean.count());
  }
  EXPECT_EQ(a.estimate.position, b.estimate.position);
}

TEST(VantageFleet, EngineSweepMatchesSerialSweep) {
  // The concurrent form only changes *where* each vantage world is pumped;
  // per-vantage rng streams make the observations identical.
  const VantageFleet fleet(base_options(26));
  const FleetSweep serial = fleet.sweep(honest_prover());

  core::AuditService service;  // measurement rounds need no registrations
  core::ShardedAuditEngine::Options eopts;
  eopts.shards = 4;
  core::ShardedAuditEngine engine(service, eopts);
  const FleetSweep fanned = fleet.sweep(honest_prover(), engine);

  ASSERT_EQ(serial.observations.size(), fanned.observations.size());
  for (std::size_t i = 0; i < serial.observations.size(); ++i) {
    EXPECT_EQ(serial.observations[i].reported_rtt.count(),
              fanned.observations[i].reported_rtt.count())
        << "vantage " << i;
    EXPECT_EQ(serial.observations[i].probe_elapsed.count(),
              fanned.observations[i].probe_elapsed.count())
        << "vantage " << i;
  }
  EXPECT_EQ(serial.estimate.position, fanned.estimate.position);
  EXPECT_EQ(serial.estimate.inliers, fanned.estimate.inliers);

  // And repeated engine sweeps reuse the parked workers deterministically.
  const FleetSweep again = fleet.sweep(honest_prover(), engine);
  EXPECT_EQ(fanned.estimate.position, again.estimate.position);
}

TEST(VantageFleet, RelayedProverInflatesTheRadius) {
  const VantageFleet fleet(base_options());
  ProverConfig relayed = honest_prover();
  relayed.name = "relayed";
  relayed.behaviour = ProverBehaviour::kRelayed;
  relayed.actual =
      net::destination(relayed.claimed, 315.0, Kilometers{1400.0});
  const FleetSweep sweep = fleet.sweep(relayed);
  // The relay leg rides every path: the fleet cannot pin the prover to a
  // tight disk any more, and says so.
  EXPECT_GT(sweep.estimate.radius_km.value,
            5.0 * fleet.honest_error_bound().value);
}

TEST(VantageFleet, DelayedProverNeverLooksCloser) {
  const VantageFleet fleet(base_options());
  ProverConfig delayed = honest_prover();
  delayed.name = "delayed";
  delayed.behaviour = ProverBehaviour::kDelayed;
  delayed.processing = Millis{8.0};
  const FleetSweep sweep = fleet.sweep(delayed);
  // Added delay inflates distances (and with them the radius); GeoProof's
  // core asymmetry — a prover can stall but never outrun light.
  EXPECT_GT(sweep.estimate.radius_km.value, fleet.honest_error_bound().value);
  for (const VantageRange& r : sweep.ranges) {
    EXPECT_GE(r.distance.value,
              haversine(r.vantage.pos, delayed.actual).value - 50.0);
  }
}

TEST(VantageFleet, ByzantineVantagesAreRejected) {
  // f = 7 liars in a 24-vantage fleet (3f+1 = 22 <= 24), each fabricating
  // a near-access-latency RTT ("the prover is right next to me"). Liars
  // sit in the outer half of the spiral so every lie is material.
  FleetOptions opts = base_options();
  for (const std::size_t liar : {13u, 15u, 17u, 19u, 21u, 22u, 23u}) {
    opts.lies.push_back(VantageLie{liar, Millis{18.0}});
  }
  const VantageFleet fleet(opts);
  const FleetSweep sweep = fleet.sweep(honest_prover());
  EXPECT_EQ(sweep.rejected_liars(), 7u);
  EXPECT_EQ(sweep.rejected_honest(), 0u);
  EXPECT_TRUE(sweep.estimate.converged);
  EXPECT_LT(sweep.error_vs_actual.value, fleet.honest_error_bound().value);
}

TEST(VantageFleet, GoldenSweepWithLiarAndRelay) {
  // Golden values: the exact per-vantage measurements and fix these seeds
  // produce. Any change to the probe's rng draw order or latency
  // arithmetic moves a Nanos value here; the fix only moves if the
  // measurements do.
  FleetOptions opts = base_options(8);
  opts.lies.push_back(VantageLie{5, Millis{18.0}});
  const VantageFleet fleet(opts);
  ProverConfig relayed = honest_prover();
  relayed.behaviour = ProverBehaviour::kRelayed;
  relayed.actual =
      net::destination(relayed.claimed, 315.0, Kilometers{1400.0});
  const FleetSweep sweep = fleet.sweep(relayed);

  std::vector<std::int64_t> min_ns;
  std::vector<std::int64_t> elapsed_ns;
  for (const VantageObservation& obs : sweep.observations) {
    min_ns.push_back(std::chrono::round<Nanos>(obs.stats.min).count());
    elapsed_ns.push_back(std::chrono::round<Nanos>(obs.probe_elapsed).count());
  }
  EXPECT_EQ(min_ns, (std::vector<std::int64_t>{62114184, 69336148, 68124068,
                                               73770432, 78246830, 77205918,
                                               85439070, 85791180}));
  EXPECT_EQ(elapsed_ns,
            (std::vector<std::int64_t>{1001432160, 1112443166, 1102107156,
                                       1190857496, 1270741039, 1242514010,
                                       1368668033, 1380874707}));
  EXPECT_EQ(sweep.observations[5].reported_rtt.count(), 18.0);
  EXPECT_NEAR(sweep.estimate.position.lat_deg, -14.213072382247, 1e-9);
  EXPECT_NEAR(sweep.estimate.position.lon_deg, 134.592961381909, 1e-9);
}

TEST(VantageFleet, ObserveTranscriptExportsAuditRtts) {
  core::AuditTranscript transcript;
  transcript.rtts = {Millis{21.0}, Millis{19.5}, Millis{24.0}};
  const geoloc::Landmark vantage{"v-0", net::places::sydney()};
  const VantageObservation obs = observe_transcript(vantage, transcript);
  EXPECT_TRUE(obs.completed);
  EXPECT_EQ(obs.stats.count, 3u);
  EXPECT_NEAR(obs.reported_rtt.count(), 19.5, 1e-12);  // min-filtered
  EXPECT_NEAR(obs.stats.median.count(), 21.0, 1e-12);
  EXPECT_NEAR(transcript.min_rtt().count(), 19.5, 1e-12);
}

TEST(Probe, ChargesTheExpectedVirtualTime) {
  SimClock clock;
  Rng rng(7);
  ProbeParams params;
  params.rounds = 8;
  const geoloc::Landmark vantage{"v", net::places::brisbane()};
  const VantageObservation obs =
      probe(clock, vantage, Millis{5.0}, nullptr, params, rng);
  ASSERT_TRUE(obs.completed);
  EXPECT_EQ(obs.stats.count, 8u);
  // No responder delay: every round is exactly 2 * one_way.
  EXPECT_NEAR(obs.stats.min.count(), 10.0, 1e-9);
  EXPECT_NEAR(obs.stats.max.count(), 10.0, 1e-9);
  EXPECT_NEAR(obs.probe_elapsed.count(), 80.0, 1e-9);
  EXPECT_EQ(obs.timing_violations, 0u);
}

TEST(SampleStats, OrderStatistics) {
  const std::vector<Millis> samples = {Millis{4.0}, Millis{1.0}, Millis{3.0},
                                       Millis{2.0}};
  const SampleStats stats = SampleStats::of(samples);
  EXPECT_EQ(stats.count, 4u);
  EXPECT_NEAR(stats.min.count(), 1.0, 1e-12);
  EXPECT_NEAR(stats.max.count(), 4.0, 1e-12);
  EXPECT_NEAR(stats.mean.count(), 2.5, 1e-12);
  EXPECT_NEAR(stats.median.count(), 2.5, 1e-12);
  EXPECT_NEAR(min_filtered(samples).count(), 1.0, 1e-12);
  EXPECT_EQ(SampleStats::of({}).count, 0u);
}

TEST(VantageFleet, Validation) {
  FleetOptions bad = base_options();
  bad.vantages = 2;
  EXPECT_THROW(VantageFleet{bad}, InvalidArgument);
  FleetOptions no_rounds = base_options();
  no_rounds.rounds = 0;
  EXPECT_THROW(VantageFleet{no_rounds}, InvalidArgument);
  FleetOptions bad_lie = base_options();
  bad_lie.lies.push_back(VantageLie{99, Millis{1.0}});
  EXPECT_THROW(VantageFleet{bad_lie}, InvalidArgument);
}

}  // namespace
}  // namespace geoproof::locate
