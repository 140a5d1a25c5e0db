// Multicloud location-estimation throughput: a vantage fleet of 50-200
// simulated auditors sweeps three provers (honest, delayed, relayed)
// through the 4-shard parked engine per iteration, with an eighth of the
// fleet lying. Reported per row:
//   items_per_second    - position estimates per second (3 per iteration)
//   honest_err_km       - median localisation error of the honest prover
//   relay_radius_km     - median confidence radius the relay attack earns
//   byz_reject_accuracy - fraction of lying vantages ejected (median)
//   byz_false_reject    - honest vantages wrongly ejected (median count)
//
// BM_MultilateratorEstimate is the locate layer's own row: one
// Multilaterator::estimate over fixed ranges (no probing, no engine), an
// eighth of them lying, so solver cost shows without measurement cost.
//   items_per_second    - estimates per second
//   err_km              - fix error against the true position
//   outliers            - vantages the fix ejected
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"
#include "core/sharded_engine.hpp"
#include "geoloc/schemes.hpp"
#include "locate/fleet.hpp"
#include "locate/multilaterate.hpp"
#include "net/geo.hpp"

namespace {

using namespace geoproof;
using namespace geoproof::locate;

void BM_MulticloudLocate(benchmark::State& state) {
  const unsigned vantages = static_cast<unsigned>(state.range(0));
  const net::GeoPoint contracted = net::places::brisbane();

  FleetOptions opts;
  opts.vantages = vantages;
  opts.center = contracted;
  opts.spread = Kilometers{1800.0};
  opts.rounds = 12;
  opts.seed = 0xbe6c;
  // An eighth of the fleet is Byzantine, lying from the outer rings where
  // the lie is material.
  const std::size_t liars = vantages / 8;
  for (std::size_t k = 0; k < liars; ++k) {
    opts.lies.push_back(VantageLie{vantages - 1 - 2 * k, Millis{18.0}});
  }
  const VantageFleet fleet(opts);

  core::AuditService service;
  core::ShardedAuditEngine::Options eopts;
  eopts.shards = 4;
  core::ShardedAuditEngine engine(service, eopts);

  ProverConfig honest;
  honest.name = "honest";
  honest.claimed = honest.actual = contracted;
  ProverConfig delayed = honest;
  delayed.name = "delayed";
  delayed.behaviour = ProverBehaviour::kDelayed;
  delayed.processing = Millis{6.0};
  ProverConfig relayed = honest;
  relayed.name = "relayed";
  relayed.behaviour = ProverBehaviour::kRelayed;
  relayed.actual = net::destination(contracted, 300.0, Kilometers{1400.0});
  const std::vector<ProverConfig> provers = {honest, delayed, relayed};

  std::vector<double> honest_err, relay_radius, accuracy, false_rejects;
  for (auto _ : state) {
    const std::vector<FleetSweep> sweeps = fleet.sweep_all(provers, engine);
    benchmark::DoNotOptimize(sweeps.data());
    state.PauseTiming();
    honest_err.push_back(sweeps[0].error_vs_actual.value);
    relay_radius.push_back(sweeps[2].estimate.radius_km.value);
    if (liars > 0) {
      accuracy.push_back(static_cast<double>(sweeps[0].rejected_liars()) /
                         static_cast<double>(liars));
    }
    false_rejects.push_back(
        static_cast<double>(sweeps[0].rejected_honest()));
    state.ResumeTiming();
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(provers.size()));
  state.counters["vantages"] =
      benchmark::Counter(static_cast<double>(vantages));
  state.counters["honest_err_km"] =
      benchmark::Counter(median(std::move(honest_err)));
  state.counters["relay_radius_km"] =
      benchmark::Counter(median(std::move(relay_radius)));
  state.counters["byz_reject_accuracy"] =
      benchmark::Counter(median(std::move(accuracy)));
  state.counters["byz_false_reject"] =
      benchmark::Counter(median(std::move(false_rejects)));
}
BENCHMARK(BM_MulticloudLocate)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_MultilateratorEstimate(benchmark::State& state) {
  const unsigned vantages = static_cast<unsigned>(state.range(0));
  const net::GeoPoint center = net::places::brisbane();
  const net::GeoPoint truth =
      net::destination(center, 75.0, Kilometers{250.0});
  // Honest ranges carry +-10 km of seeded error; liars (an eighth, from
  // the outer rings, at least one) add 900 km.
  Rng rng(0x5017e);
  std::vector<VantageRange> ranges;
  for (const geoloc::Landmark& lm :
       geoloc::spiral_landmarks(center, Kilometers{1800.0}, vantages)) {
    VantageRange r;
    r.vantage = lm;
    r.distance = Kilometers{net::haversine(lm.pos, truth).value +
                            20.0 * (rng.next_double() - 0.5)};
    r.sigma = Kilometers{20.0};
    ranges.push_back(r);
  }
  const std::size_t liars = std::max<std::size_t>(1, vantages / 8);
  for (std::size_t k = 0; k < liars; ++k) {
    VantageRange& r = ranges[vantages - 1 - 2 * k];
    r.distance = Kilometers{r.distance.value + 900.0};
  }

  const Multilaterator solver;
  PositionEstimate est;
  for (auto _ : state) {
    est = solver.estimate(ranges);
    benchmark::DoNotOptimize(est.position);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["vantages"] =
      benchmark::Counter(static_cast<double>(vantages));
  state.counters["err_km"] =
      benchmark::Counter(net::haversine(est.position, truth).value);
  state.counters["outliers"] =
      benchmark::Counter(static_cast<double>(est.outliers.size()));
}
BENCHMARK(BM_MultilateratorEstimate)->Arg(8)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
