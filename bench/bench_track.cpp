// Continuous-tracking throughput and detection quality. Reported per row:
//   BM_TrackServiceSweep/P  - one full tracking sweep for P providers
//                             (8 observations recorded per provider, then
//                             the service-wide commit + re-solve);
//                             items_per_second = provider track updates/s
//   BM_TrackRecordIngest    - the streaming hot path alone: one record()
//                             through the slot mutex, no solve
//   BM_RelocationDetection  - end-to-end detection latency of an 800 km
//                             relocation, in sweeps from the first
//                             post-move observation to the alarm
//                             (detect_sweeps counter; the window turnover
//                             plus CUSUM trigger must stay within the
//                             five-sweep budget the tests assert)
#include <benchmark/benchmark.h>

#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "geoloc/schemes.hpp"
#include "locate/delay_model.hpp"
#include "locate/measurement.hpp"
#include "net/geo.hpp"
#include "track/position_track.hpp"
#include "track/track_service.hpp"

namespace {

using namespace geoproof;
using net::GeoPoint;

constexpr double kInterceptMs = 4.0;
constexpr double kMsPerKm = 0.015;

locate::DelayModel exact_model() {
  std::vector<locate::CalibrationPoint> pts;
  for (int i = 0; i <= 8; ++i) {
    const double d = 250.0 * i;
    pts.push_back({Kilometers{d}, Millis{kInterceptMs + kMsPerKm * d}});
  }
  return locate::DelayModel::fit(pts);
}

locate::VantageObservation observe(const geoloc::Landmark& vantage,
                                   const GeoPoint& prover, Rng& rng) {
  const double base =
      kInterceptMs + kMsPerKm * net::haversine(vantage.pos, prover).value;
  std::vector<Millis> samples;
  for (unsigned round = 0; round < 8; ++round) {
    samples.push_back(Millis{base + 0.8 * rng.next_double()});
  }
  locate::VantageObservation obs;
  obs.vantage = vantage;
  obs.stats = locate::SampleStats::of(samples);
  obs.reported_rtt = locate::min_filtered(samples);
  obs.completed = true;
  return obs;
}

void BM_TrackServiceSweep(benchmark::State& state) {
  const std::size_t providers = static_cast<std::size_t>(state.range(0));
  const GeoPoint center = net::places::brisbane();
  const auto fleet = geoloc::spiral_landmarks(center, Kilometers{1500.0}, 8);

  track::TrackService service;
  std::vector<std::uint64_t> ids;
  std::vector<GeoPoint> homes;
  Rng layout(0x6e0c4);
  for (std::size_t p = 0; p < providers; ++p) {
    ids.push_back(service.add(std::string("p").append(std::to_string(p)),
                              exact_model()));
    homes.push_back(net::destination(center, 360.0 * layout.next_double(),
                                     Kilometers{400.0 * layout.next_double()}));
  }

  Rng rng(0xbe6c7);
  std::uint64_t sweep = 0;
  for (auto _ : state) {
    ++sweep;
    for (std::size_t p = 0; p < providers; ++p) {
      for (const geoloc::Landmark& v : fleet) {
        service.record(ids[p], observe(v, homes[p], rng));
      }
    }
    benchmark::DoNotOptimize(service.commit_sweep(sweep));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(providers));
  const track::TrackService::Stats stats = service.stats();
  state.counters["fix_rate"] = static_cast<double>(stats.fixes) /
                               static_cast<double>(stats.sweeps);
  state.counters["alarms"] = static_cast<double>(stats.alarms);
}
BENCHMARK(BM_TrackServiceSweep)->Arg(10)->Arg(100)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

void BM_TrackRecordIngest(benchmark::State& state) {
  const GeoPoint center = net::places::brisbane();
  const auto fleet = geoloc::spiral_landmarks(center, Kilometers{1500.0}, 8);
  track::TrackService service;
  const std::uint64_t id = service.add("prover", exact_model());
  Rng rng(0x1672e57);
  std::vector<locate::VantageObservation> pool;
  for (const geoloc::Landmark& v : fleet) {
    pool.push_back(observe(v, center, rng));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    service.record(id, pool[next]);
    next = (next + 1) % pool.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TrackRecordIngest);

void BM_RelocationDetection(benchmark::State& state) {
  const GeoPoint center = net::places::brisbane();
  const auto fleet = geoloc::spiral_landmarks(center, Kilometers{1500.0}, 9);
  const GeoPoint home = net::destination(center, 80.0, Kilometers{180.0});
  const GeoPoint away = net::destination(home, 250.0, Kilometers{800.0});

  std::uint64_t trials = 0;
  std::uint64_t detect_sweeps_total = 0;
  std::uint64_t missed = 0;
  Rng rng(0xde7ec7);
  for (auto _ : state) {
    track::PositionTrack track(exact_model());
    std::uint64_t sweep = 0;
    const auto run = [&](const GeoPoint& where) {
      ++sweep;
      for (const geoloc::Landmark& v : fleet) {
        track.ingest(observe(v, where, rng));
      }
      return track.commit_sweep(sweep);
    };
    for (unsigned k = 0; k < 8; ++k) run(home);
    const std::uint64_t moved = sweep + 1;
    std::optional<track::RelocationAlarm> alarm;
    for (unsigned k = 0; k < 12 && !alarm; ++k) alarm = run(away);
    ++trials;
    if (alarm) {
      detect_sweeps_total += alarm->at_sweep - moved + 1;
    } else {
      ++missed;
    }
  }
  state.counters["detect_sweeps"] =
      trials > missed ? static_cast<double>(detect_sweeps_total) /
                            static_cast<double>(trials - missed)
                      : 0.0;
  state.counters["missed"] = static_cast<double>(missed);
  state.SetItemsProcessed(static_cast<std::int64_t>(trials));
}
BENCHMARK(BM_RelocationDetection)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
