// TrackService: the thread-safe streaming registry. Covers the arena
// lifecycle (slot reuse, deterministic ids), end-to-end tracking with
// geo-fence verdicts and relocation alarms through the service surface,
// the engine audit tap's SLA accounting, and — the TSan target — eight
// shard-worker threads ingesting concurrently with a committer and a
// polling reader, asserting the epoch-snapshot invariants the header
// promises (passed <= audits, monotone epochs) under real contention.
#include "track/track_service.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <thread>
#include <vector>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/scheme.hpp"
#include "geoloc/schemes.hpp"
#include "locate/delay_model.hpp"
#include "locate/measurement.hpp"
#include "net/geo.hpp"

namespace geoproof::track {
namespace {

using net::GeoPoint;
using net::destination;
using net::haversine;

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
      kInterceptMs + kMsPerKm * haversine(vantage.pos, prover).value;
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

TEST(TrackService, RegistryArenaReusesSlots) {
  TrackService service;
  const std::uint64_t a = service.add("alpha", exact_model());
  const std::uint64_t b = service.add("beta", exact_model());
  const std::uint64_t c = service.add("gamma", exact_model());
  EXPECT_EQ(service.size(), 3u);
  EXPECT_EQ(service.provider_ids(), (std::vector<std::uint64_t>{a, b, c}));

  service.remove(b);
  EXPECT_FALSE(service.has(b));
  EXPECT_THROW(service.report(b), InvalidArgument);
  EXPECT_THROW(service.remove(b), InvalidArgument);

  // The freed slot is reused but the id is fresh — ids never recycle.
  const std::uint64_t d = service.add("delta", exact_model());
  EXPECT_GT(d, c);
  EXPECT_EQ(service.size(), 3u);
  EXPECT_EQ(service.provider_ids(), (std::vector<std::uint64_t>{a, c, d}));
  EXPECT_EQ(service.report(d).name, "delta");
  EXPECT_EQ(service.stats().providers, 3u);
}

TEST(TrackService, TracksFencesAndAlarmsThroughTheServiceSurface) {
  Rng rng(0x5e41ce);
  const GeoPoint center{-27.5, 153.0};
  const auto fleet = geoloc::spiral_landmarks(center, Kilometers{1500.0}, 8);
  const GeoPoint honest_home = destination(center, 60.0, Kilometers{150.0});
  const GeoPoint rogue_home = destination(center, 240.0, Kilometers{200.0});
  const GeoPoint rogue_away = destination(rogue_home, 20.0, Kilometers{900.0});

  TrackService service;
  const std::uint64_t honest = service.add(
      "honest", exact_model(),
      core::GeoFencePolicy{honest_home, Kilometers{400.0}});
  const std::uint64_t rogue = service.add("rogue", exact_model());

  std::uint64_t rogue_alarms = 0;
  for (std::uint64_t sweep = 1; sweep <= 30; ++sweep) {
    const GeoPoint& rogue_at = sweep <= 18 ? rogue_home : rogue_away;
    for (const geoloc::Landmark& v : fleet) {
      service.record(honest, observe(v, honest_home, rng));
      service.record(rogue, observe(v, rogue_at, rng));
    }
    for (const TrackService::ProviderAlarm& raised :
         service.commit_sweep(sweep)) {
      EXPECT_EQ(raised.provider_id, rogue);
      EXPECT_EQ(raised.name, "rogue");
      ++rogue_alarms;
    }
  }
  EXPECT_EQ(rogue_alarms, 1u);

  const TrackService::Report honest_report = service.report(honest);
  EXPECT_EQ(honest_report.state, TrackState::kArmed);
  EXPECT_EQ(honest_report.alarms, 0u);
  EXPECT_EQ(honest_report.sweeps, 30u);
  EXPECT_EQ(honest_report.fixes, 30u);
  EXPECT_EQ(honest_report.vantages, fleet.size());
  ASSERT_TRUE(honest_report.fix.has_value());
  ASSERT_TRUE(honest_report.fence.has_value());
  EXPECT_EQ(*honest_report.fence, core::GeoFenceVerdict::kInside);
  EXPECT_TRUE(honest_report.sla_met);  // no audits seen => met

  const TrackService::Report rogue_report = service.report(rogue);
  EXPECT_EQ(rogue_report.alarms, 1u);
  EXPECT_FALSE(rogue_report.fence.has_value());  // no fence bound

  const TrackService::Stats stats = service.stats();
  EXPECT_EQ(stats.providers, 2u);
  EXPECT_EQ(stats.observations, 2u * 30u * fleet.size());
  EXPECT_EQ(stats.sweeps, 2u * 30u);
  EXPECT_EQ(stats.alarms, 1u);
  EXPECT_GE(stats.fixes, 58u);
  EXPECT_GT(stats.epoch, 0u);
}

TEST(TrackService, NaNRttVantageIsCountedIncompleteNotWindowed) {
  // One vantage starts reporting NaN RTTs mid-run. Windowed, the NaN
  // would fill its window, become a NaN range and drag the fix away —
  // raising a relocation alarm on a provider that never moved.
  Rng rng(0x4a4e);
  const GeoPoint center{-27.5, 153.0};
  const auto fleet = geoloc::spiral_landmarks(center, Kilometers{1500.0}, 8);
  const GeoPoint home = destination(center, 120.0, Kilometers{180.0});

  TrackService service;
  const std::uint64_t id = service.add("prover", exact_model());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::uint64_t sweep = 1; sweep <= 16; ++sweep) {
    for (std::size_t v = 0; v < fleet.size(); ++v) {
      locate::VantageObservation obs = observe(fleet[v], home, rng);
      if (v == 3 && sweep > 6) obs.reported_rtt = Millis{nan};
      service.record(id, obs);
    }
    EXPECT_TRUE(service.commit_sweep(sweep).empty()) << "sweep " << sweep;
  }

  const TrackService::Report report = service.report(id);
  EXPECT_EQ(report.alarms, 0u);
  EXPECT_EQ(report.fixes, 16u);
  ASSERT_TRUE(report.fix.has_value());
  EXPECT_TRUE(report.fix->estimate.converged);
  EXPECT_LT(haversine(report.fix->estimate.position, home).value, 60.0);
}

TEST(TrackService, OverflowingRttWindowDoesNotEndTheTrack) {
  // A finite but huge RTT passes ingest, then overflows the window's
  // variance: that vantage's range gets an infinite sigma. The track must
  // keep solving from the other vantages rather than throw out of
  // commit_sweep.
  Rng rng(0x0f10);
  const GeoPoint center{-27.5, 153.0};
  const auto fleet = geoloc::spiral_landmarks(center, Kilometers{1500.0}, 8);
  const GeoPoint home = destination(center, 120.0, Kilometers{180.0});

  TrackService service;
  const std::uint64_t id = service.add("prover", exact_model());
  for (std::uint64_t sweep = 1; sweep <= 12; ++sweep) {
    for (std::size_t v = 0; v < fleet.size(); ++v) {
      locate::VantageObservation obs = observe(fleet[v], home, rng);
      if (v == 3 && sweep == 6) obs.reported_rtt = Millis{1e200};
      service.record(id, obs);
    }
    std::vector<TrackService::ProviderAlarm> alarms;
    ASSERT_NO_THROW(alarms = service.commit_sweep(sweep)) << "sweep " << sweep;
    EXPECT_TRUE(alarms.empty()) << "sweep " << sweep;
  }

  const TrackService::Report report = service.report(id);
  EXPECT_EQ(report.alarms, 0u);
  EXPECT_EQ(report.fixes, 12u);
  ASSERT_TRUE(report.fix.has_value());
  EXPECT_LT(haversine(report.fix->estimate.position, home).value, 60.0);
}

TEST(TrackService, AuditHookFoldsEngineReportsIntoSla) {
  TrackService service;
  const std::uint64_t id = service.add("prover", exact_model());
  // files 100..109 belong to the provider; anything else is untracked.
  const auto hook = service.audit_hook(
      [id](std::uint64_t file_id) -> std::optional<std::uint64_t> {
        if (file_id >= 100 && file_id < 110) return id;
        return std::nullopt;
      });

  core::AuditReport pass;
  pass.accepted = true;
  core::AuditReport fail;
  fail.accepted = false;
  for (std::uint64_t f = 100; f < 109; ++f) hook(f, pass, f % 8);
  hook(109, fail, 0);
  hook(999, fail, 0);  // untracked file: ignored entirely

  const TrackService::Report report = service.report(id);
  EXPECT_EQ(report.audits, 10u);
  EXPECT_EQ(report.audits_passed, 9u);
  EXPECT_FALSE(report.sla_met);  // 0.9 < default 0.99

  const TrackService::Stats stats = service.stats();
  EXPECT_EQ(stats.audits, 10u);
  EXPECT_EQ(stats.audits_passed, 9u);

  EXPECT_THROW(service.audit_hook(nullptr), InvalidArgument);
}

TEST(TrackService, ConcurrentShardIngestKeepsSnapshotsConsistent) {
  // The TSan target: 8 writer threads play shard workers — record() and
  // the audit tap interleaved across 4 providers (so slot mutexes and
  // slot atomics both contend) — while one committer closes sweeps and
  // one reader polls stats()/report(). The reader asserts the epoch
  // discipline: passed <= audits and monotone epochs at every sample.
  constexpr std::size_t kWriters = 8;
  constexpr std::size_t kIters = 150;
  constexpr std::size_t kProviders = 4;
  constexpr std::uint64_t kSweeps = 40;

  const GeoPoint center{-27.5, 153.0};
  const auto fleet = geoloc::spiral_landmarks(center, Kilometers{1200.0}, 6);

  TrackService service;
  std::vector<std::uint64_t> providers;
  for (std::size_t p = 0; p < kProviders; ++p) {
    providers.push_back(
        service.add("prover-" + std::to_string(p), exact_model()));
  }
  const auto hook = service.audit_hook(
      [&providers](std::uint64_t file_id) -> std::optional<std::uint64_t> {
        return providers[file_id % kProviders];
      });

  std::atomic<bool> streaming_done{false};
  std::vector<std::thread> threads;

  for (std::size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Rng rng = Rng::stream(0xc0ffee, w);
      core::AuditReport report;
      for (std::size_t i = 0; i < kIters; ++i) {
        const std::uint64_t id = providers[(w + i) % kProviders];
        const geoloc::Landmark& vantage = fleet[(w + i) % fleet.size()];
        service.record(id, observe(vantage, center, rng));
        report.accepted = (i % 16) != 0;
        hook(w * kIters + i, report, w);
      }
    });
  }

  threads.emplace_back([&] {
    for (std::uint64_t sweep = 1; sweep <= kSweeps; ++sweep) {
      service.commit_sweep(sweep);
    }
  });

  std::uint64_t last_epoch = 0;
  std::uint64_t samples = 0;
  threads.emplace_back([&] {
    while (!streaming_done.load(std::memory_order_acquire)) {
      const TrackService::Stats stats = service.stats();
      ASSERT_GE(stats.epoch, last_epoch);  // epochs never run backwards
      last_epoch = stats.epoch;
      ASSERT_LE(stats.audits_passed, stats.audits);
      ASSERT_LE(stats.fixes, stats.sweeps);
      ASSERT_LE(stats.alarms, stats.fixes);
      for (const std::uint64_t id : providers) {
        const TrackService::Report report = service.report(id);
        ASSERT_LE(report.audits_passed, report.audits);
        ASSERT_LE(report.fixes, report.sweeps);
      }
      ++samples;
      std::this_thread::yield();
    }
  });

  for (std::size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  streaming_done.store(true, std::memory_order_release);
  threads.back().join();
  EXPECT_GT(samples, 0u);

  // Quiescent totals: every write landed exactly once.
  const TrackService::Stats stats = service.stats();
  EXPECT_EQ(stats.observations, kWriters * kIters);
  EXPECT_EQ(stats.audits, kWriters * kIters);
  EXPECT_EQ(stats.sweeps, kSweeps * kProviders);
  std::uint64_t per_slot_audits = 0;
  for (const std::uint64_t id : providers) {
    per_slot_audits += service.report(id).audits;
  }
  EXPECT_EQ(per_slot_audits, kWriters * kIters);
}

}  // namespace
}  // namespace geoproof::track
