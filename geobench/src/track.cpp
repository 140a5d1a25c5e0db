// track_sweep: continuous location monitoring, dominated by the solver.
//
// One track::TrackService with 16 providers, each watched by 8 vantages
// from geoloc::spiral_landmarks around Brisbane (1500 km). RTTs are seeded,
// synthetic and jittered on a linear delay world (the `observe` shape of
// bench/bench_track.cpp). Each sweep records 8 observations per provider,
// then commits. Two providers relocate 800 km once mid-run and two others
// each see one lying vantage, so the solver's cold-start and trim paths run
// alongside the steady honest ones.
#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "geoloc/schemes.hpp"
#include "locate/delay_model.hpp"
#include "locate/measurement.hpp"
#include "locate/multilaterate.hpp"
#include "net/geo.hpp"
#include "proc.hpp"
#include "track/track_service.hpp"
#include "workloads.hpp"

namespace geobench {

namespace {

using namespace geoproof;

constexpr unsigned kProviders = 16;
constexpr unsigned kVantages = 8;
constexpr unsigned kRounds = 8;
constexpr double kInterceptMs = 4.0;
constexpr double kMsPerKm = 0.015;
constexpr double kJitterMs = 0.8;
/// A liar inflates its RTT by this much (~530 km of distance).
constexpr double kLieMs = 8.0;
constexpr double kMoveKm = 800.0;
/// Window turnover plus detector warm-up before the measured phase.
constexpr std::uint64_t kWarmupSweeps = 4;
/// Relocations happen this many sweeps after warm-up.
constexpr std::uint64_t kMoveAfter = 8;
/// A relocation must alarm within this many sweeps of the move.
constexpr std::uint64_t kAlarmBudget = 5;
constexpr int kSetups = 3;
/// ~33 sweeps per 20 s run; p66 leaves >= 10 beyond from 28 sweeps up.
constexpr double kTailPct = 66.0;

locate::DelayModel exact_model() {
  std::vector<locate::CalibrationPoint> pts;
  for (int i = 0; i <= 8; ++i) {
    const double d = 250.0 * i;
    pts.push_back({Kilometers{d}, Millis{kInterceptMs + kMsPerKm * d}});
  }
  return locate::DelayModel::fit(pts);
}

struct Provider {
  std::uint64_t id = 0;
  net::GeoPoint home, away;
  bool relocates = false;
  int liar = -1;  // index of the lying vantage, -1 for none
  std::uint64_t moved_at = 0;
  std::uint64_t alarmed_at = 0;
  bool late = false;  // alarm budget already charged
  /// Mirror of the track's per-vantage RTT windows (for the solve replay).
  std::vector<locate::SampleWindow> windows;

  net::GeoPoint truth() const { return moved_at != 0 ? away : home; }
};

struct World {
  std::vector<geoloc::Landmark> fleet;
  std::unique_ptr<track::TrackService> service;
  std::vector<Provider> providers;
  Rng rng{0};
  std::uint64_t sweep = 0;
  double setup_s = 0.0;
  /// This sweep's observations, [provider][vantage].
  std::vector<std::vector<locate::VantageObservation>> obs;
};

locate::VantageObservation observe(const geoloc::Landmark& vantage,
                                   const net::GeoPoint& prover, double lie_ms,
                                   Rng& rng) {
  const double base = kInterceptMs + lie_ms +
                      kMsPerKm * net::haversine(vantage.pos, prover).value;
  std::vector<Millis> samples;
  for (unsigned round = 0; round < kRounds; ++round) {
    samples.push_back(Millis{base + kJitterMs * rng.next_double()});
  }
  locate::VantageObservation o;
  o.vantage = vantage;
  o.stats = locate::SampleStats::of(samples);
  o.reported_rtt = locate::min_filtered(samples);
  o.completed = true;
  return o;
}

/// Next sweep's observations (harness work, outside the timed request).
void generate(World& w) {
  ++w.sweep;
  for (unsigned p = 0; p < kProviders; ++p) {
    Provider& pr = w.providers[p];
    if (pr.relocates && pr.moved_at == 0 &&
        w.sweep == kWarmupSweeps + kMoveAfter) {
      pr.moved_at = w.sweep;
    }
    for (unsigned v = 0; v < kVantages; ++v) {
      const double lie = static_cast<int>(v) == pr.liar ? kLieMs : 0.0;
      w.obs[p][v] = observe(w.fleet[v], pr.truth(), lie, w.rng);
      pr.windows[v].push(w.obs[p][v].reported_rtt);
    }
  }
}

/// One request: record every observation, then commit the sweep.
/// Returns the alarms raised.
std::vector<track::TrackService::ProviderAlarm> run_sweep(World& w) {
  for (unsigned p = 0; p < kProviders; ++p) {
    for (const locate::VantageObservation& o : w.obs[p]) {
      w.service->record(w.providers[p].id, o);
    }
  }
  return w.service->commit_sweep(w.sweep);
}

/// Judge one committed sweep: a fix for every provider, liars among the
/// outliers, relocations alarmed within budget, and no other alarm.
void judge(World& w,
           const std::vector<track::TrackService::ProviderAlarm>& alarms,
           Tally& tally, std::vector<double>* error_km,
           std::uint64_t* ranges, std::uint64_t* outliers) {
  for (Provider& pr : w.providers) {
    std::string failure;
    const track::TrackService::Report r = w.service->report(pr.id);
    if (!r.fix || r.fix->sweep != w.sweep) {
      failure = "provider sweep without a fix";
    } else {
      const locate::PositionEstimate& est = r.fix->estimate;
      if (error_km != nullptr) {
        error_km->push_back(net::haversine(est.position, pr.truth()).value);
      }
      if (ranges != nullptr) *ranges += r.fix->vantages_used;
      if (outliers != nullptr) *outliers += est.outliers.size();
      // Range order is the track's vantage-name order, which is the fleet
      // order for names "v-0".."v-7".
      if (pr.liar >= 0 &&
          std::find(est.outliers.begin(), est.outliers.end(),
                    static_cast<std::size_t>(pr.liar)) == est.outliers.end()) {
        failure = "lying vantage not among the outliers";
      }
    }
    const bool alarmed =
        std::any_of(alarms.begin(), alarms.end(),
                    [&](const auto& a) { return a.provider_id == pr.id; });
    if (alarmed) {
      if (!pr.relocates || pr.moved_at == 0 || pr.alarmed_at != 0) {
        failure = "false relocation alarm";
      } else {
        pr.alarmed_at = w.sweep;
      }
    } else if (pr.moved_at != 0 && pr.alarmed_at == 0 && !pr.late &&
               w.sweep - pr.moved_at + 1 >= kAlarmBudget) {
      pr.late = true;
      failure = "relocation not alarmed within budget";
    }
    tally.count(failure);
  }
}

/// Service, adds and warm-up sweeps.
std::unique_ptr<World> build_world(std::uint64_t seed, Tally& tally) {
  const double t0 = now_ms();
  auto w = std::make_unique<World>();
  const net::GeoPoint center = net::places::brisbane();
  w->fleet = geoloc::spiral_landmarks(center, Kilometers{1500.0}, kVantages);
  w->service = std::make_unique<track::TrackService>();
  w->rng = Rng(seed);
  // The geometry is fixed: provider homes on a golden-angle layout within
  // 400 km of Brisbane, fixed relocation bearings and lying vantages. Solve
  // cost depends on geometry, so seeding it would make the run-to-run
  // spread a property of the seed; the seed drives the RTT jitter.
  const std::vector<geoloc::Landmark> homes =
      geoloc::spiral_landmarks(center, Kilometers{400.0}, kProviders, "home");
  w->providers.resize(kProviders);
  for (unsigned p = 0; p < kProviders; ++p) {
    Provider& pr = w->providers[p];
    std::string name = "p";
    name += std::to_string(p);
    pr.id = w->service->add(std::move(name), exact_model());
    pr.home = homes[p].pos;
    pr.away = net::destination(pr.home, 137.5 * p, Kilometers{kMoveKm});
    pr.windows.assign(kVantages, locate::SampleWindow(
                                     track::TrackOptions{}.window));
  }
  // Roles are spread over the layout: two relocate, two face a liar.
  w->providers[3].relocates = true;
  w->providers[11].relocates = true;
  w->providers[7].liar = 2;
  w->providers[15].liar = 5;
  w->obs.assign(kProviders, std::vector<locate::VantageObservation>(kVantages));
  for (std::uint64_t s = 0; s < kWarmupSweeps; ++s) {
    generate(*w);
    judge(*w, run_sweep(*w), tally, nullptr, nullptr, nullptr);
  }
  w->setup_s = (now_ms() - t0) / 1e3;
  return w;
}

/// The ranges a commit solves for one provider, rebuilt from the mirrored
/// windows exactly as PositionTrack::commit_sweep builds them.
std::vector<locate::VantageRange> ranges_of(const Provider& pr,
                                            const World& w,
                                            const locate::DelayModel& model) {
  std::vector<locate::VantageRange> ranges;
  for (unsigned v = 0; v < kVantages; ++v) {
    const locate::SampleWindow& win = pr.windows[v];
    const locate::SampleStats stats = win.stats();
    const double spread_km =
        model
            .spread_to_distance(Millis{
                stats.stddev_ms /
                std::sqrt(static_cast<double>(
                    std::max<std::size_t>(stats.count, 1)))})
            .value;
    ranges.push_back(locate::VantageRange{
        w.fleet[v], model.distance_for_rtt(win.min()),
        Kilometers{std::max({model.distance_sigma().value, spread_km, 5.0})}});
  }
  return ranges;
}

double detect_sweeps(const World& w) {
  double total = 0.0;
  int n = 0;
  for (const Provider& pr : w.providers) {
    if (pr.alarmed_at != 0) {
      total += static_cast<double>(pr.alarmed_at - pr.moved_at + 1);
      ++n;
    }
  }
  return n == 0 ? 0.0 : total / n;
}

}  // namespace

void track_sweep(const Config& cfg, Outcome& out) {
  const CpuRotation rotation;
  EndToEnd e;
  e.tail_pct = kTailPct;
  std::unique_ptr<World> w;
  for (int rep = 0; rep < kSetups; ++rep) {
    Tally warmup;
    w = build_world(cfg.seed, warmup);
    e.setup_s.push_back(w->setup_s);
    if (rep + 1 == kSetups) out.tally = warmup;
  }

  const double cpu0 = self_cpu_ms();
  const double t0 = now_ms();
  const double deadline = t0 + cfg.seconds * 1e3;
  while (now_ms() < deadline) {
    generate(*w);
    const double start = now_ms();
    const auto alarms = run_sweep(*w);
    e.latency_ms.push_back(now_ms() - start);
    judge(*w, alarms, out.tally, &e.fix_error_km, nullptr, nullptr);
    e.ops += kProviders;
  }
  e.measured_s = (now_ms() - t0) / 1e3;
  e.cpu_ms = self_cpu_ms() - cpu0;
  e.rss_mb = self_rss_peak_mb();
  out.tally.check(w->sweep >= kWarmupSweeps + kMoveAfter + kAlarmBudget,
                  "run long enough to judge the relocations");
  set_end_to_end(e, out.tally, out.metrics, out.notes);
}

void track_sweep_traced(const Config& cfg, double seconds, Outcome& out) {
  const CpuRotation rotation;
  std::unique_ptr<World> w = build_world(cfg.seed, out.tally);
  const locate::DelayModel model = exact_model();
  const locate::Multilaterator solver(track::TrackOptions{}.solver);

  // Untraced and traced sweeps alternate, so host drift hits both alike.
  Trace trace;
  std::vector<double> untraced, record_ns, commit_ms, commit_self_ms,
      solve_ms;
  std::uint64_t ranges = 0;
  std::uint64_t outliers = 0;
  const double end = now_ms() + seconds * 1e3;
  while (now_ms() < end) {
    generate(*w);
    const double start = now_ms();
    const auto plain_alarms = run_sweep(*w);
    untraced.push_back(now_ms() - start);
    judge(*w, plain_alarms, out.tally, nullptr, nullptr, nullptr);

    generate(*w);
    const int root = trace.open("track.request", -1);
    for (unsigned p = 0; p < kProviders; ++p) {
      const int rec = trace.open("track.record", root);
      for (const locate::VantageObservation& o : w->obs[p]) {
        w->service->record(w->providers[p].id, o);
      }
      trace.close(rec);
      record_ns.push_back(trace.at(rec).duration_ms() * 1e6 / kVantages);
    }
    const int commit = trace.open("track.commit", root);
    const auto alarms = w->service->commit_sweep(w->sweep);
    trace.close(commit);
    trace.close(root);
    judge(*w, alarms, out.tally, nullptr, &ranges, &outliers);

    // The same solves, replayed on their own to split them out of commit.
    double solves = 0.0;
    for (const Provider& pr : w->providers) {
      const std::vector<locate::VantageRange> ranges = ranges_of(pr, *w, model);
      const double start = now_ms();
      const locate::PositionEstimate est = solver.estimate(ranges);
      solve_ms.push_back(now_ms() - start);
      solves += solve_ms.back();
      const auto fix = w->service->report(pr.id).fix;
      out.tally.check(
          est.converged && fix &&
              net::haversine(est.position, fix->estimate.position).value <
                  1e-6,
          "replayed solve reproduces the commit's fix");
    }
    commit_ms.push_back(trace.at(commit).duration_ms());
    commit_self_ms.push_back(commit_ms.back() - solves);
  }
  trace.write(cfg.out_dir + "/track_sweep.spans.jsonl");
  std::vector<double> traced;
  for (const Ladder& l : trace.ladders("track.request")) {
    traced.push_back(l.request_ms);
  }

  Metrics& m = out.metrics;
  m.set("track.record_ns", median(record_ns), "ns");
  m.set("track.commit_ms", median(commit_ms), "ms");
  m.set("track.commit_self_ms", median(commit_self_ms), "ms");
  m.set("track.detect_sweeps", detect_sweeps(*w), "sweeps");
  m.set("locate.solve_ms", median(solve_ms), "ms");
  m.set("locate.outlier_ratio",
        ranges == 0 ? 0.0
                    : static_cast<double>(outliers) /
                          static_cast<double>(ranges),
        "ratio");
  m.set("ladder.gap_ratio", gap_ratio(trace.ladders("track.request")),
        "ratio");
  m.set("trace.overhead_ratio",
        median(untraced) > 0.0 ? median(traced) / median(untraced) : 0.0,
        "ratio");
}

}  // namespace geobench
