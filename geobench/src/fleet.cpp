// fleet_audit: the deployed system end to end, as a closed loop.
//
// One geoproofd holding a 1 MiB file plus four geoproof-vantage processes
// (Armidale, Sydney, Townsville, Melbourne) around a prover emulated at
// Brisbane; each vantage's --extra-oneway-ms comes from a linear world of
// kMsPerKm RTT. Four auditor threads run daemon::AuditorClient::run() back
// to back. A vantage runs each sweep on its server loop thread, so
// concurrent auditors queue at every vantage.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "daemon/auditor_client.hpp"
#include "daemon/wire.hpp"
#include "locate/measurement.hpp"
#include "net/geo.hpp"
#include "net/tcp.hpp"
#include "por/encoder.hpp"
#include "proc.hpp"
#include "workloads.hpp"

namespace geobench {

namespace {

using namespace geoproof;

/// Emulated RTT slope. Keep it >= 0.01 ms/km: below that the delay model
/// clamps to the fibre bound and fixes land hundreds of km off. At 0.02 a
/// 0.6 ms scheduling hiccup on a loaded host already pushes a fix outside
/// its 25 km radius; 0.04 keeps 1 ms of noise inside it.
constexpr double kMsPerKm = 0.04;
constexpr std::uint64_t kFileBytes = 1 << 20;
constexpr unsigned kAuditors = 4;
constexpr std::uint32_t kRounds = 8;
/// The prover's single-threaded POR encode dominates a set-up.
constexpr int kSetups = 5;
/// ~45 audits per 20 s run leave >= 10 samples beyond p75.
constexpr double kTailPct = 75.0;
/// The measured phase's CPU is sampled over this many equal windows.
constexpr int kCpuWindows = 10;
constexpr double kHandshakeTimeoutMs = 60'000.0;

struct City {
  const char* name;
  net::GeoPoint pos;
};

std::vector<City> vantage_cities() {
  return {{"armidale", net::places::armidale()},
          {"sydney", net::places::sydney()},
          {"townsville", net::places::townsville()},
          {"melbourne", net::places::melbourne()}};
}

std::string fixed(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// One spawned prover plus its vantages.
struct Fleet {
  std::unique_ptr<Child> prover;
  std::vector<std::unique_ptr<Child>> vantages;
  std::vector<double> oneway_ms;
  std::uint16_t metrics_port = 0;
  daemon::AuditorConfig auditor;
  std::vector<double> ready_ms;  // spawn -> READY, per daemon
  double setup_s = 0.0;

  double rss_peak_mb() const {
    double sum = prover->rss_peak_mb();
    for (const auto& v : vantages) sum += v->rss_peak_mb();
    return sum;
  }
  /// SIGTERM every daemon; true iff all exited 0.
  bool shutdown() {
    bool clean = prover->terminate_clean(10'000.0);
    for (auto& v : vantages) clean = v->terminate_clean(10'000.0) && clean;
    return clean;
  }
};

std::unique_ptr<Fleet> spawn_fleet(const Config& cfg, int generation,
                                   std::uint64_t file_seed) {
  auto fleet = std::make_unique<Fleet>();
  const double t0 = now_ms();
  const std::string log =
      cfg.out_dir + "/fleet" + std::to_string(generation) + "-";
  fleet->prover = std::make_unique<Child>(
      std::vector<std::string>{cfg.bin_dir + "/geoproofd",
                               "--file-bytes=" + std::to_string(kFileBytes),
                               "--seed=" + std::to_string(file_seed),
                               "--metrics-port=0"},
      log + "geoproofd.log");
  // Until READY the prover runs its single-threaded POR encode, whose speed
  // otherwise depends on the core it lands on.
  auto rotation = std::make_unique<CpuRotation>(fleet->prover->pid());
  const net::GeoPoint prover_at = net::places::brisbane();
  for (const City& city : vantage_cities()) {
    const double oneway =
        0.5 * kMsPerKm * net::haversine(city.pos, prover_at).value;
    fleet->oneway_ms.push_back(oneway);
    fleet->vantages.push_back(std::make_unique<Child>(
        std::vector<std::string>{cfg.bin_dir + "/geoproof-vantage",
                                 std::string("--name=") + city.name,
                                 "--lat=" + fixed(city.pos.lat_deg),
                                 "--lon=" + fixed(city.pos.lon_deg),
                                 "--extra-oneway-ms=" + fixed(oneway)},
        log + city.name + ".log"));
  }
  // Vantages first: they are ready long before the prover has encoded.
  for (auto& v : fleet->vantages) {
    const std::string ready = v->wait_line("READY ", kHandshakeTimeoutMs);
    fleet->ready_ms.push_back(now_ms() - v->spawned_ms());
    fleet->auditor.vantages.push_back(daemon::VantageEndpoint{
        "127.0.0.1",
        static_cast<std::uint16_t>(handshake_field(ready, "port"))});
  }
  const std::string ready =
      fleet->prover->wait_line("READY ", kHandshakeTimeoutMs);
  fleet->ready_ms.push_back(now_ms() - fleet->prover->spawned_ms());
  rotation.reset();
  const std::string file = fleet->prover->wait_line("FILE ", 5'000.0);
  fleet->setup_s = (now_ms() - t0) / 1e3;

  // Where the prover's threads run relative to the vantages' sets the
  // loopback wake-up cost in every timed round, and with it the bias of
  // every range: left to the scheduler, runs fell into two fix-error modes
  // (~5.7 or ~7.3 km). Pinned after READY, the prover takes the first CPU
  // and vantage i the (i+1)-th.
  const std::vector<int> cpus = allowed_cpus();
  if (cpus.size() > 1) {
    bool pinned = pin_process(fleet->prover->pid(), cpus[0]);
    for (std::size_t i = 0; i < fleet->vantages.size(); ++i) {
      pinned = pin_process(fleet->vantages[i]->pid(),
                           cpus[(i + 1) % cpus.size()]) &&
               pinned;
    }
    if (!pinned) throw std::runtime_error("could not pin the daemons");
  }

  daemon::AuditorConfig& a = fleet->auditor;
  a.prover_port = static_cast<std::uint16_t>(handshake_field(ready, "port"));
  fleet->metrics_port =
      static_cast<std::uint16_t>(handshake_field(ready, "metrics_port"));
  a.file_id = handshake_field(file, "id");
  a.n_segments = handshake_field(file, "segments");
  a.rounds = kRounds;
  a.cal_ms_per_km = kMsPerKm;
  a.cal_intercept_ms = 0.0;
  return fleet;
}

/// The last of several set-ups, plus every generation's timings.
struct SetUp {
  std::unique_ptr<Fleet> fleet;
  std::vector<double> setup_s;   // one per generation
  std::vector<double> ready_ms;  // one per daemon of every generation
};

/// Spawn `setups` fleets in turn (each torn down, with its SIGTERM exit
/// checked, before the next) and keep the last one.
SetUp set_up(const Config& cfg, int setups, std::uint64_t file_seed,
             Outcome& out) {
  SetUp s;
  for (int g = 0; g < setups; ++g) {
    if (s.fleet) {
      out.tally.check(s.fleet->shutdown(), "daemons exit 0 on SIGTERM");
    }
    s.fleet = spawn_fleet(cfg, g, file_seed);
    s.setup_s.push_back(s.fleet->setup_s);
    s.ready_ms.insert(s.ready_ms.end(), s.fleet->ready_ms.begin(),
                      s.fleet->ready_ms.end());
  }
  return s;
}

std::uint64_t rounds_of(const daemon::FleetReport& report) {
  std::uint64_t n = 0;
  for (const auto& o : report.outcomes) n += o.report.rtt_ms.size();
  return n;
}

/// Empty when the audit produced a converged fix within its own radius of
/// the true prover position from every vantage; else why not.
std::string judge(const daemon::FleetReport& report, double& error_km) {
  for (const auto& o : report.outcomes) {
    if (!o.responded || !o.report.completed || !o.error.empty()) {
      return "vantage " + std::to_string(o.endpoint.port) + ": " +
             (o.error.empty() ? "no report" : o.error);
    }
  }
  if (!report.have_estimate || !report.estimate.converged) {
    return "no converged fix";
  }
  error_km =
      net::haversine(report.estimate.position, net::places::brisbane()).value;
  if (error_km > report.estimate.radius_km.value) {
    return "fix " + std::to_string(error_km) + " km off, outside its radius";
  }
  return {};
}

/// Distinct probe seed per (run seed, auditor, audit).
std::uint64_t probe_seed(std::uint64_t base, unsigned auditor,
                         std::uint64_t audit) {
  return base + (static_cast<std::uint64_t>(auditor) << 40) + audit * 7919;
}

struct AuditSample {
  double latency_ms = 0.0;
  double error_km = 0.0;
  std::string failure;
  std::uint64_t rounds = 0;
  bool traced = false;
};

/// Run `kAuditors` closed-loop threads until `deadline_ms`; `audit(a, i, s)`
/// performs audit i of auditor a and fills its sample. The calling thread
/// runs `meanwhile()` while they do.
template <typename AuditFn, typename MeanwhileFn>
std::vector<AuditSample> closed_loop(double deadline_ms, AuditFn audit,
                                     MeanwhileFn meanwhile) {
  std::vector<std::vector<AuditSample>> per_thread(kAuditors);
  const std::vector<int> cpus = allowed_cpus();
  {
    std::vector<std::jthread> threads;
    for (unsigned a = 0; a < kAuditors; ++a) {
      threads.emplace_back([&, a] {
        // Pinned like the daemons, so every run places its threads alike.
        if (cpus.size() > 1) pin_thread(0, cpus[a % cpus.size()]);
        for (std::uint64_t i = 0; now_ms() < deadline_ms; ++i) {
          AuditSample s;
          const double start = now_ms();
          try {
            audit(a, i, s);
          } catch (const std::exception& err) {
            s.failure = err.what();
          }
          s.latency_ms = now_ms() - start;
          per_thread[a].push_back(std::move(s));
        }
      });
    }
    meanwhile();
  }
  std::vector<AuditSample> all;
  for (auto& v : per_thread) all.insert(all.end(), v.begin(), v.end());
  return all;
}

/// The prover's served-request counter must equal the rounds the vantages
/// reported: every timed round is one served segment.
void check_served(const Fleet& fleet, std::uint64_t rounds, Outcome& out) {
  double served = -1.0;
  try {
    served = prometheus_value(http_get(fleet.metrics_port, "/metrics"),
                              "geoproof_prover_requests_served_total");
  } catch (const std::exception& err) {
    out.notes.push_back(std::string("metrics scrape: ") + err.what());
  }
  out.tally.check(served == static_cast<double>(rounds),
                  "prover served " + std::to_string(served) +
                      " requests, vantages reported " +
                      std::to_string(rounds) + " rounds");
}

std::uint64_t file_seed_of(const Config& cfg) {
  return Rng(cfg.seed).next_u64() >> 16;
}

// ── Traced replay ─────────────────────────────────────────────────────────

struct LayerSamples {
  std::vector<double> measure_ms, busy_ms, wait_ms;  // critical path
  std::vector<double> wire_us, connect_ms, segment_us, calibrate_us,
      solve_ms;
  std::uint64_t errors = 0;
  std::uint64_t ranges = 0;
  std::uint64_t outliers = 0;
};

/// AuditorClient::run's steps, each under a span: connect, encode, the
/// vantage request (begin_request -> completion), decode, calibration,
/// range conversion and the solve.
daemon::FleetReport replay_audit(const daemon::AuditorConfig& cfg,
                                 const std::vector<double>& oneway_ms,
                                 Trace& tr, LayerSamples& s) {
  const int root = tr.open("fleet.request", -1);
  daemon::FleetReport fleet;
  const std::size_t n = cfg.vantages.size();
  fleet.outcomes.resize(n);

  daemon::MeasureRequest request;
  request.prover_host = cfg.prover_host;
  request.prover_port = cfg.prover_port;
  request.file_id = cfg.file_id;
  request.n_segments = cfg.n_segments;
  request.rounds = cfg.rounds;
  request.max_rtt_ms = cfg.max_rtt_ms;

  net::EventLoop loop;
  std::vector<std::unique_ptr<net::AsyncTcpChannel>> channels(n);
  std::vector<double> begun(n, 0.0), finished(n, 0.0), encode_ms(n, 0.0);
  std::size_t outstanding = 0;

  for (std::size_t i = 0; i < n; ++i) {
    daemon::VantageOutcome& outcome = fleet.outcomes[i];
    outcome.endpoint = cfg.vantages[i];
    request.probe_seed = cfg.probe_seed + 0x9e3779b9u * (i + 1);
    const int connect = tr.open("net.connect", root);
    try {
      channels[i] = std::make_unique<net::AsyncTcpChannel>(
          loop, outcome.endpoint.host, outcome.endpoint.port);
    } catch (const std::exception& err) {
      tr.close(connect);
      outcome.error = err.what();
      ++s.errors;
      continue;
    }
    tr.close(connect);
    s.connect_ms.push_back(tr.at(connect).duration_ms());
    const int encode = tr.open("daemon.wire", root);
    const Bytes wire = daemon::encode(request);
    tr.close(encode);
    encode_ms[i] = tr.at(encode).duration_ms();

    ++outstanding;
    begun[i] = now_ms();
    channels[i]->begin_request(
        wire,
        [&, i](net::AsyncResult&& result) {
          finished[i] = now_ms();
          --outstanding;
          tr.add("daemon.measure", begun[i], finished[i], root);
          daemon::VantageOutcome& o = fleet.outcomes[i];
          if (!result.ok()) {
            o.error = result.status == net::AsyncStatus::kTimeout
                          ? "sweep deadline expired"
                          : result.error;
            ++s.errors;
            return;
          }
          const int decode = tr.open("daemon.wire", root);
          try {
            if (daemon::type_of(result.payload) ==
                daemon::MsgType::kSampleReport) {
              o.report = daemon::decode_sample_report(result.payload);
              o.responded = true;
            } else {
              o.error = "vantage replied with an error";
            }
          } catch (const std::exception& err) {
            o.error = err.what();
          }
          tr.close(decode);
          s.wire_us.push_back(
              (encode_ms[i] + tr.at(decode).duration_ms()) * 1e3);
          if (!o.responded) {
            ++s.errors;
            return;
          }
          for (const double rtt : o.report.rtt_ms) {
            s.segment_us.push_back((rtt - 2.0 * oneway_ms[i]) * 1e3);
          }
        },
        Millis{cfg.sweep_timeout_ms});
  }
  while (outstanding > 0) loop.pump(Millis{50.0});
  channels.clear();

  // The vantage request the fix waited for: the one that finished last.
  std::size_t last = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (fleet.outcomes[i].responded &&
        (last == n || finished[i] > finished[last])) {
      last = i;
    }
  }
  if (last < n) {
    const double rtt = finished[last] - begun[last];
    const double busy = fleet.outcomes[last].report.elapsed_ms;
    s.measure_ms.push_back(rtt);
    s.busy_ms.push_back(busy);
    s.wait_ms.push_back(rtt - busy);
  }

  const int calibrate = tr.open("locate.calibrate", root);
  const locate::DelayModel model = daemon::calibrate_model(cfg);
  tr.close(calibrate);
  s.calibrate_us.push_back(tr.at(calibrate).duration_ms() * 1e3);
  fleet.calibration = model.fit_stats();

  const int convert = tr.open("locate.ranges", root);
  std::vector<locate::VantageRange> ranges;
  for (daemon::VantageOutcome& o : fleet.outcomes) {
    if (!o.responded) continue;
    ++fleet.responded;
    if (!o.report.completed) continue;
    ++fleet.completed;
    std::vector<Millis> samples;
    for (const double ms : o.report.rtt_ms) samples.push_back(Millis{ms});
    const locate::SampleStats stats = locate::SampleStats::of(samples);
    o.distance = model.distance_for_rtt(locate::min_filtered(samples));
    const double spread_km =
        model
            .spread_to_distance(Millis{
                stats.stddev_ms /
                std::sqrt(static_cast<double>(
                    std::max<std::size_t>(stats.count, 1)))})
            .value;
    o.sigma = Kilometers{
        std::max({model.distance_sigma().value, spread_km, 5.0})};
    ranges.push_back(locate::VantageRange{
        geoloc::Landmark{o.report.vantage_name,
                         net::GeoPoint{o.report.latitude_deg,
                                       o.report.longitude_deg}},
        o.distance, o.sigma});
  }
  tr.close(convert);

  if (ranges.size() >= 3) {
    const int solve = tr.open("locate.solve", root);
    fleet.estimate = locate::Multilaterator().estimate(ranges);
    tr.close(solve);
    s.solve_ms.push_back(tr.at(solve).duration_ms());
    fleet.have_estimate = true;
    s.ranges += ranges.size();
    s.outliers += fleet.estimate.outliers.size();
  }
  tr.close(root);
  return fleet;
}

void append_all(std::vector<double>& dst, const std::vector<double>& src) {
  dst.insert(dst.end(), src.begin(), src.end());
}

/// CPU of this process (the auditors) and of every daemon, in ms.
struct CpuSplit {
  double auditors = 0.0, prover = 0.0, vantages = 0.0;

  static CpuSplit of(const Fleet& fleet) {
    CpuSplit c{self_cpu_ms(), fleet.prover->cpu_ms(), 0.0};
    for (const auto& v : fleet.vantages) c.vantages += v->cpu_ms();
    return c;
  }
  double total() const { return auditors + prover + vantages; }
  CpuSplit operator-(const CpuSplit& o) const {
    return {auditors - o.auditors, prover - o.prover, vantages - o.vantages};
  }
};

/// Sample the fleet's CPU over kCpuWindows equal windows from `t0_ms` to
/// `deadline_ms`; returns each window's rate, in CPU ms per wall second.
std::vector<double> cpu_rates(const Fleet& fleet, double t0_ms,
                              double deadline_ms) {
  std::vector<double> rates;
  double t = t0_ms;
  CpuSplit cpu = CpuSplit::of(fleet);
  for (int w = 1; w <= kCpuWindows; ++w) {
    const double until = t0_ms + (deadline_ms - t0_ms) * w / kCpuWindows;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(until - now_ms()));
    const double now = now_ms();
    const CpuSplit c = CpuSplit::of(fleet);
    rates.push_back((c - cpu).total() / (now - t) * 1e3);
    t = now;
    cpu = c;
  }
  return rates;
}

}  // namespace

void fleet_audit(const Config& cfg, Outcome& out) {
  EndToEnd e;
  e.tail_pct = kTailPct;
  SetUp setup = set_up(cfg, kSetups, file_seed_of(cfg), out);
  e.setup_s = setup.setup_s;
  const std::unique_ptr<Fleet>& fleet = setup.fleet;

  const std::uint64_t seed_base = Rng(cfg.seed ^ 0xa0d17).next_u64();
  const CpuSplit cpu0 = CpuSplit::of(*fleet);
  const double t0 = now_ms();
  const double deadline = t0 + cfg.seconds * 1e3;
  std::vector<double> rates;
  const std::vector<AuditSample> samples = closed_loop(
      deadline,
      [&](unsigned a, std::uint64_t i, AuditSample& s) {
        daemon::AuditorConfig c = fleet->auditor;
        c.probe_seed = probe_seed(seed_base, a, i);
        const daemon::FleetReport report = daemon::AuditorClient(c).run();
        s.rounds = rounds_of(report);
        s.failure = judge(report, s.error_km);
      },
      [&] { rates = cpu_rates(*fleet, t0, deadline); });
  e.measured_s = (now_ms() - t0) / 1e3;
  // cpu_ms_per_op is the median window's CPU rate over the phase's op
  // rate: one busy stretch of a shared host moves one window, not the run.
  e.cpu_ms = median(rates) * e.measured_s;
  const CpuSplit phase = CpuSplit::of(*fleet) - cpu0;

  std::uint64_t rounds = 0;
  for (const AuditSample& s : samples) {
    out.tally.count(s.failure);
    e.latency_ms.push_back(s.latency_ms);
    if (s.failure.empty()) e.fix_error_km.push_back(s.error_km);
    rounds += s.rounds;
  }
  e.ops = samples.size();
  check_served(*fleet, rounds, out);
  e.rss_mb = self_rss_peak_mb() + fleet->rss_peak_mb();
  out.tally.check(fleet->shutdown(), "daemons exit 0 on SIGTERM");
  set_end_to_end(e, out.tally, out.metrics, out.notes);

  const double ops = static_cast<double>(std::max<std::uint64_t>(e.ops, 1));
  char line[200];
  std::snprintf(line, sizeof line,
                "whole-phase CPU ms/op: auditors %.3f, geoproofd %.3f, "
                "vantages %.3f; window rates %.1f..%.1f ms/s",
                phase.auditors / ops, phase.prover / ops,
                phase.vantages / ops,
                *std::min_element(rates.begin(), rates.end()),
                *std::max_element(rates.begin(), rates.end()));
  out.notes.emplace_back(line);
}

void fleet_audit_traced(const Config& cfg, double seconds, Outcome& out) {
  const std::uint64_t file_seed = file_seed_of(cfg);
  const SetUp setup = set_up(cfg, 1, file_seed, out);
  const std::unique_ptr<Fleet>& fleet = setup.fleet;

  // por.encode_ms: the prover's set-up encode, on the same file, here.
  std::vector<double> encode_ms;
  {
    Rng rng(file_seed);
    const Bytes file = rng.next_bytes(kFileBytes);
    const Bytes master = rng.next_bytes(16);
    const por::PorEncoder encoder{por::PorParams{}};
    for (int rep = 0; rep < 3; ++rep) {
      const double start = now_ms();
      const por::EncodedFile encoded = encoder.encode(file, 1, master);
      encode_ms.push_back(now_ms() - start);
      out.tally.check(encoded.n_segments == fleet->auditor.n_segments,
                      "local encode matches the prover's segment count");
    }
  }

  // Each auditor alternates a real AuditorClient::run (the untraced
  // baseline for trace.overhead_ratio) with a traced replay, so host drift
  // hits both alike.
  const std::uint64_t seed_base = Rng(cfg.seed ^ 0x7ace).next_u64();
  std::vector<Trace> traces(kAuditors);
  std::vector<LayerSamples> layers(kAuditors);
  const std::vector<AuditSample> samples = closed_loop(
      now_ms() + seconds * 1e3,
      [&](unsigned a, std::uint64_t i, AuditSample& s) {
        daemon::AuditorConfig c = fleet->auditor;
        c.probe_seed = probe_seed(seed_base, a, i);
        s.traced = i % 2 == 1;
        const daemon::FleetReport report =
            s.traced ? replay_audit(c, fleet->oneway_ms, traces[a], layers[a])
                     : daemon::AuditorClient(c).run();
        s.rounds = rounds_of(report);
        s.failure = judge(report, s.error_km);
      },
      [] {});
  std::uint64_t rounds = 0;
  std::vector<double> untraced, traced;
  for (const AuditSample& s : samples) {
    out.tally.count(s.failure);
    (s.traced ? traced : untraced).push_back(s.latency_ms);
    rounds += s.rounds;
  }
  check_served(*fleet, rounds, out);
  out.tally.check(fleet->shutdown(), "daemons exit 0 on SIGTERM");

  Trace trace;
  LayerSamples all;
  for (unsigned a = 0; a < kAuditors; ++a) {
    trace.append(traces[a]);
    const LayerSamples& l = layers[a];
    append_all(all.measure_ms, l.measure_ms);
    append_all(all.busy_ms, l.busy_ms);
    append_all(all.wait_ms, l.wait_ms);
    append_all(all.wire_us, l.wire_us);
    append_all(all.connect_ms, l.connect_ms);
    append_all(all.segment_us, l.segment_us);
    append_all(all.calibrate_us, l.calibrate_us);
    append_all(all.solve_ms, l.solve_ms);
    all.errors += l.errors;
    all.ranges += l.ranges;
    all.outliers += l.outliers;
  }
  trace.write(cfg.out_dir + "/fleet_audit.spans.jsonl");

  Metrics& m = out.metrics;
  m.set("daemon.measure_rtt_ms", median(all.measure_ms), "ms");
  m.set("daemon.vantage_busy_ms", median(all.busy_ms), "ms");
  m.set("daemon.vantage_wait_ms", median(all.wait_ms), "ms");
  m.set("daemon.wire_us", median(all.wire_us), "us");
  m.set("daemon.errors", static_cast<double>(all.errors), "count");
  m.set("net.connect_ms", median(all.connect_ms), "ms");
  m.set("net.segment_rtt_us", median(all.segment_us), "us");
  m.set("apps.ready_ms", median(setup.ready_ms), "ms");
  m.set("por.encode_ms", median(encode_ms), "ms");
  m.set("locate.calibrate_us", median(all.calibrate_us), "us");
  m.set("locate.solve_ms", median(all.solve_ms), "ms");
  m.set("locate.outlier_ratio",
        all.ranges == 0 ? 0.0
                        : static_cast<double>(all.outliers) /
                              static_cast<double>(all.ranges),
        "ratio");
  m.set("ladder.gap_ratio", gap_ratio(trace.ladders("fleet.request")),
        "ratio");
  m.set("trace.overhead_ratio",
        median(untraced) > 0.0 ? median(traced) / median(untraced) : 0.0,
        "ratio");
}

}  // namespace geobench
