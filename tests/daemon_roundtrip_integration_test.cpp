// Spawned-fleet audit path, in process: real ProverDaemon + VantageDaemon
// TcpServers on loopback, driven by AuditorClient — the same objects the
// apps/ binaries wrap, minus fork/exec (tests/functional covers that).
//
// Geography emulation: every process shares one loopback, so each vantage
// is told the one-way delay its fictional position implies
// (slope/2 * haversine(vantage, true prover position)) and waits it out
// on a loop timer inside the timed window. The auditor never sees the true position — it
// calibrates from the declared slope and must *recover* it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/transcript.hpp"
#include "daemon/auditor_client.hpp"
#include "daemon/prover_daemon.hpp"
#include "daemon/vantage_daemon.hpp"
#include "daemon/wire.hpp"
#include "geoloc/schemes.hpp"
#include "net/async.hpp"
#include "net/channel.hpp"
#include "net/geo.hpp"
#include "net/tcp.hpp"
#include "tcp_client.hpp"

namespace geoproof::daemon {
namespace {

// RTT grows 0.05 ms per km — a plausible terrestrial-Internet slope that
// keeps the slowest in-process sweep under a second.
constexpr double kRttMsPerKm = 0.05;

const net::GeoPoint kTruth = net::places::brisbane();

struct Site {
  std::string name;
  net::GeoPoint pos;
  double lie_rtt_ms = 0.0;  // 0 = honest
};

/// Spawn one in-process vantage per site, emulating its distance to the
/// (secret) true prover position.
std::vector<std::unique_ptr<VantageDaemon>> spawn_fleet(
    const std::vector<Site>& sites) {
  std::vector<std::unique_ptr<VantageDaemon>> fleet;
  for (const Site& site : sites) {
    VantageConfig config;
    config.name = site.name;
    config.latitude_deg = site.pos.lat_deg;
    config.longitude_deg = site.pos.lon_deg;
    config.extra_oneway_ms =
        kRttMsPerKm / 2.0 * net::haversine(site.pos, kTruth).value;
    config.lie_rtt_ms = site.lie_rtt_ms;
    fleet.push_back(std::make_unique<VantageDaemon>(config));
  }
  return fleet;
}

AuditorConfig auditor_config(
    const ProverDaemon& prover,
    const std::vector<std::unique_ptr<VantageDaemon>>& fleet) {
  AuditorConfig config;
  for (const auto& vantage : fleet) {
    config.vantages.push_back({"127.0.0.1", vantage->port()});
  }
  config.prover_port = prover.port();
  config.file_id = prover.file_id();
  config.n_segments = prover.n_segments();
  config.rounds = 4;
  config.probe_seed = 0xa0d1;
  config.cal_ms_per_km = kRttMsPerKm;
  return config;
}

ProverConfig small_prover() {
  ProverConfig config;
  config.file_bytes = 16 * 1024;
  config.seed = 0xf11e;
  return config;
}

MeasureRequest measure_request(const ProverDaemon& prover,
                               std::uint32_t rounds) {
  MeasureRequest request;
  request.prover_host = "127.0.0.1";
  request.prover_port = prover.port();
  request.file_id = prover.file_id();
  request.n_segments = prover.n_segments();
  request.rounds = rounds;
  request.probe_seed = 3;
  return request;
}

/// One auditor's sweep as seen from its side of the socket.
struct Sweep {
  SampleReport report;
  double done_ms = 0.0;  // since the requests went out
};

/// Send every (vantage port, request) at once, each on its own
/// connection, and wait for all the SampleReports.
std::vector<Sweep> measure_concurrently(
    const std::vector<std::pair<std::uint16_t, MeasureRequest>>& requests) {
  std::vector<Sweep> sweeps(requests.size());
  std::size_t outstanding = requests.size();
  const net::SteadyAuditTimer timer;
  net::EventLoop loop;
  std::vector<std::unique_ptr<net::AsyncTcpChannel>> channels;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    channels.push_back(std::make_unique<net::AsyncTcpChannel>(
        loop, "127.0.0.1", requests[i].first));
    channels.back()->begin_request(
        encode(requests[i].second), [&, i](net::AsyncResult&& result) {
          --outstanding;
          sweeps[i].done_ms = timer.now().count();
          if (!result.ok()) {
            sweeps[i].report.error = result.error;
          } else if (type_of(result.payload) == MsgType::kSampleReport) {
            sweeps[i].report = decode_sample_report(result.payload);
          } else {
            sweeps[i].report.error = "vantage did not send a SampleReport";
          }
        });
  }
  while (outstanding > 0) loop.pump(Millis{50.0});
  return sweeps;
}

/// One sweep over the vantage's socket.
SampleReport measure_one(const VantageDaemon& vantage,
                         const MeasureRequest& request) {
  return measure_concurrently({{vantage.port(), request}})[0].report;
}

TEST(DaemonRoundtrip, HonestFleetRecoversProverPosition) {
  ProverDaemon prover(small_prover());
  const auto fleet = spawn_fleet({{"sydney", net::places::sydney()},
                                  {"melbourne", net::places::melbourne()},
                                  {"townsville", net::places::townsville()},
                                  {"adelaide", net::places::adelaide()}});

  AuditorClient client(auditor_config(prover, fleet));
  const FleetReport report = client.run();

  EXPECT_EQ(report.responded, 4u);
  EXPECT_EQ(report.completed, 4u);
  ASSERT_TRUE(report.have_estimate);
  EXPECT_TRUE(report.estimate.converged);
  // Generous bound: timer overshoot on a loaded CI box maps through the
  // slope to tens of km, not hundreds.
  EXPECT_LT(net::haversine(report.estimate.position, kTruth).value, 250.0);
  // Per-vantage delay-derived distances must track the emulated geometry.
  for (const VantageOutcome& outcome : report.outcomes) {
    const net::GeoPoint site{outcome.report.latitude_deg,
                             outcome.report.longitude_deg};
    const double true_km = net::haversine(site, kTruth).value;
    EXPECT_NEAR(outcome.distance.value, true_km,
                0.25 * true_km + 50.0)
        << outcome.report.vantage_name;
  }
  EXPECT_GT(prover.requests_served(), 0u);
}

TEST(DaemonRoundtrip, ByzantineVantagesAreEjected) {
  // 7 = 3f + 1 with f = 2: two liars fabricate an implausibly close
  // prover; the majority floor lets the solver trim exactly them.
  ProverDaemon prover(small_prover());
  const auto fleet = spawn_fleet({{"sydney", net::places::sydney()},
                                  {"melbourne", net::places::melbourne()},
                                  {"townsville", net::places::townsville()},
                                  {"adelaide", net::places::adelaide()},
                                  {"armidale", net::places::armidale()},
                                  {"perth", net::places::perth(), 10.0},
                                  {"hobart", net::places::hobart(), 12.0}});

  AuditorClient client(auditor_config(prover, fleet));
  const FleetReport report = client.run();

  EXPECT_EQ(report.completed, 7u);
  ASSERT_TRUE(report.have_estimate);
  EXPECT_TRUE(report.estimate.converged);
  EXPECT_LT(net::haversine(report.estimate.position, kTruth).value, 250.0);
  // The liars (fleet indices 5 and 6) must be in the outlier set.
  EXPECT_EQ(report.estimate.outliers.size(), 2u);
  for (const std::size_t idx : report.estimate.outliers) {
    EXPECT_GE(idx, 5u);
  }
}

TEST(DaemonRoundtrip, DeadVantageDoesNotBlockTheAudit) {
  ProverDaemon prover(small_prover());
  const auto fleet = spawn_fleet({{"sydney", net::places::sydney()},
                                  {"melbourne", net::places::melbourne()},
                                  {"townsville", net::places::townsville()}});

  AuditorConfig config = auditor_config(prover, fleet);
  // A vantage that is not listening: connect fails, the rest proceed.
  {
    net::TcpServer placeholder([](BytesView) { return Bytes{}; });
    config.vantages.push_back({"127.0.0.1", placeholder.port()});
  }  // stopped: the port is now dead

  AuditorClient client(config);
  const FleetReport report = client.run();

  EXPECT_EQ(report.responded, 3u);
  EXPECT_EQ(report.completed, 3u);
  ASSERT_TRUE(report.have_estimate);
  EXPECT_FALSE(report.outcomes[3].responded);
  EXPECT_FALSE(report.outcomes[3].error.empty());
  EXPECT_LT(net::haversine(report.estimate.position, kTruth).value, 300.0);
}

TEST(DaemonRoundtrip, OverflowingRttVantageDoesNotDenyTheFix) {
  // Finite RTTs pass the decoder, but {1.0, 1e200} overflows the sample
  // variance: the vantage's range comes out with an infinite sigma. Fed
  // straight to the estimation step, that vantage must not cost the rest
  // of the fleet its fix.
  AuditorConfig config;
  config.cal_ms_per_km = kRttMsPerKm;
  const auto sites =
      geoloc::spiral_landmarks(kTruth, Kilometers{1500.0}, 8);
  constexpr std::size_t kHostile = 3;
  FleetReport fleet;
  for (std::size_t v = 0; v < sites.size(); ++v) {
    VantageOutcome outcome;
    outcome.responded = true;
    outcome.report.vantage_name = sites[v].name;
    outcome.report.latitude_deg = sites[v].pos.lat_deg;
    outcome.report.longitude_deg = sites[v].pos.lon_deg;
    outcome.report.completed = true;
    const double rtt = kRttMsPerKm * net::haversine(sites[v].pos, kTruth).value;
    outcome.report.rtt_ms = {rtt, rtt + 0.2, rtt + 0.1};
    if (v == kHostile) outcome.report.rtt_ms = {1.0, 1e200};
    fleet.outcomes.push_back(outcome);
  }

  ASSERT_NO_THROW(AuditorClient(config).estimate(fleet));
  ASSERT_TRUE(fleet.have_estimate);
  EXPECT_LT(net::haversine(fleet.estimate.position, kTruth).value, 50.0);
}

TEST(DaemonRoundtrip, VantageAnswersPingOverTheWire) {
  VantageConfig config;
  config.name = "sydney";
  VantageDaemon vantage(config);
  test::TcpClient channel(vantage.port());
  const Bytes reply = channel.request(encode(Ping{77}));
  const Pong pong = decode_pong(reply);
  EXPECT_EQ(pong.nonce, 77u);
  EXPECT_EQ(pong.vantage_name, "sydney");
}

TEST(DaemonRoundtrip, MalformedMeasureGetsErrorReplyAndConnectionSurvives) {
  ProverDaemon prover(small_prover());
  VantageConfig config;
  config.name = "local";
  VantageDaemon vantage(config);
  test::TcpClient channel(vantage.port());

  MeasureRequest request;
  request.prover_host = "127.0.0.1";
  request.prover_port = prover.port();
  request.file_id = prover.file_id();
  request.n_segments = prover.n_segments();
  request.rounds = 0;
  request.probe_seed = 3;

  // A zero-round request is answered with the reason, not a dropped
  // connection.
  const Bytes rejected = channel.request(encode(request));
  ASSERT_EQ(type_of(rejected), MsgType::kErrorReply);
  EXPECT_NE(decode_error_reply(rejected).message.find("rounds"),
            std::string::npos);

  // A truncated MeasureRequest that fails to decode is answered the same
  // way.
  const Bytes garbled = channel.request(Bytes{0x02, 0x01});
  EXPECT_EQ(type_of(garbled), MsgType::kErrorReply);

  // The same connection still serves a valid request.
  request.rounds = 2;
  const Bytes served = channel.request(encode(request));
  ASSERT_EQ(type_of(served), MsgType::kSampleReport);
  const SampleReport report = decode_sample_report(served);
  EXPECT_TRUE(report.completed) << report.error;
  EXPECT_EQ(report.rtt_ms.size(), 2u);
}

TEST(DaemonRoundtrip, TimingViolationsCountAgainstThreshold) {
  // A stalled prover pushes every round over a tight per-round budget.
  ProverConfig prover_config = small_prover();
  prover_config.stall_ms = 5.0;
  ProverDaemon prover(prover_config);

  VantageConfig config;
  config.name = "local";
  VantageDaemon vantage(config);

  MeasureRequest request = measure_request(prover, 3);
  request.probe_seed = 9;
  request.max_rtt_ms = 1.0;

  const SampleReport report = measure_one(vantage, request);
  ASSERT_TRUE(report.completed);
  EXPECT_EQ(report.rtt_ms.size(), 3u);
  EXPECT_EQ(report.timing_violations, 3u);
  for (const double rtt : report.rtt_ms) EXPECT_GT(rtt, 5.0);
}

TEST(DaemonRoundtrip, UnreachableProverYieldsFailedSweepNotACrash) {
  VantageConfig config;
  VantageDaemon vantage(config);

  net::TcpServer placeholder([](BytesView) { return Bytes{}; });
  const std::uint16_t dead_port = placeholder.port();
  placeholder.stop();

  MeasureRequest request;
  request.prover_host = "127.0.0.1";
  request.prover_port = dead_port;
  request.file_id = 1;
  request.n_segments = 10;
  request.rounds = 2;

  const SampleReport report = measure_one(vantage, request);
  EXPECT_FALSE(report.completed);
  EXPECT_FALSE(report.error.empty());
}

TEST(DaemonRoundtrip, ConcurrentSweepsOverlapOnOneVantage) {
  // K auditors at once cost about one sweep, not K: every sweep is a
  // session on the vantage's loop, its path delay a timer.
  constexpr double kOnewayMs = 10.0;
  constexpr std::size_t kAuditors = 4;
  ProverDaemon prover(small_prover());
  VantageConfig config;
  config.name = "melbourne";
  config.extra_oneway_ms = kOnewayMs;
  VantageDaemon vantage(config);

  const std::vector<Sweep> single =
      measure_concurrently({{vantage.port(), measure_request(prover, 4)}});
  ASSERT_TRUE(single[0].report.completed) << single[0].report.error;
  const double one_sweep_ms = single[0].done_ms;

  std::vector<std::pair<std::uint16_t, MeasureRequest>> requests;
  for (std::size_t k = 0; k < kAuditors; ++k) {
    MeasureRequest request = measure_request(prover, 4);
    request.probe_seed = 100 + k;
    requests.emplace_back(vantage.port(), request);
  }
  const std::vector<Sweep> sweeps = measure_concurrently(requests);
  double last_ms = 0.0;
  for (const Sweep& sweep : sweeps) {
    ASSERT_TRUE(sweep.report.completed) << sweep.report.error;
    ASSERT_EQ(sweep.report.rtt_ms.size(), 4u);
    for (const double rtt : sweep.report.rtt_ms) {
      EXPECT_GE(rtt, 2.0 * kOnewayMs);
    }
    last_ms = std::max(last_ms, sweep.done_ms);
  }
  EXPECT_LT(last_ms, 1.5 * one_sweep_ms)
      << "one sweep " << one_sweep_ms << " ms";
  EXPECT_EQ(prover.requests_served(), 4u * (kAuditors + 1));
}

TEST(DaemonRoundtrip, StalledProverDoesNotHoldUpOtherAuditors) {
  ProverConfig stalled_config = small_prover();
  stalled_config.stall_ms = 2000.0;
  ProverDaemon stalled(stalled_config);
  ProverDaemon healthy(small_prover());
  VantageConfig config;
  config.name = "sydney";
  config.extra_oneway_ms = 5.0;
  VantageDaemon vantage(config);

  // Auditor A measures the stalled prover, B the healthy one, at once.
  bool a_done = false;
  std::optional<SampleReport> b_report;
  const net::SteadyAuditTimer timer;
  net::EventLoop loop;
  net::AsyncTcpChannel a(loop, "127.0.0.1", vantage.port());
  net::AsyncTcpChannel b(loop, "127.0.0.1", vantage.port());
  a.begin_request(encode(measure_request(stalled, 1)),
                  [&](net::AsyncResult&&) { a_done = true; });
  b.begin_request(encode(measure_request(healthy, 4)),
                  [&](net::AsyncResult&& result) {
                    ASSERT_TRUE(result.ok()) << result.error;
                    b_report = decode_sample_report(result.payload);
                  });
  while (!b_report && timer.now() < Millis{5000.0}) loop.pump(Millis{10.0});
  const Millis b_ms = timer.now();

  ASSERT_TRUE(b_report.has_value());
  EXPECT_TRUE(b_report->completed) << b_report->error;
  EXPECT_LT(b_ms.count(), 500.0);
  EXPECT_FALSE(a_done);  // A's prover is still sitting on its request
}

TEST(DaemonRoundtrip, StalledProverAnswersConcurrentRequestersTogether) {
  // Each answer waits on its own loop timer: K requesters at once wait one
  // stall, not K of them, and one that hangs up mid-stall is never served.
  constexpr double kStallMs = 100.0;
  constexpr std::size_t kRequesters = 4;
  ProverConfig prover_config = small_prover();
  prover_config.stall_ms = kStallMs;
  ProverDaemon prover(prover_config);
  const Bytes request =
      core::SegmentRequest{prover.file_id(), 0}.serialize();

  net::EventLoop loop;
  const net::SteadyAuditTimer timer;
  auto quitter =
      std::make_unique<net::AsyncTcpChannel>(loop, "127.0.0.1", prover.port());
  quitter->begin_request(request, [](net::AsyncResult&&) {});
  std::vector<std::unique_ptr<net::AsyncTcpChannel>> channels;
  std::size_t answered = 0;
  for (std::size_t k = 0; k < kRequesters; ++k) {
    channels.push_back(std::make_unique<net::AsyncTcpChannel>(
        loop, "127.0.0.1", prover.port()));
    channels.back()->begin_request(request, [&](net::AsyncResult&& result) {
      EXPECT_TRUE(result.ok()) << result.error;
      ++answered;
    });
  }
  ASSERT_TRUE(
      test::pump_until(loop, [&] { return timer.now().count() >= 30.0; }));
  quitter.reset();  // hangs up mid-stall

  ASSERT_TRUE(test::pump_until(loop, [&] { return answered == kRequesters; }));
  const double all_ms = timer.now().count();
  EXPECT_GE(all_ms, kStallMs);
  EXPECT_LT(all_ms, 1.5 * kStallMs);
  // Past the quitter's stall too: only the answers actually sent count.
  test::pump_until(loop, [&] { return timer.now().count() >= 2.0 * kStallMs; });
  EXPECT_EQ(prover.requests_served(), kRequesters);
}

TEST(DaemonRoundtrip, AuditorCloseCancelsItsSweep) {
  // A prover that takes requests and never answers; its server reports
  // when the vantage's connection to it closes.
  std::atomic<int> prover_requests{0};
  std::atomic<int> prover_saw_close{0};
  net::TcpServer silent([&](BytesView, net::TcpServer::Reply reply) {
    reply.on_cancel([&] { ++prover_saw_close; });
    ++prover_requests;
    // Held by a far-off timer: never answered while the test runs.
    auto held = std::make_shared<net::TcpServer::Reply>(std::move(reply));
    held->loop().schedule_after(Millis{60'000.0}, [held] {});
  });

  VantageConfig config;
  config.name = "hobart";
  config.extra_oneway_ms = 1.0;
  VantageDaemon vantage(config);

  MeasureRequest request;
  request.prover_host = "127.0.0.1";
  request.prover_port = silent.port();
  request.file_id = 1;
  request.n_segments = 8;
  request.rounds = 4;
  {
    net::EventLoop loop;
    net::AsyncTcpChannel auditor(loop, "127.0.0.1", vantage.port());
    auditor.begin_request(encode(request), [](net::AsyncResult&&) {});
    const net::SteadyAuditTimer timer;
    while (prover_requests.load() == 0 && timer.now() < Millis{5000.0}) {
      loop.pump(Millis{5.0});
    }
    ASSERT_EQ(prover_requests.load(), 1);
    EXPECT_EQ(vantage.sessions_in_flight(), 1u);
  }  // the auditor hangs up mid-sweep

  const net::SteadyAuditTimer timer;
  while ((vantage.sessions_in_flight() != 0 || prover_saw_close.load() == 0) &&
         timer.now() < Millis{5000.0}) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(vantage.sessions_in_flight(), 0u);
  EXPECT_EQ(prover_saw_close.load(), 1);
  EXPECT_EQ(vantage.sweeps(), 0u);  // cancelled, never reported
}

TEST(DaemonRoundtrip, AuditReportSerialisesToJson) {
  ProverDaemon prover(small_prover());
  const auto fleet = spawn_fleet({{"sydney", net::places::sydney()},
                                  {"melbourne", net::places::melbourne()},
                                  {"townsville", net::places::townsville()}});
  AuditorClient client(auditor_config(prover, fleet));
  const FleetReport report = client.run();

  const std::string json = to_json(client.config(), report);
  EXPECT_NE(json.find("\"estimate\":{"), std::string::npos);
  EXPECT_NE(json.find("\"vantages\":["), std::string::npos);
  EXPECT_NE(json.find("\"converged\":true"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sydney\""), std::string::npos);
}

}  // namespace
}  // namespace geoproof::daemon
