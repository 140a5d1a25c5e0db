#include "daemon/wire.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/errors.hpp"

namespace geoproof::daemon {
namespace {

TEST(DaemonWire, PingPongRoundTrip) {
  const Ping ping{0x1234567890abcdefull};
  const Bytes wire = encode(ping);
  EXPECT_EQ(type_of(wire), MsgType::kPing);
  EXPECT_EQ(decode_ping(wire).nonce, ping.nonce);

  const Pong pong{ping.nonce, "sydney"};
  const Bytes reply = encode(pong);
  EXPECT_EQ(type_of(reply), MsgType::kPong);
  const Pong back = decode_pong(reply);
  EXPECT_EQ(back.nonce, pong.nonce);
  EXPECT_EQ(back.vantage_name, "sydney");
}

TEST(DaemonWire, MeasureRequestRoundTrip) {
  MeasureRequest req;
  req.prover_host = "127.0.0.1";
  req.prover_port = 40453;
  req.file_id = 7;
  req.n_segments = 474;
  req.rounds = 16;
  req.probe_seed = 0xfeed;
  req.max_rtt_ms = 250.5;

  const MeasureRequest back = decode_measure_request(encode(req));
  EXPECT_EQ(back.prover_host, req.prover_host);
  EXPECT_EQ(back.prover_port, req.prover_port);
  EXPECT_EQ(back.file_id, req.file_id);
  EXPECT_EQ(back.n_segments, req.n_segments);
  EXPECT_EQ(back.rounds, req.rounds);
  EXPECT_EQ(back.probe_seed, req.probe_seed);
  EXPECT_DOUBLE_EQ(back.max_rtt_ms, req.max_rtt_ms);
}

TEST(DaemonWire, SampleReportRoundTrip) {
  SampleReport report;
  report.vantage_name = "melbourne";
  report.latitude_deg = -37.81;
  report.longitude_deg = 144.96;
  report.completed = true;
  report.rtt_ms = {68.5, 69.125, 70.0};
  report.timing_violations = 1;
  report.elapsed_ms = 207.625;

  const SampleReport back = decode_sample_report(encode(report));
  EXPECT_EQ(back.vantage_name, report.vantage_name);
  EXPECT_DOUBLE_EQ(back.latitude_deg, report.latitude_deg);
  EXPECT_DOUBLE_EQ(back.longitude_deg, report.longitude_deg);
  EXPECT_TRUE(back.completed);
  EXPECT_TRUE(back.error.empty());
  EXPECT_EQ(back.rtt_ms, report.rtt_ms);
  EXPECT_EQ(back.timing_violations, 1u);
  EXPECT_DOUBLE_EQ(back.elapsed_ms, report.elapsed_ms);
}

TEST(DaemonWire, FailedSweepReportCarriesError) {
  SampleReport report;
  report.vantage_name = "perth";
  report.completed = false;
  report.error = "connect refused";
  const SampleReport back = decode_sample_report(encode(report));
  EXPECT_FALSE(back.completed);
  EXPECT_EQ(back.error, "connect refused");
  EXPECT_TRUE(back.rtt_ms.empty());
}

TEST(DaemonWire, ErrorReplyRoundTrip) {
  const Bytes wire = encode(ErrorReply{"unexpected message type"});
  EXPECT_EQ(type_of(wire), MsgType::kErrorReply);
  EXPECT_EQ(decode_error_reply(wire).message, "unexpected message type");
}

TEST(DaemonWire, RejectsEmptyAndUnknownSelectors) {
  EXPECT_THROW(type_of(Bytes{}), SerializeError);
  EXPECT_THROW(type_of(Bytes{0x42}), SerializeError);
}

TEST(DaemonWire, RejectsWrongSelector) {
  const Bytes ping = encode(Ping{1});
  EXPECT_THROW(decode_pong(ping), SerializeError);
  EXPECT_THROW(decode_measure_request(ping), SerializeError);
}

TEST(DaemonWire, RejectsTruncationAndTrailingBytes) {
  Bytes wire = encode(Ping{42});
  Bytes truncated(wire.begin(), wire.end() - 1);
  EXPECT_THROW(decode_ping(truncated), SerializeError);
  wire.push_back(0x00);
  EXPECT_THROW(decode_ping(wire), SerializeError);
}

TEST(DaemonWire, RejectsNonCanonicalBool) {
  Bytes wire = encode(SampleReport{});
  // Locate the `completed` byte: selector + name(len4+0) + 2 doubles.
  const std::size_t completed_at = 1 + 4 + 8 + 8;
  ASSERT_LT(completed_at, wire.size());
  ASSERT_EQ(wire[completed_at], 0);
  wire[completed_at] = 2;
  EXPECT_THROW(decode_sample_report(wire), SerializeError);
}

TEST(DaemonWire, RejectsNonFiniteSampleReportValues) {
  // A NaN RTT would reach the solver as a NaN distance; the decoder is
  // where an auditor turns it into that vantage's error instead.
  SampleReport good;
  good.vantage_name = "sydney";
  good.latitude_deg = -33.87;
  good.longitude_deg = 151.21;
  good.completed = true;
  good.rtt_ms = {12.5, 12.75};
  good.elapsed_ms = 25.25;
  ASSERT_NO_THROW(decode_sample_report(encode(good)));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejects = [](const SampleReport& bad) {
    EXPECT_THROW(decode_sample_report(encode(bad)), SerializeError);
  };
  for (const double v : {nan, inf, -inf}) {
    SampleReport bad = good;
    bad.rtt_ms[1] = v;
    rejects(bad);
    bad = good;
    bad.latitude_deg = v;
    rejects(bad);
    bad = good;
    bad.longitude_deg = v;
    rejects(bad);
    bad = good;
    bad.elapsed_ms = v;
    rejects(bad);
  }
}

TEST(DaemonWire, RejectsSampleCountBeyondCap) {
  MeasureRequest req;
  req.rounds = (1u << 16) + 1;
  req.n_segments = 1;
  EXPECT_THROW(decode_measure_request(encode(req)), SerializeError);
}

}  // namespace
}  // namespace geoproof::daemon
