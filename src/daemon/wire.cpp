#include "daemon/wire.hpp"

#include <cmath>

#include "common/errors.hpp"
#include "common/serialize.hpp"

namespace geoproof::daemon {

namespace {

// Sample vectors are auditor-bounded (rounds <= a few hundred); reject
// anything a hostile peer could use to balloon allocation.
constexpr std::uint32_t kMaxSamples = 1u << 16;

/// A measured or advertised quantity a vantage reports: NaN or infinity
/// would flow through the delay model into a NaN range.
double finite_f64(ByteReader& reader) {
  const double v = reader.f64();
  if (!std::isfinite(v)) {
    throw SerializeError("daemon wire: non-finite value in sample report");
  }
  return v;
}

void check_type(ByteReader& reader, MsgType expected) {
  const auto got = reader.u8();
  if (got != static_cast<std::uint8_t>(expected)) {
    throw SerializeError("daemon wire: unexpected message selector");
  }
}

}  // namespace

MsgType type_of(BytesView frame) {
  if (frame.empty()) {
    throw SerializeError("daemon wire: empty frame");
  }
  switch (frame[0]) {
    case static_cast<std::uint8_t>(MsgType::kPing):
    case static_cast<std::uint8_t>(MsgType::kMeasureRequest):
    case static_cast<std::uint8_t>(MsgType::kPong):
    case static_cast<std::uint8_t>(MsgType::kSampleReport):
    case static_cast<std::uint8_t>(MsgType::kErrorReply):
      return static_cast<MsgType>(frame[0]);
    default:
      throw SerializeError("daemon wire: unknown message selector");
  }
}

Bytes encode(const Ping& msg) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kPing));
  w.u64(msg.nonce);
  return std::move(w).take();
}

Ping decode_ping(BytesView frame) {
  ByteReader r(frame);
  check_type(r, MsgType::kPing);
  Ping msg;
  msg.nonce = r.u64();
  r.expect_done();
  return msg;
}

Bytes encode(const Pong& msg) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kPong));
  w.u64(msg.nonce);
  w.str(msg.vantage_name);
  return std::move(w).take();
}

Pong decode_pong(BytesView frame) {
  ByteReader r(frame);
  check_type(r, MsgType::kPong);
  Pong msg;
  msg.nonce = r.u64();
  msg.vantage_name = r.str();
  r.expect_done();
  return msg;
}

Bytes encode(const MeasureRequest& msg) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kMeasureRequest));
  w.str(msg.prover_host);
  w.u16(msg.prover_port);
  w.u64(msg.file_id);
  w.u64(msg.n_segments);
  w.u32(msg.rounds);
  w.u64(msg.probe_seed);
  w.f64(msg.max_rtt_ms);
  return std::move(w).take();
}

MeasureRequest decode_measure_request(BytesView frame) {
  ByteReader r(frame);
  check_type(r, MsgType::kMeasureRequest);
  MeasureRequest msg;
  msg.prover_host = r.str();
  msg.prover_port = r.u16();
  msg.file_id = r.u64();
  msg.n_segments = r.u64();
  msg.rounds = r.u32();
  msg.probe_seed = r.u64();
  msg.max_rtt_ms = r.f64();
  r.expect_done();
  if (msg.rounds > kMaxSamples) {
    throw SerializeError("daemon wire: rounds exceeds sample cap");
  }
  return msg;
}

Bytes encode(const SampleReport& msg) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kSampleReport));
  w.str(msg.vantage_name);
  w.f64(msg.latitude_deg);
  w.f64(msg.longitude_deg);
  w.u8(msg.completed ? 1 : 0);
  w.str(msg.error);
  w.u32(static_cast<std::uint32_t>(msg.rtt_ms.size()));
  for (const double sample : msg.rtt_ms) w.f64(sample);
  w.u32(msg.timing_violations);
  w.f64(msg.elapsed_ms);
  return std::move(w).take();
}

SampleReport decode_sample_report(BytesView frame) {
  ByteReader r(frame);
  check_type(r, MsgType::kSampleReport);
  SampleReport msg;
  msg.vantage_name = r.str();
  msg.latitude_deg = finite_f64(r);
  msg.longitude_deg = finite_f64(r);
  const auto completed = r.u8();
  if (completed > 1) {
    throw SerializeError("daemon wire: non-canonical bool");
  }
  msg.completed = completed == 1;
  msg.error = r.str();
  const std::uint32_t n = r.u32();
  if (n > kMaxSamples) {
    throw SerializeError("daemon wire: sample count exceeds cap");
  }
  msg.rtt_ms.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) msg.rtt_ms.push_back(finite_f64(r));
  msg.timing_violations = r.u32();
  msg.elapsed_ms = finite_f64(r);
  r.expect_done();
  return msg;
}

Bytes encode(const ErrorReply& msg) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(MsgType::kErrorReply));
  w.str(msg.message);
  return std::move(w).take();
}

ErrorReply decode_error_reply(BytesView frame) {
  ByteReader r(frame);
  check_type(r, MsgType::kErrorReply);
  ErrorReply msg;
  msg.message = r.str();
  r.expect_done();
  return msg;
}

}  // namespace geoproof::daemon
