// Wire messages for the vantage control protocol.
//
// The auditor CLI talks to each vantage daemon over the framed transport
// (net::FrameAssembler framing, net::AsyncTcpChannel client side). Every
// frame body starts with a one-byte message selector so a single port can
// carry the whole protocol:
//
//   auditor -> vantage   0x01 Ping             liveness / identity probe
//                        0x02 MeasureRequest   run a distance-bounding sweep
//   vantage -> auditor   0x81 Pong
//                        0x82 SampleReport
//                        0xFF ErrorReply       decode or execution failure
//
// The prover port is NOT part of this protocol: vantages speak raw
// core::SegmentRequest frames to geoproofd, byte-compatible with
// VerifierDevice, so the prover daemon cannot tell a vantage from a local
// verifier.
//
// Encoding is canonical (common/serialize.hpp: big-endian, length-prefixed
// strings) and every decode ends with expect_done() — trailing garbage is a
// protocol error, mirroring the core transcript messages the fuzzers pound.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace geoproof::daemon {

enum class MsgType : std::uint8_t {
  kPing = 0x01,
  kMeasureRequest = 0x02,
  kPong = 0x81,
  kSampleReport = 0x82,
  kErrorReply = 0xFF,
};

/// Selector byte of a frame body. Throws SerializeError on an empty frame
/// or an unknown selector.
MsgType type_of(BytesView frame);

/// Liveness probe; the nonce round-trips so the auditor can pair replies.
struct Ping {
  std::uint64_t nonce = 0;
};

struct Pong {
  std::uint64_t nonce = 0;
  std::string vantage_name;
};

/// One distance-bounding sweep: connect to the prover, time `rounds`
/// segment fetches, report the raw RTT samples.
struct MeasureRequest {
  std::string prover_host;
  std::uint16_t prover_port = 0;
  std::uint64_t file_id = 0;
  /// Number of segments in the prover's copy; probe indices are drawn
  /// modulo this so the request is self-contained.
  std::uint64_t n_segments = 0;
  std::uint32_t rounds = 0;
  /// Seeds the segment-index sequence (replayable, auditor-chosen).
  std::uint64_t probe_seed = 0;
  /// Per-round guard: a probe slower than this counts as a timing
  /// violation (<= 0 disables the check).
  double max_rtt_ms = 0.0;
};

struct SampleReport {
  std::string vantage_name;
  /// Advertised vantage position (trusted landmark coordinates).
  double latitude_deg = 0.0;
  double longitude_deg = 0.0;
  /// False when the sweep aborted; `error` says why and rtt_ms may be
  /// partial.
  bool completed = false;
  std::string error;
  std::vector<double> rtt_ms;
  std::uint32_t timing_violations = 0;
  double elapsed_ms = 0.0;
};

struct ErrorReply {
  std::string message;
};

Bytes encode(const Ping& msg);
Bytes encode(const Pong& msg);
Bytes encode(const MeasureRequest& msg);
Bytes encode(const SampleReport& msg);
Bytes encode(const ErrorReply& msg);

/// Each decode checks the selector and consumes the whole frame; throws
/// SerializeError on mismatch, truncation or trailing bytes, and
/// decode_sample_report also on a non-finite position, RTT or elapsed time.
Ping decode_ping(BytesView frame);
Pong decode_pong(BytesView frame);
MeasureRequest decode_measure_request(BytesView frame);
SampleReport decode_sample_report(BytesView frame);
ErrorReply decode_error_reply(BytesView frame);

}  // namespace geoproof::daemon
