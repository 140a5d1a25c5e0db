// The vantage daemon core: a trusted landmark that measures its delay to a
// prover on the auditor's behalf.
//
// The daemon serves the selector-framed control protocol (daemon/wire.hpp)
// on a net::TcpServer. A MeasureRequest makes it open a fresh TCP
// connection to the named prover and run `rounds` timed segment fetches —
// the paper's distance-bounding exchange over real sockets, stamped with
// SteadyAuditTimer exactly like VerifierDevice. The raw RTT sample set
// goes back in a SampleReport together with the vantage's advertised
// coordinates; min-filtering and delay→distance conversion are the
// *auditor's* job (the vantage reports evidence, not conclusions).
//
// Two knobs model the worlds the functional harness needs:
//
//  - `extra_oneway_ms`: geography emulation. All harness processes share
//    one loopback (~0.05 ms RTT), so the spawner assigns each vantage the
//    one-way propagation delay its fictional position implies and the
//    daemon sleeps 2x that INSIDE the timed window. The timing code path
//    is the real one — the sleep is indistinguishable from propagation.
//  - `lie_rtt_ms`: a Byzantine vantage. Instead of measuring, it
//    fabricates a plausible sample set around the given RTT (the sim
//    fleet's VantageLie, as a real process). The multilaterator's trimming
//    must eject it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "daemon/wire.hpp"
#include "net/tcp.hpp"

namespace geoproof::daemon {

struct VantageConfig {
  std::string name = "vantage";
  /// Advertised landmark position (reported in every SampleReport).
  double latitude_deg = 0.0;
  double longitude_deg = 0.0;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-chosen; see VantageDaemon::port()
  /// Emulated one-way propagation delay to the prover; 2x is slept inside
  /// every timed round (0 = none).
  double extra_oneway_ms = 0.0;
  /// Byzantine mode: fabricate samples around this RTT instead of
  /// measuring (0 = honest).
  double lie_rtt_ms = 0.0;
};

class VantageDaemon {
 public:
  explicit VantageDaemon(VantageConfig config);

  const VantageConfig& config() const { return config_; }
  std::uint16_t port() const { return server_->port(); }

  /// Measurement sweeps completed (any thread).
  std::uint64_t sweeps() const {
    return sweeps_.load(std::memory_order_relaxed);
  }
  /// Timed rounds executed across all sweeps (any thread).
  std::uint64_t rounds() const {
    return rounds_.load(std::memory_order_relaxed);
  }
  /// Per-round max-rtt violations flagged across all sweeps (any thread).
  std::uint64_t violations() const {
    return violations_.load(std::memory_order_relaxed);
  }

  void stop();

  /// Run one sweep synchronously (also the serving path; public so unit
  /// tests can exercise measurement without sockets on both sides).
  SampleReport measure(const MeasureRequest& request);

 private:
  /// Answer one frame. A request that fails to decode or validate gets an
  /// ErrorReply carrying the reason; the connection stays open.
  Bytes serve(BytesView frame);
  SampleReport fabricate(const MeasureRequest& request) const;

  VantageConfig config_;
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> violations_{0};
  std::unique_ptr<net::TcpServer> server_;  // last member: stops first
};

}  // namespace geoproof::daemon
