// The vantage daemon core: a trusted landmark that measures its delay to a
// prover on the auditor's behalf.
//
// The daemon serves the selector-framed control protocol (daemon/wire.hpp)
// on a net::TcpServer. A MeasureRequest becomes a sweep session on the
// server's loop thread: it opens a net::AsyncTcpChannel to the named
// prover and runs `rounds` timed segment fetches in sequence — the paper's
// distance-bounding exchange over real sockets, stamped with
// SteadyAuditTimer exactly like VerifierDevice — then completes the
// request's deferred reply. Many sessions run at once on the one thread,
// so concurrent auditors overlap instead of queueing, and a stalled prover
// holds up only its own session. A session lives no longer than its
// auditor's connection: when the auditor closes, its timer is cancelled
// and its prover connection closed. The raw RTT sample set goes back in a
// SampleReport together with the vantage's advertised coordinates;
// min-filtering and delay→distance conversion are the *auditor's* job
// (the vantage reports evidence, not conclusions).
//
// Two knobs model the worlds the functional harness needs:
//
//  - `extra_oneway_ms`: geography emulation. All harness processes share
//    one loopback (~0.05 ms RTT), so the spawner assigns each vantage the
//    one-way propagation delay its fictional position implies. Each round
//    starts its stopwatch, waits 2x that on an EventLoop timer, then sends
//    the segment request, so the delay lies INSIDE the timed window. The
//    timing code path is the real one — the wait is indistinguishable
//    from propagation.
//  - `lie_rtt_ms`: a Byzantine vantage. Instead of measuring, it
//    fabricates a plausible sample set around the given RTT (the sim
//    fleet's VantageLie, as a real process). The multilaterator's trimming
//    must eject it.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/bytes.hpp"
#include "daemon/wire.hpp"
#include "net/async.hpp"
#include "net/tcp.hpp"

namespace geoproof::daemon {

struct VantageConfig {
  std::string name = "vantage";
  /// Advertised landmark position (reported in every SampleReport).
  double latitude_deg = 0.0;
  double longitude_deg = 0.0;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-chosen; see VantageDaemon::port()
  /// Emulated one-way propagation delay to the prover; every timed round
  /// waits 2x this on a loop timer before its request goes out (0 = none).
  double extra_oneway_ms = 0.0;
  /// Byzantine mode: fabricate samples around this RTT instead of
  /// measuring (0 = honest).
  double lie_rtt_ms = 0.0;
};

class VantageDaemon {
 public:
  explicit VantageDaemon(VantageConfig config);
  ~VantageDaemon();

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
  /// Sweep sessions holding a prover connection right now (any thread).
  std::uint64_t sessions_in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }

  /// Stop serving and release every session (idempotent; also run by the
  /// destructor).
  void stop();

 private:
  struct Session;
  using SessionId = std::uint64_t;

  /// Answer one frame. A request that fails to decode or validate gets an
  /// ErrorReply carrying the reason; the connection stays open.
  void serve(BytesView frame, net::TcpServer::Reply reply);
  SampleReport fabricate(const MeasureRequest& request) const;

  // The sweep session, all on the server's loop thread. Callbacks carry
  // the session id and find nothing once the session is gone.
  void start_sweep(const MeasureRequest& request, net::TcpServer::Reply reply);
  void next_round(SessionId id, Session& session);
  void on_segment(SessionId id, net::AsyncResult&& result);
  void finish(SessionId id, Session& session, const std::string& error);
  /// Release the session: cancels its timer, closes its prover connection.
  void drop(SessionId id);
  Session* find(SessionId id);

  VantageConfig config_;
  const net::SteadyAuditTimer timer_;
  std::atomic<std::uint64_t> sweeps_{0};
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> violations_{0};
  std::atomic<std::uint64_t> in_flight_{0};
  std::unordered_map<SessionId, std::unique_ptr<Session>>
      sessions_;                // loop thread only
  SessionId next_session_ = 1;  // loop thread only
  std::unique_ptr<net::TcpServer> server_;  // last member: stops first
};

}  // namespace geoproof::daemon
