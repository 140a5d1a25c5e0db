// The prover/provider daemon core: a real process serving GeoProof audit
// challenges over TCP.
//
// On construction the daemon runs the full POR setup pipeline (§V-A) over a
// deterministic pseudorandom file — seed in, same stored segments out, so a
// spawned harness can verify tag bytes without shipping a file around —
// and serves core::SegmentRequest frames from a net::TcpServer, exactly
// the wire format VerifierDevice speaks. A vantage daemon (or a Python
// harness with struct.pack) is indistinguishable from a local verifier.
//
// Misbehaviour is configuration, mirroring CloudProvider: `stall_ms`
// delays every answer (the paper's outsourced-storage signature: the timed
// round trip inflates), without touching the data.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/bytes.hpp"
#include "net/tcp.hpp"
#include "por/encoder.hpp"

namespace geoproof::daemon {

struct ProverConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  // 0 = kernel-chosen; see ProverDaemon::port()
  /// Stored file: `file_bytes` of seeded pseudorandom data encoded under
  /// a seed-derived master key.
  std::uint64_t file_id = 1;
  std::uint64_t file_bytes = 64 * 1024;
  std::uint64_t seed = 0x6e0d;
  /// Adversarial stall added to every served request (0 = honest). Each
  /// answer waits on its own loop timer, so concurrent requests stall side
  /// by side, and a requester that hangs up mid-stall is never answered.
  double stall_ms = 0.0;
};

class ProverDaemon {
 public:
  explicit ProverDaemon(ProverConfig config);

  const ProverConfig& config() const { return config_; }
  std::uint16_t port() const { return server_->port(); }
  std::uint64_t file_id() const { return file_.file_id; }
  std::uint64_t n_segments() const { return file_.n_segments; }
  std::size_t segment_bytes() const { return file_.segment_bytes; }

  /// Answers sent so far (any thread).
  std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

  /// Stop accepting and tear the server down (idempotent; also run by the
  /// destructor).
  void stop();

 private:
  void serve(BytesView request, net::TcpServer::Reply reply);

  ProverConfig config_;
  por::EncodedFile file_;
  std::atomic<std::uint64_t> served_{0};
  std::unique_ptr<net::TcpServer> server_;  // last member: stops first
};

}  // namespace geoproof::daemon
