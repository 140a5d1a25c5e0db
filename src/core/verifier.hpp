// The tamper-proof verifier device V (Fig. 4/5): GPS-enabled, attached to
// the provider's LAN, owner of the signing key SK.
//
// On an audit request it samples the challenge, runs the k timed
// request/response rounds against the provider, and returns the signed
// transcript R = (Δt_1..Δt_k, c, {S_cj||τ_cj}, N, Pos_v). It does not judge
// anything — all verification is the TPA's job — which keeps the trusted
// device minimal, exactly as the paper argues.
//
// The protocol core is the session form begin_audit(): a session advances
// one challenge round per channel completion, so one event-loop thread can
// hold many devices' distance-bounding sessions in flight at once. Rounds
// whose completions fire inline (a net::RequestChannel) run in a loop, not
// a recursion, so a k-round audit never nests k frames deep. The blocking
// run_audit() is begin_audit over a net::RequestChannel, whose
// completions always fire inline.
#pragma once

#include <exception>
#include <memory>

#include "common/rng.hpp"
#include "core/gps.hpp"
#include "core/transcript.hpp"
#include "crypto/signature.hpp"
#include "net/channel.hpp"

namespace geoproof::obs {
class SpanRecorder;
}  // namespace geoproof::obs

namespace geoproof::core {

class VerifierDevice {
 public:
  struct Config {
    net::GeoPoint position{};
    /// Seed of the hash-based signing key (burned in at manufacture).
    Bytes signer_seed = bytes_of("verifier-device-seed");
    /// Merkle tree height: 2^height audits before key exhaustion. Key
    /// generation is O(2^height) hashes, so provision what the device's
    /// service life needs (8 -> 256 audits in ~0.1 s; 16 -> 65k audits in
    /// ~30 s at manufacture time).
    unsigned signer_height = 8;
    /// Seed for challenge sampling.
    std::uint64_t challenge_seed = 0xc4a11e;
  };

  /// `channel` is the LAN link to the provider; `timer` the device's clock
  /// (virtual in simulation, steady_clock over TCP). The device issues its
  /// timed rounds on `channel`, and its sessions complete as the caller
  /// pumps the channel's EventLoop (or EventQueue). The blocking
  /// run_audit()/run_audit_batch() need a net::RequestChannel, which
  /// completes inline; on any other channel they throw ProtocolError.
  VerifierDevice(Config config, net::AsyncChannel& channel,
                 const net::AuditTimer& timer);

  /// The device's public key, provisioned to the TPA out of band.
  const crypto::Digest& public_key() const { return signer_.public_key(); }

  GpsDevice& gps() { return gps_; }
  const GpsDevice& gps() const { return gps_; }

  std::uint32_t audits_remaining() const {
    return signer_.signatures_remaining();
  }

  /// How one audit session concluded: the signed transcript on success, a
  /// diagnostic when the transport or device failed mid-session. `fault`
  /// carries the original exception (when the failure was one) so the
  /// blocking run_audit can rethrow the exact type — a CryptoError
  /// from key exhaustion must not come back out as a NetError.
  struct AuditOutcome {
    SignedTranscript transcript;
    std::string error;
    std::exception_ptr fault;
    bool ok() const { return error.empty(); }
  };
  using AuditCallback = std::function<void(AuditOutcome&&)>;

  /// Run the GeoProof protocol for one audit request (Fig. 5) as an
  /// asynchronous session: each timed round issues one begin_request and
  /// the next round starts from its completion, so many sessions (across
  /// devices) interleave on one pumping thread. Handles both challenge
  /// styles through the unified AuditRequest: when the request carries
  /// explicit positions (sentinel positions are secret, Merkle challenges
  /// are index-driven) the device fetches exactly those; otherwise it
  /// samples k positions itself. Either way the device's job is
  /// unchanged: time each fetch, sign what happened.
  ///
  /// Malformed requests throw synchronously; transport failures are
  /// delivered through `done`. Concurrent sessions on one device must
  /// share a pumping thread (the signer consumes one-time keys; its use
  /// is serialised by the single-threaded completion contract).
  void begin_audit(const AuditRequest& request, AuditCallback done);

  /// begin_audit run to completion on a device wired to a
  /// net::RequestChannel (throws ProtocolError, before any request, on
  /// other channels). Transport errors surface as exceptions (NetError et
  /// al.).
  SignedTranscript run_audit(const AuditRequest& request);

  /// Run a batch of audits back to back and sign the whole batch with ONE
  /// Merkle signature over BatchedTranscripts::signing_input(). Each
  /// request still gets its own timed rounds (the distance-bounding
  /// physics are unchanged); only the signing is amortised — and only one
  /// one-time key is consumed for the batch. Blocking, like run_audit; a
  /// transport or signing failure anywhere in the batch throws and the
  /// whole batch is abandoned (no partially-signed transcripts escape).
  BatchedTranscripts run_audit_batch(const std::vector<AuditRequest>& requests);

  /// Attach span tracing to begin_audit sessions: each completed session
  /// records one "audit" span stamped on `now` (the caller's clock — the
  /// device never reads a clock of its own beyond its AuditTimer). The
  /// bit-exchange phase is derived from the transcript's measured RTTs;
  /// the remainder up to the session total is attributed to challenge
  /// handling. Null recorder detaches. The recorder and clock must outlive
  /// every session begun while attached. Sessions on one device are
  /// single-threaded (see begin_audit), so this needs no locking.
  void set_span_recorder(obs::SpanRecorder* spans,
                         std::function<Nanos()> now);

 private:
  struct Session;
  void begin_session(const AuditRequest& request, bool sign,
                     AuditCallback done);
  /// Run one session to completion on the blocking path and return its
  /// outcome; shared by run_audit and run_audit_batch.
  AuditOutcome run_session(const AuditRequest& request, bool sign);
  void step(const std::shared_ptr<Session>& session);
  void on_round(const std::shared_ptr<Session>& session,
                net::AsyncResult&& result);

  Config config_;
  net::AsyncChannel* channel_;
  const net::AuditTimer* timer_;
  GpsDevice gps_;
  crypto::MerkleSigner signer_;
  Rng rng_;

  /// Span tracing (null = off). Single-threaded with the session path.
  obs::SpanRecorder* spans_ = nullptr;
  std::function<Nanos()> span_now_;
  std::uint64_t span_seq_ = 0;
};

}  // namespace geoproof::core
