#include "core/verifier.hpp"

#include <algorithm>
#include <optional>

#include "common/errors.hpp"
#include "obs/span.hpp"
#include "por/params.hpp"

namespace geoproof::core {

VerifierDevice::VerifierDevice(Config config, net::AsyncChannel& channel,
                               const net::AuditTimer& timer)
    : config_(std::move(config)),
      channel_(&channel),
      timer_(&timer),
      gps_(config_.position),
      signer_(config_.signer_seed, config_.signer_height),
      rng_(config_.challenge_seed) {}

/// One in-flight audit: the transcript under construction plus the round
/// cursor. Kept alive by the completion lambdas until the session settles.
struct VerifierDevice::Session {
  AuditTranscript t;
  std::size_t next_round = 0;
  Millis round_start{0};
  /// Sign the finished transcript (single-audit protocol). Batch members
  /// leave this false: the batch is signed as one unit after every
  /// member's rounds have run.
  bool sign = true;
  /// step() is inside begin_request; a completion that fires there only
  /// marks `next_inline` and step() loops, instead of recursing.
  bool issuing = false;
  bool next_inline = false;
  AuditCallback done;
};

void VerifierDevice::set_span_recorder(obs::SpanRecorder* spans,
                                       std::function<Nanos()> now) {
  if (spans != nullptr && !now) {
    throw InvalidArgument("set_span_recorder: recorder without a clock");
  }
  spans_ = spans;
  span_now_ = std::move(now);
}

void VerifierDevice::begin_audit(const AuditRequest& request,
                                 AuditCallback done) {
  if (spans_ != nullptr) {
    // Wrap the completion: one "audit" span per session, stamped on the
    // injected clock. Exchange time is the sum of the rounds the device
    // actually measured; everything else in the session window counts as
    // challenge handling (sampling, serialisation, signing).
    obs::SpanRecorder* const spans = spans_;
    const std::uint64_t id = span_seq_++;
    const Nanos t0 = span_now_();
    done = [spans, now = span_now_, id, t0, inner = std::move(done)](
               AuditOutcome&& outcome) {
      const Nanos total = now() - t0;
      Millis exchange_ms{0.0};
      for (const Millis rtt : outcome.transcript.transcript.rtts) {
        exchange_ms += rtt;
      }
      const Nanos exchange = std::min(to_nanos(exchange_ms), total);
      obs::Span span;
      span.id = id;
      span.kind = "audit";
      span.ok = outcome.ok();
      span.start = t0;
      span.set_phase(obs::Phase::kExchange, exchange);
      span.set_phase(obs::Phase::kChallenge, total - exchange);
      span.total = total;
      spans->record(span);
      inner(std::move(outcome));
    };
  }
  begin_session(request, /*sign=*/true, std::move(done));
}

void VerifierDevice::begin_session(const AuditRequest& request, bool sign,
                                   AuditCallback done) {
  if (!done) throw InvalidArgument("begin_audit: null callback");
  if (request.k == 0) {
    throw ProtocolError("run_audit: request with zero rounds");
  }
  if (request.positions.empty() && request.n_segments == 0) {
    throw ProtocolError("run_audit: request with zero segments");
  }

  auto session = std::make_shared<Session>();
  session->sign = sign;
  session->done = std::move(done);
  AuditTranscript& t = session->t;
  t.file_id = request.file_id;
  t.nonce = request.nonce;
  t.position = gps_.report();
  // TPA-chosen challenges (sentinel positions, Merkle indices) come with
  // the request; otherwise the device samples k positions itself (Fig. 5).
  t.challenge = request.positions.empty()
                    ? por::sample_challenge(request.n_segments, request.k,
                                            rng_)
                    : request.positions;
  t.rtts.reserve(t.challenge.size());
  t.segments.reserve(t.challenge.size());
  step(session);
}

void VerifierDevice::step(const std::shared_ptr<Session>& session) {
  // Timed rounds of the distance-bounding phase (Fig. 5). Each completion
  // continues the session: on a real event loop it calls step() again
  // from a later reactor turn; when it fires inline (a RequestChannel) it
  // only flags the next round and this loop issues it, so the stack
  // stays flat however large k is.
  do {
    AuditTranscript& t = session->t;
    const SegmentRequest req{t.file_id, t.challenge[session->next_round]};
    const Bytes wire = req.serialize();
    session->round_start = timer_->now();
    session->next_inline = false;
    session->issuing = true;
    channel_->begin_request(wire, [this, session](net::AsyncResult&& result) {
      on_round(session, std::move(result));
    });
    session->issuing = false;
  } while (session->next_inline);
}

void VerifierDevice::on_round(const std::shared_ptr<Session>& session,
                              net::AsyncResult&& result) {
  if (!result.ok()) {
    AuditOutcome outcome;
    outcome.error = result.error.empty() ? "transport failure" : result.error;
    session->done(std::move(outcome));
    return;
  }
  AuditTranscript& t = session->t;
  t.rtts.push_back(timer_->now() - session->round_start);
  t.segments.push_back(std::move(result.payload));
  if (++session->next_round < t.challenge.size()) {
    if (session->issuing) {
      session->next_inline = true;
    } else {
      step(session);
    }
    return;
  }
  AuditOutcome outcome;
  try {
    // Signing can fail (one-time key exhaustion, CryptoError); inside a
    // channel completion that must become a session error, not an
    // exception unwinding through whatever pumps the loop.
    if (session->sign) {
      outcome.transcript.signature = signer_.sign(t.serialize());
    }
    outcome.transcript.transcript = std::move(t);
  } catch (const std::exception& e) {
    outcome = AuditOutcome{};
    outcome.error = e.what();
    outcome.fault = std::current_exception();
  }
  session->done(std::move(outcome));
}

VerifierDevice::AuditOutcome VerifierDevice::run_session(
    const AuditRequest& request, bool sign) {
  if (dynamic_cast<net::RequestChannel*>(channel_) == nullptr) {
    // Refuse before issuing any request: starting the session and then
    // throwing would leave an in-flight completion holding a pointer to
    // this frame's locals.
    throw ProtocolError(
        "run_audit: device wired to an async channel; use begin_audit and "
        "pump the channel's loop");
  }
  // A RequestChannel completes inline: the session is over on return.
  std::optional<AuditOutcome> outcome;
  begin_session(request, sign,
                [&outcome](AuditOutcome&& out) { outcome = std::move(out); });
  if (!outcome->ok()) {
    // Rethrow the original fault (CryptoError, StorageError, ...) when
    // there is one; only anonymous transport failures become NetError.
    if (outcome->fault) std::rethrow_exception(outcome->fault);
    throw NetError("run_audit: " + outcome->error);
  }
  return std::move(*outcome);
}

SignedTranscript VerifierDevice::run_audit(const AuditRequest& request) {
  return std::move(run_session(request, /*sign=*/true).transcript);
}

BatchedTranscripts VerifierDevice::run_audit_batch(
    const std::vector<AuditRequest>& requests) {
  if (requests.empty()) {
    throw InvalidArgument("run_audit_batch: empty batch");
  }
  BatchedTranscripts batch;
  batch.transcripts.reserve(requests.size());
  for (const AuditRequest& request : requests) {
    batch.transcripts.push_back(
        std::move(run_session(request, /*sign=*/false).transcript.transcript));
  }
  // One Merkle signature — and one one-time key — for the whole batch.
  batch.signature = signer_.sign(batch.signing_input());
  return batch;
}

}  // namespace geoproof::core
