#include "core/scheme.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/errors.hpp"
#include "core/verifier.hpp"
#include "net/geo.hpp"
#include "por/params.hpp"

namespace geoproof::core {

std::string to_string(AuditFailure f) {
  switch (f) {
    case AuditFailure::kSignature: return "signature";
    case AuditFailure::kPosition: return "gps-position";
    case AuditFailure::kTag: return "segment-tag";
    case AuditFailure::kTiming: return "round-trip-time";
    case AuditFailure::kNonceMismatch: return "nonce";
    case AuditFailure::kChallengeInvalid: return "challenge";
    case AuditFailure::kAborted: return "aborted";
  }
  return "unknown";
}

AuditReport AuditReport::aborted() {
  AuditReport report;
  report.failures.push_back(AuditFailure::kAborted);
  return report;
}

bool AuditReport::failed(AuditFailure f) const {
  return std::find(failures.begin(), failures.end(), f) != failures.end();
}

std::string AuditReport::summary() const {
  std::ostringstream os;
  os << (accepted ? "ACCEPTED" : "REJECTED");
  os << " max_rtt=" << max_rtt.count() << "ms";
  os << " mean_rtt=" << mean_rtt.count() << "ms";
  if (!accepted) {
    os << " failures:";
    for (const AuditFailure f : failures) os << ' ' << to_string(f);
    if (bad_tags > 0) os << " (bad_tags=" << bad_tags << ")";
    if (timing_violations > 0) {
      os << " (slow_rounds=" << timing_violations << ")";
    }
  }
  return os.str();
}

// --------------------------------------------------------------------------
// NonceLedger
// --------------------------------------------------------------------------

NonceLedger::NonceLedger(std::uint64_t seed, std::size_t capacity)
    : rng_(seed), capacity_(capacity) {
  if (capacity_ == 0) {
    throw InvalidArgument("NonceLedger: capacity must be >= 1");
  }
}

Bytes NonceLedger::issue(std::vector<std::uint64_t> payload) {
  MutexLock lock(mu_);
  Key key;
  do {
    const Bytes fresh = rng_.next_bytes(kNonceBytes);
    std::copy(fresh.begin(), fresh.end(), key.begin());
    // 128-bit collisions are not a practical concern, but an accidental
    // reuse would silently merge two audits' state — regenerate instead.
  } while (entries_.count(key) != 0);
  entries_.emplace(key, std::move(payload));
  order_.push_back(key);

  // Expire oldest outstanding entries beyond capacity; consumed nonces
  // linger in order_ until they reach the front, so skip those for free.
  while (entries_.size() > capacity_) {
    if (entries_.erase(order_.front()) != 0) ++expired_;
    order_.pop_front();
  }
  // Keep order_ from accumulating consumed entries unboundedly. Front pops
  // alone are not enough: one long-outstanding nonce at the front would
  // pin every consumed entry behind it, so compact the queue outright once
  // it outgrows the live set by a constant factor (amortised O(1)).
  while (!order_.empty() && entries_.count(order_.front()) == 0) {
    order_.pop_front();
  }
  if (order_.size() > 2 * capacity_ + 16) {
    std::deque<Key> alive;
    for (const Key& k : order_) {
      if (entries_.count(k) != 0) alive.push_back(k);
    }
    order_.swap(alive);
  }
  return Bytes(key.begin(), key.end());
}

std::optional<std::vector<std::uint64_t>> NonceLedger::consume(
    const Bytes& nonce) {
  if (nonce.size() != kNonceBytes) return std::nullopt;
  MutexLock lock(mu_);
  Key key;
  std::copy(nonce.begin(), nonce.end(), key.begin());
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  std::vector<std::uint64_t> payload = std::move(it->second);
  entries_.erase(it);
  return payload;
}

// --------------------------------------------------------------------------
// AuditScheme
// --------------------------------------------------------------------------

AuditScheme::AuditScheme(AuditorConfig config)
    : config_(std::move(config)),
      nonces_(config_.nonce_seed, config_.max_outstanding_nonces) {
  if (config_.master_key.empty()) {
    throw InvalidArgument("AuditScheme: empty master key");
  }
}

AuditRequest AuditScheme::make_request(const FileRecord& file,
                                       std::uint32_t k) {
  if (file.n_segments == 0) {
    throw InvalidArgument("make_request: file with no segments");
  }
  if (k == 0) throw InvalidArgument("make_request: k must be >= 1");

  ChallengePlan plan = plan_challenge(file, k);
  AuditRequest req;
  req.file_id = file.file_id;
  req.n_segments = file.n_segments;
  req.k = plan.positions.empty()
              ? k
              : static_cast<std::uint32_t>(plan.positions.size());
  req.positions = std::move(plan.positions);
  req.nonce = nonces_.issue(std::move(plan.payload));
  return req;
}

void AuditScheme::begin_audit(const FileRecord& file, std::uint32_t k,
                              VerifierDevice& device, AuditCompletion done) {
  if (!done) throw InvalidArgument("begin_audit: null completion");
  const AuditRequest request = make_request(file, k);
  device.begin_audit(
      request, [this, file, done = std::move(done)](
                   VerifierDevice::AuditOutcome&& outcome) {
        if (!outcome.ok()) {
          // The session died on the wire: no transcript to judge. Mirror
          // the service/engine convention for audits that could not run.
          done(AuditReport::aborted());
          return;
        }
        AuditReport report;
        try {
          report = verify(file, outcome.transcript);
        } catch (const std::exception&) {
          // A scheme fault inside a channel completion must surface as a
          // report, not as an exception unwinding through the loop pump.
          report = AuditReport::aborted();
        }
        done(std::move(report));
      });
}

AuditReport AuditScheme::audit_once(const FileRecord& file, std::uint32_t k,
                                    VerifierDevice& device) {
  const AuditRequest request = make_request(file, k);
  return verify(file, device.run_audit(request));
}

bool AuditScheme::validate_challenge(
    const FileRecord& file, const AuditTranscript& t,
    const std::vector<std::uint64_t>& /*payload*/) const {
  if (t.challenge.empty() || t.challenge.size() != t.rtts.size() ||
      t.challenge.size() != t.segments.size()) {
    return false;
  }
  std::unordered_set<std::uint64_t> seen;
  for (const std::uint64_t c : t.challenge) {
    if (c >= file.n_segments || !seen.insert(c).second) return false;
  }
  return true;
}

AuditReport AuditScheme::verify(const FileRecord& file,
                                const SignedTranscript& st) {
  // Step 1: the device signature over the serialised transcript.
  const bool signature_ok = crypto::merkle_verify(
      config_.verifier_pk, st.transcript.serialize(), st.signature);
  return judge(file, st.transcript, signature_ok);
}

std::vector<AuditReport> AuditScheme::verify_batch(
    const std::vector<FileRecord>& files, const BatchedTranscripts& batch) {
  if (files.size() != batch.transcripts.size()) {
    throw InvalidArgument("verify_batch: files/transcripts size mismatch");
  }
  // Step 1 once for the whole run: the signature binds the batch encoding,
  // so every member inherits its verdict.
  const bool signature_ok = crypto::merkle_verify(
      config_.verifier_pk, batch.signing_input(), batch.signature);
  std::vector<AuditReport> reports;
  reports.reserve(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    reports.push_back(judge(files[i], batch.transcripts[i], signature_ok));
  }
  return reports;
}

AuditReport AuditScheme::judge(const FileRecord& file,
                               const AuditTranscript& t, bool signature_ok) {
  AuditReport report;
  report.bytes_exchanged = t.exchanged_bytes();

  // Nonce freshness: must be one we issued, still outstanding, and bound to
  // this file. A foreign file's transcript does not consume the nonce.
  std::vector<std::uint64_t> payload;
  bool nonce_ok = false;
  if (t.file_id == file.file_id) {
    if (auto p = nonces_.consume(t.nonce)) {
      payload = std::move(*p);
      nonce_ok = true;
    }
  }
  if (!nonce_ok) report.failures.push_back(AuditFailure::kNonceMismatch);

  if (!signature_ok) {
    report.failures.push_back(AuditFailure::kSignature);
  }

  // Step 2: GPS position against the contracted site.
  report.position_error = net::haversine(t.position, config_.expected_position);
  if (report.position_error > config_.position_tolerance) {
    report.failures.push_back(AuditFailure::kPosition);
  }

  // Challenge sanity, then step 3: the flavour's per-round integrity check.
  if (!validate_challenge(file, t, payload)) {
    report.failures.push_back(AuditFailure::kChallengeInvalid);
  } else {
    report.bad_tags = check_rounds(file, t, payload);
    if (report.bad_tags > 0) {
      report.failures.push_back(AuditFailure::kTag);
    }
  }

  // Step 4: Δt' = max Δt_j <= Δt_max.
  const Millis dt_max = config_.policy.max_round_trip();
  report.max_rtt = t.max_rtt();
  report.mean_rtt = t.mean_rtt();
  for (const Millis& rtt : t.rtts) {
    if (rtt > dt_max) ++report.timing_violations;
  }
  if (report.max_rtt > dt_max) {
    report.failures.push_back(AuditFailure::kTiming);
  }

  report.accepted = report.failures.empty();
  return report;
}

// --------------------------------------------------------------------------
// MacAuditScheme
// --------------------------------------------------------------------------

MacAuditScheme::MacAuditScheme(AuditorConfig config, por::PorParams por)
    : AuditScheme(std::move(config)), por_(por) {
  por_.validate();
}

AuditScheme::ChallengePlan MacAuditScheme::plan_challenge(
    const FileRecord& /*file*/, std::uint32_t /*k*/) {
  // The device samples the challenge itself (Fig. 5).
  return {};
}

const por::SegmentVerifier& MacAuditScheme::segment_verifier(
    std::uint64_t file_id) const {
  MutexLock lock(cache_mu_);
  auto it = verifier_cache_.find(file_id);
  if (it == verifier_cache_.end()) {
    it = verifier_cache_
             .try_emplace(file_id, por_, config().master_key, file_id)
             .first;
  }
  return it->second;
}

unsigned MacAuditScheme::check_rounds(
    const FileRecord& file, const AuditTranscript& t,
    const std::vector<std::uint64_t>& /*payload*/) const {
  const por::SegmentVerifier& verifier = segment_verifier(file.file_id);
  unsigned bad = 0;
  for (std::size_t j = 0; j < t.challenge.size(); ++j) {
    if (!verifier.verify(t.challenge[j], t.segments[j])) ++bad;
  }
  return bad;
}

// --------------------------------------------------------------------------
// SentinelAuditScheme
// --------------------------------------------------------------------------

SentinelAuditScheme::SentinelAuditScheme(AuditorConfig config,
                                         por::SentinelParams params)
    : AuditScheme(std::move(config)), por_(params) {}

FileRecord SentinelAuditScheme::file_record(
    const por::SentinelEncoded& encoded) {
  return FileRecord{encoded.file_id, encoded.total_blocks,
                    encoded.n_file_blocks};
}

unsigned SentinelAuditScheme::sentinels_remaining_locked(
    std::uint64_t file_id) const {
  const auto it = next_sentinel_.find(file_id);
  const unsigned used = it == next_sentinel_.end() ? 0 : it->second;
  return por_.params().n_sentinels - used;
}

unsigned SentinelAuditScheme::sentinels_remaining(
    std::uint64_t file_id) const {
  MutexLock lock(mu_);
  return sentinels_remaining_locked(file_id);
}

AuditScheme::ChallengePlan SentinelAuditScheme::plan_challenge(
    const FileRecord& file, std::uint32_t k) {
  MutexLock lock(mu_);
  if (sentinels_remaining_locked(file.file_id) < k) {
    throw CryptoError("SentinelAuditScheme: sentinel supply exhausted");
  }
  unsigned& next = next_sentinel_[file.file_id];

  // Reconstruct just enough metadata for the position computation.
  por::SentinelEncoded meta;
  meta.file_id = file.file_id;
  meta.n_file_blocks = file.n_file_blocks;
  meta.total_blocks = file.n_segments;

  ChallengePlan plan;
  for (std::uint32_t i = 0; i < k; ++i) {
    const unsigned j = next++;
    plan.payload.push_back(j);
    plan.positions.push_back(
        por_.sentinel_position(meta, config().master_key, j));
  }
  return plan;
}

bool SentinelAuditScheme::validate_challenge(
    const FileRecord& /*file*/, const AuditTranscript& t,
    const std::vector<std::uint64_t>& payload) const {
  // The challenge is ours (revealed sentinel positions); all that can go
  // wrong shape-wise is a transcript inconsistent with what was revealed.
  return !payload.empty() && t.challenge.size() == payload.size() &&
         t.segments.size() == payload.size() &&
         t.rtts.size() == payload.size();
}

unsigned SentinelAuditScheme::check_rounds(
    const FileRecord& file, const AuditTranscript& t,
    const std::vector<std::uint64_t>& payload) const {
  unsigned bad = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    const Bytes expected = por_.sentinel_value(
        file.file_id, config().master_key,
        static_cast<unsigned>(payload[i]));
    if (!constant_time_equal(expected, t.segments[i])) {
      ++bad;  // "tag" = sentinel value in this flavour
    }
  }
  return bad;
}

// --------------------------------------------------------------------------
// DynamicAuditScheme
// --------------------------------------------------------------------------

DynamicAuditScheme::DynamicAuditScheme(AuditorConfig config,
                                       por::PorParams por)
    : AuditScheme(std::move(config)),
      por_(por),
      challenge_rng_(this->config().nonce_seed ^ 0xdb0c9a11ULL) {
  por_.validate();
}

FileRecord DynamicAuditScheme::register_file(std::uint64_t file_id,
                                             const crypto::Digest& root,
                                             std::uint64_t n_segments) {
  if (n_segments == 0) {
    throw InvalidArgument("DynamicAuditScheme: file with no segments");
  }
  clients_.erase(file_id);
  clients_.emplace(file_id, por::DynamicPorClient(root, por_,
                                                  config().master_key,
                                                  file_id));
  return FileRecord{file_id, n_segments, 0};
}

por::DynamicPorClient& DynamicAuditScheme::client(std::uint64_t file_id) {
  const auto it = clients_.find(file_id);
  if (it == clients_.end()) {
    throw InvalidArgument("DynamicAuditScheme: unknown file");
  }
  return it->second;
}

const por::DynamicPorClient& DynamicAuditScheme::client(
    std::uint64_t file_id) const {
  const auto it = clients_.find(file_id);
  if (it == clients_.end()) {
    throw InvalidArgument("DynamicAuditScheme: unknown file");
  }
  return it->second;
}

bool DynamicAuditScheme::validate_challenge(
    const FileRecord& file, const AuditTranscript& t,
    const std::vector<std::uint64_t>& payload) const {
  return clients_.count(file.file_id) != 0 &&
         AuditScheme::validate_challenge(file, t, payload);
}

AuditScheme::ChallengePlan DynamicAuditScheme::plan_challenge(
    const FileRecord& file, std::uint32_t k) {
  (void)client(file.file_id);  // fail fast on unregistered files
  ChallengePlan plan;
  MutexLock lock(rng_mu_);
  plan.positions = por::sample_challenge(file.n_segments, k, challenge_rng_);
  return plan;
}

unsigned DynamicAuditScheme::check_rounds(
    const FileRecord& file, const AuditTranscript& t,
    const std::vector<std::uint64_t>& /*payload*/) const {
  const por::DynamicPorClient& c = client(file.file_id);
  unsigned bad = 0;
  for (std::size_t i = 0; i < t.challenge.size(); ++i) {
    bool round_ok = false;
    try {
      const por::ReadProof proof = por::ReadProof::deserialize(t.segments[i]);
      round_ok = c.verify_read(t.challenge[i], proof);
    } catch (const Error&) {
      round_ok = false;  // malformed proof counts as a failed round
    }
    if (!round_ok) ++bad;
  }
  return bad;
}

}  // namespace geoproof::core
