// The unified audit API: every GeoProof flavour — the paper's MAC variant
// (§V), the sentinel/Juels-Kaliski variant (§IV) and the dynamic-POR
// variant (§IV via Wang et al.) — audits through one polymorphic
// `AuditScheme` interface.
//
// The protocol skeleton is identical across flavours (nonce freshness,
// device signature, GPS position, challenge sanity, per-round integrity,
// timing), so the base class owns it as a template method and subclasses
// supply exactly two things: how a challenge is planned (TPA-chosen
// positions or device-sampled) and how a returned round is checked (MAC
// tag, sentinel value, or Merkle proof). Nonce bookkeeping, which every
// flavour previously hand-rolled as an unbounded set, lives in one bounded
// `NonceLedger`.
//
// `AuditService` and the coming sharded audit engine drive heterogeneous
// audits exclusively through this interface.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_annotations.hpp"
#include "core/policy.hpp"
#include "core/transcript.hpp"
#include "por/dynamic.hpp"
#include "por/encoder.hpp"
#include "por/sentinel.hpp"

namespace geoproof::core {

class VerifierDevice;

enum class AuditFailure {
  kSignature,        // step 1: device signature over the transcript
  kPosition,         // step 2: GPS position vs contracted site
  kTag,              // step 3: per-round integrity (tag/sentinel/proof)
  kTiming,           // step 4: Δt' = max_j Δt_j <= Δt_max
  kNonceMismatch,    // replayed or foreign transcript
  kChallengeInvalid, // malformed challenge vector
  kAborted,          // the audit could not run (scheme/device error)
};

std::string to_string(AuditFailure f);

struct AuditReport {
  bool accepted = false;
  std::vector<AuditFailure> failures;
  Millis max_rtt{0};
  Millis mean_rtt{0};
  unsigned bad_tags = 0;
  unsigned timing_violations = 0;  // rounds individually above threshold
  Kilometers position_error{0};
  /// Audit traffic on the timed link (§IV: small, file-size independent).
  std::uint64_t bytes_exchanged = 0;

  /// The one shape of an audit that could not run: rejected, failing
  /// kAborted only. Every fault-isolation path records this.
  static AuditReport aborted();

  bool failed(AuditFailure f) const;
  std::string summary() const;
};

/// What the TPA knows about an audited file, uniform across flavours.
/// `n_segments` is the addressable challenge range (tagged segments for the
/// MAC and dynamic flavours; permuted blocks for the sentinel flavour).
/// `n_file_blocks` is sentinel-only metadata (pre-sentinel block count,
/// needed to recompute sentinel positions); the other flavours leave it 0.
struct FileRecord {
  std::uint64_t file_id = 0;
  std::uint64_t n_segments = 0;
  std::uint64_t n_file_blocks = 0;
};

/// Shared TPA configuration: the keys and acceptance thresholds every
/// flavour needs. Scheme-specific parameters (POR geometry, sentinel
/// counts) are constructor arguments of the concrete scheme.
struct AuditorConfig {
  Bytes master_key;              // shared with the data owner
  crypto::Digest verifier_pk{};  // device public key (out of band)
  net::GeoPoint expected_position{};
  Kilometers position_tolerance{5.0};
  LatencyPolicy policy{};
  std::uint64_t nonce_seed = 0xa0d1;
  /// Upper bound on outstanding (issued, unconsumed) nonces. A long-running
  /// service issues audits forever; without a cap the ledger grows without
  /// bound when transcripts are lost. Oldest entries are expired first.
  std::size_t max_outstanding_nonces = 1024;
};

/// Bounded ledger of outstanding audit nonces, shared by all flavours.
/// Each nonce may carry a payload (the sentinel flavour stores the revealed
/// sentinel indices); consuming a nonce returns the payload exactly once,
/// which is what makes transcript replay detectable.
///
/// Thread safety: fully internally synchronised — issue/consume and the
/// observability counters may be called from any thread. One scheme
/// instance serves audits running concurrently on many shards, so its
/// ledger is the one piece of TPA state every shard contends on.
class NonceLedger {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;
  static constexpr std::size_t kNonceBytes = 16;

  /// `capacity` must be >= 1; when full, issuing expires the oldest entry.
  explicit NonceLedger(std::uint64_t seed,
                       std::size_t capacity = kDefaultCapacity);

  /// Generate and record a fresh 16-byte nonce carrying `payload`.
  Bytes issue(std::vector<std::uint64_t> payload = {});

  /// Consume an outstanding nonce: returns its payload and forgets it, or
  /// nullopt if the nonce was never issued, already consumed, or expired.
  std::optional<std::vector<std::uint64_t>> consume(const Bytes& nonce);

  std::size_t outstanding() const {
    MutexLock lock(mu_);
    return entries_.size();
  }
  std::size_t capacity() const { return capacity_; }
  /// Entries dropped because the ledger was full (observability: a rising
  /// count means audits are being issued and never verified).
  std::uint64_t expired() const {
    MutexLock lock(mu_);
    return expired_;
  }
  /// Internal issue-order queue depth, including lazily-pruned consumed
  /// entries. Bounded by a small multiple of capacity(); exposed so the
  /// bound is testable.
  std::size_t queue_depth() const {
    MutexLock lock(mu_);
    return order_.size();
  }

 private:
  /// Nonces are fixed-width, so the ledger keys on a flat array (cheaper
  /// comparisons than vector keys); wire nonces of any other length are
  /// simply never found.
  using Key = std::array<std::uint8_t, kNonceBytes>;

  mutable Mutex mu_;
  Rng rng_ GEOPROOF_GUARDED_BY(mu_);
  std::size_t capacity_;
  std::uint64_t expired_ GEOPROOF_GUARDED_BY(mu_) = 0;
  std::map<Key, std::vector<std::uint64_t>> entries_ GEOPROOF_GUARDED_BY(mu_);
  /// Issue order; consumed entries pruned lazily.
  std::deque<Key> order_ GEOPROOF_GUARDED_BY(mu_);
};

/// The polymorphic TPA interface. `make_request` and `verify` are the whole
/// public protocol surface; everything scheme-specific hangs off the three
/// protected hooks.
///
/// ## Thread safety (the contract the sharded audit engine relies on)
///
/// make_request() and verify() are safe to call concurrently — including on
/// one scheme instance shared by registrations on different shards —
/// provided the audits target *distinct* FileRecords. Shared nonce
/// bookkeeping is internally locked (NonceLedger), and each flavour locks
/// its own mutable challenge state:
///
///  - MacAuditScheme: stateless planning; the lazily-filled per-file
///    SegmentVerifier cache is guarded (entries are immutable once built);
///  - SentinelAuditScheme: the per-file sentinel cursors are guarded, so
///    concurrent audits of distinct files spend disjoint sentinels;
///  - DynamicAuditScheme: the shared challenge Rng is guarded (sampling
///    order, and therefore the exact challenges, may interleave across
///    threads — reports stay valid, byte-exact reproducibility needs the
///    scheme confined to one shard).
///
/// NOT thread-safe, by design (call while audits are quiescent):
///  - set_policy() — reconfiguration, not steady-state auditing;
///  - registration-time mutation (DynamicAuditScheme::register_file);
///  - concurrent audits of the *same* FileRecord when the flavour keeps
///    per-file state (sentinel cursors advance under the lock, but audit
///    outcomes then depend on interleaving).
///
/// VerifierDevice is NOT part of this contract: its signer consumes
/// one-time keys, so concurrent run_audit() calls on one device must be
/// serialised externally (the sharded engine keeps a per-device mutex).
class AuditScheme {
 public:
  explicit AuditScheme(AuditorConfig config);
  virtual ~AuditScheme() = default;

  AuditScheme(const AuditScheme&) = delete;
  AuditScheme& operator=(const AuditScheme&) = delete;

  /// Short flavour name ("mac", "sentinel", "dynamic").
  virtual std::string name() const = 0;

  const AuditorConfig& config() const { return config_; }
  const LatencyPolicy& policy() const { return config_.policy; }

  /// Install a new timing policy (e.g. after contract-time calibration,
  /// §V-C(b), or when the provider upgrades its disks).
  void set_policy(const LatencyPolicy& policy) { config_.policy = policy; }

  NonceLedger& nonces() { return nonces_; }
  const NonceLedger& nonces() const { return nonces_; }

  /// Create a fresh audit request for k challenge rounds (nonce recorded
  /// for replay detection). Flavours with TPA-chosen challenges fill in
  /// explicit positions; otherwise the verifier device samples.
  AuditRequest make_request(const FileRecord& file, std::uint32_t k);

  /// The §V-B verification, uniform across flavours. Consumes the
  /// transcript's nonce: verifying a second transcript for the same nonce
  /// reports kNonceMismatch.
  AuditReport verify(const FileRecord& file, const SignedTranscript& st);

  /// Batched verification: ONE signature check over the batch's canonical
  /// encoding (amortising the Merkle/WOTS chain hashing across the run
  /// queue), then the usual per-transcript judgement — nonce freshness,
  /// position, challenge sanity, per-round integrity, timing — exactly as
  /// verify() applies it. files[i] pairs with batch.transcripts[i]; a bad
  /// batch signature marks every report kSignature, mirroring the
  /// single-audit contract that an unsigned transcript proves nothing.
  std::vector<AuditReport> verify_batch(const std::vector<FileRecord>& files,
                                        const BatchedTranscripts& batch);

  /// The async entry point: plan a k-round challenge, run the device's
  /// timed session on its channel, verify the signed transcript, deliver
  /// the report — all without blocking the pumping thread between rounds,
  /// so one thread overlaps many audits. Challenge-planning errors
  /// (sentinel exhaustion, unregistered files) throw synchronously, like
  /// make_request; a transport failure mid-session is delivered as a
  /// kAborted report. `done` runs on the thread pumping the device's
  /// channel.
  using AuditCompletion = std::function<void(AuditReport&&)>;
  void begin_audit(const FileRecord& file, std::uint32_t k,
                   VerifierDevice& device, AuditCompletion done);

  /// Blocking form of begin_audit, for a device wired to a
  /// net::RequestChannel: plan, run, verify, return. Equivalent to
  /// make_request + run_audit + verify.
  AuditReport audit_once(const FileRecord& file, std::uint32_t k,
                         VerifierDevice& device);

 protected:
  struct ChallengePlan {
    /// Explicit challenge positions; empty means the device samples k
    /// positions itself (the MAC flavour, Fig. 5).
    std::vector<std::uint64_t> positions;
    /// Opaque per-nonce state returned at verify time (sentinel indices).
    std::vector<std::uint64_t> payload;
  };

  /// Plan the challenge for one request of k rounds.
  virtual ChallengePlan plan_challenge(const FileRecord& file,
                                       std::uint32_t k) = 0;

  /// Is the transcript's challenge vector well-formed for this flavour?
  /// Default: non-empty, consistent sizes, distinct, in [0, n_segments).
  virtual bool validate_challenge(
      const FileRecord& file, const AuditTranscript& t,
      const std::vector<std::uint64_t>& payload) const;

  /// Count the rounds failing the flavour's integrity check. Only called
  /// when validate_challenge passed.
  virtual unsigned check_rounds(
      const FileRecord& file, const AuditTranscript& t,
      const std::vector<std::uint64_t>& payload) const = 0;

 private:
  /// Everything verify() does after the signature check; shared with
  /// verify_batch so single and batched audits are judged identically.
  AuditReport judge(const FileRecord& file, const AuditTranscript& t,
                    bool signature_ok);

  AuditorConfig config_;
  NonceLedger nonces_;
};

/// The paper's own flavour (§V): MAC tags bind segment content, index and
/// file id; the device samples the challenge.
class MacAuditScheme : public AuditScheme {
 public:
  MacAuditScheme(AuditorConfig config, por::PorParams por);

  std::string name() const override { return "mac"; }
  const por::PorParams& por() const { return por_; }

 protected:
  ChallengePlan plan_challenge(const FileRecord& file,
                               std::uint32_t k) override;
  unsigned check_rounds(
      const FileRecord& file, const AuditTranscript& t,
      const std::vector<std::uint64_t>& payload) const override;

 private:
  /// The file's tag verifier, HKDF-derived once and cached: per-audit key
  /// derivation (HKDF extract/expand plus the HMAC key-block schedule) was
  /// the dominant non-signature cost of a MAC audit. Entries are immutable
  /// after construction and map nodes are stable, so the returned
  /// reference is safe to use outside the lock; the lock only covers the
  /// lookup/insert race between shards.
  const por::SegmentVerifier& segment_verifier(std::uint64_t file_id) const;

  por::PorParams por_;
  mutable Mutex cache_mu_;
  mutable std::map<std::uint64_t, por::SegmentVerifier> verifier_cache_
      GEOPROOF_GUARDED_BY(cache_mu_);
};

/// The sentinel/Juels-Kaliski flavour (§IV): the TPA reveals the positions
/// of the next unspent sentinels (only the key holder can compute where
/// they landed after the permutation) and compares the returned blocks
/// against PRF-recomputed sentinel values. Sentinels are consumable; the
/// nonce payload remembers which indices a request revealed.
///
/// Interaction with nonce expiry: sentinels are spent at make_request time
/// (their positions are revealed to the provider), so a request whose nonce
/// expires from the ledger before its transcript returns has burned its
/// sentinels for good — the transcript is rejected with kNonceMismatch and
/// the supply does not recover. Size max_outstanding_nonces to comfortably
/// exceed the number of in-flight audits; a rising NonceLedger::expired()
/// count is the operational signal that requests are being issued faster
/// than transcripts return.
class SentinelAuditScheme : public AuditScheme {
 public:
  SentinelAuditScheme(AuditorConfig config, por::SentinelParams params);

  std::string name() const override { return "sentinel"; }
  const por::SentinelParams& params() const { return por_.params(); }

  /// The unified FileRecord for a sentinel-encoded file: the challenge
  /// range is the permuted block count.
  static FileRecord file_record(const por::SentinelEncoded& encoded);

  /// Sentinels not yet spent on this file.
  unsigned sentinels_remaining(std::uint64_t file_id) const;

 protected:
  /// Throws CryptoError when the sentinel supply is exhausted.
  ChallengePlan plan_challenge(const FileRecord& file,
                               std::uint32_t k) override;
  bool validate_challenge(
      const FileRecord& file, const AuditTranscript& t,
      const std::vector<std::uint64_t>& payload) const override;
  unsigned check_rounds(
      const FileRecord& file, const AuditTranscript& t,
      const std::vector<std::uint64_t>& payload) const override;

 private:
  unsigned sentinels_remaining_locked(std::uint64_t file_id) const
      GEOPROOF_REQUIRES(mu_);

  por::SentinelPor por_;
  /// Guards next_sentinel_: concurrent audits of distinct files must spend
  /// disjoint sentinels (see the AuditScheme thread-safety contract).
  mutable Mutex mu_;
  /// Next unspent sentinel index per file.
  std::map<std::uint64_t, unsigned> next_sentinel_ GEOPROOF_GUARDED_BY(mu_);
};

/// The dynamic-POR flavour (§IV via Wang et al.): each round returns
/// (segment || Merkle proof); the TPA tracks one Merkle root per file
/// across verified updates, so an audit proves integrity, *freshness* and
/// proximity at once.
class DynamicAuditScheme : public AuditScheme {
 public:
  DynamicAuditScheme(AuditorConfig config, por::PorParams por);

  std::string name() const override { return "dynamic"; }
  const por::PorParams& por() const { return por_; }

  /// Register a file by its post-upload Merkle root (from
  /// DynamicPorProvider::root()). Returns the unified record.
  FileRecord register_file(std::uint64_t file_id, const crypto::Digest& root,
                           std::uint64_t n_segments);

  /// The per-file update client (owner-side writes advance its root).
  por::DynamicPorClient& client(std::uint64_t file_id);
  const por::DynamicPorClient& client(std::uint64_t file_id) const;
  const crypto::Digest& root(std::uint64_t file_id) const {
    return client(file_id).root();
  }

 protected:
  ChallengePlan plan_challenge(const FileRecord& file,
                               std::uint32_t k) override;
  /// Additionally requires the file to be registered: without a tracked
  /// root there is nothing to validate membership against.
  bool validate_challenge(
      const FileRecord& file, const AuditTranscript& t,
      const std::vector<std::uint64_t>& payload) const override;
  unsigned check_rounds(
      const FileRecord& file, const AuditTranscript& t,
      const std::vector<std::uint64_t>& payload) const override;

 private:
  por::PorParams por_;
  /// Guards challenge_rng_ (an Rng is not thread-safe; see rng.hpp).
  /// clients_ needs no lock during audits — register_file must be quiescent
  /// with respect to auditing, per the thread-safety contract above.
  Mutex rng_mu_;
  Rng challenge_rng_ GEOPROOF_GUARDED_BY(rng_mu_);
  std::map<std::uint64_t, por::DynamicPorClient> clients_;
};

}  // namespace geoproof::core
