// Wire messages of the GeoProof protocol (Fig. 5).
//
//  TPA -> V : AuditRequest  (ñ, k, nonce N, file id)
//  V  -> P : segment request (file id, index c_j), k timed rounds
//  P  -> V : segment S_cj || τ_cj
//  V  -> TPA: SignedTranscript
//      R = (Δt_1..Δt_k, c, {S_cj||τ_cj}, N, Pos_v), Sign_SK(R)
//
// All messages serialise through common/serialize.hpp; every parser is
// bounds-checked and rejects trailing bytes, so a malicious provider or a
// corrupted link cannot desynchronise the state machines.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/units.hpp"
#include "crypto/signature.hpp"
#include "net/geo.hpp"

namespace geoproof::por {
struct EncodedFile;
}  // namespace geoproof::por

namespace geoproof::core {

/// TPA -> verifier: audit this file now. When `positions` is empty the
/// device samples k challenge positions from [0, n_segments) itself (the
/// MAC flavour, Fig. 5); a non-empty `positions` carries a TPA-chosen
/// challenge (sentinel positions are secret, Merkle challenges are
/// index-driven) and then k == positions.size().
struct AuditRequest {
  std::uint64_t file_id = 0;
  std::uint64_t n_segments = 0;  // ñ
  std::uint32_t k = 0;           // segments to challenge
  Bytes nonce;                   // N, freshness
  std::vector<std::uint64_t> positions;  // TPA-chosen challenge (optional)

  Bytes serialize() const;
  static AuditRequest deserialize(BytesView data);
};

/// Verifier -> provider: fetch one segment (the timed request).
struct SegmentRequest {
  std::uint64_t file_id = 0;
  std::uint64_t index = 0;

  Bytes serialize() const;
  static SegmentRequest deserialize(BytesView data);
};

/// The checked lookup behind every socket-facing segment server: parse a
/// serialised SegmentRequest and return that segment of `file`. Request
/// bytes come off the wire, so nothing indexes memory unchecked: throws
/// SerializeError for a malformed request and StorageError for a foreign
/// file id or an index >= file.n_segments.
const Bytes& lookup_segment(const por::EncodedFile& file, BytesView request);

/// The data the verifier signs (Fig. 5's R).
struct AuditTranscript {
  std::uint64_t file_id = 0;
  Bytes nonce;                          // N echoed from the request
  net::GeoPoint position;               // Pos_v from the GPS receiver
  std::vector<std::uint64_t> challenge; // c_1..c_k
  std::vector<Millis> rtts;             // Δt_1..Δt_k
  std::vector<Bytes> segments;          // S_cj || τ_cj as returned

  Bytes serialize() const;
  static AuditTranscript deserialize(BytesView data);

  Millis max_rtt() const;
  /// Arithmetic mean of Δt_1..Δt_k (0 when there are no rounds).
  Millis mean_rtt() const;
  /// Smallest Δt_j (0 when there are no rounds) — the min-filtered delay
  /// sample the locate measurement plane feeds to distance estimation.
  Millis min_rtt() const;

  /// Bytes that crossed the verifier-provider link during the timed phase
  /// (k requests + k segments) — the paper's §IV point that audit traffic
  /// is tiny and independent of the file size.
  std::uint64_t exchanged_bytes() const;
};

struct SignedTranscript {
  AuditTranscript transcript;
  crypto::MerkleSignature signature;

  Bytes serialize() const;
  static SignedTranscript deserialize(BytesView data);
};

/// A run queue's worth of audits signed as one unit. The device runs every
/// audit's timed rounds exactly as in the single-audit protocol, but signs
/// one canonical encoding of the whole batch instead of each transcript —
/// amortising the WOTS chain work across the run AND consuming one one-time
/// key per batch instead of per audit (a device provisioned for 2^h
/// signatures now serves 2^h batches). The TPA side mirror is
/// AuditScheme::verify_batch: one signature check, then the usual
/// per-transcript nonce/position/tag/timing judgement.
struct BatchedTranscripts {
  std::vector<AuditTranscript> transcripts;
  crypto::MerkleSignature signature;

  /// The signed message: count-prefixed, length-prefixed serialised
  /// transcripts. Unambiguous (every field is length-prefixed), so no two
  /// distinct batches share an encoding.
  Bytes signing_input() const;
};

}  // namespace geoproof::core
