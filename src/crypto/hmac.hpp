// HMAC-SHA256 (RFC 2104 / FIPS 198-1) and a PRF convenience wrapper.
#pragma once

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace geoproof::crypto {

/// Expanded HMAC key schedule: the SHA-256 midstates left after absorbing
/// the ipad/opad key blocks. Deriving these costs two compressions; a MAC
/// computed from a prepared HmacKey resumes the midstates by copy instead,
/// so callers MACing many messages under one key (segment-tag verification
/// over an audit's challenge rounds) skip both key-block compressions per
/// message. Immutable after construction, so one instance may be shared
/// across threads freely.
class HmacKey {
 public:
  /// Keys longer than the block size are hashed first, per the spec.
  explicit HmacKey(BytesView key);

  /// One-shot MAC resuming the precomputed midstates.
  Digest mac(BytesView data) const;

 private:
  friend class HmacSha256;
  Sha256 inner_state_;  // after absorbing key ^ ipad
  Sha256 outer_state_;  // after absorbing key ^ opad
};

class HmacSha256 {
 public:
  /// Keys longer than the block size are hashed first, per the spec.
  explicit HmacSha256(BytesView key);
  /// Resume a prepared key schedule (no compressions at construction).
  explicit HmacSha256(const HmacKey& key);

  void update(BytesView data);
  Digest finalize();
  void reset();

  /// One-shot MAC.
  static Digest mac(BytesView key, BytesView data);

 private:
  HmacKey key_;
  Sha256 inner_;
};

/// Deterministic pseudo-random function: PRF(key, label, input) -> 32 bytes.
/// Used for key derivation trees (distinct labels give independent keys).
Digest prf(BytesView key, std::string_view label, BytesView input);
/// The same PRF under a prepared key: derivations that draw many outputs
/// from one key (a WOTS secret key's 67 chain starts) expand it once.
Digest prf(const HmacKey& key, std::string_view label, BytesView input);

}  // namespace geoproof::crypto
