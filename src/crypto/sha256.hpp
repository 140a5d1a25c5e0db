// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Streaming interface plus one-shot helpers. This is the root hash for HMAC,
// HKDF, the DRBG, hash-based signatures and Merkle trees in this library.
//
// Every block goes through one compression function, picked once per
// process: the x86 SHA extensions (SHA-NI) when CPUID reports them, the
// portable scalar rounds otherwise. Both produce identical digests.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/bytes.hpp"

namespace geoproof::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
using Digest = std::array<std::uint8_t, kSha256DigestSize>;

class Sha256 {
 public:
  Sha256() { reset(); }

  /// Reset to the initial state (discard any absorbed data).
  void reset();

  /// Absorb more message bytes.
  void update(BytesView data);

  /// Finalise and return the digest. The object must be reset() before reuse.
  Digest finalize();

  /// One-shot convenience.
  static Digest hash(BytesView data);
  /// One-shot over the concatenation a || b.
  static Digest hash2(BytesView a, BytesView b);

 private:
  std::array<std::uint32_t, 8> h_;
  // Two blocks, so finalize() lays out both padding blocks in place; update()
  // buffers at most one.
  std::array<std::uint8_t, 128> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
  bool finalized_ = false;
};

/// Digest as an owned byte vector (convenience for APIs taking Bytes).
Bytes digest_bytes(const Digest& d);

namespace detail {

using Sha256State = std::array<std::uint32_t, 8>;

/// Run the compression function over the n 64-byte blocks at p (no
/// alignment needed), updating state. Dispatches to one of the bodies below,
/// chosen on first call.
void compress_blocks(Sha256State& state, const std::uint8_t* p, std::size_t n);

/// Portable body: the FIPS 180-4 rounds in plain C++.
void compress_blocks_scalar(Sha256State& state, const std::uint8_t* p,
                            std::size_t n);

/// SHA-NI body. Call only when has_sha_ni() is true; on a target without
/// the x86 SHA extensions it forwards to the scalar body.
void compress_blocks_shani(Sha256State& state, const std::uint8_t* p,
                           std::size_t n);

/// CPUID says this CPU has SHA-NI plus the SSSE3/SSE4.1 shuffles its body
/// uses. Always false off x86.
bool has_sha_ni();

}  // namespace detail

}  // namespace geoproof::crypto
