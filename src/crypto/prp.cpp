#include "crypto/prp.hpp"

#include <bit>

#include "common/errors.hpp"
#include "crypto/sha256.hpp"

namespace geoproof::crypto {

namespace {
// Expand an arbitrary key into exactly 16 bytes for the AES round function.
Bytes expand_key(BytesView key) {
  const Digest d = Sha256::hash2(bytes_of("geoproof.prp.v1"), key);
  return Bytes(d.begin(), d.begin() + 16);
}
}  // namespace

BlockPermutation::BlockPermutation(BytesView key, std::uint64_t domain)
    : domain_(domain), aes_(expand_key(key)) {
  if (domain == 0) {
    throw InvalidArgument("BlockPermutation: domain must be >= 1");
  }
  // Width in bits of the Feistel domain: smallest even width covering n.
  int bits = 64 - std::countl_zero(domain - 1);
  if (domain == 1) bits = 0;
  if (bits < 2) bits = 2;       // at least 1 bit per half
  if (bits % 2 != 0) ++bits;    // balanced halves
  if (bits > 62) {
    throw InvalidArgument("BlockPermutation: domain too large");
  }
  half_bits_ = bits / 2;
  half_mask_ = (half_bits_ == 64)
                   ? ~0ULL
                   : ((1ULL << half_bits_) - 1);
}

std::uint64_t BlockPermutation::round_function(int round,
                                               std::uint64_t half) const {
  std::uint8_t in[16] = {};
  in[0] = static_cast<std::uint8_t>(round);
  for (int i = 0; i < 8; ++i) {
    in[1 + i] = static_cast<std::uint8_t>(half >> (56 - 8 * i));
  }
  std::uint8_t out[16];
  aes_.encrypt_block(in, out);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | out[i];
  return v & half_mask_;
}

std::uint64_t BlockPermutation::feistel_forward(std::uint64_t x) const {
  std::uint64_t left = (x >> half_bits_) & half_mask_;
  std::uint64_t right = x & half_mask_;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t next_left = right;
    const std::uint64_t next_right = left ^ round_function(r, right);
    left = next_left;
    right = next_right;
  }
  return (left << half_bits_) | right;
}

std::uint64_t BlockPermutation::feistel_backward(std::uint64_t y) const {
  std::uint64_t left = (y >> half_bits_) & half_mask_;
  std::uint64_t right = y & half_mask_;
  for (int r = kRounds - 1; r >= 0; --r) {
    const std::uint64_t prev_right = left;
    const std::uint64_t prev_left = right ^ round_function(r, prev_right);
    left = prev_left;
    right = prev_right;
  }
  return (left << half_bits_) | right;
}

std::uint64_t BlockPermutation::apply(std::uint64_t x) const {
  if (x >= domain_) {
    throw InvalidArgument("BlockPermutation::apply: input outside domain");
  }
  // Cycle-walk: the Feistel domain may exceed n; iterate until we land
  // inside. Termination is probabilistic but certain (the permutation is a
  // bijection on the cover domain); the bound is a defensive guard.
  std::uint64_t v = x;
  for (int guard = 0; guard < kWalkGuard; ++guard) {
    v = feistel_forward(v);
    if (v < domain_) return v;
  }
  throw CryptoError("BlockPermutation: cycle walk failed to terminate");
}

std::uint64_t BlockPermutation::invert(std::uint64_t y) const {
  if (y >= domain_) {
    throw InvalidArgument("BlockPermutation::invert: input outside domain");
  }
  std::uint64_t v = y;
  for (int guard = 0; guard < kWalkGuard; ++guard) {
    v = feistel_backward(v);
    if (v < domain_) return v;
  }
  throw CryptoError("BlockPermutation: cycle walk failed to terminate");
}

std::vector<std::uint64_t> BlockPermutation::apply_all() const {
  // round_table[r * halves + h] == round_function(r, h). A half is at
  // most 31 bits (the domain at most 62), so each entry fits 32 bits.
  const std::uint64_t halves = half_mask_ + 1;
  std::vector<std::uint32_t> round_table(kRounds * halves);
  for (int r = 0; r < kRounds; ++r) {
    for (std::uint64_t h = 0; h < halves; ++h) {
      round_table[r * halves + h] =
          static_cast<std::uint32_t>(round_function(r, h));
    }
  }
  std::vector<std::uint64_t> images(domain_);
  for (std::uint64_t x = 0; x < domain_; ++x) {
    // apply(x), with feistel_forward's rounds read from the table.
    std::uint64_t v = x;
    for (int guard = 0;; ++guard) {
      if (guard == kWalkGuard) {
        throw CryptoError("BlockPermutation: cycle walk failed to terminate");
      }
      std::uint64_t left = (v >> half_bits_) & half_mask_;
      std::uint64_t right = v & half_mask_;
      for (int r = 0; r < kRounds; ++r) {
        const std::uint64_t next_right = left ^ round_table[r * halves + right];
        left = right;
        right = next_right;
      }
      v = (left << half_bits_) | right;
      if (v < domain_) break;
    }
    images[x] = v;
  }
  return images;
}

}  // namespace geoproof::crypto
