// Keyed pseudorandom permutation over an arbitrary domain [0, n).
//
// §V-A step 4 reorders the encrypted file blocks with a PRP (the paper cites
// Luby–Rackoff). We realise it exactly in that spirit: a balanced Feistel
// network over the smallest even-bit-width domain covering n, with AES as the
// round function, plus cycle-walking to restrict the permutation to [0, n).
//
// Two ways in, with identical results:
//   - Pointwise apply/invert map one index for kRounds AES calls per
//     Feistel pass; the cover domain is under 4n, so a cycle walk averages
//     fewer than four passes (about 3.5 for a 1 MiB POR file).
//     SentinelPor::sentinel_position uses apply: one index per challenge.
//   - apply_all maps the whole domain at once. Each round's input is a
//     single half_bits-bit half, so it first tabulates the round function
//     (kRounds << half_bits AES calls, about 5,000 for a 1 MiB POR file)
//     and then walks every index by table lookup. The whole-file loops use
//     it: PorEncoder::encode, PorExtractor::extract, SentinelPor::encode
//     and SentinelPor::decode.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "crypto/aes.hpp"

namespace geoproof::crypto {

class BlockPermutation {
 public:
  /// `key` is any byte string (internally expanded); `domain` = n >= 1.
  BlockPermutation(BytesView key, std::uint64_t domain);

  std::uint64_t domain() const { return domain_; }

  /// Forward permutation: bijection on [0, n).
  std::uint64_t apply(std::uint64_t x) const;

  /// Inverse permutation: invert(apply(x)) == x.
  std::uint64_t invert(std::uint64_t y) const;

  /// Every forward image: element q is apply(q), for each q in [0, n).
  std::vector<std::uint64_t> apply_all() const;

 private:
  std::uint64_t feistel_forward(std::uint64_t x) const;
  std::uint64_t feistel_backward(std::uint64_t y) const;
  std::uint64_t round_function(int round, std::uint64_t half) const;

  static constexpr int kRounds = 10;
  // Defensive bound on one cycle walk (see apply).
  static constexpr int kWalkGuard = 100000;

  std::uint64_t domain_;
  int half_bits_ = 0;          // each Feistel half is this many bits
  std::uint64_t half_mask_ = 0;
  Aes aes_;
};

}  // namespace geoproof::crypto
