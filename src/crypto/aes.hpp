// AES-128/192/256 block cipher (FIPS 197), implemented from scratch.
//
// The S-box is generated at compile time from the GF(2^8) inverse plus the
// affine transform rather than transcribed, eliminating table-entry typos;
// correctness is pinned by the FIPS-197 known-answer tests in the test suite.
//
// This is a portable table-free-ish implementation (single S-box table,
// column-wise MixColumns); it favours clarity over raw speed, at about
// 300 ns per block. The POR set-up's PRP now calls it only to tabulate its
// round function (BlockPermutation::apply_all), so the largest software-AES
// cost left is the AES-CTR keystream that encrypts F' (about 20 ms per MiB
// on an x86-64 server core). AES-NI rounds are the next step there.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.hpp"

namespace geoproof::crypto {

inline constexpr std::size_t kAesBlockSize = 16;
using AesBlock = std::array<std::uint8_t, kAesBlockSize>;

class Aes {
 public:
  /// key must be 16, 24 or 32 bytes (AES-128/192/256).
  explicit Aes(BytesView key);

  void encrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;
  void decrypt_block(const std::uint8_t in[16], std::uint8_t out[16]) const;

  AesBlock encrypt(const AesBlock& in) const;
  AesBlock decrypt(const AesBlock& in) const;

  int rounds() const { return rounds_; }

 private:
  std::array<std::uint32_t, 60> round_keys_{};  // max 15 round keys x 4 words
  int rounds_ = 0;
};

}  // namespace geoproof::crypto
