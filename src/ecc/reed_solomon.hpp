// Reed-Solomon codes over GF(2^8), systematic form, with full
// errors-and-erasures decoding.
//
// GeoProof's setup phase (§V-A step 2) applies the "(255, 223, 32)
// Reed-Solomon code" of Juels-Kaliski to each 255-block chunk. This class
// implements RS(n, k) for any parity count (n - k) up to 254 and any word
// length up to 255 (shortened codes are supported by simply encoding fewer
// message bytes).
//
// Decoding pipeline: syndromes -> Berlekamp-Massey (initialised with the
// erasure locator for errors-and-erasures) -> Chien search -> Forney
// magnitudes -> correction + syndrome re-check. A word with t errors and
// e erasures is correctable when 2t + e <= nparity.
#pragma once

#include <cstddef>
#include <span>

#include "common/bytes.hpp"

namespace geoproof::ecc {

class ReedSolomon {
 public:
  /// nparity = number of parity symbols (the code corrects up to
  /// nparity/2 errors, or nparity erasures). 1 <= nparity <= 254.
  explicit ReedSolomon(unsigned nparity);

  unsigned nparity() const { return np_; }
  /// Maximum message length for a full-length (non-shortened) codeword.
  std::size_t max_message_size() const { return 255 - np_; }

  /// Writes the nparity() parity symbols of `msg` to `out`
  /// (msg.size() <= max_message_size(), out.size() == nparity(); `out`
  /// must not overlap `msg`).
  void parity(BytesView msg, std::span<std::uint8_t> out) const;

  /// Systematic codeword: msg || parity(msg).
  Bytes encode(BytesView msg) const;

  /// True if `word` has all-zero syndromes.
  bool is_codeword(BytesView word) const;

  /// Correct `word` in place. `erasures` lists array indices whose symbols
  /// are known to be unreliable. Returns the number of errata corrected.
  /// Throws DecodeError when the word is uncorrectable.
  unsigned decode(std::span<std::uint8_t> word,
                  std::span<const std::size_t> erasures = {}) const;

 private:
  unsigned np_;
  // gen_times_[x * np_ + j] == gf::mul(g_{j+1}, x), where g_0 = 1, ...,
  // g_np are the generator polynomial's coefficients, highest degree
  // first: for each quotient symbol x, the np_ products the encoder folds
  // into its remainder, contiguous.
  Bytes gen_times_;
};

}  // namespace geoproof::ecc
