// The timed rapid-bit-exchange phase shared by all distance-bounding
// protocols (§III-A, Fig. 1).
//
// A verifier sends challenge bits one at a time, timing each round trip; the
// prover answers from precomputed registers. The physical layer is modelled
// by a per-direction latency plus an optional prover processing delay, all
// charged to a shared SimClock — exactly the quantity 4t_j the paper's
// verifier records.
#pragma once

#include <functional>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"

namespace geoproof::distbound {

struct RoundRecord {
  bool challenge = false;
  bool response = false;
  Millis rtt{0};
};

struct ExchangeParams {
  unsigned rounds = 32;  // n, the security parameter
  /// Per-round RTT acceptance threshold 4t_max.
  Millis max_rtt{2.0};
  /// Bit errors tolerated before rejection (noisy-channel variants allow
  /// a few; the classic protocols require zero).
  unsigned max_bit_errors = 0;
  /// Channel noise: probability an exchanged bit flips in transit (the
  /// noisy-channel setting of Singelee-Preneel [40] / Munilla-Peinado
  /// [30]). Applied independently to the challenge and the response, so
  /// a round is received wrongly with probability 1-(1-p)^2.
  double bit_flip_prob = 0.0;
};

struct ExchangeResult {
  bool accepted = false;
  unsigned bit_errors = 0;
  unsigned timing_violations = 0;
  Millis max_rtt{0};
  std::vector<RoundRecord> rounds;
};

/// The prover side of the rapid phase: given round index and challenge bit,
/// produce the response bit.
using BitResponder = std::function<bool(unsigned round, bool challenge)>;

/// Run the rapid phase: `params.rounds` timed rounds, each charging
/// `one_way` out and back to `clock` around the responder call. The
/// responder may advance the clock too (processing delay, relaying).
/// Throws InvalidArgument on a null responder or zero rounds — an exchange
/// of no rounds measures nothing and must not be accepted.
ExchangeResult run_bit_exchange(SimClock& clock, Millis one_way,
                                const ExchangeParams& params,
                                const BitResponder& responder,
                                const BitResponder& expected, Rng& rng);

/// The per-round RTT sample set a finished exchange measured, in round
/// order — the raw delay measurements the locate subsystem multilaterates
/// on (each round's 4t_j is one independent RTT sample of the same path).
std::vector<Millis> rtt_samples(const ExchangeResult& result);

/// Unpack `n` bits (LSB-first within each byte) from key material.
std::vector<bool> unpack_bits(BytesView bytes, unsigned n);

}  // namespace geoproof::distbound
