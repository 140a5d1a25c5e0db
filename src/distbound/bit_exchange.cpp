#include "distbound/bit_exchange.hpp"

#include "common/errors.hpp"

namespace geoproof::distbound {

ExchangeResult run_bit_exchange(SimClock& clock, Millis one_way,
                                const ExchangeParams& params,
                                const BitResponder& responder,
                                const BitResponder& expected, Rng& rng) {
  if (!responder || !expected) {
    throw InvalidArgument("run_bit_exchange: null responder");
  }
  if (params.rounds == 0) {
    throw InvalidArgument("run_bit_exchange: rounds must be >= 1");
  }
  const Nanos leg = to_nanos(one_way);
  ExchangeResult result;
  result.rounds.reserve(params.rounds);
  for (unsigned round = 0; round < params.rounds; ++round) {
    // Per-round rng draw order: challenge, challenge flip, whatever the
    // responder draws, response flip.
    const bool challenge = rng.next_bool();
    const Nanos round_start = clock.now();
    clock.advance(leg);
    // Channel noise may corrupt the challenge in flight: the prover then
    // answers the wrong question (from the verifier's point of view).
    const bool challenge_rx =
        params.bit_flip_prob > 0.0 && rng.next_bool(params.bit_flip_prob)
            ? !challenge
            : challenge;
    bool response = responder(round, challenge_rx);  // may advance clock
    clock.advance(leg);
    if (params.bit_flip_prob > 0.0 && rng.next_bool(params.bit_flip_prob)) {
      response = !response;  // response corrupted
    }
    const Millis rtt = to_millis(clock.now() - round_start);

    result.rounds.push_back(RoundRecord{challenge, response, rtt});
    if (rtt > result.max_rtt) result.max_rtt = rtt;
    if (rtt > params.max_rtt) ++result.timing_violations;
    if (response != expected(round, challenge)) ++result.bit_errors;
  }
  result.accepted = result.timing_violations == 0 &&
                    result.bit_errors <= params.max_bit_errors;
  return result;
}

std::vector<Millis> rtt_samples(const ExchangeResult& result) {
  std::vector<Millis> samples;
  samples.reserve(result.rounds.size());
  for (const RoundRecord& round : result.rounds) {
    samples.push_back(round.rtt);
  }
  return samples;
}

std::vector<bool> unpack_bits(BytesView bytes, unsigned n) {
  if (bytes.size() * 8 < n) {
    throw InvalidArgument("unpack_bits: not enough key material");
  }
  std::vector<bool> bits;
  bits.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    bits.push_back(((bytes[i / 8] >> (i % 8)) & 1) != 0);
  }
  return bits;
}

}  // namespace geoproof::distbound
