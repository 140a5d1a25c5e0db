#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "distbound/brands_chaum.hpp"
#include "distbound/hancke_kuhn.hpp"
#include "distbound/reid.hpp"

namespace geoproof::distbound {
namespace {

ExchangeParams fast_params(unsigned rounds = 32) {
  return ExchangeParams{.rounds = rounds, .max_rtt = Millis{2.0}};
}

TEST(BitExchange, HonestRunAcceptedAndTimed) {
  SimClock clock;
  Rng rng(1);
  const BitResponder echo = [](unsigned, bool c) { return c; };
  const ExchangeResult res = run_bit_exchange(clock, Millis{0.5},
                                              fast_params(16), echo, echo, rng);
  EXPECT_TRUE(res.accepted);
  EXPECT_EQ(res.bit_errors, 0u);
  EXPECT_EQ(res.timing_violations, 0u);
  ASSERT_EQ(res.rounds.size(), 16u);
  for (const RoundRecord& r : res.rounds) {
    EXPECT_NEAR(r.rtt.count(), 1.0, 1e-9);  // 2 x 0.5 ms
  }
  EXPECT_NEAR(res.max_rtt.count(), 1.0, 1e-9);
}

TEST(BitExchange, SlowLinkRejected) {
  SimClock clock;
  Rng rng(2);
  const BitResponder echo = [](unsigned, bool c) { return c; };
  // 1.5 ms one-way -> 3 ms RTT > 2 ms threshold.
  const ExchangeResult res = run_bit_exchange(clock, Millis{1.5},
                                              fast_params(8), echo, echo, rng);
  EXPECT_FALSE(res.accepted);
  EXPECT_EQ(res.timing_violations, 8u);
  EXPECT_EQ(res.bit_errors, 0u);
}

TEST(BitExchange, WrongBitsRejected) {
  SimClock clock;
  Rng rng(3);
  const BitResponder honest = [](unsigned, bool c) { return c; };
  const BitResponder liar = [](unsigned, bool c) { return !c; };
  const ExchangeResult res = run_bit_exchange(clock, Millis{0.1},
                                              fast_params(8), liar, honest, rng);
  EXPECT_FALSE(res.accepted);
  EXPECT_EQ(res.bit_errors, 8u);
}

TEST(BitExchange, ToleranceAllowsNoisyBits) {
  SimClock clock;
  Rng rng(4);
  ExchangeParams params = fast_params(16);
  params.max_bit_errors = 2;
  const BitResponder honest = [](unsigned, bool c) { return c; };
  // Flip exactly rounds 3 and 7.
  const BitResponder noisy = [](unsigned i, bool c) {
    return (i == 3 || i == 7) ? !c : c;
  };
  const ExchangeResult res = run_bit_exchange(clock, Millis{0.1}, params,
                                              noisy, honest, rng);
  EXPECT_TRUE(res.accepted);
  EXPECT_EQ(res.bit_errors, 2u);
}

TEST(BitExchange, ZeroRoundsRejected) {
  // An exchange of no rounds measures nothing and proves nothing; it must
  // not come back accepted, whatever the responder answers.
  SimClock clock;
  Rng rng(12);
  const BitResponder honest = [](unsigned, bool c) { return c; };
  const BitResponder liar = [](unsigned, bool) { return false; };
  EXPECT_THROW((void)run_bit_exchange(clock, Millis{0.1}, fast_params(0),
                                      liar, honest, rng),
               InvalidArgument);
  EXPECT_THROW((void)run_hancke_kuhn(clock, Millis{0.1}, fast_params(0),
                                     bytes_of("secret"), rng, &liar),
               InvalidArgument);
}

TEST(BitExchange, UnpackBitsRoundTrip) {
  const Bytes data = {0b10110001, 0b00000001};
  const auto bits = unpack_bits(data, 10);
  ASSERT_EQ(bits.size(), 10u);
  EXPECT_TRUE(bits[0]);   // LSB of byte 0
  EXPECT_FALSE(bits[1]);
  EXPECT_FALSE(bits[2]);
  EXPECT_FALSE(bits[3]);
  EXPECT_TRUE(bits[4]);
  EXPECT_TRUE(bits[5]);
  EXPECT_FALSE(bits[6]);
  EXPECT_TRUE(bits[7]);   // MSB of byte 0
  EXPECT_TRUE(bits[8]);   // LSB of byte 1
  EXPECT_FALSE(bits[9]);
  EXPECT_THROW(unpack_bits(data, 17), InvalidArgument);
}

// Golden rounds: the exact records these seeds produce. Any change to the
// per-round rng draw order (challenge, challenge flip, responder, response
// flip) or to the latency arithmetic (each leg charged as
// to_nanos(one_way)) shows up here as a changed bit or RTT.
std::string bits(const ExchangeResult& res, bool RoundRecord::*field) {
  std::string out;
  for (const RoundRecord& r : res.rounds) out += r.*field ? '1' : '0';
  return out;
}

std::vector<std::int64_t> rtt_ns(const ExchangeResult& res) {
  std::vector<std::int64_t> out;
  for (const RoundRecord& r : res.rounds) {
    out.push_back(std::chrono::round<Nanos>(r.rtt).count());
  }
  return out;
}

TEST(BitExchangeGolden, HonestEcho) {
  SimClock clock;
  Rng rng(7);
  const BitResponder echo = [](unsigned, bool c) { return c; };
  // 0.1234567 ms truncates to 123456 ns per leg.
  const ExchangeResult res = run_bit_exchange(
      clock, Millis{0.1234567}, fast_params(16), echo, echo, rng);
  EXPECT_EQ(bits(res, &RoundRecord::challenge), "0100001111000010");
  EXPECT_EQ(bits(res, &RoundRecord::response), "0100001111000010");
  EXPECT_EQ(rtt_ns(res), std::vector<std::int64_t>(16, 246912));
  EXPECT_TRUE(res.accepted);
  EXPECT_EQ(clock.now().count(), 3950592);
}

TEST(BitExchangeGolden, NoisyChannel) {
  SimClock clock;
  Rng rng(0x5eed);
  ExchangeParams params = fast_params(24);
  params.bit_flip_prob = 0.1;
  params.max_bit_errors = 3;
  const BitResponder echo = [](unsigned, bool c) { return c; };
  const ExchangeResult res =
      run_bit_exchange(clock, Millis{0.25}, params, echo, echo, rng);
  EXPECT_EQ(bits(res, &RoundRecord::challenge), "001001111101010110011110");
  EXPECT_EQ(bits(res, &RoundRecord::response), "001001101101010100001111");
  EXPECT_EQ(rtt_ns(res), std::vector<std::int64_t>(24, 500000));
  EXPECT_EQ(res.bit_errors, 4u);
  EXPECT_FALSE(res.accepted);
  EXPECT_EQ(clock.now().count(), 12000000);
}

TEST(BitExchangeGolden, ResponderAdvancesClockFromSharedRng) {
  // The responder stalls by a draw from the verifier's own rng, so the
  // pin also fixes where the responder sits in the draw order.
  SimClock clock;
  Rng rng(0xd1ce);
  ExchangeParams params = fast_params(16);
  params.bit_flip_prob = 0.05;
  params.max_bit_errors = 16;
  const BitResponder stalling = [&clock, &rng](unsigned round, bool c) {
    clock.advance(Nanos{static_cast<std::int64_t>(rng.next_below(400000))});
    return round % 5 == 4 ? !c : c;
  };
  const BitResponder echo = [](unsigned, bool c) { return c; };
  const ExchangeResult res =
      run_bit_exchange(clock, Millis{0.9}, params, stalling, echo, rng);
  EXPECT_EQ(bits(res, &RoundRecord::challenge), "0010111111010101");
  EXPECT_EQ(bits(res, &RoundRecord::response), "0001011110010111");
  EXPECT_EQ(rtt_ns(res), (std::vector<std::int64_t>{
                             2136437, 1892984, 2146012, 1849625, 1807890,
                             1856743, 1916102, 2048370, 2106011, 1926522,
                             2013749, 2043552, 1982860, 2040955, 1900236,
                             1891467}));
  EXPECT_EQ(std::chrono::round<Nanos>(res.max_rtt).count(), 2146012);
  EXPECT_EQ(res.bit_errors, 5u);
  EXPECT_EQ(res.timing_violations, 7u);
  EXPECT_EQ(clock.now().count(), 31559515);
}

TEST(HanckeKuhn, HonestSessionAccepted) {
  SimClock clock;
  Rng rng(5);
  const Bytes secret = bytes_of("shared secret s");
  const HkSessionResult res =
      run_hancke_kuhn(clock, Millis{0.3}, fast_params(32), secret, rng);
  EXPECT_TRUE(res.exchange.accepted);
  EXPECT_EQ(res.exchange.bit_errors, 0u);
}

TEST(HanckeKuhn, RegistersDeterministicFromInputs) {
  const Bytes secret = bytes_of("s");
  const Bytes nv = bytes_of("nonce-v"), np = bytes_of("nonce-p");
  const HkProver a(secret, nv, np, 64);
  const HkProver b(secret, nv, np, 64);
  EXPECT_EQ(a.reg_l(), b.reg_l());
  EXPECT_EQ(a.reg_r(), b.reg_r());
}

TEST(HanckeKuhn, NoncesChangeRegisters) {
  const Bytes secret = bytes_of("s");
  const HkProver a(secret, bytes_of("n1"), bytes_of("p"), 64);
  const HkProver b(secret, bytes_of("n2"), bytes_of("p"), 64);
  EXPECT_NE(a.reg_l(), b.reg_l());
}

TEST(HanckeKuhn, WrongSecretRejected) {
  SimClock clock;
  Rng rng(6);
  // An attacker with the wrong secret produces wrong register bits. Model:
  // attacker derives registers from a bad secret but sees the real nonces -
  // equivalent to random responses, so acceptance is ~2^-32.
  const Bytes secret = bytes_of("right secret");
  const BitResponder wrong = [&rng](unsigned, bool) { return rng.next_bool(); };
  const HkSessionResult res = run_hancke_kuhn(clock, Millis{0.3},
                                              fast_params(32), secret, rng,
                                              &wrong);
  EXPECT_FALSE(res.exchange.accepted);
}

TEST(HanckeKuhn, RoundOutOfRangeThrows) {
  const HkProver p(bytes_of("s"), bytes_of("a"), bytes_of("b"), 8);
  EXPECT_THROW(p.respond(8, false), InvalidArgument);
}

TEST(Reid, HonestSessionAccepted) {
  SimClock clock;
  Rng rng(7);
  const ReidSessionResult res =
      run_reid(clock, Millis{0.3}, fast_params(32), bytes_of("long-term key"),
               "verifier-1", "prover-1", rng);
  EXPECT_TRUE(res.exchange.accepted);
}

TEST(Reid, IdentityBindsSession) {
  // Registers depend on both identities (Fig. 3's fix over Fig. 2).
  const Bytes secret = bytes_of("k");
  const Bytes nv = bytes_of("nv"), np = bytes_of("np");
  const ReidProver a(secret, "V", "P", nv, np, 64);
  const ReidProver b(secret, "V", "Q", nv, np, 64);
  EXPECT_NE(a.reg_k(), b.reg_k());
}

TEST(Reid, RegistersXorToSecretBits) {
  const Bytes secret = bytes_of("long term secret");
  const ReidProver p(secret, "V", "P", bytes_of("nv"), bytes_of("np"), 64);
  const auto leaked = p.secret_bits_leaked_by_registers();
  ASSERT_EQ(leaked.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(leaked[i], p.reg_k()[i] ^ p.reg_e()[i]);
  }
}

TEST(BrandsChaum, HonestSessionAccepted) {
  SimClock clock;
  Rng rng(8);
  const BcSessionResult res = run_brands_chaum(
      clock, Millis{0.3}, fast_params(32), bytes_of("shared key"), rng);
  EXPECT_TRUE(res.accepted);
  EXPECT_TRUE(res.commitment_ok);
  EXPECT_TRUE(res.transcript_mac_ok);
  EXPECT_TRUE(res.responses_consistent_with_m);
}

TEST(BrandsChaum, SlowProverRejectedOnTiming) {
  SimClock clock;
  Rng rng(9);
  const BcSessionResult res = run_brands_chaum(
      clock, Millis{1.5}, fast_params(16), bytes_of("shared key"), rng);
  EXPECT_FALSE(res.accepted);
  EXPECT_GT(res.exchange.timing_violations, 0u);
  // The cryptography is still consistent - only the physics failed.
  EXPECT_TRUE(res.commitment_ok);
}

TEST(BrandsChaum, AttackerWithoutCommitmentRejected) {
  SimClock clock;
  Rng rng(10);
  const BitResponder guesser = [&rng](unsigned, bool) {
    return rng.next_bool();
  };
  const BcSessionResult res =
      run_brands_chaum(clock, Millis{0.3}, fast_params(32),
                       bytes_of("shared key"), rng, &guesser);
  EXPECT_FALSE(res.accepted);
  EXPECT_FALSE(res.responses_consistent_with_m);
}

TEST(BrandsChaum, CommitmentBindsBits) {
  Rng rng(11);
  BcProver prover(16, rng);
  const auto opening = prover.open();
  EXPECT_EQ(commit_bits(opening.m, opening.opening_nonce),
            prover.commitment());
  auto tampered = opening.m;
  tampered[0] = !tampered[0];
  EXPECT_NE(commit_bits(tampered, opening.opening_nonce), prover.commitment());
}

TEST(BrandsChaum, TranscriptBytesEncodeBothBits) {
  std::vector<RoundRecord> rounds(3);
  rounds[0] = {false, false, Millis{1}};
  rounds[1] = {true, false, Millis{1}};
  rounds[2] = {true, true, Millis{1}};
  const Bytes t = transcript_bytes(rounds);
  EXPECT_EQ(t, Bytes({0x00, 0x02, 0x03}));
}

}  // namespace
}  // namespace geoproof::distbound
