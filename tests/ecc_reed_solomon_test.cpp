#include "ecc/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "ecc/gf256.hpp"

namespace geoproof::ecc {
namespace {

Bytes random_message(Rng& rng, std::size_t len) { return rng.next_bytes(len); }

TEST(ReedSolomon, ParamsValidated) {
  EXPECT_THROW(ReedSolomon(0), InvalidArgument);
  EXPECT_THROW(ReedSolomon(255), InvalidArgument);
  EXPECT_NO_THROW(ReedSolomon(254));
}

TEST(ReedSolomon, EncodeShapes) {
  const ReedSolomon rs(32);
  EXPECT_EQ(rs.max_message_size(), 223u);
  const Bytes cw = rs.encode(Bytes(223, 0x11));
  EXPECT_EQ(cw.size(), 255u);
  EXPECT_THROW(rs.encode(Bytes(224, 0)), InvalidArgument);
}

TEST(ReedSolomon, SystematicPrefix) {
  const ReedSolomon rs(32);
  Rng rng(1);
  const Bytes msg = random_message(rng, 223);
  const Bytes cw = rs.encode(msg);
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), cw.begin()));
}

TEST(ReedSolomon, ZeroMessageZeroParity) {
  const ReedSolomon rs(16);
  Bytes par(16, 0xff);
  rs.parity(Bytes(100, 0), par);
  EXPECT_EQ(par, Bytes(16, 0));
}

// Parity by plain long division of msg(x) * x^np by g(x) through gf::mul,
// with g(x) = prod (x - alpha^i) built here from scratch.
Bytes reference_parity(unsigned np, BytesView msg) {
  Bytes gen{1};  // highest-degree coefficient first
  for (unsigned i = 0; i < np; ++i) {
    Bytes next(gen.size() + 1, 0);
    for (std::size_t j = 0; j < gen.size(); ++j) {
      next[j] ^= gen[j];
      next[j + 1] ^= gf::mul(gf::exp(i), gen[j]);
    }
    gen = std::move(next);
  }
  Bytes rem(msg.begin(), msg.end());
  rem.resize(msg.size() + np, 0);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    for (std::size_t j = 1; j < gen.size(); ++j) {
      rem[i + j] ^= gf::mul(gen[j], rem[i]);
    }
  }
  return Bytes(rem.begin() + static_cast<std::ptrdiff_t>(msg.size()),
               rem.end());
}

TEST(ReedSolomon, ParityMatchesReferenceLongDivision) {
  Rng rng(11);
  for (unsigned np : {1u, 2u, 16u, 32u}) {
    const ReedSolomon rs(np);
    Bytes par(np);
    for (std::size_t len = 1; len <= 223; ++len) {
      const Bytes msg = random_message(rng, len);
      rs.parity(msg, par);
      ASSERT_EQ(par, reference_parity(np, msg))
          << "np " << np << " len " << len;
    }
  }
}

TEST(ReedSolomon, ParityRejectsWrongOutputSize) {
  const ReedSolomon rs(16);
  Bytes par(15);
  EXPECT_THROW(rs.parity(Bytes(10, 1), par), InvalidArgument);
}

TEST(ReedSolomon, EncodedWordIsCodeword) {
  const ReedSolomon rs(32);
  Rng rng(2);
  for (std::size_t len : {1u, 10u, 100u, 223u}) {
    EXPECT_TRUE(rs.is_codeword(rs.encode(random_message(rng, len))));
  }
}

TEST(ReedSolomon, CorruptedWordIsNotCodeword) {
  const ReedSolomon rs(32);
  Rng rng(3);
  Bytes cw = rs.encode(random_message(rng, 223));
  cw[7] ^= 0x01;
  EXPECT_FALSE(rs.is_codeword(cw));
}

TEST(ReedSolomon, DecodeCleanWordNoop) {
  const ReedSolomon rs(32);
  Rng rng(4);
  const Bytes msg = random_message(rng, 223);
  Bytes cw = rs.encode(msg);
  EXPECT_EQ(rs.decode(cw), 0u);
  EXPECT_TRUE(std::equal(msg.begin(), msg.end(), cw.begin()));
}

TEST(ReedSolomon, CorrectsSingleError) {
  const ReedSolomon rs(32);
  Rng rng(5);
  const Bytes msg = random_message(rng, 223);
  for (std::size_t pos : {0u, 1u, 100u, 222u, 223u, 254u}) {
    Bytes cw = rs.encode(msg);
    cw[pos] ^= 0xa5;
    EXPECT_EQ(rs.decode(cw), 1u) << "pos " << pos;
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), cw.begin()));
  }
}

// Property sweep: t random errors are corrected for every t <= 16.
class RsErrorCountTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RsErrorCountTest, CorrectsUpToCapability) {
  const unsigned t = GetParam();
  const ReedSolomon rs(32);
  Rng rng(100 + t);
  for (int trial = 0; trial < 10; ++trial) {
    const Bytes msg = random_message(rng, 223);
    Bytes cw = rs.encode(msg);
    // Pick t distinct positions and flip them to random wrong values.
    std::set<std::size_t> positions;
    while (positions.size() < t) {
      positions.insert(static_cast<std::size_t>(rng.next_below(cw.size())));
    }
    for (const std::size_t p : positions) {
      std::uint8_t delta = 0;
      while (delta == 0) delta = static_cast<std::uint8_t>(rng.next_below(256));
      cw[p] ^= delta;
    }
    EXPECT_EQ(rs.decode(cw), t);
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), cw.begin()));
  }
}

INSTANTIATE_TEST_SUITE_P(ErrorCounts, RsErrorCountTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 8u, 12u, 15u, 16u));

TEST(ReedSolomon, SeventeenErrorsNotSilentlyMiscorrectedToOriginal) {
  // Beyond capability the decoder must either throw or produce something
  // other than a silent "success" with wrong content being undetected; it
  // must never return claiming zero problems while the data is wrong.
  const ReedSolomon rs(32);
  Rng rng(42);
  int threw = 0, decoded_wrong = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const Bytes msg = random_message(rng, 223);
    Bytes cw = rs.encode(msg);
    std::set<std::size_t> positions;
    while (positions.size() < 17) {
      positions.insert(static_cast<std::size_t>(rng.next_below(cw.size())));
    }
    for (const std::size_t p : positions) cw[p] ^= 0x3c;
    try {
      rs.decode(cw);
      // If it "decoded", it must have landed on some *other* codeword;
      // the original message cannot have been restored.
      if (!std::equal(msg.begin(), msg.end(), cw.begin())) ++decoded_wrong;
    } catch (const DecodeError&) {
      ++threw;
    }
  }
  EXPECT_EQ(threw + decoded_wrong, 20);
  // Overwhelmingly the decoder detects the failure.
  EXPECT_GE(threw, 15);
}

TEST(ReedSolomon, CorrectsErasuresUpToParityCount) {
  const ReedSolomon rs(32);
  Rng rng(7);
  const Bytes msg = random_message(rng, 223);
  for (unsigned e : {1u, 8u, 16u, 31u, 32u}) {
    Bytes cw = rs.encode(msg);
    std::vector<std::size_t> erasures;
    std::set<std::size_t> positions;
    while (positions.size() < e) {
      positions.insert(static_cast<std::size_t>(rng.next_below(cw.size())));
    }
    for (const std::size_t p : positions) {
      cw[p] = static_cast<std::uint8_t>(rng.next_below(256));
      erasures.push_back(p);
    }
    // Note: a randomly overwritten symbol may coincide with the true one;
    // decode reports only genuinely wrong symbols among erasures, so just
    // check the data is restored.
    rs.decode(cw, erasures);
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), cw.begin())) << "e=" << e;
  }
}

TEST(ReedSolomon, TooManyErasuresThrows) {
  const ReedSolomon rs(8);
  Bytes cw = rs.encode(Bytes(100, 1));
  std::vector<std::size_t> erasures(9);
  for (std::size_t i = 0; i < 9; ++i) erasures[i] = i;
  EXPECT_THROW(rs.decode(cw, erasures), DecodeError);
}

TEST(ReedSolomon, MixedErrorsAndErasures) {
  // 2t + e <= 32: spot the boundary combinations.
  const ReedSolomon rs(32);
  Rng rng(8);
  struct Case { unsigned errors, erasures; };
  for (const Case c : {Case{1, 30}, Case{8, 16}, Case{15, 2}, Case{10, 12}}) {
    const Bytes msg = random_message(rng, 223);
    Bytes cw = rs.encode(msg);
    std::set<std::size_t> positions;
    while (positions.size() < c.errors + c.erasures) {
      positions.insert(static_cast<std::size_t>(rng.next_below(cw.size())));
    }
    std::vector<std::size_t> all(positions.begin(), positions.end());
    std::vector<std::size_t> erasures(all.begin(),
                                      all.begin() + c.erasures);
    for (std::size_t i = 0; i < all.size(); ++i) {
      std::uint8_t delta = 0;
      while (delta == 0) delta = static_cast<std::uint8_t>(rng.next_below(256));
      cw[all[i]] ^= delta;
    }
    rs.decode(cw, erasures);
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), cw.begin()))
        << "errors " << c.errors << " erasures " << c.erasures;
  }
}

TEST(ReedSolomon, ShortenedCodewordRoundTrip) {
  const ReedSolomon rs(32);
  Rng rng(9);
  for (std::size_t len : {1u, 5u, 50u, 150u}) {
    const Bytes msg = random_message(rng, len);
    Bytes cw = rs.encode(msg);
    ASSERT_EQ(cw.size(), len + 32);
    // 16 errors still correctable in a shortened word (if it fits).
    const unsigned t = std::min<unsigned>(16, static_cast<unsigned>(cw.size() / 2));
    std::set<std::size_t> positions;
    while (positions.size() < t) {
      positions.insert(static_cast<std::size_t>(rng.next_below(cw.size())));
    }
    for (const std::size_t p : positions) cw[p] ^= 0x77;
    EXPECT_EQ(rs.decode(cw), t);
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), cw.begin()));
  }
}

TEST(ReedSolomon, DecodeValidatesArguments) {
  const ReedSolomon rs(32);
  Bytes small(32, 0);  // length == nparity: no message symbols
  EXPECT_THROW(rs.decode(small), InvalidArgument);
  Bytes big(256, 0);
  EXPECT_THROW(rs.decode(big), InvalidArgument);
  Bytes cw = rs.encode(Bytes(10, 1));
  const std::vector<std::size_t> bad_erasure = {cw.size()};
  EXPECT_THROW(rs.decode(cw, bad_erasure), InvalidArgument);
}

TEST(ReedSolomon, DifferentParityCounts) {
  Rng rng(10);
  for (unsigned np : {2u, 4u, 8u, 16u, 64u, 128u}) {
    const ReedSolomon rs(np);
    const Bytes msg = random_message(rng, std::min<std::size_t>(50, rs.max_message_size()));
    Bytes cw = rs.encode(msg);
    const unsigned t = np / 2;
    for (unsigned i = 0; i < t; ++i) cw[i] ^= 0x55;
    EXPECT_EQ(rs.decode(cw), t) << "np " << np;
    EXPECT_TRUE(std::equal(msg.begin(), msg.end(), cw.begin()));
  }
}

}  // namespace
}  // namespace geoproof::ecc
