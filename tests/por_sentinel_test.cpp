#include "por/sentinel.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "por/analysis.hpp"

namespace geoproof::por {
namespace {

const Bytes kMaster = bytes_of("sentinel master key");

TEST(SentinelPor, ParamsValidated) {
  EXPECT_THROW(SentinelPor(SentinelParams{.block_size = 0}), InvalidArgument);
  EXPECT_THROW(SentinelPor(SentinelParams{.n_sentinels = 0}), InvalidArgument);
}

TEST(SentinelPor, EncodeShapes) {
  const SentinelPor por(SentinelParams{.n_sentinels = 100});
  Rng rng(1);
  const Bytes file = rng.next_bytes(3210);
  const auto enc = por.encode(file, 5, kMaster);
  EXPECT_EQ(enc.n_file_blocks, 201u);  // ceil(3210/16)
  EXPECT_EQ(enc.total_blocks, 301u);
  EXPECT_EQ(enc.blocks.size(), 301u);
  for (const Bytes& b : enc.blocks) EXPECT_EQ(b.size(), 16u);
}

TEST(SentinelPor, DecodeRoundTrip) {
  const SentinelPor por(SentinelParams{.n_sentinels = 50});
  Rng rng(2);
  for (const std::size_t size : {1u, 16u, 1000u, 5000u}) {
    const Bytes file = rng.next_bytes(size);
    const auto enc = por.encode(file, size, kMaster);
    EXPECT_EQ(por.decode(enc, kMaster), file);
  }
}

TEST(SentinelPor, EncodeBytesPinned) {
  const SentinelPor por(SentinelParams{.n_sentinels = 100});
  Rng rng(17);
  const auto enc = por.encode(rng.next_bytes(3210), 5, kMaster);
  crypto::Sha256 h;
  for (const Bytes& b : enc.blocks) h.update(b);
  EXPECT_EQ(to_hex(h.finalize()),
            "b4a99f77a4f166784b1155851c546e384028cd21bd3d29d44a7e3374653bc83f");
}

TEST(SentinelPor, ChallengeAcceptsHonestProvider) {
  const SentinelPor por(SentinelParams{.n_sentinels = 64});
  Rng rng(3);
  const auto enc = por.encode(rng.next_bytes(4000), 1, kMaster);
  for (unsigned j = 0; j < 64; ++j) {
    const std::uint64_t pos = por.sentinel_position(enc, kMaster, j);
    ASSERT_LT(pos, enc.total_blocks);
    EXPECT_TRUE(por.check(enc, kMaster, j,
                          enc.blocks[static_cast<std::size_t>(pos)]))
        << "sentinel " << j;
  }
}

TEST(SentinelPor, SentinelPositionsSpreadByPermutation) {
  // Sentinels are appended *after* the file blocks pre-permutation; the PRP
  // must scatter them across the whole stored range, otherwise the provider
  // could archive the "cold" prefix.
  const SentinelPor por(SentinelParams{.n_sentinels = 200});
  Rng rng(4);
  const auto enc = por.encode(rng.next_bytes(100000), 1, kMaster);
  std::size_t in_first_half = 0;
  for (unsigned j = 0; j < 200; ++j) {
    if (por.sentinel_position(enc, kMaster, j) < enc.total_blocks / 2) {
      ++in_first_half;
    }
  }
  EXPECT_GT(in_first_half, 60u);
  EXPECT_LT(in_first_half, 140u);
}

TEST(SentinelPor, TamperingDetectedAtExpectedRate) {
  // Corrupt a fraction of blocks; the chance a random sentinel is hit
  // matches the corruption rate, and a challenge of q sentinels detects
  // with probability ~ 1-(1-rho)^q (the JK detection bound).
  const unsigned n_sent = 400;
  const SentinelPor por(SentinelParams{.n_sentinels = n_sent});
  Rng rng(5);
  const auto clean = por.encode(rng.next_bytes(60000), 1, kMaster);

  auto enc = clean;
  const double rho = 0.10;
  std::size_t corrupted = 0;
  for (auto& blk : enc.blocks) {
    if (rng.next_bool(rho)) {
      blk[0] ^= 0xff;
      ++corrupted;
    }
  }
  ASSERT_GT(corrupted, 0u);

  // Count which sentinels got hit.
  unsigned hit = 0;
  for (unsigned j = 0; j < n_sent; ++j) {
    const std::uint64_t pos = por.sentinel_position(enc, kMaster, j);
    if (!por.check(enc, kMaster, j, enc.blocks[static_cast<std::size_t>(pos)])) {
      ++hit;
    }
  }
  const double hit_rate = static_cast<double>(hit) / n_sent;
  EXPECT_NEAR(hit_rate, rho, 0.06);

  // A 20-sentinel challenge should detect with ~ 1-(0.9)^20 = 87.8%.
  const double want = detection_probability_iid(rho, 20);
  EXPECT_NEAR(want, 0.878, 0.01);
}

TEST(SentinelPor, ProviderCannotIdentifySentinels) {
  // Statistical indistinguishability smoke test: encrypted file blocks and
  // PRF sentinels should have the same byte-value distribution. Compare
  // mean byte values of the two populations.
  const SentinelPor por(SentinelParams{.n_sentinels = 500});
  Rng rng(6);
  const Bytes file(60000, 0x00);  // adversarially structured plaintext
  const auto enc = por.encode(file, 1, kMaster);

  std::set<std::uint64_t> sentinel_pos;
  for (unsigned j = 0; j < 500; ++j) {
    sentinel_pos.insert(por.sentinel_position(enc, kMaster, j));
  }
  double sum_s = 0, sum_f = 0;
  std::size_t n_s = 0, n_f = 0;
  for (std::uint64_t p = 0; p < enc.total_blocks; ++p) {
    const Bytes& blk = enc.blocks[static_cast<std::size_t>(p)];
    for (const std::uint8_t b : blk) {
      if (sentinel_pos.count(p)) {
        sum_s += b;
        ++n_s;
      } else {
        sum_f += b;
        ++n_f;
      }
    }
  }
  EXPECT_NEAR(sum_s / static_cast<double>(n_s),
              sum_f / static_cast<double>(n_f), 6.0);
}

TEST(SentinelPor, IndexValidation) {
  const SentinelPor por(SentinelParams{.n_sentinels = 10});
  Rng rng(7);
  const auto enc = por.encode(rng.next_bytes(1000), 1, kMaster);
  EXPECT_THROW(por.sentinel_position(enc, kMaster, 10), InvalidArgument);
  EXPECT_THROW(por.sentinel_value(1, kMaster, 10), InvalidArgument);
}

TEST(SentinelPor, WrongKeyWrongPositions) {
  const SentinelPor por(SentinelParams{.n_sentinels = 100});
  Rng rng(8);
  const auto enc = por.encode(rng.next_bytes(10000), 1, kMaster);
  unsigned agree = 0;
  for (unsigned j = 0; j < 100; ++j) {
    if (por.sentinel_position(enc, kMaster, j) ==
        por.sentinel_position(enc, bytes_of("other key"), j)) {
      ++agree;
    }
  }
  EXPECT_LT(agree, 5u);
}

}  // namespace
}  // namespace geoproof::por
