#include "ecc/block_code.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"

namespace geoproof::ecc {
namespace {

Bytes random_blocks(Rng& rng, std::size_t n_blocks, std::size_t bs = 16) {
  return rng.next_bytes(n_blocks * bs);
}

TEST(ChunkCodec, ParamsValidated) {
  EXPECT_THROW(ChunkCodec(ChunkCodeParams{.block_size = 0}), InvalidArgument);
  EXPECT_THROW(ChunkCodec(ChunkCodeParams{.data_blocks = 0}), InvalidArgument);
  EXPECT_THROW(ChunkCodec(ChunkCodeParams{.data_blocks = 230,
                                          .parity_blocks = 32}),
               InvalidArgument);  // 262 > 255
}

TEST(ChunkCodec, ExpansionMatchesPaper) {
  // §V-A: "increases the original size of the file by about 14%".
  const ChunkCodeParams p;
  EXPECT_NEAR(p.expansion(), 255.0 / 223.0, 1e-12);
  EXPECT_NEAR(p.expansion(), 1.1435, 5e-4);
}

TEST(ChunkCodec, EncodedBlockCounts) {
  const ChunkCodec codec;
  EXPECT_EQ(codec.encoded_blocks(0), 0u);
  EXPECT_EQ(codec.encoded_blocks(1), 33u);       // 1 data + 32 parity
  EXPECT_EQ(codec.encoded_blocks(223), 255u);    // one full chunk
  EXPECT_EQ(codec.encoded_blocks(224), 255u + 33u);
  EXPECT_EQ(codec.encoded_blocks(446), 510u);    // two full chunks
}

TEST(ChunkCodec, DataBlocksOfInvertsEncodedBlocks) {
  const ChunkCodec codec;
  for (std::size_t n : {0u, 1u, 10u, 222u, 223u, 224u, 446u, 500u, 1000u}) {
    EXPECT_EQ(codec.data_blocks_of(codec.encoded_blocks(n)), n) << n;
  }
  EXPECT_THROW(codec.data_blocks_of(10), InvalidArgument);  // <= parity
}

TEST(ChunkCodec, EncodeRejectsUnalignedData) {
  const ChunkCodec codec;
  EXPECT_THROW(codec.encode(Bytes(17, 0)), InvalidArgument);
  EXPECT_THROW(codec.decode(Bytes(33 * 16 + 1, 0)), InvalidArgument);
}

TEST(ChunkCodec, RoundTripNoErrors) {
  const ChunkCodec codec;
  Rng rng(1);
  for (std::size_t n_blocks : {1u, 5u, 223u, 224u, 300u, 446u, 500u}) {
    const Bytes data = random_blocks(rng, n_blocks);
    const Bytes enc = codec.encode(data);
    ASSERT_EQ(enc.size(), codec.encoded_blocks(n_blocks) * 16);
    // Systematic: the first chunk's data blocks appear verbatim.
    EXPECT_TRUE(std::equal(data.begin(),
                           data.begin() + static_cast<std::ptrdiff_t>(
                               std::min<std::size_t>(223, n_blocks) * 16),
                           enc.begin()));
    const auto dec = codec.decode(enc);
    EXPECT_EQ(dec.errata, 0u);
    EXPECT_EQ(dec.data, data);
  }
}

TEST(ChunkCodec, EncodeBytesPinned) {
  const ChunkCodec codec;
  Rng rng(18);
  // One full 223-block chunk, then a chunk plus a 37-block tail.
  const Bytes full = random_blocks(rng, 223);
  const Bytes tail = random_blocks(rng, 223 + 37);
  EXPECT_EQ(to_hex(crypto::Sha256::hash(codec.encode(full))),
            "8ed263b20e8821c1cd83571eb864ac076721056eeb8e32be52e8e8c33bb7c1b3");
  EXPECT_EQ(to_hex(crypto::Sha256::hash(codec.encode(tail))),
            "4a83d5fa34f1d1f97cbd31d8cd39f88ad8a7a074d2b148cd7dc8688dc9afb3c5");
}

TEST(ChunkCodec, CorruptedBlockFullyRepaired) {
  // One corrupted 16-byte block = one symbol error in each of 16 lanes.
  const ChunkCodec codec;
  Rng rng(2);
  const Bytes data = random_blocks(rng, 223);
  Bytes enc = codec.encode(data);
  for (std::size_t i = 0; i < 16; ++i) enc[40 * 16 + i] ^= 0xff;
  const auto dec = codec.decode(enc);
  EXPECT_EQ(dec.data, data);
  EXPECT_EQ(dec.errata, 16u);  // one per lane
}

class ChunkCodecCorruptBlocksTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChunkCodecCorruptBlocksTest, RepairsUpTo16CorruptBlocksPerChunk) {
  const unsigned bad = GetParam();
  const ChunkCodec codec;
  Rng rng(100 + bad);
  const Bytes data = random_blocks(rng, 223);
  Bytes enc = codec.encode(data);
  const std::size_t n_enc_blocks = enc.size() / 16;
  std::set<std::size_t> blocks;
  while (blocks.size() < bad) {
    blocks.insert(static_cast<std::size_t>(rng.next_below(n_enc_blocks)));
  }
  for (const std::size_t b : blocks) {
    for (std::size_t i = 0; i < 16; ++i) {
      enc[b * 16 + i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  const auto dec = codec.decode(enc);
  EXPECT_EQ(dec.data, data);
}

INSTANTIATE_TEST_SUITE_P(CorruptCounts, ChunkCodecCorruptBlocksTest,
                         ::testing::Values(1u, 2u, 4u, 8u, 12u, 16u));

TEST(ChunkCodec, SeventeenCorruptBlocksFails) {
  const ChunkCodec codec;
  Rng rng(3);
  const Bytes data = random_blocks(rng, 223);
  Bytes enc = codec.encode(data);
  for (std::size_t b = 0; b < 17; ++b) {
    for (std::size_t i = 0; i < 16; ++i) enc[b * 16 + i] ^= 0x5a;
  }
  EXPECT_THROW(codec.decode(enc), DecodeError);
}

TEST(ChunkCodec, ErasedBlocksUpTo32Repaired) {
  const ChunkCodec codec;
  Rng rng(4);
  const Bytes data = random_blocks(rng, 223);
  Bytes enc = codec.encode(data);
  std::vector<std::size_t> erased;
  for (std::size_t b = 10; b < 42; ++b) {  // 32 erased blocks
    erased.push_back(b);
    for (std::size_t i = 0; i < 16; ++i) {
      enc[b * 16 + i] = static_cast<std::uint8_t>(rng.next_below(256));
    }
  }
  const auto dec = codec.decode(enc, erased);
  EXPECT_EQ(dec.data, data);
}

TEST(ChunkCodec, ErrorsConfinedPerChunk) {
  // 16 corrupt blocks in each of two chunks: both repairable because the
  // budget is per-chunk, not global.
  const ChunkCodec codec;
  Rng rng(5);
  const Bytes data = random_blocks(rng, 446);
  Bytes enc = codec.encode(data);
  for (std::size_t b = 0; b < 16; ++b) {        // chunk 0
    for (std::size_t i = 0; i < 16; ++i) enc[b * 16 + i] ^= 0x11;
  }
  for (std::size_t b = 255; b < 271; ++b) {     // chunk 1
    for (std::size_t i = 0; i < 16; ++i) enc[b * 16 + i] ^= 0x22;
  }
  const auto dec = codec.decode(enc);
  EXPECT_EQ(dec.data, data);
}

TEST(ChunkCodec, PartialFinalChunkRepairs) {
  const ChunkCodec codec;
  Rng rng(6);
  const Bytes data = random_blocks(rng, 250);  // 223 + 27
  Bytes enc = codec.encode(data);
  // Corrupt blocks inside the short second chunk (starts at block 255).
  for (std::size_t b = 255; b < 255 + 10; ++b) {
    for (std::size_t i = 0; i < 16; ++i) enc[b * 16 + i] ^= 0x99;
  }
  const auto dec = codec.decode(enc);
  EXPECT_EQ(dec.data, data);
}

TEST(ChunkCodec, NonDefaultGeometry) {
  // Smaller chunks (faster tests elsewhere): RS(64, 48), 8-byte blocks.
  const ChunkCodec codec(ChunkCodeParams{
      .block_size = 8, .data_blocks = 48, .parity_blocks = 16});
  Rng rng(7);
  const Bytes data = random_blocks(rng, 100, 8);
  Bytes enc = codec.encode(data);
  for (std::size_t b = 0; b < 8; ++b) {
    for (std::size_t i = 0; i < 8; ++i) enc[b * 8 + i] ^= 0xc3;
  }
  const auto dec = codec.decode(enc);
  EXPECT_EQ(dec.data, data);
}

TEST(ChunkCodec, EmptyInput) {
  const ChunkCodec codec;
  EXPECT_TRUE(codec.encode({}).empty());
  const auto dec = codec.decode({});
  EXPECT_TRUE(dec.data.empty());
  EXPECT_EQ(dec.errata, 0u);
}

TEST(ChunkCodec, ErasureIndexValidated) {
  const ChunkCodec codec;
  Rng rng(8);
  const Bytes enc = codec.encode(random_blocks(rng, 10));
  const std::vector<std::size_t> bad = {enc.size() / 16};
  EXPECT_THROW(codec.decode(enc, bad), InvalidArgument);
}

}  // namespace
}  // namespace geoproof::ecc
