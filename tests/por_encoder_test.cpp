#include "por/encoder.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"

namespace geoproof::por {
namespace {

const Bytes kMaster = bytes_of("master key for tests");

PorParams small_params() {
  // Small ECC geometry keeps exhaustive tests fast while preserving every
  // pipeline property; paper-scale geometry is exercised separately.
  PorParams p;
  p.ecc_data_blocks = 48;
  p.ecc_parity_blocks = 16;
  p.tag.tag_bits = 64;  // wide tags: negative checks must never collide
  return p;
}

TEST(PorParams, DefaultsMatchPaperExample) {
  const PorParams p;
  EXPECT_EQ(p.block_size, 16u);          // ℓ_B = 128 bits
  EXPECT_EQ(p.blocks_per_segment, 5u);   // v = 5
  EXPECT_EQ(p.tag.tag_bits, 20u);        // ℓ_τ = 20 bits
  EXPECT_EQ(p.ecc_data_blocks, 223u);
  EXPECT_EQ(p.ecc_parity_blocks, 32u);
  // Paper: segment = 5*128 + 20 = 660 bits; stored byte-aligned as 83 bytes
  // (5*16 + 3).
  EXPECT_EQ(p.segment_bytes(), 83u);
}

TEST(PorParams, ValidationCatchesNonsense) {
  PorParams p;
  p.block_size = 0;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = PorParams{};
  p.ecc_data_blocks = 300;
  EXPECT_THROW(p.validate(), InvalidArgument);
  p = PorParams{};
  p.tag.tag_bits = 0;
  EXPECT_THROW(p.validate(), InvalidArgument);
}

TEST(PorKeys, IndependentPerFile) {
  const auto a = PorKeys::derive(kMaster, 1, crypto::TagParams{});
  const auto b = PorKeys::derive(kMaster, 2, crypto::TagParams{});
  EXPECT_NE(a.enc_key, b.enc_key);
  EXPECT_NE(a.prp_key, b.prp_key);
  EXPECT_NE(a.mac_key, b.mac_key);
  EXPECT_NE(a.enc_nonce, b.enc_nonce);
}

TEST(PorKeys, DomainsSeparated) {
  const auto k = PorKeys::derive(kMaster, 1, crypto::TagParams{});
  const Bytes prp16(k.prp_key.begin(), k.prp_key.begin() + 16);
  const Bytes mac16(k.mac_key.begin(), k.mac_key.begin() + 16);
  EXPECT_NE(k.enc_key, prp16);
  EXPECT_NE(k.enc_key, mac16);
}

TEST(PorKeys, MacKeyKnownAnswer) {
  // Recorded from the portable scalar SHA-256: the HKDF/HMAC key schedule
  // must stay bit-identical whichever compress body runs underneath.
  const auto k = PorKeys::derive(kMaster, 7, crypto::TagParams{});
  EXPECT_EQ(to_hex(k.mac_key),
            "e8ad967fbfa09d5e36579ad795162cf2a668356e438e96e1df8adf7be043ffb0");
}

TEST(SampleChallenge, DistinctAndInRange) {
  Rng rng(1);
  const auto c = sample_challenge(1000, 100, rng);
  EXPECT_EQ(c.size(), 100u);
  std::set<std::uint64_t> uniq(c.begin(), c.end());
  EXPECT_EQ(uniq.size(), 100u);
  for (const auto i : c) EXPECT_LT(i, 1000u);
}

TEST(SampleChallenge, KAboveNReturnsAll) {
  Rng rng(2);
  const auto c = sample_challenge(10, 50, rng);
  EXPECT_EQ(c.size(), 10u);
}

TEST(SampleChallenge, CoversTheSpace) {
  // Across many draws every index should appear (uniformity smoke test).
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 300; ++i) {
    for (const auto v : sample_challenge(50, 5, rng)) seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 50u);
}

TEST(SampleChallenge, ZeroSegmentsThrows) {
  Rng rng(4);
  EXPECT_THROW(sample_challenge(0, 1, rng), InvalidArgument);
}

TEST(PorEncoder, EncodeShapes) {
  const PorEncoder enc(small_params());
  Rng rng(5);
  const Bytes file = rng.next_bytes(10000);
  const EncodedFile ef = enc.encode(file, 42, kMaster);

  EXPECT_EQ(ef.file_id, 42u);
  EXPECT_EQ(ef.original_size, 10000u);
  EXPECT_EQ(ef.n_data_blocks, 625u);  // ceil(10000/16)
  // 625 data blocks -> 13 full chunks of 48 + remainder 1; encoded =
  // 13*64 + (1+16) = 849.
  EXPECT_EQ(ef.n_encoded_blocks, 849u);
  // Padded to a multiple of v=5: 850.
  EXPECT_EQ(ef.n_permuted_blocks, 850u);
  EXPECT_EQ(ef.n_segments, 170u);
  EXPECT_EQ(ef.segments.size(), 170u);
  for (const Bytes& s : ef.segments) {
    EXPECT_EQ(s.size(), ef.segment_bytes);
  }
}

TEST(PorEncoder, EmptyFileStillStored) {
  const PorEncoder enc(small_params());
  const EncodedFile ef = enc.encode({}, 1, kMaster);
  EXPECT_GT(ef.n_segments, 0u);
  const PorExtractor ext(small_params());
  const auto rep = ext.extract(ef, kMaster);
  EXPECT_TRUE(rep.file.empty());
}

TEST(PorEncoder, CiphertextHidesPlaintext) {
  const PorEncoder enc(small_params());
  const Bytes file(4096, 0x00);  // highly structured plaintext
  const EncodedFile ef = enc.encode(file, 7, kMaster);
  // No stored segment should consist of the plaintext's zero blocks.
  std::size_t zero_heavy = 0;
  for (const Bytes& s : ef.segments) {
    std::size_t zeros = 0;
    for (const std::uint8_t b : s) zeros += b == 0;
    if (zeros > s.size() / 2) ++zero_heavy;
  }
  EXPECT_LT(zero_heavy, ef.segments.size() / 8);
}

TEST(PorEncoder, DeterministicForSameInputs) {
  const PorEncoder enc(small_params());
  const Bytes file = bytes_of("same file");
  const EncodedFile a = enc.encode(file, 3, kMaster);
  const EncodedFile b = enc.encode(file, 3, kMaster);
  EXPECT_EQ(a.segments, b.segments);
}

TEST(PorEncoder, FileIdChangesLayout) {
  const PorEncoder enc(small_params());
  const Bytes file = bytes_of("same file");
  const EncodedFile a = enc.encode(file, 3, kMaster);
  const EncodedFile b = enc.encode(file, 4, kMaster);
  EXPECT_NE(a.segments, b.segments);
}

TEST(SegmentVerifier, AcceptsAllGenuineSegments) {
  const PorEncoder enc(small_params());
  Rng rng(6);
  const EncodedFile ef = enc.encode(rng.next_bytes(5000), 9, kMaster);
  const SegmentVerifier ver(small_params(), kMaster, 9);
  for (std::uint64_t i = 0; i < ef.n_segments; ++i) {
    EXPECT_TRUE(ver.verify(i, ef.segments[static_cast<std::size_t>(i)]))
        << "segment " << i;
  }
}

TEST(SegmentVerifier, RejectsTamperedData) {
  const PorEncoder enc(small_params());
  Rng rng(7);
  const EncodedFile ef = enc.encode(rng.next_bytes(5000), 9, kMaster);
  const SegmentVerifier ver(small_params(), kMaster, 9);
  Bytes seg = ef.segments[3];
  seg[10] ^= 0x01;
  EXPECT_FALSE(ver.verify(3, seg));
}

TEST(SegmentVerifier, RejectsIndexSwap) {
  // Serving segment 5 in answer to challenge 3 must fail even though the
  // segment itself is genuine - the tag binds the index.
  const PorEncoder enc(small_params());
  Rng rng(8);
  const EncodedFile ef = enc.encode(rng.next_bytes(5000), 9, kMaster);
  const SegmentVerifier ver(small_params(), kMaster, 9);
  EXPECT_FALSE(ver.verify(3, ef.segments[5]));
}

TEST(SegmentVerifier, RejectsWrongSize) {
  const SegmentVerifier ver(small_params(), kMaster, 9);
  EXPECT_FALSE(ver.verify(0, Bytes(10, 0)));
  EXPECT_FALSE(ver.verify(0, Bytes(1000, 0)));
}

TEST(SegmentVerifier, RejectsCrossFileReplay) {
  // A segment from file 9 served for file 10 fails (fid in the MAC).
  const PorEncoder enc(small_params());
  Rng rng(9);
  const EncodedFile ef = enc.encode(rng.next_bytes(2000), 9, kMaster);
  const SegmentVerifier ver10(small_params(), kMaster, 10);
  EXPECT_FALSE(ver10.verify(0, ef.segments[0]));
}

TEST(PorExtractor, CleanRoundTrip) {
  const PorEncoder enc(small_params());
  const PorExtractor ext(small_params());
  Rng rng(10);
  for (const std::size_t size : {1u, 16u, 100u, 4096u, 10000u}) {
    const Bytes file = rng.next_bytes(size);
    const EncodedFile ef = enc.encode(file, size, kMaster);
    const auto rep = ext.extract(ef, kMaster);
    EXPECT_EQ(rep.file, file) << "size " << size;
    EXPECT_EQ(rep.bad_segments, 0u);
  }
}

TEST(PorExtractor, RepairsCorruptedSegments) {
  const PorEncoder enc(small_params());
  const PorExtractor ext(small_params());
  Rng rng(11);
  const Bytes file = rng.next_bytes(20000);
  EncodedFile ef = enc.encode(file, 1, kMaster);

  // Corrupt 6 whole segments (tags break -> their blocks become erasures;
  // erasure budget is 16 per chunk so scattered damage is repairable).
  for (const std::size_t idx : {3u, 20u, 50u, 80u, 120u, 200u}) {
    if (idx >= ef.segments.size()) continue;
    for (auto& b : ef.segments[idx]) b ^= 0xa5;
  }
  const auto rep = ext.extract(ef, kMaster);
  EXPECT_EQ(rep.file, file);
  EXPECT_GT(rep.bad_segments, 0u);
  EXPECT_GT(rep.repaired_symbols, 0u);
}

TEST(PorExtractor, MassiveCorruptionThrows) {
  const PorEncoder enc(small_params());
  const PorExtractor ext(small_params());
  Rng rng(12);
  const Bytes file = rng.next_bytes(20000);
  EncodedFile ef = enc.encode(file, 1, kMaster);
  // Destroy half of everything: far beyond any repair budget.
  for (std::size_t i = 0; i < ef.segments.size(); i += 2) {
    for (auto& b : ef.segments[i]) b ^= 0xff;
  }
  EXPECT_THROW(ext.extract(ef, kMaster), DecodeError);
}

TEST(PorExtractor, SilentBlockCorruptionStillRepaired) {
  // Corruption that keeps the tag boundary intact but flips data bytes is
  // caught by the tag check and repaired like any erasure.
  const PorEncoder enc(small_params());
  const PorExtractor ext(small_params());
  Rng rng(13);
  const Bytes file = rng.next_bytes(15000);
  EncodedFile ef = enc.encode(file, 2, kMaster);
  ef.segments[7][0] ^= 0x80;  // single-bit damage
  const auto rep = ext.extract(ef, kMaster);
  EXPECT_EQ(rep.file, file);
  EXPECT_EQ(rep.bad_segments, 1u);
}

TEST(PorExtractor, WrongKeyFails) {
  const PorEncoder enc(small_params());
  const PorExtractor ext(small_params());
  Rng rng(14);
  const Bytes file = rng.next_bytes(5000);
  const EncodedFile ef = enc.encode(file, 1, kMaster);
  // With the wrong master every tag fails; all blocks become erasures and
  // decoding cannot succeed.
  EXPECT_THROW(ext.extract(ef, bytes_of("wrong master")), Error);
}

TEST(PorEncoder, PaperScaleGeometryExpansion) {
  // Full (255,223) geometry on a ~1 MiB file. The paper quotes "about
  // 16.5%" total overhead with bit-packed 20-bit tags (660/640 bits per
  // segment). This implementation stores tags byte-aligned (3 bytes per
  // 80-byte segment), so the exact expansion is
  //   (255/223) * (83/80) = 1.1864  (+18.6%),
  // versus the bit-packed ideal (255/223) * (660/640) = 1.1793. Same
  // shape, slightly above the paper's rounded arithmetic; see
  // EXPERIMENTS.md E1 for the side-by-side.
  PorParams p;  // paper defaults
  const PorEncoder enc(p);
  Rng rng(15);
  const Bytes file = rng.next_bytes(1 << 20);
  const EncodedFile ef = enc.encode(file, 1, kMaster);
  EXPECT_NEAR(ef.expansion(), (255.0 / 223.0) * (83.0 / 80.0), 0.005);
  const PorExtractor ext(p);
  const auto rep = ext.extract(ef, kMaster);
  EXPECT_EQ(rep.file, file);
}

// SHA-256 over every stored segment (data || tag), in index order.
std::string segments_digest(const EncodedFile& ef) {
  crypto::Sha256 h;
  for (const Bytes& seg : ef.segments) h.update(seg);
  return to_hex(h.finalize());
}

TEST(PorEncoder, ProverFileBytesPinned) {
  // The file and master key exactly as ProverDaemon builds them from its
  // default seed: a stored-format pin for the whole set-up pipeline.
  Rng rng(0x6e0d);
  const Bytes file = rng.next_bytes(1 << 20);
  const Bytes master = rng.next_bytes(16);
  const EncodedFile ef = PorEncoder{PorParams{}}.encode(file, 1, master);
  EXPECT_EQ(ef.n_permuted_blocks, 74945u);
  EXPECT_EQ(segments_digest(ef),
            "4c1222df531defc6734a74c43c19ffeffdf52e79db18d92dc9f2fa3aa475a1ed");
}

TEST(PorEncoder, TinyFileBytesPinned) {
  // 20 bytes -> 2 data blocks + 1 parity -> 3 encoded -> 4 permuted
  // blocks: the PRP's Feistel halves are 1 bit wide.
  PorParams p;
  p.blocks_per_segment = 4;
  p.ecc_data_blocks = 2;
  p.ecc_parity_blocks = 1;
  Rng rng(16);
  const Bytes file = rng.next_bytes(20);
  const EncodedFile ef = PorEncoder(p).encode(file, 7, kMaster);
  EXPECT_EQ(ef.n_permuted_blocks, 4u);
  EXPECT_EQ(segments_digest(ef),
            "5a4204f8543910dcdb7eebfdb75e4f8d01b16bd15352217445e854649d4b254b");
  EXPECT_EQ(PorExtractor(p).extract(ef, kMaster).file, file);
}

}  // namespace
}  // namespace geoproof::por
