// Known-answer tests from FIPS 180-4 / NIST examples, plus streaming
// behaviour checks, run through the dispatched Sha256 and through each
// compression body (portable scalar and SHA-NI) directly.
#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/errors.hpp"
#include "common/rng.hpp"

namespace geoproof::crypto {
namespace {

std::string hex_digest(const Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_digest(Sha256::hash({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_digest(Sha256::hash(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  const auto msg =
      bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  EXPECT_EQ(hex_digest(Sha256::hash(msg)),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_digest(h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, StreamingMatchesOneShot) {
  const Bytes msg = bytes_of("The quick brown fox jumps over the lazy dog");
  const Digest oneshot = Sha256::hash(msg);
  // Absorb in awkward chunk sizes crossing block boundaries.
  for (std::size_t chunk : {1u, 3u, 7u, 13u, 63u, 64u, 65u}) {
    Sha256 h;
    std::size_t off = 0;
    while (off < msg.size()) {
      const std::size_t take = std::min(chunk, msg.size() - off);
      h.update(BytesView(msg.data() + off, take));
      off += take;
    }
    EXPECT_EQ(h.finalize(), oneshot) << "chunk size " << chunk;
  }
}

TEST(Sha256, ExactBlockBoundaryLengths) {
  // Lengths around the 64-byte block / 56-byte padding boundary all hash
  // without error and produce distinct digests.
  Digest prev{};
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const Bytes msg(len, 0x5a);
    const Digest d = Sha256::hash(msg);
    EXPECT_NE(d, prev);
    prev = d;
  }
}

TEST(Sha256, ResetAllowsReuse) {
  Sha256 h;
  h.update(bytes_of("abc"));
  (void)h.finalize();
  h.reset();
  h.update(bytes_of("abc"));
  EXPECT_EQ(hex_digest(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, UpdateAfterFinalizeThrows) {
  Sha256 h;
  (void)h.finalize();
  EXPECT_THROW(h.update(bytes_of("x")), CryptoError);
}

TEST(Sha256, DoubleFinalizeThrows) {
  Sha256 h;
  (void)h.finalize();
  EXPECT_THROW(h.finalize(), CryptoError);
}

TEST(Sha256, Hash2EqualsConcatenation) {
  const Bytes a = bytes_of("foo"), b = bytes_of("bar");
  EXPECT_EQ(Sha256::hash2(a, b), Sha256::hash(bytes_of("foobar")));
}

TEST(Sha256, DigestBytesCopies) {
  const Digest d = Sha256::hash(bytes_of("abc"));
  const Bytes b = digest_bytes(d);
  ASSERT_EQ(b.size(), kSha256DigestSize);
  EXPECT_TRUE(std::equal(b.begin(), b.end(), d.begin()));
}

using Body = void (*)(detail::Sha256State&, const std::uint8_t*, std::size_t);

// FIPS 180-4 §5.1.1 padding plus the §5.3.3 initial state, driving `body`
// directly. The padded blocks sit `misalign` bytes into their buffer, and
// `runs` (when given) cuts them into random multi-block calls; otherwise
// the whole message goes in one call.
Digest hash_with(Body body, BytesView msg, std::size_t misalign = 0,
                 Rng* runs = nullptr) {
  Bytes padded(misalign, 0xee);
  padded.insert(padded.end(), msg.begin(), msg.end());
  padded.push_back(0x80);
  while ((padded.size() - misalign) % 64 != 56) padded.push_back(0);
  const std::uint64_t bits = std::uint64_t{msg.size()} * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
  detail::Sha256State state = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                               0x1f83d9ab, 0x5be0cd19};
  const std::uint8_t* p = padded.data() + misalign;
  std::size_t blocks = (padded.size() - misalign) / 64;
  while (blocks > 0) {
    const std::size_t run = runs ? 1 + runs->next_below(blocks) : blocks;
    body(state, p, run);
    p += 64 * run;
    blocks -= run;
  }
  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    store_be32(std::span<std::uint8_t>(out.data() + 4 * i, 4), state[i]);
  }
  return out;
}

struct Vector {
  Bytes msg;
  const char* digest;
};

std::vector<Vector> fips_vectors() {
  return {
      {{}, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {bytes_of("abc"),
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {bytes_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {bytes_of("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"),
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {Bytes(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
}

void expect_fips_vectors(Body body) {
  for (const Vector& v : fips_vectors()) {
    EXPECT_EQ(hex_digest(hash_with(body, v.msg)), v.digest)
        << "length " << v.msg.size();
    EXPECT_EQ(hex_digest(hash_with(body, v.msg, 3)), v.digest)
        << "length " << v.msg.size() << ", unaligned";
  }
}

#define REQUIRE_SHA_NI()                                             \
  if (!detail::has_sha_ni()) {                                       \
    GTEST_SKIP() << "this CPU lacks SHA-NI (CPUID.7.0:EBX[29] or "   \
                    "SSSE3/SSE4.1); only the scalar body can run";   \
  }

TEST(Sha256Bodies, ScalarMatchesFipsVectors) {
  expect_fips_vectors(detail::compress_blocks_scalar);
}

TEST(Sha256Bodies, ShaNiMatchesFipsVectors) {
  REQUIRE_SHA_NI();
  expect_fips_vectors(detail::compress_blocks_shani);
}

TEST(Sha256Bodies, ShaNiAgreesWithScalarOnRandomMessages) {
  REQUIRE_SHA_NI();
  Rng rng(21);
  for (std::size_t len = 0; len <= 1024; ++len) {
    const Bytes msg = rng.next_bytes(len);
    const std::size_t misalign = rng.next_below(16);
    Rng runs_a(len), runs_b(len);
    const Digest scalar =
        hash_with(detail::compress_blocks_scalar, msg, misalign, &runs_a);
    const Digest shani =
        hash_with(detail::compress_blocks_shani, msg, misalign, &runs_b);
    ASSERT_EQ(hex_digest(shani), hex_digest(scalar)) << "length " << len;
    ASSERT_EQ(hex_digest(Sha256::hash(msg)), hex_digest(scalar))
        << "length " << len;
  }
}

TEST(Sha256Bodies, ShaNiAgreesWithScalarFromArbitraryStates) {
  REQUIRE_SHA_NI();
  Rng rng(22);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.next_below(8);
    const std::size_t misalign = rng.next_below(16);
    const Bytes buf = rng.next_bytes(misalign + 64 * n);
    detail::Sha256State scalar;
    for (auto& word : scalar) word = static_cast<std::uint32_t>(rng.next_u64());
    detail::Sha256State shani = scalar;
    detail::compress_blocks_scalar(scalar, buf.data() + misalign, n);
    detail::compress_blocks_shani(shani, buf.data() + misalign, n);
    ASSERT_EQ(shani, scalar) << "trial " << trial << ", " << n << " blocks";
  }
}

TEST(Sha256, RandomStreamingSplitsMatchOneShot) {
  Rng rng(24);
  for (int trial = 0; trial < 300; ++trial) {
    const Bytes msg = rng.next_bytes(rng.next_below(1025));
    Sha256 h;
    std::size_t off = 0;
    while (off < msg.size()) {
      const std::size_t take =
          std::min<std::size_t>(rng.next_below(200), msg.size() - off);
      h.update(BytesView(msg.data() + off, take));
      off += take;
    }
    ASSERT_EQ(h.finalize(), Sha256::hash(msg))
        << "trial " << trial << ", length " << msg.size();
  }
}

}  // namespace
}  // namespace geoproof::crypto
