#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "common/errors.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define GEOPROOF_SHA256_X86 1
#endif

namespace geoproof::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// Pads the message's last `len` (< 64) bytes, which start at `block`, for a
// message of `total_len` bytes: 0x80, zeros, then the 8-byte big-endian bit
// length at the end of the first block if it fits after the 0x80, else of
// the second. Returns the number of blocks (1 or 2) to compress.
std::size_t pad_final(std::uint8_t* block, std::size_t len,
                      std::uint64_t total_len) {
  block[len++] = 0x80;
  const std::size_t blocks = len <= 56 ? 1 : 2;
  const std::size_t end = 64 * blocks;
  std::memset(block + len, 0, end - 8 - len);
  const std::uint64_t bits = total_len * 8;
  for (std::size_t i = 0; i < 8; ++i) {
    block[end - 8 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
  }
  return blocks;
}

Digest digest_of(const detail::Sha256State& state) {
  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    // One swapped word store each; a byte-at-a-time loop here gets
    // vectorised into a long shuffle sequence that costs more than the
    // SHA-NI rounds of a one-block message.
    std::uint32_t word = state[i];
    if constexpr (std::endian::native == std::endian::little) {
      word = __builtin_bswap32(word);
    }
    std::memcpy(out.data() + 4 * i, &word, sizeof word);
  }
  return out;
}

}  // namespace

namespace detail {

void compress_blocks_scalar(Sha256State& state, const std::uint8_t* p,
                            std::size_t n) {
  for (; n > 0; --n, p += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(p[4 * i]) << 24) |
             (static_cast<std::uint32_t>(p[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(p[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(p[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[static_cast<std::size_t>(i)] +
                               w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef GEOPROOF_SHA256_X86

// The SHA extensions keep the state as two vectors, ABEF and CDGH (lane 3
// first); sha256rnds2 runs two rounds from the low two W+K lanes, and
// sha256msg1/msg2 extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void compress_blocks_shani(
    Sha256State& state, const std::uint8_t* p, std::size_t n) {
  // Byte-swaps each 32-bit lane: the message words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i dcba =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));
  const __m128i hgfe =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; --n, p += 64) {
    const __m128i abef_in = abef, cdgh_in = cdgh;
    __m128i w[4];  // the last four schedule vectors, W[4g .. 4g+3] in w[g % 4]
    // Rounds 4g .. 4g+3 per pass; after unrolling every index is a constant.
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * g)),
            bswap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], four at once.
        __m128i m = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
        m = _mm_add_epi32(m,
                          _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
        w[g % 4] = _mm_sha256msg2_epu32(m, w[(g + 3) % 4]);
      }
      __m128i wk = _mm_add_epi32(
          w[g % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kK[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      wk = _mm_shuffle_epi32(wk, 0x0E);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]),
                   _mm_alignr_epi8(dchg, feba, 8));
}

bool has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & bit_SSSE3) == 0 || (ecx & bit_SSE4_1) == 0) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & bit_SHA) != 0;
}

#else

void compress_blocks_shani(Sha256State& state, const std::uint8_t* p,
                           std::size_t n) {
  compress_blocks_scalar(state, p, n);
}

bool has_sha_ni() { return false; }

#endif

void compress_blocks(Sha256State& state, const std::uint8_t* p,
                     std::size_t n) {
  using Body = void (*)(Sha256State&, const std::uint8_t*, std::size_t);
  static const Body body =
      has_sha_ni() ? compress_blocks_shani : compress_blocks_scalar;
  body(state, p, n);
}

}  // namespace detail

void Sha256::reset() {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buf_len_ = 0;
  total_len_ = 0;
  finalized_ = false;
}

void Sha256::update(BytesView data) {
  if (finalized_) throw CryptoError("Sha256::update after finalize");
  if (data.empty()) return;  // empty span may carry a null data() (UB in memcpy)
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t need = 64 - buf_len_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ < 64) return;
    detail::compress_blocks(h_, buf_.data(), 1);
    buf_len_ = 0;
  }
  const std::size_t blocks = (data.size() - off) / 64;
  if (blocks > 0) {
    detail::compress_blocks(h_, data.data() + off, blocks);
    off += 64 * blocks;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Digest Sha256::finalize() {
  if (finalized_) throw CryptoError("Sha256::finalize called twice");
  finalized_ = true;
  detail::compress_blocks(h_, buf_.data(),
                          pad_final(buf_.data(), buf_len_, total_len_));
  return digest_of(h_);
}

Digest Sha256::hash(BytesView data) {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

Digest Sha256::hash2(BytesView a, BytesView b) {
  Sha256 h;
  h.update(a);
  h.update(b);
  return h.finalize();
}

Bytes digest_bytes(const Digest& d) {
  return Bytes(d.begin(), d.end());
}

}  // namespace geoproof::crypto
