#include "crypto/signature.hpp"

#include <cstring>

#include "common/errors.hpp"
#include "common/serialize.hpp"
#include "crypto/hmac.hpp"

namespace geoproof::crypto {

namespace {

// Domain-separated chain step: value_{step+1} = H(tag || chain || step || value).
// Tagging with the absolute step index lets a verifier continue a chain from
// any intermediate value and land on the same end point.
Digest chain_step(unsigned chain_index, unsigned step, const Digest& value) {
  std::uint8_t prefix[8];
  prefix[0] = 0x57;  // 'W'
  prefix[1] = 0x4f;  // 'O'
  prefix[2] = static_cast<std::uint8_t>(chain_index >> 8);
  prefix[3] = static_cast<std::uint8_t>(chain_index);
  prefix[4] = static_cast<std::uint8_t>(step);
  prefix[5] = prefix[6] = prefix[7] = 0;
  return Sha256::hash2(BytesView(prefix, sizeof prefix),
                       BytesView(value.data(), value.size()));
}

Digest chain(unsigned chain_index, unsigned from_step, unsigned steps,
             Digest value) {
  for (unsigned s = 0; s < steps; ++s) {
    value = chain_step(chain_index, from_step + s, value);
  }
  return value;
}

// Message digest -> base-w digits plus checksum digits.
std::vector<std::uint8_t> digits_of(const Digest& msg) {
  std::vector<std::uint8_t> digits;
  digits.reserve(WotsParams::kLen);
  for (std::uint8_t byte : msg) {
    digits.push_back(static_cast<std::uint8_t>(byte >> 4));
    digits.push_back(static_cast<std::uint8_t>(byte & 0x0f));
  }
  unsigned checksum = 0;
  for (std::uint8_t d : digits) checksum += (WotsParams::kW - 1) - d;
  // 3 base-16 checksum digits, most significant first.
  digits.push_back(static_cast<std::uint8_t>((checksum >> 8) & 0x0f));
  digits.push_back(static_cast<std::uint8_t>((checksum >> 4) & 0x0f));
  digits.push_back(static_cast<std::uint8_t>(checksum & 0x0f));
  return digits;
}

Digest node_hash(const Digest& left, const Digest& right) {
  Sha256 h;
  const std::uint8_t tag = 0x4d;  // 'M'
  h.update(BytesView(&tag, 1));
  h.update(BytesView(left.data(), left.size()));
  h.update(BytesView(right.data(), right.size()));
  return h.finalize();
}

Digest leaf_hash(const Digest& wots_pk) {
  Sha256 h;
  const std::uint8_t tag = 0x4c;  // 'L'
  h.update(BytesView(&tag, 1));
  h.update(BytesView(wots_pk.data(), wots_pk.size()));
  return h.finalize();
}

}  // namespace

std::vector<Digest> wots_secret_key(BytesView seed,
                                    std::uint32_t keypair_index) {
  const HmacKey seed_key(seed);
  std::vector<Digest> sk;
  sk.reserve(WotsParams::kLen);
  for (unsigned i = 0; i < WotsParams::kLen; ++i) {
    std::uint8_t info[8];
    store_be32(std::span<std::uint8_t>(info, 4), keypair_index);
    store_be32(std::span<std::uint8_t>(info + 4, 4), i);
    sk.push_back(prf(seed_key, "wots-sk", BytesView(info, sizeof info)));
  }
  return sk;
}

Digest wots_public_key(const std::vector<Digest>& secret_key) {
  if (secret_key.size() != WotsParams::kLen) {
    throw InvalidArgument("wots_public_key: wrong secret key size");
  }
  Sha256 h;
  for (unsigned i = 0; i < WotsParams::kLen; ++i) {
    const Digest end = chain(i, 0, WotsParams::kW - 1, secret_key[i]);
    h.update(BytesView(end.data(), end.size()));
  }
  return h.finalize();
}

WotsSignature wots_sign(const std::vector<Digest>& secret_key,
                        const Digest& msg_digest) {
  if (secret_key.size() != WotsParams::kLen) {
    throw InvalidArgument("wots_sign: wrong secret key size");
  }
  const auto digits = digits_of(msg_digest);
  WotsSignature sig;
  sig.reserve(WotsParams::kLen);
  for (unsigned i = 0; i < WotsParams::kLen; ++i) {
    sig.push_back(chain(i, 0, digits[i], secret_key[i]));
  }
  return sig;
}

Digest wots_pk_from_signature(const WotsSignature& sig,
                              const Digest& msg_digest) {
  if (sig.size() != WotsParams::kLen) {
    throw InvalidArgument("wots_pk_from_signature: wrong signature size");
  }
  const auto digits = digits_of(msg_digest);
  Sha256 h;
  for (unsigned i = 0; i < WotsParams::kLen; ++i) {
    const Digest end =
        chain(i, digits[i], (WotsParams::kW - 1) - digits[i], sig[i]);
    h.update(BytesView(end.data(), end.size()));
  }
  return h.finalize();
}

Bytes MerkleSignature::serialize() const {
  ByteWriter w;
  w.u32(leaf_index);
  w.u16(static_cast<std::uint16_t>(wots.size()));
  for (const Digest& d : wots) w.raw(BytesView(d.data(), d.size()));
  w.u16(static_cast<std::uint16_t>(auth_path.size()));
  for (const Digest& d : auth_path) w.raw(BytesView(d.data(), d.size()));
  return std::move(w).take();
}

MerkleSignature MerkleSignature::deserialize(BytesView data) {
  ByteReader r(data);
  MerkleSignature sig;
  sig.leaf_index = r.u32();
  const std::uint16_t nw = r.u16();
  if (nw != WotsParams::kLen) {
    throw SerializeError("MerkleSignature: bad WOTS length");
  }
  sig.wots.resize(nw);
  for (auto& d : sig.wots) {
    const Bytes b = r.raw(kSha256DigestSize);
    std::memcpy(d.data(), b.data(), d.size());
  }
  const std::uint16_t np = r.u16();
  if (np > 32) throw SerializeError("MerkleSignature: auth path too long");
  sig.auth_path.resize(np);
  for (auto& d : sig.auth_path) {
    const Bytes b = r.raw(kSha256DigestSize);
    std::memcpy(d.data(), b.data(), d.size());
  }
  r.expect_done();
  return sig;
}

MerkleSigner::MerkleSigner(Bytes seed, unsigned height)
    : seed_(std::move(seed)), height_(height) {
  if (height_ == 0 || height_ > 20) {
    throw InvalidArgument("MerkleSigner: height must be in [1, 20]");
  }
  const std::size_t n_leaves = std::size_t{1} << height_;
  levels_.resize(height_ + 1);
  levels_[0].resize(n_leaves);
  for (std::size_t i = 0; i < n_leaves; ++i) {
    const auto sk = wots_secret_key(seed_, static_cast<std::uint32_t>(i));
    levels_[0][i] = leaf_hash(wots_public_key(sk));
  }
  for (unsigned lvl = 1; lvl <= height_; ++lvl) {
    const auto& below = levels_[lvl - 1];
    auto& here = levels_[lvl];
    here.resize(below.size() / 2);
    for (std::size_t i = 0; i < here.size(); ++i) {
      here[i] = node_hash(below[2 * i], below[2 * i + 1]);
    }
  }
  root_ = levels_[height_][0];
}

std::uint32_t MerkleSigner::signatures_remaining() const {
  return static_cast<std::uint32_t>((std::uint64_t{1} << height_) - next_leaf_);
}

MerkleSignature MerkleSigner::sign(BytesView message) {
  if (signatures_remaining() == 0) {
    throw CryptoError("MerkleSigner: one-time keys exhausted");
  }
  const std::uint32_t leaf = next_leaf_++;
  const Digest msg_digest = Sha256::hash(message);
  const auto sk = wots_secret_key(seed_, leaf);

  MerkleSignature sig;
  sig.leaf_index = leaf;
  sig.wots = wots_sign(sk, msg_digest);
  sig.auth_path.reserve(height_);
  std::size_t idx = leaf;
  for (unsigned lvl = 0; lvl < height_; ++lvl) {
    sig.auth_path.push_back(levels_[lvl][idx ^ 1]);
    idx >>= 1;
  }
  return sig;
}

bool merkle_verify(const Digest& root, BytesView message,
                   const MerkleSignature& sig) {
  if (sig.wots.size() != WotsParams::kLen) return false;
  const Digest msg_digest = Sha256::hash(message);
  Digest node = leaf_hash(wots_pk_from_signature(sig.wots, msg_digest));
  std::size_t idx = sig.leaf_index;
  for (const Digest& sibling : sig.auth_path) {
    node = (idx & 1) ? node_hash(sibling, node) : node_hash(node, sibling);
    idx >>= 1;
  }
  if (idx != 0) return false;  // leaf index exceeds tree size
  return constant_time_equal(BytesView(node.data(), node.size()),
                             BytesView(root.data(), root.size()));
}

}  // namespace geoproof::crypto
