#include "crypto/signature.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/errors.hpp"
#include "crypto/sha256.hpp"

namespace geoproof::crypto {
namespace {

TEST(Wots, SignVerifyRoundTrip) {
  const auto sk = wots_secret_key(bytes_of("seed"), 0);
  const Digest pk = wots_public_key(sk);
  const Digest msg = Sha256::hash(bytes_of("message"));
  const WotsSignature sig = wots_sign(sk, msg);
  EXPECT_EQ(wots_pk_from_signature(sig, msg), pk);
}

TEST(Wots, WrongMessageYieldsWrongKey) {
  const auto sk = wots_secret_key(bytes_of("seed"), 0);
  const Digest pk = wots_public_key(sk);
  const WotsSignature sig = wots_sign(sk, Sha256::hash(bytes_of("message")));
  EXPECT_NE(wots_pk_from_signature(sig, Sha256::hash(bytes_of("other"))), pk);
}

TEST(Wots, KeypairIndexSeparatesKeys) {
  const auto sk0 = wots_secret_key(bytes_of("seed"), 0);
  const auto sk1 = wots_secret_key(bytes_of("seed"), 1);
  EXPECT_NE(wots_public_key(sk0), wots_public_key(sk1));
}

TEST(Wots, SignatureHasExpectedShape) {
  const auto sk = wots_secret_key(bytes_of("seed"), 0);
  const WotsSignature sig = wots_sign(sk, Sha256::hash(bytes_of("m")));
  EXPECT_EQ(sig.size(), WotsParams::kLen);
}

TEST(MerkleSigner, SignVerify) {
  MerkleSigner signer(bytes_of("device seed"), 4);
  const Bytes msg = bytes_of("audit transcript");
  const MerkleSignature sig = signer.sign(msg);
  EXPECT_TRUE(merkle_verify(signer.public_key(), msg, sig));
}

TEST(MerkleSigner, RejectsTamperedMessage) {
  MerkleSigner signer(bytes_of("device seed"), 4);
  const MerkleSignature sig = signer.sign(bytes_of("audit transcript"));
  EXPECT_FALSE(merkle_verify(signer.public_key(), bytes_of("forged"), sig));
}

TEST(MerkleSigner, RejectsWrongPublicKey) {
  MerkleSigner a(bytes_of("seed-a"), 3);
  MerkleSigner b(bytes_of("seed-b"), 3);
  const Bytes msg = bytes_of("m");
  const MerkleSignature sig = a.sign(msg);
  EXPECT_FALSE(merkle_verify(b.public_key(), msg, sig));
}

TEST(MerkleSigner, AllLeavesUsable) {
  MerkleSigner signer(bytes_of("seed"), 3);  // 8 signatures
  const Bytes msg = bytes_of("m");
  for (int i = 0; i < 8; ++i) {
    const MerkleSignature sig = signer.sign(msg);
    EXPECT_EQ(sig.leaf_index, static_cast<std::uint32_t>(i));
    EXPECT_TRUE(merkle_verify(signer.public_key(), msg, sig));
  }
  EXPECT_EQ(signer.signatures_remaining(), 0u);
  EXPECT_THROW(signer.sign(msg), CryptoError);
}

TEST(MerkleSigner, RejectsTamperedAuthPath) {
  MerkleSigner signer(bytes_of("seed"), 4);
  const Bytes msg = bytes_of("m");
  MerkleSignature sig = signer.sign(msg);
  sig.auth_path[1][0] ^= 0x01;
  EXPECT_FALSE(merkle_verify(signer.public_key(), msg, sig));
}

TEST(MerkleSigner, RejectsTamperedWotsChain) {
  MerkleSigner signer(bytes_of("seed"), 4);
  const Bytes msg = bytes_of("m");
  MerkleSignature sig = signer.sign(msg);
  sig.wots[10][5] ^= 0xff;
  EXPECT_FALSE(merkle_verify(signer.public_key(), msg, sig));
}

TEST(MerkleSigner, RejectsWrongLeafIndex) {
  MerkleSigner signer(bytes_of("seed"), 4);
  const Bytes msg = bytes_of("m");
  MerkleSignature sig = signer.sign(msg);
  sig.leaf_index ^= 1;
  EXPECT_FALSE(merkle_verify(signer.public_key(), msg, sig));
}

TEST(MerkleSigner, RejectsOverflowedLeafIndex) {
  MerkleSigner signer(bytes_of("seed"), 2);
  const Bytes msg = bytes_of("m");
  MerkleSignature sig = signer.sign(msg);
  sig.leaf_index = 4;  // outside the 4-leaf tree
  EXPECT_FALSE(merkle_verify(signer.public_key(), msg, sig));
}

TEST(MerkleSigner, SerializeRoundTrip) {
  MerkleSigner signer(bytes_of("seed"), 5);
  const Bytes msg = bytes_of("serialise me");
  const MerkleSignature sig = signer.sign(msg);
  const Bytes wire = sig.serialize();
  const MerkleSignature back = MerkleSignature::deserialize(wire);
  EXPECT_EQ(back.leaf_index, sig.leaf_index);
  EXPECT_EQ(back.wots, sig.wots);
  EXPECT_EQ(back.auth_path, sig.auth_path);
  EXPECT_TRUE(merkle_verify(signer.public_key(), msg, back));
}

TEST(MerkleSigner, DeserializeRejectsGarbage) {
  EXPECT_THROW(MerkleSignature::deserialize(bytes_of("junk")), Error);
  // Valid signature truncated.
  MerkleSigner signer(bytes_of("seed"), 2);
  Bytes wire = signer.sign(bytes_of("m")).serialize();
  wire.resize(wire.size() - 5);
  EXPECT_THROW(MerkleSignature::deserialize(wire), Error);
}

TEST(MerkleSigner, HeightBounds) {
  EXPECT_THROW(MerkleSigner(bytes_of("s"), 0), InvalidArgument);
  EXPECT_THROW(MerkleSigner(bytes_of("s"), 21), InvalidArgument);
}

TEST(MerkleSigner, DistinctMessagesDistinctSignatures) {
  MerkleSigner signer(bytes_of("seed"), 3);
  const MerkleSignature s1 = signer.sign(bytes_of("m1"));
  const MerkleSignature s2 = signer.sign(bytes_of("m2"));
  EXPECT_NE(s1.leaf_index, s2.leaf_index);
  EXPECT_NE(s1.wots, s2.wots);
}

TEST(MerkleSigner, PublicKeyDeterministicFromSeed) {
  MerkleSigner a(bytes_of("same seed"), 3);
  MerkleSigner b(bytes_of("same seed"), 3);
  EXPECT_EQ(a.public_key(), b.public_key());
}

// Known answers recorded from the portable scalar SHA-256. They pin the
// bytes of keys and signatures across any change to the hash or key
// schedule underneath (hardware compress, cached HMAC keys).
std::string hex_of(const Digest& d) {
  return to_hex(BytesView(d.data(), d.size()));
}

TEST(SignatureKnownAnswer, MerklePublicKey) {
  const MerkleSigner signer(bytes_of("kat-seed"), 4);
  EXPECT_EQ(hex_of(signer.public_key()),
            "cb5a9ef0019f752a40e7836ad81af5d319c4cbb39c94d7d549d215f644b15506");
}

TEST(SignatureKnownAnswer, FirstAndLastLeafSignatures) {
  MerkleSigner signer(bytes_of("kat-seed"), 4);
  std::vector<std::string> serialized_hashes;
  for (int i = 0; i < 16; ++i) {
    serialized_hashes.push_back(
        hex_of(Sha256::hash(signer.sign(bytes_of("kat-message")).serialize())));
  }
  EXPECT_EQ(serialized_hashes.front(),
            "dd78389eb6c670cd6adc31b6bb08b7e0850014158379dc8bd4d6bcc261d589c5");
  EXPECT_EQ(serialized_hashes.back(),
            "93072296be3ca97a6b7b749c57887e353724ec37da53cf7e946a95309b33bb0a");
}

TEST(SignatureKnownAnswer, WotsSecretKeyChainStart) {
  EXPECT_EQ(hex_of(wots_secret_key(bytes_of("kat-seed"), 3)[0]),
            "2878a592e2ac8ecb4ad6662207dc2676c82de254d85722a2b6c610f44000a4ee");
}

}  // namespace
}  // namespace geoproof::crypto
