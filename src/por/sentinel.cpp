#include "por/sentinel.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "crypto/aes_ctr.hpp"
#include "crypto/hkdf.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prp.hpp"

namespace geoproof::por {

namespace {

struct SentinelKeys {
  Bytes enc_key, enc_nonce, prp_key, sentinel_key;
};

SentinelKeys derive_keys(BytesView master, std::uint64_t file_id) {
  Bytes info(8);
  store_be64(info, file_id);
  return SentinelKeys{
      crypto::hkdf(bytes_of("geoproof.sentinel.enc"), master, info, 16),
      crypto::hkdf(bytes_of("geoproof.sentinel.nonce"), master, info, 12),
      crypto::hkdf(bytes_of("geoproof.sentinel.prp"), master, info, 32),
      crypto::hkdf(bytes_of("geoproof.sentinel.val"), master, info, 32),
  };
}

Bytes sentinel_block(BytesView sentinel_key, unsigned j,
                     std::size_t block_size) {
  Bytes out;
  unsigned counter = 0;
  while (out.size() < block_size) {
    Bytes input(8);
    store_be32(std::span<std::uint8_t>(input.data(), 4), j);
    store_be32(std::span<std::uint8_t>(input.data() + 4, 4), counter++);
    const crypto::Digest d = crypto::prf(sentinel_key, "sentinel", input);
    append(out, BytesView(d.data(), d.size()));
  }
  out.resize(block_size);
  return out;
}

}  // namespace

SentinelPor::SentinelPor(SentinelParams params) : params_(params) {
  if (params_.block_size == 0) {
    throw InvalidArgument("SentinelPor: block_size == 0");
  }
  if (params_.n_sentinels == 0) {
    throw InvalidArgument("SentinelPor: need at least one sentinel");
  }
}

SentinelEncoded SentinelPor::encode(BytesView file, std::uint64_t file_id,
                                    BytesView master_key) const {
  const std::size_t bs = params_.block_size;
  const SentinelKeys keys = derive_keys(master_key, file_id);

  SentinelEncoded out;
  out.file_id = file_id;
  out.original_size = file.size();

  Bytes data(file.begin(), file.end());
  if (data.empty()) data.resize(bs, 0);
  if (data.size() % bs != 0) data.resize((data.size() / bs + 1) * bs, 0);
  out.n_file_blocks = data.size() / bs;

  const crypto::AesCtr ctr(keys.enc_key, keys.enc_nonce);
  ctr.xcrypt_at(0, data);

  out.total_blocks = out.n_file_blocks + params_.n_sentinels;
  const std::vector<std::uint64_t> image =
      crypto::BlockPermutation(keys.prp_key, out.total_blocks).apply_all();
  out.blocks.resize(static_cast<std::size_t>(out.total_blocks));

  for (std::uint64_t q = 0; q < out.n_file_blocks; ++q) {
    const std::uint64_t p = image[static_cast<std::size_t>(q)];
    out.blocks[static_cast<std::size_t>(p)].assign(
        data.begin() + static_cast<std::ptrdiff_t>(q * bs),
        data.begin() + static_cast<std::ptrdiff_t>((q + 1) * bs));
  }
  for (unsigned j = 0; j < params_.n_sentinels; ++j) {
    const std::uint64_t p =
        image[static_cast<std::size_t>(out.n_file_blocks + j)];
    out.blocks[static_cast<std::size_t>(p)] =
        sentinel_block(keys.sentinel_key, j, bs);
  }
  return out;
}

std::uint64_t SentinelPor::sentinel_position(const SentinelEncoded& meta,
                                             BytesView master_key,
                                             unsigned j) const {
  if (j >= params_.n_sentinels) {
    throw InvalidArgument("sentinel_position: index out of range");
  }
  const SentinelKeys keys = derive_keys(master_key, meta.file_id);
  const crypto::BlockPermutation prp(keys.prp_key, meta.total_blocks);
  return prp.apply(meta.n_file_blocks + j);
}

Bytes SentinelPor::sentinel_value(std::uint64_t file_id, BytesView master_key,
                                  unsigned j) const {
  if (j >= params_.n_sentinels) {
    throw InvalidArgument("sentinel_value: index out of range");
  }
  const SentinelKeys keys = derive_keys(master_key, file_id);
  return sentinel_block(keys.sentinel_key, j, params_.block_size);
}

bool SentinelPor::check(const SentinelEncoded& meta, BytesView master_key,
                        unsigned j, BytesView returned_block) const {
  const Bytes expected = sentinel_value(meta.file_id, master_key, j);
  return constant_time_equal(expected, returned_block);
}

Bytes SentinelPor::decode(const SentinelEncoded& stored,
                          BytesView master_key) const {
  const std::size_t bs = params_.block_size;
  const SentinelKeys keys = derive_keys(master_key, stored.file_id);
  const std::vector<std::uint64_t> image =
      crypto::BlockPermutation(keys.prp_key, stored.total_blocks).apply_all();

  Bytes data(static_cast<std::size_t>(stored.n_file_blocks) * bs, 0);
  for (std::uint64_t q = 0; q < stored.n_file_blocks; ++q) {
    const std::uint64_t p = image[static_cast<std::size_t>(q)];
    const Bytes& blk = stored.blocks[static_cast<std::size_t>(p)];
    if (blk.size() != bs) {
      throw DecodeError("SentinelPor::decode: malformed block");
    }
    std::copy(blk.begin(), blk.end(),
              data.begin() + static_cast<std::ptrdiff_t>(q * bs));
  }
  const crypto::AesCtr ctr(keys.enc_key, keys.enc_nonce);
  ctr.xcrypt_at(0, data);
  data.resize(static_cast<std::size_t>(stored.original_size));
  return data;
}

}  // namespace geoproof::por
