#include "ecc/block_code.hpp"

#include <algorithm>

#include "common/errors.hpp"

namespace geoproof::ecc {

ChunkCodec::ChunkCodec(ChunkCodeParams params)
    : params_(params),
      rs_(static_cast<unsigned>(params.parity_blocks)) {
  if (params_.block_size == 0) {
    throw InvalidArgument("ChunkCodec: block_size must be > 0");
  }
  if (params_.data_blocks == 0) {
    throw InvalidArgument("ChunkCodec: data_blocks must be > 0");
  }
  if (params_.chunk_blocks() > 255) {
    throw InvalidArgument("ChunkCodec: chunk exceeds RS(255) length");
  }
}

std::size_t ChunkCodec::encoded_blocks(std::size_t n_data_blocks) const {
  if (n_data_blocks == 0) return 0;
  const std::size_t full = n_data_blocks / params_.data_blocks;
  const std::size_t rem = n_data_blocks % params_.data_blocks;
  return full * params_.chunk_blocks() +
         (rem > 0 ? rem + params_.parity_blocks : 0);
}

std::size_t ChunkCodec::data_blocks_of(std::size_t n_encoded) const {
  if (n_encoded == 0) return 0;
  const std::size_t full = n_encoded / params_.chunk_blocks();
  const std::size_t rem = n_encoded % params_.chunk_blocks();
  if (rem == 0) return full * params_.data_blocks;
  if (rem <= params_.parity_blocks) {
    throw InvalidArgument("ChunkCodec: invalid encoded length");
  }
  return full * params_.data_blocks + (rem - params_.parity_blocks);
}

Bytes ChunkCodec::encode(BytesView data) const {
  const std::size_t bs = params_.block_size;
  if (data.size() % bs != 0) {
    throw InvalidArgument("ChunkCodec::encode: data not block-aligned");
  }
  const std::size_t n_blocks = data.size() / bs;
  const std::size_t np = params_.parity_blocks;
  Bytes out(encoded_blocks(n_blocks) * bs);

  // One byte lane's message and parity, reused for every lane and chunk.
  Bytes lane_msg(params_.data_blocks);
  Bytes lane_parity(np);
  std::size_t block = 0;
  auto dst = out.begin();
  while (block < n_blocks) {
    const std::size_t chunk_data =
        std::min(params_.data_blocks, n_blocks - block);
    // Copy the chunk's data blocks verbatim (systematic code).
    dst = std::copy_n(data.begin() + static_cast<std::ptrdiff_t>(block * bs),
                      chunk_data * bs, dst);
    // Parity blocks, one byte lane at a time.
    for (std::size_t lane = 0; lane < bs; ++lane) {
      for (std::size_t b = 0; b < chunk_data; ++b) {
        lane_msg[b] = data[(block + b) * bs + lane];
      }
      rs_.parity(BytesView(lane_msg.data(), chunk_data), lane_parity);
      for (std::size_t p = 0; p < np; ++p) {
        dst[static_cast<std::ptrdiff_t>(p * bs + lane)] = lane_parity[p];
      }
    }
    dst += static_cast<std::ptrdiff_t>(np * bs);
    block += chunk_data;
  }
  return out;
}

ChunkCodec::DecodeResult ChunkCodec::decode(
    BytesView encoded, std::span<const std::size_t> erased_blocks) const {
  const std::size_t bs = params_.block_size;
  if (encoded.size() % bs != 0) {
    throw InvalidArgument("ChunkCodec::decode: data not block-aligned");
  }
  const std::size_t n_encoded = encoded.size() / bs;
  const std::size_t n_data = data_blocks_of(n_encoded);
  for (const std::size_t e : erased_blocks) {
    if (e >= n_encoded) {
      throw InvalidArgument("ChunkCodec::decode: erasure index out of range");
    }
  }

  DecodeResult result;
  result.data.reserve(n_data * bs);

  std::size_t enc_block = 0;   // encoded-block cursor
  std::size_t data_left = n_data;
  Bytes codeword;
  std::vector<std::size_t> chunk_erasures;
  while (data_left > 0) {
    const std::size_t chunk_data = std::min(params_.data_blocks, data_left);
    const std::size_t chunk_len = chunk_data + params_.parity_blocks;

    chunk_erasures.clear();
    for (const std::size_t e : erased_blocks) {
      if (e >= enc_block && e < enc_block + chunk_len) {
        chunk_erasures.push_back(e - enc_block);
      }
    }

    // Repair each byte lane of the chunk.
    Bytes chunk(encoded.begin() + static_cast<std::ptrdiff_t>(enc_block * bs),
                encoded.begin() +
                    static_cast<std::ptrdiff_t>((enc_block + chunk_len) * bs));
    for (std::size_t lane = 0; lane < bs; ++lane) {
      codeword.resize(chunk_len);
      for (std::size_t b = 0; b < chunk_len; ++b) {
        codeword[b] = chunk[b * bs + lane];
      }
      result.errata += rs_.decode(codeword, chunk_erasures);
      for (std::size_t b = 0; b < chunk_len; ++b) {
        chunk[b * bs + lane] = codeword[b];
      }
    }
    // Emit the repaired data blocks.
    result.data.insert(result.data.end(), chunk.begin(),
                       chunk.begin() + static_cast<std::ptrdiff_t>(chunk_data * bs));

    enc_block += chunk_len;
    data_left -= chunk_data;
  }
  return result;
}

}  // namespace geoproof::ecc
