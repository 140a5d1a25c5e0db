#include "por/encoder.hpp"

#include <algorithm>

#include "common/errors.hpp"
#include "crypto/aes_ctr.hpp"
#include "crypto/prp.hpp"
#include "ecc/block_code.hpp"

namespace geoproof::por {

PorEncoder::PorEncoder(PorParams params) : params_(params) {
  params_.validate();
}

EncodedFile PorEncoder::encode(BytesView file, std::uint64_t file_id,
                               BytesView master_key) const {
  const std::size_t bs = params_.block_size;
  const PorKeys keys = PorKeys::derive(master_key, file_id, params_.tag);

  EncodedFile out;
  out.file_id = file_id;
  out.original_size = file.size();
  out.segment_bytes = params_.segment_bytes();

  // Step 1: block split, zero-padded to a whole block.
  Bytes data(file.begin(), file.end());
  if (data.empty()) data.resize(bs, 0);  // an empty file still stores a block
  if (data.size() % bs != 0) data.resize((data.size() / bs + 1) * bs, 0);
  out.n_data_blocks = data.size() / bs;

  // Step 2: per-chunk Reed-Solomon -> F'.
  const ecc::ChunkCodec codec(params_.ecc_params());
  Bytes fprime = codec.encode(data);
  out.n_encoded_blocks = fprime.size() / bs;

  // Step 3: encrypt -> F''.
  const crypto::AesCtr ctr(keys.enc_key, keys.enc_nonce);
  ctr.xcrypt_at(0, fprime);  // in place; fprime now holds F''

  // Step 4: PRP block reordering -> F''', each block copied straight to
  // its place in a v-block segment. The block count is first padded to a
  // whole number of segments so step 5 never splits a block.
  const std::uint64_t v = params_.blocks_per_segment;
  const std::uint64_t n_perm =
      (out.n_encoded_blocks + v - 1) / v * v;
  fprime.resize(static_cast<std::size_t>(n_perm) * bs, 0);
  out.n_permuted_blocks = n_perm;
  out.n_segments = n_perm / v;
  const std::size_t seg_data = static_cast<std::size_t>(v) * bs;
  out.segments.resize(static_cast<std::size_t>(out.n_segments));
  for (Bytes& seg : out.segments) {
    seg.reserve(out.segment_bytes);  // the tag is appended in step 5
    seg.resize(seg_data);
  }

  const std::vector<std::uint64_t> image =
      crypto::BlockPermutation(keys.prp_key, n_perm).apply_all();
  for (std::uint64_t q = 0; q < n_perm; ++q) {
    const std::uint64_t p = image[static_cast<std::size_t>(q)];
    std::copy_n(fprime.begin() + static_cast<std::ptrdiff_t>(q * bs), bs,
                out.segments[static_cast<std::size_t>(p / v)].begin() +
                    static_cast<std::ptrdiff_t>((p % v) * bs));
  }

  // Step 5: MAC each segment -> F~.
  const crypto::SegmentMac mac(keys.mac_key, params_.tag);
  for (std::uint64_t i = 0; i < out.n_segments; ++i) {
    Bytes& seg = out.segments[static_cast<std::size_t>(i)];
    append(seg, mac.tag(seg, i, file_id));
  }
  return out;
}

SegmentVerifier::SegmentVerifier(PorParams params, BytesView master_key,
                                 std::uint64_t file_id)
    : params_(params),
      file_id_(file_id),
      mac_(PorKeys::derive(master_key, file_id, params.tag).mac_key,
           params.tag) {
  params_.validate();
}

bool SegmentVerifier::verify(std::uint64_t index,
                             BytesView segment_with_tag) const {
  if (segment_with_tag.size() != params_.segment_bytes()) return false;
  const std::size_t nd = data_bytes();
  const BytesView data = segment_with_tag.subspan(0, nd);
  const BytesView tag = segment_with_tag.subspan(nd);
  return mac_.verify(data, index, file_id_, tag);
}

PorExtractor::PorExtractor(PorParams params) : params_(params) {
  params_.validate();
}

ExtractReport PorExtractor::extract(const EncodedFile& stored,
                                    BytesView master_key) const {
  const std::size_t bs = params_.block_size;
  const std::uint64_t v = params_.blocks_per_segment;
  const PorKeys keys = PorKeys::derive(master_key, stored.file_id, params_.tag);
  if (stored.segments.size() != stored.n_segments) {
    throw InvalidArgument("extract: segment count mismatch");
  }

  ExtractReport report;

  // Undo step 5: strip tags, flag failed segments.
  const crypto::SegmentMac mac(keys.mac_key, params_.tag);
  const std::size_t seg_data = static_cast<std::size_t>(v) * bs;
  Bytes fppp(static_cast<std::size_t>(stored.n_permuted_blocks) * bs, 0);
  std::vector<bool> block_suspect(
      static_cast<std::size_t>(stored.n_permuted_blocks), false);
  for (std::uint64_t i = 0; i < stored.n_segments; ++i) {
    const Bytes& seg = stored.segments[static_cast<std::size_t>(i)];
    bool ok = seg.size() == params_.segment_bytes();
    if (ok) {
      const BytesView data(seg.data(), seg_data);
      const BytesView tag(seg.data() + seg_data, seg.size() - seg_data);
      ok = mac.verify(data, i, stored.file_id, tag);
    }
    if (!ok) {
      ++report.bad_segments;
      for (std::uint64_t b = i * v; b < (i + 1) * v; ++b) {
        block_suspect[static_cast<std::size_t>(b)] = true;
      }
      continue;  // leave zeros; these blocks become erasures
    }
    std::copy_n(seg.begin(), seg_data,
                fppp.begin() + static_cast<std::ptrdiff_t>(i * seg_data));
  }

  // Undo step 4: inverse permutation (F'''[apply(q)] == F''[q]).
  const std::vector<std::uint64_t> image =
      crypto::BlockPermutation(keys.prp_key, stored.n_permuted_blocks)
          .apply_all();
  Bytes fpp(static_cast<std::size_t>(stored.n_encoded_blocks) * bs);
  std::vector<std::size_t> erasures;
  for (std::uint64_t q = 0; q < stored.n_encoded_blocks; ++q) {
    const std::uint64_t p = image[static_cast<std::size_t>(q)];
    std::copy_n(fppp.begin() + static_cast<std::ptrdiff_t>(p * bs), bs,
                fpp.begin() + static_cast<std::ptrdiff_t>(q * bs));
    if (block_suspect[static_cast<std::size_t>(p)]) {
      erasures.push_back(static_cast<std::size_t>(q));
    }
  }

  // Undo step 3: decrypt.
  const crypto::AesCtr ctr(keys.enc_key, keys.enc_nonce);
  ctr.xcrypt_at(0, fpp);  // fpp now holds F'

  // Undo step 2: RS repair + decode.
  const ecc::ChunkCodec codec(params_.ecc_params());
  auto decoded = codec.decode(fpp, erasures);
  report.repaired_symbols = decoded.errata;

  // Undo step 1: drop padding.
  if (decoded.data.size() < stored.original_size) {
    throw DecodeError("extract: decoded data shorter than original");
  }
  decoded.data.resize(static_cast<std::size_t>(stored.original_size));
  report.file = std::move(decoded.data);
  return report;
}

}  // namespace geoproof::por
