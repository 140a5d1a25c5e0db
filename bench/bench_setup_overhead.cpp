// Experiment E1 — §V-A / §V-B(a): setup-phase storage overhead and speed.
//
// The paper's 2 GB example: ℓ_B = 128 bits, (255,223) RS (+14.3%), 5-block
// segments with 20-bit MACs, total "about 16.5%". This bench measures the
// actual expansion at several file sizes (byte-aligned tags make it +18.6%;
// the bit-packed ideal is +17.9%), reprints the paper's block arithmetic for
// the 2 GB file, and measures stage throughput (google-benchmark).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>

#include "common/rng.hpp"
#include "crypto/aes_ctr.hpp"
#include "crypto/prp.hpp"
#include "crypto/sha256.hpp"
#include "crypto/signature.hpp"
#include "ecc/block_code.hpp"
#include "por/encoder.hpp"

namespace {

using namespace geoproof;
using namespace geoproof::por;

const Bytes kMaster = bytes_of("bench master key");

void print_overhead_table() {
  std::printf("\n=== E1: setup-phase expansion (paper §V-A example) ===\n");
  std::printf("\nPaper arithmetic for 2 GB: b = 2^27 blocks; RS -> +14.35%%; "
              "MAC (20-bit/segment) -> +3.1%% bit-packed; paper quotes "
              "~16.5%% total.\n");
  // Exact block arithmetic at paper scale (no data is materialised).
  {
    const PorParams p;
    const std::uint64_t b = 1ull << 27;  // 2 GiB / 16 B
    const ecc::ChunkCodec codec(p.ecc_params());
    const std::uint64_t bprime = codec.encoded_blocks(b);
    const std::uint64_t v = p.blocks_per_segment;
    const std::uint64_t n_perm = (bprime + v - 1) / v * v;
    const std::uint64_t segments = n_perm / v;
    const double stored =
        static_cast<double>(segments) * p.segment_bytes();
    std::printf("  exact: b' = %llu encoded blocks (paper rounds 1.14b = "
                "153,008,209), %llu segments, expansion %.4f\n",
                static_cast<unsigned long long>(bprime),
                static_cast<unsigned long long>(segments),
                stored / static_cast<double>(b * 16));
  }

  std::printf("\n%10s %14s %14s %12s %14s %12s\n", "file", "segments",
              "stored bytes", "expansion", "ideal(bits)", "encode MB/s");
  const PorParams p;  // paper geometry
  const PorEncoder encoder(p);
  Rng rng(1);
  for (const std::size_t size : {64u << 10, 256u << 10, 1u << 20, 4u << 20}) {
    const Bytes file = rng.next_bytes(size);
    const auto start = std::chrono::steady_clock::now();
    const EncodedFile ef = encoder.encode(file, 1, kMaster);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::printf("%9zuK %14llu %14llu %11.4f %14.4f %12.2f\n", size >> 10,
                static_cast<unsigned long long>(ef.n_segments),
                static_cast<unsigned long long>(ef.stored_bytes()),
                ef.expansion(), (255.0 / 223.0) * (660.0 / 640.0),
                static_cast<double>(size) / 1e6 / secs);
  }
  std::printf("\nSegment wire size: %zu bytes (paper: 660 bits = 82.5 B, "
              "byte-aligned here to 83 B).\n\n",
              p.segment_bytes());
}

void BM_Sha256Throughput(benchmark::State& state) {
  Rng rng(2);
  const Bytes data = rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256Throughput)->Arg(4096)->Arg(65536);

/// One compress_blocks call over range(1) blocks, through the portable
/// scalar body (range(0) = 0) or the CPUID-dispatched one (range(0) = 1).
void BM_Sha256Compress(benchmark::State& state) {
  const bool dispatched = state.range(0) != 0;
  const auto blocks = static_cast<std::size_t>(state.range(1));
  Rng rng(7);
  const Bytes data = rng.next_bytes(64 * blocks);
  crypto::detail::Sha256State h{};
  for (auto _ : state) {
    if (dispatched) {
      crypto::detail::compress_blocks(h, data.data(), blocks);
    } else {
      crypto::detail::compress_blocks_scalar(h, data.data(), blocks);
    }
    benchmark::DoNotOptimize(h);
  }
  state.SetLabel(dispatched && crypto::detail::has_sha_ni() ? "sha-ni"
                                                            : "scalar");
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_Sha256Compress)->ArgsProduct({{0, 1}, {1, 16}});

/// Full key generation: 2^range(0) WOTS keypairs plus the Merkle tree.
void BM_MerkleKeygen(benchmark::State& state) {
  const auto height = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    crypto::MerkleSigner signer(bytes_of("bench signer seed"), height);
    benchmark::DoNotOptimize(signer.public_key());
  }
}
BENCHMARK(BM_MerkleKeygen)->Arg(8)->Unit(benchmark::kMillisecond);

/// One Merkle signature over a 512-byte message; a fresh height-8
/// signer (built off the clock) replaces each exhausted one.
void BM_MerkleSign(benchmark::State& state) {
  Rng rng(8);
  const Bytes message = rng.next_bytes(512);
  auto signer = std::make_unique<crypto::MerkleSigner>(
      bytes_of("bench signer seed"), 8);
  for (auto _ : state) {
    if (signer->signatures_remaining() == 0) {
      state.PauseTiming();
      signer = std::make_unique<crypto::MerkleSigner>(
          bytes_of("bench signer seed"), 8);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(signer->sign(message));
  }
}
BENCHMARK(BM_MerkleSign)->Unit(benchmark::kMicrosecond);

void BM_MerkleVerify(benchmark::State& state) {
  Rng rng(9);
  const Bytes message = rng.next_bytes(512);
  crypto::MerkleSigner signer(bytes_of("bench signer seed"), 8);
  const crypto::MerkleSignature sig = signer.sign(message);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::merkle_verify(signer.public_key(), message, sig));
  }
}
BENCHMARK(BM_MerkleVerify)->Unit(benchmark::kMicrosecond);

void BM_AesCtrThroughput(benchmark::State& state) {
  Rng rng(3);
  Bytes data = rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  const crypto::AesCtr ctr(Bytes(16, 0x42), Bytes(12, 0x01));
  for (auto _ : state) {
    ctr.xcrypt_at(0, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AesCtrThroughput)->Arg(4096)->Arg(65536);

void BM_RsChunkEncode(benchmark::State& state) {
  Rng rng(4);
  const ecc::ChunkCodec codec;
  const Bytes data = rng.next_bytes(223 * 16);  // one full chunk
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(data));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_RsChunkEncode);

void BM_PrpApply(benchmark::State& state) {
  const crypto::BlockPermutation prp(bytes_of("bench"), 1u << 20);
  std::uint64_t x = 0;
  for (auto _ : state) {
    x = prp.apply(x);
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_PrpApply);

/// The whole-domain permutation at range(0) blocks (74,945 is a 1 MiB POR
/// file's permuted block count), round-function table included.
void BM_PrpApplyAll(benchmark::State& state) {
  const crypto::BlockPermutation prp(
      bytes_of("bench"), static_cast<std::uint64_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(prp.apply_all());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PrpApplyAll)->Arg(74945)->Unit(benchmark::kMillisecond);

void BM_FullEncode(benchmark::State& state) {
  PorParams p;
  const PorEncoder encoder(p);
  Rng rng(5);
  const Bytes file =
      rng.next_bytes(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(encoder.encode(file, 1, kMaster));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
// 1 MiB is the file the geobench fleet_audit prover encodes at start-up.
BENCHMARK(BM_FullEncode)->Arg(256 << 10)->Arg(1 << 20);

void BM_Extract(benchmark::State& state) {
  PorParams p;
  const PorEncoder encoder(p);
  const PorExtractor extractor(p);
  Rng rng(6);
  const Bytes file = rng.next_bytes(256 << 10);
  const EncodedFile ef = encoder.encode(file, 1, kMaster);
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.extract(ef, kMaster));
  }
  state.SetBytesProcessed(state.iterations() * (256 << 10));
}
BENCHMARK(BM_Extract);

}  // namespace

int main(int argc, char** argv) {
  print_overhead_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
