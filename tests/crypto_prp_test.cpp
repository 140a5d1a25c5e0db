#include "crypto/prp.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <vector>

#include "common/bytes.hpp"
#include "common/errors.hpp"

namespace geoproof::crypto {
namespace {

class PrpDomainTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrpDomainTest, IsBijection) {
  const std::uint64_t n = GetParam();
  const BlockPermutation prp(bytes_of("prp test key"), n);
  std::set<std::uint64_t> images;
  for (std::uint64_t x = 0; x < n; ++x) {
    const std::uint64_t y = prp.apply(x);
    ASSERT_LT(y, n);
    images.insert(y);
  }
  EXPECT_EQ(images.size(), n);  // injective on a finite set => bijective
}

TEST_P(PrpDomainTest, InvertRoundTrips) {
  const std::uint64_t n = GetParam();
  const BlockPermutation prp(bytes_of("prp test key"), n);
  for (std::uint64_t x = 0; x < n; ++x) {
    EXPECT_EQ(prp.invert(prp.apply(x)), x);
    EXPECT_EQ(prp.apply(prp.invert(x)), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, PrpDomainTest,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 5ULL, 16ULL,
                                           17ULL, 100ULL, 255ULL, 256ULL,
                                           257ULL, 1000ULL, 4096ULL, 5000ULL));

class PrpBulkTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrpBulkTest, ApplyAllEqualsPointwiseApply) {
  const std::uint64_t n = GetParam();
  const BlockPermutation prp(bytes_of("bulk test key"), n);
  const std::vector<std::uint64_t> images = prp.apply_all();
  ASSERT_EQ(images.size(), n);
  for (std::uint64_t x = 0; x < n; ++x) {
    ASSERT_EQ(images[x], prp.apply(x)) << "x " << x;
  }
}

// 1-4 share the cover domain of 1-bit halves; 17 and 4097 sit just above a
// power of 4, where the cover domain is four times that power and cycle
// walks are longest; 74,945 is a 1 MiB POR file's permuted block count.
INSTANTIATE_TEST_SUITE_P(Domains, PrpBulkTest,
                         ::testing::Values(1ULL, 2ULL, 3ULL, 4ULL, 5ULL, 17ULL,
                                           4097ULL, 74945ULL));

TEST(BlockPermutation, ZeroDomainThrows) {
  EXPECT_THROW(BlockPermutation(bytes_of("k"), 0), InvalidArgument);
}

TEST(BlockPermutation, OutOfDomainThrows) {
  const BlockPermutation prp(bytes_of("k"), 10);
  EXPECT_THROW(prp.apply(10), InvalidArgument);
  EXPECT_THROW(prp.invert(10), InvalidArgument);
}

TEST(BlockPermutation, KeySensitivity) {
  const std::uint64_t n = 1024;
  const BlockPermutation a(bytes_of("key-a"), n);
  const BlockPermutation b(bytes_of("key-b"), n);
  std::size_t same = 0;
  for (std::uint64_t x = 0; x < n; ++x) {
    if (a.apply(x) == b.apply(x)) ++same;
  }
  // Two random permutations of 1024 agree on ~1 point on average.
  EXPECT_LT(same, 10u);
}

TEST(BlockPermutation, Deterministic) {
  const BlockPermutation a(bytes_of("key"), 500);
  const BlockPermutation b(bytes_of("key"), 500);
  for (std::uint64_t x = 0; x < 500; ++x) {
    EXPECT_EQ(a.apply(x), b.apply(x));
  }
}

TEST(BlockPermutation, NotIdentity) {
  const BlockPermutation prp(bytes_of("key"), 1000);
  std::size_t fixed = 0;
  for (std::uint64_t x = 0; x < 1000; ++x) {
    if (prp.apply(x) == x) ++fixed;
  }
  // A random permutation of 1000 has ~1 fixed point on average.
  EXPECT_LT(fixed, 10u);
}

TEST(BlockPermutation, LargeDomainSpotChecks) {
  // Can't enumerate 2^40, but invert(apply(x)) == x must hold pointwise.
  const std::uint64_t n = (1ULL << 40) + 12345;
  const BlockPermutation prp(bytes_of("large domain"), n);
  for (std::uint64_t x : {std::uint64_t{0}, std::uint64_t{1},
                          std::uint64_t{999999999}, n - 1, n / 2}) {
    const std::uint64_t y = prp.apply(x);
    ASSERT_LT(y, n);
    EXPECT_EQ(prp.invert(y), x);
  }
}

TEST(BlockPermutation, UniformishSpread) {
  // Images of a small interval should scatter across the domain, not
  // cluster: check that the mean image is near n/2.
  const std::uint64_t n = 100000;
  const BlockPermutation prp(bytes_of("spread"), n);
  double sum = 0;
  const int samples = 2000;
  for (int i = 0; i < samples; ++i) {
    sum += static_cast<double>(prp.apply(static_cast<std::uint64_t>(i)));
  }
  const double mean = sum / samples;
  EXPECT_NEAR(mean, n / 2.0, n * 0.05);
}

}  // namespace
}  // namespace geoproof::crypto
