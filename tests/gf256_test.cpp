// GF(2^8) field tests: axioms over parameter sweeps, the generator's
// order, and the region multiply-add (addmul_region) hot path.
#include <gtest/gtest.h>

#include "common/ensure.h"
#include "common/rng.h"
#include "fec/gf256.h"
#include "fec/gf256_simd.h"

namespace rekey::fec {
namespace {

TEST(GF256, AddIsXor) {
  EXPECT_EQ(GF256::add(0x55, 0xAA), 0xFF);
  EXPECT_EQ(GF256::add(0x13, 0x13), 0x00);
}

TEST(GF256, MulIdentityAndZero) {
  for (int a = 0; a < 256; ++a) {
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), 1),
              static_cast<std::uint8_t>(a));
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), 0), 0);
  }
}

TEST(GF256, MulCommutative) {
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_in(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.next_in(0, 255));
    EXPECT_EQ(GF256::mul(a, b), GF256::mul(b, a));
  }
}

TEST(GF256, MulAssociative) {
  Rng rng(2);
  for (int i = 0; i < 5000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_in(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.next_in(0, 255));
    const auto c = static_cast<std::uint8_t>(rng.next_in(0, 255));
    EXPECT_EQ(GF256::mul(GF256::mul(a, b), c),
              GF256::mul(a, GF256::mul(b, c)));
  }
}

TEST(GF256, Distributive) {
  Rng rng(3);
  for (int i = 0; i < 5000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_in(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.next_in(0, 255));
    const auto c = static_cast<std::uint8_t>(rng.next_in(0, 255));
    EXPECT_EQ(GF256::mul(a, GF256::add(b, c)),
              GF256::add(GF256::mul(a, b), GF256::mul(a, c)));
  }
}

TEST(GF256, EveryNonzeroHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto inv = GF256::inv(static_cast<std::uint8_t>(a));
    EXPECT_EQ(GF256::mul(static_cast<std::uint8_t>(a), inv), 1)
        << "a=" << a;
  }
}

TEST(GF256, InverseOfZeroThrows) {
  EXPECT_THROW(GF256::inv(0), EnsureError);
}

TEST(GF256, DivisionInvertsMultiplication) {
  // Division by b is multiplication by inv(b).
  Rng rng(4);
  for (int i = 0; i < 5000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_in(0, 255));
    const auto b = static_cast<std::uint8_t>(rng.next_in(1, 255));
    EXPECT_EQ(GF256::mul(GF256::mul(a, b), GF256::inv(b)), a);
  }
}

TEST(GF256, GeneratorHasFullOrder) {
  // alpha = 2 generates the multiplicative group: 255 distinct powers,
  // and the 255th is 1 again.
  std::vector<bool> seen(256, false);
  std::uint8_t v = 1;
  for (unsigned e = 0; e < 255; ++e) {
    EXPECT_FALSE(seen[v]) << "repeat at e=" << e;
    seen[v] = true;
    v = GF256::mul(v, 2);
  }
  EXPECT_FALSE(seen[0]);
  EXPECT_EQ(v, 1);
}

TEST(GF256, AddScaledMatchesScalarLoop) {
  Rng rng(6);
  std::vector<std::uint8_t> dst(257), src(257);
  for (auto& b : dst) b = static_cast<std::uint8_t>(rng.next_in(0, 255));
  for (auto& b : src) b = static_cast<std::uint8_t>(rng.next_in(0, 255));
  for (const std::uint8_t c : {0, 1, 2, 97, 255}) {
    auto expect = dst;
    for (std::size_t i = 0; i < expect.size(); ++i)
      expect[i] = GF256::add(expect[i],
                             GF256::mul(c, src[i]));
    auto got = dst;
    addmul_region(std::span<std::uint8_t>(got), src,
                  static_cast<std::uint8_t>(c));
    EXPECT_EQ(got, expect) << "c=" << int(c);
  }
}

TEST(GF256, AddScaledSizeMismatchThrows) {
  std::vector<std::uint8_t> a(4), b(5);
  EXPECT_THROW(addmul_region(std::span<std::uint8_t>(a), b, 3), EnsureError);
}

class GF256FieldSweep : public ::testing::TestWithParam<int> {};

TEST_P(GF256FieldSweep, RowOfMultiplicationTableIsPermutation) {
  const auto a = static_cast<std::uint8_t>(GetParam());
  std::vector<bool> seen(256, false);
  for (int b = 0; b < 256; ++b) {
    const auto v = GF256::mul(a, static_cast<std::uint8_t>(b));
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(NonzeroElements, GF256FieldSweep,
                         ::testing::Values(1, 2, 3, 5, 16, 97, 128, 254,
                                           255));

}  // namespace
}  // namespace rekey::fec
