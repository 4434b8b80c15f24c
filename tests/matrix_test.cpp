// Matrix algebra over GF(2^8): inversion, checked against the test
// support's reference product, and the Cauchy nonsingularity property the
// RSE coder's MDS guarantee rests on.
#include <gtest/gtest.h>

#include "common/ensure.h"
#include "common/rng.h"
#include "fec/gf256.h"
#include "fec/matrix.h"
#include "support/oracles.h"

namespace rekey::fec {
namespace {

Matrix random_matrix(std::size_t n, Rng& rng) {
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c)
      m.at(r, c) = static_cast<std::uint8_t>(rng.next_in(0, 255));
  return m;
}

TEST(Matrix, IdentityMultiplication) {
  Rng rng(1);
  const Matrix m = random_matrix(5, rng);
  const Matrix i = Matrix::identity(5);
  EXPECT_EQ(test::multiply(m, i), m);
  EXPECT_EQ(test::multiply(i, m), m);
}

TEST(Matrix, MultiplyDimensionCheck) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(test::multiply(a, b), EnsureError);
}

TEST(Matrix, SingularHasNoInverse) {
  Matrix m(3, 3);  // all zeros
  EXPECT_FALSE(m.inverted().has_value());
  // Two equal rows.
  Matrix n(2, 2);
  n.at(0, 0) = 7;
  n.at(0, 1) = 9;
  n.at(1, 0) = 7;
  n.at(1, 1) = 9;
  EXPECT_FALSE(n.inverted().has_value());
}

TEST(Matrix, InverseOfIdentity) {
  const Matrix i = Matrix::identity(4);
  const auto inv = i.inverted();
  ASSERT_TRUE(inv.has_value());
  EXPECT_EQ(*inv, i);
}

TEST(Matrix, InverseRoundtripRandom) {
  Rng rng(2);
  int invertible = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const Matrix m = random_matrix(6, rng);
    const auto inv = m.inverted();
    if (!inv.has_value()) continue;
    ++invertible;
    EXPECT_EQ(test::multiply(m, *inv), Matrix::identity(6));
    EXPECT_EQ(test::multiply(*inv, m), Matrix::identity(6));
  }
  // Random matrices over GF(256) are invertible with prob ~0.996.
  EXPECT_GT(invertible, 40);
}

TEST(Matrix, InverseRequiresSquare) {
  Matrix m(2, 3);
  EXPECT_THROW(m.inverted(), EnsureError);
}

class CauchySweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

// Every square submatrix of a Cauchy matrix is nonsingular; here we check
// the full k x k Cauchy blocks used by the coder for several (k, shift)
// choices.
TEST_P(CauchySweep, CauchyBlocksInvertible) {
  const auto [k, shift] = GetParam();
  Matrix m(static_cast<std::size_t>(k), static_cast<std::size_t>(k));
  for (int r = 0; r < k; ++r)
    for (int c = 0; c < k; ++c)
      m.at(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
          GF256::inv(GF256::add(static_cast<std::uint8_t>(k + shift + r),
                                static_cast<std::uint8_t>(c)));
  EXPECT_TRUE(m.inverted().has_value()) << "k=" << k << " shift=" << shift;
}

INSTANTIATE_TEST_SUITE_P(
    Blocks, CauchySweep,
    ::testing::Values(std::pair{1, 0}, std::pair{2, 0}, std::pair{5, 0},
                      std::pair{10, 0}, std::pair{10, 50}, std::pair{30, 0},
                      std::pair{50, 100}, std::pair{64, 0}));

}  // namespace
}  // namespace rekey::fec
