#include "fec/matrix.h"

#include <algorithm>

#include "common/ensure.h"
#include "fec/gf256.h"
#include "fec/gf256_simd.h"

namespace rekey::fec {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0) {
  REKEY_ENSURE(rows > 0 && cols > 0);
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

std::uint8_t& Matrix::at(std::size_t r, std::size_t c) {
  REKEY_ENSURE(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::uint8_t Matrix::at(std::size_t r, std::size_t c) const {
  REKEY_ENSURE(r < rows_ && c < cols_);
  return data_[r * cols_ + c];
}

std::uint8_t* Matrix::row(std::size_t r) {
  REKEY_ENSURE(r < rows_);
  return data_.data() + r * cols_;
}

std::optional<Matrix> Matrix::inverted() const {
  REKEY_ENSURE(rows_ == cols_);
  const std::size_t n = rows_;
  Matrix a = *this;
  Matrix inv = identity(n);

  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot.
    std::size_t pivot = col;
    while (pivot < n && a.at(pivot, col) == 0) ++pivot;
    if (pivot == n) return std::nullopt;
    if (pivot != col) {
      std::swap_ranges(a.row(pivot), a.row(pivot) + n, a.row(col));
      std::swap_ranges(inv.row(pivot), inv.row(pivot) + n, inv.row(col));
    }
    // Normalize the pivot row (in-place region scale: dst == src is a
    // supported aliasing mode of the kernels).
    const std::uint8_t p = a.at(col, col);
    if (p != 1) {
      const std::uint8_t pinv = GF256::inv(p);
      mul_region(a.row(col), a.row(col), n, pinv);
      mul_region(inv.row(col), inv.row(col), n, pinv);
    }
    // Eliminate the column everywhere else, a whole row per pass.
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const std::uint8_t f = a.at(r, col);
      if (f == 0) continue;
      addmul_region(a.row(r), a.row(col), n, f);
      addmul_region(inv.row(r), inv.row(col), n, f);
    }
  }
  return inv;
}

}  // namespace rekey::fec
