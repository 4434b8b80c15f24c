// Dense matrices over GF(2^8) with Gaussian elimination, used to build and
// invert the decoding matrix of the Reed-Solomon erasure coder.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

namespace rekey::fec {

class Matrix {
 public:
  Matrix(std::size_t rows, std::size_t cols);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  std::uint8_t& at(std::size_t r, std::size_t c);
  std::uint8_t at(std::size_t r, std::size_t c) const;

  // Contiguous row r (cols() bytes) — rows are the unit the elimination
  // inner loops feed to the vectorized region kernels.
  std::uint8_t* row(std::size_t r);

  // Inverse via Gauss-Jordan; nullopt for singular matrices.
  std::optional<Matrix> inverted() const;

  friend bool operator==(const Matrix&, const Matrix&) = default;

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<std::uint8_t> data_;
};

}  // namespace rekey::fec
