// Arithmetic over GF(2^8) with the AES/Rizzo polynomial x^8+x^4+x^3+x^2+1
// (0x11D), via exp/log tables. This is the field underlying the
// Reed-Solomon erasure coder used for PARITY packets. These scalar forms
// build the code's matrices; encode and decode run the vectorized region
// kernels of fec/gf256_simd.h.
#pragma once

#include <cstdint>

namespace rekey::fec {

class GF256 {
 public:
  static std::uint8_t add(std::uint8_t a, std::uint8_t b) {
    return a ^ b;  // characteristic 2: add == subtract == XOR
  }
  static std::uint8_t sub(std::uint8_t a, std::uint8_t b) { return a ^ b; }
  static std::uint8_t mul(std::uint8_t a, std::uint8_t b);
  static std::uint8_t inv(std::uint8_t a);  // a != 0
};

}  // namespace rekey::fec
