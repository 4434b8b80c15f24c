#include "fec/gf256.h"

#include <array>

#include "common/ensure.h"

namespace rekey::fec {

namespace {

struct Tables {
  // exp_ is doubled so mul can skip the mod-255 reduction.
  std::array<std::uint8_t, 512> exp_;
  std::array<std::uint16_t, 256> log_;

  Tables() {
    constexpr unsigned kPoly = 0x11D;
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      exp_[i] = static_cast<std::uint8_t>(x);
      log_[x] = static_cast<std::uint16_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= kPoly;
    }
    for (unsigned i = 255; i < 512; ++i) exp_[i] = exp_[i - 255];
    log_[0] = 0;  // unused; log(0) is rejected by callers
  }
};

const Tables& tables() {
  static const Tables t;
  return t;
}

}  // namespace

std::uint8_t GF256::mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = tables();
  return t.exp_[t.log_[a] + t.log_[b]];
}

std::uint8_t GF256::inv(std::uint8_t a) {
  REKEY_ENSURE_MSG(a != 0, "inverse of zero in GF(256)");
  const auto& t = tables();
  return t.exp_[255 - t.log_[a]];
}

}  // namespace rekey::fec
