#include "crypto/sha256.h"

#include <cstring>
#include <string_view>

#include "common/ensure.h"
#include "common/env.h"

namespace rekey::crypto {

#if defined(REKEY_SHA_NI)
namespace detail {
// crypto/sha256_ni.cpp — compiled with the SHA/SSE4.1 ISA flags.
void compress_sha_ni(Sha256::State& state, const std::uint8_t* blocks,
                     std::size_t nblocks);
bool cpu_has_sha_extensions();
}  // namespace detail
#endif

namespace {

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

void compress_scalar(Sha256::State& state, const std::uint8_t* blocks,
                     std::size_t nblocks) {
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::uint8_t* block = blocks + 64 * blk;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(block[4 * i]) << 24 |
             static_cast<std::uint32_t>(block[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(block[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

using CompressFn = void (*)(Sha256::State&, const std::uint8_t*, std::size_t);

CompressFn resolve_compress_path() {
#if defined(REKEY_SHA_NI)
  // REKEY_SIMD=scalar forces the reference path (same convention as the
  // FEC kernels); any other value keeps autodetection — the ISA names it
  // takes (ssse3/avx2/neon) say nothing about the SHA extension.
  const auto env = rekey::env::raw("REKEY_SIMD");
  const bool force_scalar = env.has_value() && *env == "scalar";
  if (!force_scalar && detail::cpu_has_sha_extensions())
    return detail::compress_sha_ni;
#endif
  return compress_scalar;
}

}  // namespace

void Sha256::compress(State& state, const std::uint8_t* blocks,
                      std::size_t nblocks) {
  static const CompressFn active = resolve_compress_path();
  active(state, blocks, nblocks);
}

Sha256::Sha256() : state_(kInitialState) {}

Sha256::Sha256(const State& state, std::uint64_t blocks_done)
    : state_(state), total_bytes_(blocks_done * 64) {}

// The snapshot digest feeds the whole tree blob through here, so like
// compress_sha_ni it starts on a cache line of its own.
[[gnu::aligned(64)]] void Sha256::update(std::span<const std::uint8_t> data) {
  REKEY_ENSURE(!finished_);
  total_bytes_ += data.size();
  std::size_t off = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    off = take;
    if (buffered_ == buffer_.size()) {
      compress(state_, buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  if (off + 64 <= data.size()) {
    const std::size_t nblocks = (data.size() - off) / 64;
    compress(state_, data.data() + off, nblocks);
    off += nblocks * 64;
  }
  if (off < data.size()) {
    std::memcpy(buffer_.data(), data.data() + off, data.size() - off);
    buffered_ = data.size() - off;
  }
}

Sha256::Digest Sha256::finish() {
  REKEY_ENSURE(!finished_);
  finished_ = true;
  const std::uint64_t bit_len = total_bytes_ * 8;
  // Padding: 0x80, zeros, 64-bit big-endian length.
  std::uint8_t pad[72] = {0x80};
  const std::size_t rem = static_cast<std::size_t>(total_bytes_ % 64);
  const std::size_t pad_len = (rem < 56) ? (56 - rem) : (120 - rem);
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i)
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  finished_ = false;  // allow the two internal updates below
  update({pad, pad_len});
  update({len_be, 8});
  finished_ = true;

  Digest d;
  for (int i = 0; i < 8; ++i) {
    d[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    d[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    d[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    d[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return d;
}

Sha256::Digest Sha256::hash(std::span<const std::uint8_t> data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

}  // namespace rekey::crypto
