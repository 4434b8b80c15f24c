// SHA-256 (FIPS 180-4), implemented from scratch.
//
// Used by the key server for key derivation and (via HMAC) for packet
// integrity tags and the rekey-message authenticator that stands in for the
// paper's digital signature (see DESIGN.md §4).
//
// The compression function is runtime-dispatched like the FEC kernels
// (fec/gf256_simd.h): a SHA-NI path when the build and CPU support it,
// the portable scalar rounds otherwise, REKEY_SIMD=scalar forcing the
// latter. Both paths are exact FIPS 180-4 and produce identical digests;
// key derivation is the marking algorithm's dominant cost (one HMAC per
// fresh key), so this is a key-server hot path, not just a checksum.
#pragma once

#include <array>
#include <cstdint>
#include <span>

namespace rekey::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;
  // Internal chaining state after some number of whole 64-byte blocks.
  using State = std::array<std::uint32_t, 8>;
  // FIPS 180-4 §5.3.3 initial hash value (the state before any block).
  static constexpr State kInitialState = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                          0xa54ff53a, 0x510e527f, 0x9b05688c,
                                          0x1f83d9ab, 0x5be0cd19};

  Sha256();
  // Resume from a precomputed mid-state with `blocks_done` whole blocks
  // already absorbed (HMAC ipad/opad caching — see KeyGenerator).
  Sha256(const State& state, std::uint64_t blocks_done);

  void update(std::span<const std::uint8_t> data);
  Digest finish();  // may be called once; resets are not supported

  static Digest hash(std::span<const std::uint8_t> data);

  // Compress `nblocks` consecutive 64-byte blocks into `state` via the
  // active path. Exposed for mid-state precomputation.
  static void compress(State& state, const std::uint8_t* blocks,
                       std::size_t nblocks);

 private:
  State state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
  bool finished_ = false;
};

}  // namespace rekey::crypto
