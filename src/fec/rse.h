// Systematic Reed-Solomon erasure coder (RSE) in the style of Rizzo '97.
//
// A block of k equal-length data packets is extended with parity packets;
// any k of the (data + parity) packets reconstruct the block (MDS). Parity
// rows come from a Cauchy matrix over GF(2^8), whose square submatrices are
// all nonsingular, so the systematic generator [I; C] is MDS by
// construction. Up to 256 - k distinct parity packets can be generated per
// block, which comfortably covers the protocol's multi-round reactive
// parities (fresh parity indices every round).
//
// Cost model (relied upon by experiment F8/A4): encoding one parity packet
// costs Theta(k * packet_size), i.e. per-parity time linear in block size.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace rekey::fec {

// The largest block size k a code supports.
inline constexpr int kMaxBlockSize = 128;

struct Shard {
  // index < k: data packet #index; index >= k: parity packet #(index - k).
  int index = 0;
  Bytes payload;
};

class RseCoder {
 public:
  explicit RseCoder(int k);

  int k() const { return k_; }
  int max_parity() const { return 256 - k_; }

  // Parity packet #parity_index (0-based) over the k data packets, which
  // must all have equal size.
  Bytes encode_one(std::span<const Bytes> data, int parity_index) const;

  // Same, into a caller-owned buffer of exactly the packet size —
  // the allocation-free form the server's block encode path uses.
  void encode_one_into(std::span<const Bytes> data, int parity_index,
                       std::span<std::uint8_t> out) const;

  // Reconstruct the k data packets from any >= k distinct shards.
  // Returns nullopt if fewer than k distinct shard indices are present.
  std::optional<std::vector<Bytes>> decode(
      std::span<const Shard> shards) const;

 private:
  std::uint8_t coeff(int parity_index, int data_index) const;

  int k_;
};

}  // namespace rekey::fec
