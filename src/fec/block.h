// Block partitioning of a rekey message (paper §5).
//
// The h ENC packets of a rekey message are partitioned, in generation
// order, into blocks of exactly k packets. The last block is filled by
// duplicating earlier ENC packets of that block (flagged as duplicates so
// they join FEC decoding but not block-id estimation). The send order
// interleaves across blocks so two packets of the same block are separated
// by ~num_blocks send slots, decorrelating them under burst loss.
#pragma once

#include <cstddef>
#include <vector>

namespace rekey::fec {

struct BlockSlot {
  std::size_t block = 0;      // block id
  std::size_t seq = 0;        // sequence number within the block
  std::size_t packet = 0;     // index into the original ENC packet list
  bool duplicate = false;     // last-block filler
};

class BlockPartition {
 public:
  // Partition `num_packets` ENC packets into blocks of size k.
  // Requires num_packets >= 1 and k >= 1.
  BlockPartition(std::size_t num_packets, std::size_t k);

  std::size_t num_packets() const { return num_packets_; }
  std::size_t k() const { return k_; }
  std::size_t num_blocks() const { return num_blocks_; }
  // Total slots actually sent as ENC packets: num_blocks * k
  // (>= num_packets because of last-block duplicates).
  std::size_t num_slots() const { return num_blocks_ * k_; }

  // The slot at (block, seq) — resolves last-block duplicates.
  BlockSlot slot(std::size_t block, std::size_t seq) const;

  // All slots in interleaved send order:
  // (b0,s0), (b1,s0), ..., (bN,s0), (b0,s1), (b1,s1), ...
  std::vector<BlockSlot> interleaved_order() const;

  // All slots in sequential order (block by block), for comparison
  // experiments on burst-loss sensitivity.
  std::vector<BlockSlot> sequential_order() const;

 private:
  std::size_t num_packets_;
  std::size_t k_;
  std::size_t num_blocks_;
};

}  // namespace rekey::fec
