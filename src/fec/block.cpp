#include "fec/block.h"

#include "common/ensure.h"

namespace rekey::fec {

BlockPartition::BlockPartition(std::size_t num_packets, std::size_t k)
    : num_packets_(num_packets), k_(k), num_blocks_(0) {
  REKEY_ENSURE(num_packets >= 1);
  REKEY_ENSURE(k >= 1);
  num_blocks_ = (num_packets + k - 1) / k;
}

BlockSlot BlockPartition::slot(std::size_t block, std::size_t seq) const {
  REKEY_ENSURE(block < num_blocks_);
  REKEY_ENSURE(seq < k_);
  BlockSlot s;
  s.block = block;
  s.seq = seq;
  const std::size_t linear = block * k_ + seq;
  if (linear < num_packets_) {
    s.packet = linear;
    s.duplicate = false;
  } else {
    // Fill the last block by cycling over the real packets of that block.
    const std::size_t first = block * k_;
    const std::size_t real = num_packets_ - first;  // >= 1
    s.packet = first + (linear - num_packets_) % real;
    s.duplicate = true;
  }
  return s;
}

std::vector<BlockSlot> BlockPartition::interleaved_order() const {
  std::vector<BlockSlot> order;
  order.reserve(num_slots());
  for (std::size_t seq = 0; seq < k_; ++seq)
    for (std::size_t b = 0; b < num_blocks_; ++b)
      order.push_back(slot(b, seq));
  return order;
}

std::vector<BlockSlot> BlockPartition::sequential_order() const {
  std::vector<BlockSlot> order;
  order.reserve(num_slots());
  for (std::size_t b = 0; b < num_blocks_; ++b)
    for (std::size_t seq = 0; seq < k_; ++seq)
      order.push_back(slot(b, seq));
  return order;
}

}  // namespace rekey::fec
