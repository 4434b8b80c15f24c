// Block partitioning tests: slot math, last-block duplication, and the
// interleaved send order.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/ensure.h"
#include "fec/block.h"

namespace rekey::fec {
namespace {

TEST(BlockPartition, ExactMultiple) {
  const BlockPartition p(20, 10);
  EXPECT_EQ(p.num_blocks(), 2u);
  EXPECT_EQ(p.num_slots(), 20u);
  for (std::size_t b = 0; b < 2; ++b)
    for (std::size_t s = 0; s < 10; ++s) {
      const BlockSlot slot = p.slot(b, s);
      EXPECT_FALSE(slot.duplicate);
      EXPECT_EQ(slot.packet, b * 10 + s);
    }
}

TEST(BlockPartition, LastBlockDuplicates) {
  const BlockPartition p(13, 5);  // 3 blocks, last has 3 real + 2 dups
  EXPECT_EQ(p.num_blocks(), 3u);
  EXPECT_EQ(p.num_slots(), 15u);
  EXPECT_FALSE(p.slot(2, 2).duplicate);
  const BlockSlot d0 = p.slot(2, 3);
  const BlockSlot d1 = p.slot(2, 4);
  EXPECT_TRUE(d0.duplicate);
  EXPECT_TRUE(d1.duplicate);
  // Duplicates cycle over the real packets of the last block (10, 11, 12).
  EXPECT_EQ(d0.packet, 10u);
  EXPECT_EQ(d1.packet, 11u);
}

TEST(BlockPartition, SinglePacketBlockFullyDuplicated) {
  const BlockPartition p(11, 5);  // last block: packet 10 + 4 dups of it
  for (std::size_t s = 1; s < 5; ++s) {
    EXPECT_TRUE(p.slot(2, s).duplicate);
    EXPECT_EQ(p.slot(2, s).packet, 10u);
  }
}

TEST(BlockPartition, BlockAndSeqOfPacket) {
  // Packet p sits in block p / k at sequence p % k.
  const BlockPartition p(23, 10);
  EXPECT_EQ(p.slot(0, 0).packet, 0u);
  EXPECT_EQ(p.slot(0, 9).packet, 9u);
  EXPECT_EQ(p.slot(1, 0).packet, 10u);
  EXPECT_EQ(p.slot(2, 2).packet, 22u);
  EXPECT_FALSE(p.slot(2, 2).duplicate);
  EXPECT_TRUE(p.slot(2, 3).duplicate);  // no packet 23: last-block filler
  EXPECT_THROW(p.slot(3, 0), EnsureError);
}

TEST(BlockPartition, KOne) {
  const BlockPartition p(7, 1);
  EXPECT_EQ(p.num_blocks(), 7u);
  EXPECT_EQ(p.num_slots(), 7u);
  for (std::size_t i = 0; i < 7; ++i) {
    EXPECT_EQ(p.slot(i, 0).packet, i);
    EXPECT_FALSE(p.slot(i, 0).duplicate);
  }
}

TEST(BlockPartition, KLargerThanMessage) {
  const BlockPartition p(3, 10);
  EXPECT_EQ(p.num_blocks(), 1u);
  EXPECT_EQ(p.num_slots(), 10u);
  int dups = 0;
  for (std::size_t s = 0; s < 10; ++s) dups += p.slot(0, s).duplicate;
  EXPECT_EQ(dups, 7);
}

TEST(BlockPartition, InterleavedOrderCoversAllSlotsOnce) {
  const BlockPartition p(23, 10);
  const auto order = p.interleaved_order();
  EXPECT_EQ(order.size(), p.num_slots());
  std::set<std::pair<std::size_t, std::size_t>> seen;
  for (const BlockSlot& s : order) seen.insert({s.block, s.seq});
  EXPECT_EQ(seen.size(), p.num_slots());
}

TEST(BlockPartition, InterleavedOrderSeparatesSameBlock) {
  const BlockPartition p(40, 10);  // 4 blocks
  const auto order = p.interleaved_order();
  // Consecutive packets of the same block must be num_blocks apart.
  std::map<std::size_t, std::vector<std::size_t>> positions;
  for (std::size_t i = 0; i < order.size(); ++i)
    positions[order[i].block].push_back(i);
  for (const auto& [block, pos] : positions) {
    for (std::size_t j = 1; j < pos.size(); ++j)
      EXPECT_EQ(pos[j] - pos[j - 1], p.num_blocks());
  }
}

TEST(BlockPartition, SequentialOrderIsBlockMajor) {
  const BlockPartition p(30, 10);
  const auto order = p.sequential_order();
  for (std::size_t i = 1; i < order.size(); ++i)
    EXPECT_LE(order[i - 1].block, order[i].block);
}

TEST(BlockPartition, RejectsZeroSizes) {
  EXPECT_THROW(BlockPartition(0, 10), EnsureError);
  EXPECT_THROW(BlockPartition(10, 0), EnsureError);
}

}  // namespace
}  // namespace rekey::fec
