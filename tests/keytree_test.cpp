// KeyTree structure tests: population, invariants, key queries.
#include <gtest/gtest.h>

#include "common/ensure.h"
#include "keytree/keytree.h"

namespace rekey::tree {
namespace {

TEST(KeyTree, RejectsDegreeOne) {
  EXPECT_THROW(KeyTree(1, 42), EnsureError);
}

TEST(KeyTree, EmptyTree) {
  KeyTree t(4, 1);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.num_users(), 0u);
  EXPECT_FALSE(t.max_knode_id().has_value());
  t.check_invariants();
}

TEST(KeyTree, PopulateFullTree) {
  KeyTree t(4, 1);
  t.populate(16);
  EXPECT_EQ(t.num_users(), 16u);
  EXPECT_EQ(t.height(), 2u);
  // Full: k-nodes 0..4, users 5..20.
  EXPECT_EQ(t.max_knode_id().value(), 4u);
  const auto slots = t.user_slots();
  EXPECT_EQ(slots.front(), 5u);
  EXPECT_EQ(slots.back(), 20u);
  t.check_invariants();
}

TEST(KeyTree, PopulatePartialTree) {
  KeyTree t(4, 1);
  t.populate(6);
  EXPECT_EQ(t.num_users(), 6u);
  EXPECT_EQ(t.height(), 2u);  // capacity 16 needed for 6 > 4
  t.check_invariants();
}

TEST(KeyTree, PopulateSingleUser) {
  KeyTree t(4, 1);
  t.populate(1);
  EXPECT_EQ(t.num_users(), 1u);
  EXPECT_EQ(t.height(), 1u);
  EXPECT_EQ(t.max_knode_id().value(), 0u);  // root k-node above the user
  EXPECT_EQ(t.slot_of(0), 1u);
  t.check_invariants();
}

TEST(KeyTree, PopulateTwiceThrows) {
  KeyTree t(4, 1);
  t.populate(4);
  EXPECT_THROW(t.populate(4), EnsureError);
}

TEST(KeyTree, MemberSlotMapping) {
  KeyTree t(3, 7);
  t.populate(9, /*first_member=*/100);
  for (MemberId m = 100; m < 109; ++m) {
    EXPECT_TRUE(t.has_member(m));
    const NodeId slot = t.slot_of(m);
    EXPECT_EQ(t.node(slot).member, m);
  }
  EXPECT_FALSE(t.has_member(99));
  EXPECT_THROW(t.slot_of(99), EnsureError);
}

TEST(KeyTree, GroupKeyIsRootKey) {
  KeyTree t(4, 7);
  t.populate(16);
  EXPECT_EQ(t.group_key(), t.node(kRootId).key);
}

TEST(KeyTree, KeysForSlotIsFullPath) {
  KeyTree t(4, 7);
  t.populate(16);
  const NodeId slot = t.slot_of(10);
  std::vector<std::pair<NodeId, crypto::SymmetricKey>> keys;
  t.keys_for_slot_into(slot, keys);
  // Height-2 tree: individual + level-1 aux + root = 3 keys.
  ASSERT_EQ(keys.size(), 3u);
  EXPECT_EQ(keys.front().first, slot);
  EXPECT_EQ(keys.back().first, kRootId);
  for (const auto& [id, key] : keys) EXPECT_EQ(key, t.node(id).key);
}

TEST(KeyTree, DistinctKeysAcrossNodes) {
  KeyTree t(4, 7);
  t.populate(64);
  const auto slots = t.user_slots();
  // Individual keys pairwise distinct (spot check a window).
  for (std::size_t i = 1; i < slots.size(); ++i)
    EXPECT_NE(t.node(slots[i]).key, t.node(slots[i - 1]).key);
}

TEST(KeyTree, NodeAccessOnNNodeThrows) {
  KeyTree t(4, 7);
  t.populate(4);  // users at 1..4
  EXPECT_THROW(t.node(99), EnsureError);
}

TEST(KeyTree, UserSlotsSorted) {
  KeyTree t(4, 7);
  t.populate(100);
  const auto slots = t.user_slots();
  EXPECT_TRUE(std::is_sorted(slots.begin(), slots.end()));
  EXPECT_EQ(slots.size(), 100u);
}

class PopulateSweep : public ::testing::TestWithParam<
                          std::pair<unsigned, std::size_t>> {};

TEST_P(PopulateSweep, InvariantsHold) {
  const auto [d, n] = GetParam();
  KeyTree t(d, 99);
  t.populate(n);
  EXPECT_EQ(t.num_users(), n);
  t.check_invariants();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PopulateSweep,
    ::testing::Values(std::pair{2u, std::size_t{1}},
                      std::pair{2u, std::size_t{2}},
                      std::pair{2u, std::size_t{3}},
                      std::pair{2u, std::size_t{1024}},
                      std::pair{3u, std::size_t{10}},
                      std::pair{3u, std::size_t{27}},
                      std::pair{4u, std::size_t{4}},
                      std::pair{4u, std::size_t{5}},
                      std::pair{4u, std::size_t{4096}},
                      std::pair{4u, std::size_t{4097}},
                      std::pair{8u, std::size_t{100}}));

}  // namespace
}  // namespace rekey::tree
