// Snapshot/restore tests: the key server's crash-recovery path.
#include <gtest/gtest.h>

#include "common/ensure.h"
#include "common/rng.h"
#include "keytree/marking.h"
#include "keytree/rekey_subtree.h"
#include "keytree/shard.h"
#include "keytree/snapshot.h"
#include "support/oracles.h"

namespace rekey::tree {
namespace {

KeyTree churned_tree(std::uint64_t seed) {
  Rng rng(seed);
  KeyTree t(4, rng.next_u64());
  t.populate(64);
  // A couple of batches so the tree has history (splits, holes).
  Marker m(t);
  m.run(std::vector<MemberId>{100, 101, 102}, std::vector<MemberId>{3});
  Marker m2(t);
  m2.run(std::vector<MemberId>{}, std::vector<MemberId>{7, 8, 9, 10});
  return t;
}

// The tree format on one shard: what a GroupKeyService with the default
// config writes. The ShardedSnapshot sweeps below use four shards.
Bytes snapshot_one_shard(const KeyTree& t) {
  return snapshot_sharded_tree(t, ShardPlan::make(t.degree(), 1));
}

TEST(TreeSnapshot, RoundtripPreservesEverything) {
  const KeyTree original = churned_tree(1);
  const Bytes blob = snapshot_one_shard(original);
  const auto restored = restore_sharded_tree(blob, /*key_seed=*/99);
  ASSERT_TRUE(restored.has_value());
  restored->check_invariants();
  EXPECT_EQ(restored->degree(), original.degree());
  EXPECT_EQ(restored->num_users(), original.num_users());
  EXPECT_EQ(restored->group_key(), original.group_key());
  EXPECT_EQ(restored->key_generator().counter(),
            original.key_generator().counter());
  ASSERT_EQ(test::nodes(*restored).size(), test::nodes(original).size());
  for (const auto& [id, n] : test::nodes(original)) {
    ASSERT_TRUE(restored->contains(id));
    EXPECT_EQ(restored->node(id).kind, n.kind);
    EXPECT_EQ(restored->node(id).key, n.key);
    if (n.kind == NodeKind::UNode) {
      EXPECT_EQ(restored->node(id).member, n.member);
    }
  }
}

TEST(TreeSnapshot, RestoredTreeKeepsWorking) {
  KeyTree original = churned_tree(2);
  const Bytes blob = snapshot_one_shard(original);
  auto restored = restore_sharded_tree(blob, 7);
  ASSERT_TRUE(restored.has_value());
  // A batch on the restored tree must behave like one on any live tree.
  Marker m(*restored);
  const auto upd = m.run(std::vector<MemberId>{200}, std::vector<MemberId>{5});
  restored->check_invariants();
  const auto payload = generate_rekey_payload(*restored, upd, 9);
  EXPECT_FALSE(payload.encryptions.empty());
  std::size_t with_needs = 0;
  for (const NodeId slot : restored->user_slots())
    with_needs += payload.user_needs.needs_of(slot).empty() ? 0 : 1;
  EXPECT_EQ(with_needs, restored->num_users());
}

TEST(TreeSnapshot, CorruptionDetected) {
  const KeyTree original = churned_tree(3);
  Bytes blob = snapshot_one_shard(original);
  for (const std::size_t pos :
       {std::size_t{0}, blob.size() / 2, blob.size() - 1}) {
    Bytes bad = blob;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(restore_sharded_tree(bad, 1).has_value()) << "pos " << pos;
  }
}

TEST(TreeSnapshot, TruncationDetected) {
  const KeyTree original = churned_tree(4);
  const Bytes blob = snapshot_one_shard(original);
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{10}, blob.size() - 1}) {
    const Bytes cut(blob.begin(), blob.begin() + len);
    EXPECT_FALSE(restore_sharded_tree(cut, 1).has_value()) << "len " << len;
  }
}

TEST(TreeSnapshot, WrongMagicRejected) {
  // A blob whose trailer checks but whose magic is another format's.
  const KeyTree original = churned_tree(5);
  Bytes blob = snapshot_one_shard(original);
  blob[3] ^= 0x01;
  snapshot_seal(blob);
  EXPECT_FALSE(restore_sharded_tree(blob, 1).has_value());
}

// Exhaustive malformed-input sweeps: a snapshot cut at ANY byte length or
// flipped in ANY single bit must restore to a clean nullopt — never an
// abort, a throw, or a half-restored tree. The SHA-256 trailer makes the
// corruption half trivially true once sealing is correct; the truncation
// half additionally exercises every reader-side bounds check for cuts
// shorter than the trailer itself.
TEST(TreeSnapshot, TruncationAtEveryByteRejected) {
  const KeyTree original = churned_tree(21);
  const Bytes blob = snapshot_one_shard(original);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const Bytes cut(blob.begin(), blob.begin() + len);
    ASSERT_FALSE(restore_sharded_tree(cut, 1).has_value()) << "len " << len;
  }
}

TEST(TreeSnapshot, SingleBitFlipAtEveryPositionRejected) {
  const KeyTree original = churned_tree(22);
  const Bytes blob = snapshot_one_shard(original);
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = blob;
      bad[pos] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_FALSE(restore_sharded_tree(bad, 1).has_value())
          << "pos " << pos << " bit " << bit;
    }
  }
}

TEST(ShardedSnapshot, TruncationAtEveryByteRejected) {
  const KeyTree original = churned_tree(23);
  const Bytes blob = snapshot_sharded_tree(original, ShardPlan::make(4, 4));
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const Bytes cut(blob.begin(), blob.begin() + len);
    ASSERT_FALSE(restore_sharded_tree(cut, 1).has_value()) << "len " << len;
  }
}

TEST(ShardedSnapshot, SingleBitFlipAtEveryPositionRejected) {
  const KeyTree original = churned_tree(24);
  const Bytes blob = snapshot_sharded_tree(original, ShardPlan::make(4, 4));
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = blob;
      bad[pos] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_FALSE(restore_sharded_tree(bad, 1).has_value())
          << "pos " << pos << " bit " << bit;
    }
  }
}

TEST(FromNodes, RejectsInconsistentData) {
  std::map<NodeId, Node> nodes;
  Node u;
  u.kind = NodeKind::UNode;
  u.member = 1;
  nodes.emplace(5, u);  // orphan u-node: no k-node ancestors
  EXPECT_THROW(KeyTree::from_nodes(4, 1, nodes), EnsureError);
}

TEST(FromNodes, RejectsDuplicateMembers) {
  KeyTree t(4, 1);
  t.populate(4);
  auto nodes = test::nodes(t);
  // Give two u-nodes the same member id.
  Node dup = nodes.at(1);
  nodes.at(2) = dup;
  EXPECT_THROW(KeyTree::from_nodes(4, 1, nodes), EnsureError);
}

}  // namespace
}  // namespace rekey::tree
