// Curated marking-algorithm scenarios with fully hand-computed expected
// trees, including the paper's own running example (§2.1, Figure 1) and
// the corner cases of each Appendix-B rule. These complement the
// randomized sweeps in marking_test.cpp with human-checkable fixtures.
#include <gtest/gtest.h>

#include <set>

#include "common/ensure.h"
#include "keytree/marking.h"
#include "keytree/rekey_subtree.h"
#include "support/oracles.h"

namespace rekey::tree {
namespace {

std::vector<MemberId> ids(std::initializer_list<MemberId> l) { return l; }

std::set<NodeId> knodes_of(const KeyTree& t) {
  std::set<NodeId> out;
  for (const auto& [id, n] : test::nodes(t))
    if (n.kind == NodeKind::KNode) out.insert(id);
  return out;
}

std::set<NodeId> unodes_of(const KeyTree& t) {
  std::set<NodeId> out;
  for (const auto& [id, n] : test::nodes(t))
    if (n.kind == NodeKind::UNode) out.insert(id);
  return out;
}

// --- The paper's Figure-1 example -----------------------------------------
//
// Degree 3, nine users u1..u9. In our id scheme the tree is:
//   root 0 (k_1-9); level 1: 1 (k_123), 2 (k_456), 3 (k_789);
//   leaves 4..12 = u1..u9.
// u9 (slot 12) leaves. The paper expects: k_789 -> k_78 (node 3 rekeyed),
// k_1-9 -> k_1-8 (root rekeyed), and the rekey message
//   { {k78}_k7, {k78}_k8, {k1-8}_k123, {k1-8}_k456, {k1-8}_k78 }.

TEST(PaperFigure1, LeaveOfU9) {
  KeyTree t(3, 1);
  t.populate(9);  // members 0..8 = u1..u9 at slots 4..12
  EXPECT_EQ(t.slot_of(8), 12u);  // u9

  Marker m(t);
  const auto upd = m.run({}, ids({8}));
  t.check_invariants();

  // Changed k-nodes: node 3 (k_789 -> k_78) and the root.
  EXPECT_EQ(upd.changed_knodes, (std::set<NodeId>{0, 3}));

  const auto payload = generate_rekey_payload(t, upd, 1);
  // Five encryptions, exactly the paper's set (by encrypting-key node):
  //   {k78}_k7 (enc 10), {k78}_k8 (enc 11),
  //   {k1-8}_k123 (enc 1), {k1-8}_k456 (enc 2), {k1-8}_k78 (enc 3).
  std::set<NodeId> enc_ids;
  for (const auto& e : payload.encryptions) enc_ids.insert(e.enc_id);
  EXPECT_EQ(enc_ids, (std::set<NodeId>{1, 2, 3, 10, 11}));

  // u7 (member 6, slot 10) needs exactly {k1-8}_k78 and {k78}_k7.
  const auto needs = payload.user_needs.needs_of(10);
  std::set<NodeId> u7_ids;
  for (const auto idx : needs) u7_ids.insert(payload.encryptions[idx].enc_id);
  EXPECT_EQ(u7_ids, (std::set<NodeId>{10, 3}));

  // u1 (slot 4) needs only the root key via k_123.
  const auto u1 = payload.user_needs.needs_of(4);
  ASSERT_EQ(u1.size(), 1u);
  EXPECT_EQ(payload.encryptions[u1[0]].enc_id, 1u);
}

// --- Appendix-B rule 1: J = L ---------------------------------------------

TEST(AppendixB, Rule1SwapPreservesStructure) {
  KeyTree t(4, 2);
  t.populate(16);
  const auto k_before = knodes_of(t);
  const auto u_before = unodes_of(t);
  Marker m(t);
  m.run(ids({100, 101}), ids({4, 9}));
  // Pure replacement: identical node-id structure.
  EXPECT_EQ(knodes_of(t), k_before);
  EXPECT_EQ(unodes_of(t), u_before);
}

// --- Appendix-B rule 2: J < L, iterative pruning ---------------------------

TEST(AppendixB, Rule2PrunesWholeChains) {
  // Degree 2, 8 users at slots 7..14; k-nodes 0..6.
  KeyTree t(2, 3);
  t.populate(8);
  Marker m(t);
  // Remove members 0..3 (slots 7..10): subtrees 3 and 4 die, then 1 dies.
  const auto upd = m.run({}, ids({0, 1, 2, 3}));
  t.check_invariants();
  EXPECT_EQ(knodes_of(t), (std::set<NodeId>{0, 2, 5, 6}));
  EXPECT_EQ(unodes_of(t), (std::set<NodeId>{11, 12, 13, 14}));
  // Only the root's key is re-encrypted (node 2's subtree is untouched).
  EXPECT_EQ(upd.changed_knodes, std::set<NodeId>{0});
  const auto payload = generate_rekey_payload(t, upd, 1);
  // Root has exactly one surviving child (node 2): one encryption.
  ASSERT_EQ(payload.encryptions.size(), 1u);
  EXPECT_EQ(payload.encryptions[0].enc_id, 2u);
}

TEST(AppendixB, Rule2ReplacesSmallestIdsFirst) {
  KeyTree t(4, 4);
  t.populate(16);
  Marker m(t);
  // Leaves at slots 6, 12, 18 (members 1, 7, 13); one join.
  const auto upd = m.run(ids({100}), ids({13, 1, 7}));
  t.check_invariants();
  EXPECT_EQ(t.slot_of(100), 6u);  // smallest departed id
  EXPECT_FALSE(t.contains(12));
  EXPECT_FALSE(t.contains(18));
  EXPECT_EQ(upd.joined.at(100), 6u);
}

// --- Appendix-B rule 3: J > L, fill then split ------------------------------

TEST(AppendixB, Rule3FillOrderIsLowToHigh) {
  // 6 users in a 16-leaf tree: nk = 2, free n-slots (2, 12] = {3, 4, 11, 12}.
  KeyTree t(4, 5);
  t.populate(6);
  Marker m(t);
  const auto upd = m.run(ids({50, 51, 52, 53}), {});
  t.check_invariants();
  EXPECT_EQ(t.slot_of(50), 3u);
  EXPECT_EQ(t.slot_of(51), 4u);
  EXPECT_EQ(t.slot_of(52), 11u);
  EXPECT_EQ(t.slot_of(53), 12u);
  EXPECT_TRUE(upd.moved.empty());
  // nk unchanged: no splits -> max k-node id still 2.
  EXPECT_EQ(upd.max_kid, 2u);
}

TEST(AppendixB, Rule3SplitChainWalksConsecutiveUsers) {
  KeyTree t(4, 6);
  t.populate(16);  // full: every join requires splitting
  Marker m(t);
  // 4 joins: split node 5 (3 slots) then node 6 (1 more needed).
  const auto upd = m.run(ids({50, 51, 52, 53}), {});
  t.check_invariants();
  EXPECT_EQ(upd.moved.size(), 2u);
  EXPECT_EQ(upd.moved.at(5), 21u);
  EXPECT_EQ(upd.moved.at(6), 25u);
  EXPECT_EQ(t.max_knode_id().value(), 6u);
  // Joins fill the split slots low to high: 22, 23, 24, then 26.
  EXPECT_EQ(t.slot_of(50), 22u);
  EXPECT_EQ(t.slot_of(51), 23u);
  EXPECT_EQ(t.slot_of(52), 24u);
  EXPECT_EQ(t.slot_of(53), 26u);
}

TEST(AppendixB, SplitNodesBecomeChangedKNodes) {
  KeyTree t(4, 7);
  t.populate(16);
  Marker m(t);
  const auto upd = m.run(ids({50}), {});
  // Node 5 is now a k-node with fresh key; its children (moved user 21 and
  // join 22) each get one encryption of node 5's key.
  const auto payload = generate_rekey_payload(t, upd, 1);
  int under_5 = 0;
  for (const auto& e : payload.encryptions)
    if (e.target_id == 5) ++under_5;
  EXPECT_EQ(under_5, 2);
}

// --- Appendix-B rule 4: n-node ancestors become k-nodes ---------------------

TEST(AppendixB, Rule4CreatesAncestorsForDeepFills) {
  // 5 users in a 16-leaf tree: nk = 1 (parent of slot 9)... compute:
  // users at 5..9, k-nodes {0, 1, 2}: nk = 2. Free (2, 12] = {3,4,10,11,12}.
  KeyTree t(4, 8);
  t.populate(5);
  Marker m(t);
  // Enough joins to reach slot 13, whose parent 3 must first be a slot
  // itself... fill order: 3, 4, 10, 11, 12 — all direct children of
  // existing k-nodes, no new ancestors; then nk is still 2, next joins
  // split. Verify ancestors stay consistent throughout.
  const auto upd = m.run(ids({50, 51, 52, 53, 54, 55}), {});
  t.check_invariants();
  EXPECT_EQ(t.num_users(), 11u);
  for (const NodeId slot : t.user_slots()) {
    if (slot == kRootId) continue;
    EXPECT_EQ(t.node(parent_of(slot, 4)).kind, NodeKind::KNode);
  }
  (void)upd;
}

// --- Degenerate group sizes --------------------------------------------------

TEST(Degenerate, GroupOfOneLosesItsOnlyMember) {
  KeyTree t(4, 9);
  t.populate(1);
  Marker m(t);
  m.run({}, ids({0}));
  EXPECT_TRUE(t.empty());
  t.check_invariants();
}

TEST(Degenerate, GroupOfOneGrowsByOne) {
  KeyTree t(4, 10);
  t.populate(1);
  Marker m(t);
  const auto upd = m.run(ids({50}), {});
  t.check_invariants();
  EXPECT_EQ(t.num_users(), 2u);
  // Slot 1 held the user; the join lands in a free sibling slot (2).
  EXPECT_EQ(t.slot_of(50), 2u);
  EXPECT_TRUE(upd.moved.empty());
}

TEST(Degenerate, RebuildAfterTotalChurn) {
  KeyTree t(4, 11);
  t.populate(8);
  Marker m(t);
  m.run({}, ids({0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_TRUE(t.empty());
  Marker m2(t);
  const auto upd = m2.run(ids({100, 101, 102}), {});
  t.check_invariants();
  EXPECT_EQ(t.num_users(), 3u);
  EXPECT_EQ(upd.joined.size(), 3u);
}

// --- Rekey subtree shape against hand counts --------------------------------

TEST(SubtreeShape, SingleLeaveEncryptionCount) {
  // Height-3 degree-4 tree, one leave: the replaced... removed slot's
  // parent keeps 3 children, each ancestor above keeps 4: 3 + 4 + 4.
  KeyTree t(4, 12);
  t.populate(64);
  Marker m(t);
  const auto upd = m.run({}, ids({13}));
  const auto payload = generate_rekey_payload(t, upd, 1);
  EXPECT_EQ(payload.encryptions.size(), 3u + 4u + 4u);
}

TEST(SubtreeShape, SingleReplaceEncryptionCount) {
  // Replacement keeps the slot occupied: 4 + 4 + 4.
  KeyTree t(4, 13);
  t.populate(64);
  Marker m(t);
  const auto upd = m.run(ids({100}), ids({13}));
  const auto payload = generate_rekey_payload(t, upd, 1);
  EXPECT_EQ(payload.encryptions.size(), 4u + 4u + 4u);
}

TEST(SubtreeShape, TwoLeavesSameParentShareAncestorEncryptions) {
  KeyTree t(4, 14);
  t.populate(64);
  // Members 0 and 1 share a leaf-parent.
  Marker m(t);
  const auto upd = m.run({}, ids({0, 1}));
  const auto payload = generate_rekey_payload(t, upd, 1);
  // Parent keeps 2 children; the two ancestors keep 4 each: 2 + 4 + 4.
  EXPECT_EQ(payload.encryptions.size(), 2u + 4u + 4u);
}

}  // namespace
}  // namespace rekey::tree
