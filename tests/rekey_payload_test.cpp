// Rekey-subtree / encryption-generation tests, including the end-to-end
// security invariants from DESIGN.md §6: remaining users can always
// reconstruct their path keys; departed users cannot learn the new group
// key; joining users cannot learn the old one.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "keytree/rekey_subtree.h"
#include "keytree/user_view.h"

namespace rekey::tree {
namespace {

// Every key a user at `slot` holds: its own and its path to the root.
std::vector<std::pair<NodeId, crypto::SymmetricKey>> keys_at(
    const KeyTree& t, NodeId slot) {
  std::vector<std::pair<NodeId, crypto::SymmetricKey>> keys;
  t.keys_for_slot_into(slot, keys);
  return keys;
}

// Snapshot the full key set a user holds before a batch.
std::vector<std::pair<NodeId, crypto::SymmetricKey>> snapshot_keys(
    const KeyTree& t, MemberId m) {
  return keys_at(t, t.slot_of(m));
}

TEST(RekeyPayload, EncryptionIdsUniqueAndChildBased) {
  KeyTree t(4, 1);
  t.populate(16);
  Marker m(t);
  const auto upd = m.run({}, std::vector<MemberId>{0, 5, 9});
  const auto payload = generate_rekey_payload(t, upd, 1);
  std::set<NodeId> ids;
  for (const Encryption& e : payload.encryptions) {
    EXPECT_TRUE(ids.insert(e.enc_id).second) << "duplicate id " << e.enc_id;
    EXPECT_EQ(parent_of(e.enc_id, 4), e.target_id);
    EXPECT_TRUE(upd.changed_knodes.count(e.target_id));
    EXPECT_NE(e.enc_id, 0u);  // never the root, so 0 can mean padding
  }
}

TEST(RekeyPayload, BottomUpOrder) {
  KeyTree t(4, 1);
  t.populate(64);
  Marker m(t);
  const auto upd = m.run({}, std::vector<MemberId>{0, 17, 40});
  const auto payload = generate_rekey_payload(t, upd, 1);
  // Deeper targets (larger ids) must come first.
  for (std::size_t i = 1; i < payload.encryptions.size(); ++i)
    EXPECT_GE(payload.encryptions[i - 1].target_id,
              payload.encryptions[i].target_id);
}

TEST(RekeyPayload, EveryUserHasNeedsWhenGroupChanges) {
  KeyTree t(4, 1);
  t.populate(16);
  Marker m(t);
  const auto upd = m.run({}, std::vector<MemberId>{7});
  const auto payload = generate_rekey_payload(t, upd, 1);
  // Root always changes, so every remaining user needs >= 1 encryption.
  std::size_t with_needs = 0;
  for (const NodeId slot : t.user_slots())
    with_needs += payload.user_needs.needs_of(slot).empty() ? 0 : 1;
  EXPECT_EQ(with_needs, t.num_users());
  for (const NodeId slot : t.user_slots()) {
    const auto needs = payload.user_needs.needs_of(slot);
    EXPECT_FALSE(needs.empty());
    // Needs are bottom-up along the path.
    for (std::size_t i = 1; i < needs.size(); ++i)
      EXPECT_GT(payload.encryptions[needs[i - 1]].enc_id,
                payload.encryptions[needs[i]].enc_id);
    // The topmost need is always the root encryption for this user's
    // top-level subtree.
    EXPECT_EQ(payload.encryptions[needs.back()].target_id, kRootId);
  }
}

TEST(RekeyPayload, LabelsJoinVsReplace) {
  KeyTree t(4, 1);
  t.populate(6);  // users 5..10; free slots 11, 12 under k-node 2
  Marker m(t);
  const auto upd = m.run(std::vector<MemberId>{50}, std::vector<MemberId>{0});
  const auto payload = generate_rekey_payload(t, upd, 1);
  // Member 0's slot (5) was replaced: its parent (1) is Replace.
  EXPECT_EQ(payload.labels.at(1), Label::Replace);
  // Root has a departure beneath: Replace as well.
  EXPECT_EQ(payload.labels.at(0), Label::Replace);
}

TEST(RekeyPayload, PureJoinLabels) {
  KeyTree t(4, 1);
  t.populate(6);
  Marker m(t);
  const auto upd = m.run(std::vector<MemberId>{50}, {});
  const auto payload = generate_rekey_payload(t, upd, 1);
  for (const auto& [node, label] : payload.labels)
    EXPECT_EQ(label, Label::Join) << "node " << node;
}

TEST(RekeyPayload, SplitNodeLabelledReplace) {
  KeyTree t(4, 1);
  t.populate(16);
  Marker m(t);
  const auto upd = m.run(std::vector<MemberId>{50}, {});
  const auto payload = generate_rekey_payload(t, upd, 1);
  // The split node (5) relocated a user: Replace.
  EXPECT_EQ(payload.labels.at(5), Label::Replace);
}

TEST(RekeyPayload, RemainingUserRecoversAllPathKeys) {
  KeyTree t(4, 1);
  t.populate(64);
  // Users hold their pre-batch keys.
  std::map<MemberId, UserKeyView> views;
  for (MemberId u = 0; u < 64; ++u) {
    const auto keys = snapshot_keys(t, u);
    views.emplace(u, UserKeyView(u, t.slot_of(u), 4, keys));
  }
  Marker m(t);
  std::vector<MemberId> leaves{3, 17, 40, 41, 42, 43};
  const auto upd = m.run({}, leaves);
  const auto payload = generate_rekey_payload(t, upd, 1);

  const std::set<MemberId> gone(leaves.begin(), leaves.end());
  for (auto& [u, view] : views) {
    if (gone.count(u)) continue;
    view.apply(payload.msg_id, payload.max_kid, payload.encryptions);
    ASSERT_TRUE(view.group_key().has_value());
    EXPECT_EQ(*view.group_key(), t.group_key()) << "user " << u;
    // Every key on the user's current path must be correct.
    for (const auto& [id, key] : keys_at(t, t.slot_of(u))) {
      const auto held = view.key_at(id);
      ASSERT_TRUE(held.has_value());
      EXPECT_EQ(*held, key);
    }
  }
}

TEST(RekeyPayload, DepartedUserCannotDecryptNewGroupKey) {
  KeyTree t(4, 1);
  t.populate(16);
  const MemberId victim = 6;
  UserKeyView view(victim, t.slot_of(victim), 4, snapshot_keys(t, victim));
  Marker m(t);
  const auto upd = m.run({}, std::vector<MemberId>{victim});
  const auto payload = generate_rekey_payload(t, upd, 1);
  // The departed user applies everything it can with its stale keys.
  view.apply(payload.msg_id, payload.max_kid, payload.encryptions);
  const auto key = view.group_key();
  // It may still *hold* the old root key but never the new one.
  if (key.has_value()) {
    EXPECT_NE(*key, t.group_key());
  }
}

TEST(RekeyPayload, DepartedUserStaysLockedOutAcrossBatches) {
  KeyTree t(4, 1);
  t.populate(16);
  const MemberId victim = 2;
  UserKeyView view(victim, t.slot_of(victim), 4, snapshot_keys(t, victim));
  Marker m(t);
  auto upd = m.run({}, std::vector<MemberId>{victim});
  auto payload = generate_rekey_payload(t, upd, 1);
  view.apply(payload.msg_id, payload.max_kid, payload.encryptions);
  // Subsequent batches must remain opaque too.
  for (std::uint32_t msg = 2; msg <= 4; ++msg) {
    Marker mm(t);
    upd = mm.run(std::vector<MemberId>{100 + msg}, std::vector<MemberId>{});
    payload = generate_rekey_payload(t, upd, msg);
    view.apply(payload.msg_id, payload.max_kid, payload.encryptions);
    const auto key = view.group_key();
    if (key.has_value()) {
      EXPECT_NE(*key, t.group_key());
    }
  }
}

TEST(RekeyPayload, NewUserCannotLearnOldGroupKey) {
  KeyTree t(4, 1);
  t.populate(16);
  const crypto::SymmetricKey old_group = t.group_key();
  Marker m(t);
  const auto upd = m.run(std::vector<MemberId>{50}, std::vector<MemberId>{0});
  const auto payload = generate_rekey_payload(t, upd, 1);
  const NodeId slot = upd.joined.at(50);
  const std::pair<NodeId, crypto::SymmetricKey> cred{slot, t.node(slot).key};
  UserKeyView view(50, slot, 4, std::span(&cred, 1));
  view.apply(payload.msg_id, payload.max_kid, payload.encryptions);
  ASSERT_TRUE(view.group_key().has_value());
  EXPECT_EQ(*view.group_key(), t.group_key());
  EXPECT_NE(*view.group_key(), old_group);
  // Nothing in the view equals the old group key.
  EXPECT_NE(view.key_at(kRootId).value(), old_group);
}

TEST(RekeyPayload, NewUserGetsFullPathFromMessageAlone) {
  KeyTree t(4, 1);
  t.populate(64);
  Marker m(t);
  const auto upd = m.run(std::vector<MemberId>{70, 71, 72}, {});
  const auto payload = generate_rekey_payload(t, upd, 9);
  for (const MemberId u : {70u, 71u, 72u}) {
    const NodeId slot = upd.joined.at(u);
    const std::pair<NodeId, crypto::SymmetricKey> cred{slot,
                                                       t.node(slot).key};
    UserKeyView view(u, slot, 4, std::span(&cred, 1));
    view.apply(payload.msg_id, payload.max_kid, payload.encryptions);
    for (const auto& [id, key] : keys_at(t, slot))
      EXPECT_EQ(view.key_at(id).value(), key) << "user " << u;
  }
}

TEST(RekeyPayload, SplitUserFollowsItsSlot) {
  KeyTree t(4, 1);
  t.populate(16);
  // Member 0 sits at slot 5, which will split on join pressure.
  UserKeyView view(0, t.slot_of(0), 4, snapshot_keys(t, 0));
  Marker m(t);
  const auto upd = m.run(std::vector<MemberId>{50, 51, 52}, {});
  const auto payload = generate_rekey_payload(t, upd, 1);
  view.apply(payload.msg_id, payload.max_kid, payload.encryptions);
  EXPECT_EQ(view.id(), t.slot_of(0));
  EXPECT_EQ(view.group_key().value(), t.group_key());
  // It now also holds the key of its former slot (now a k-node above it).
  EXPECT_EQ(view.key_at(5).value(), t.node(5).key);
}

TEST(RekeyPayload, FrontierRunsSpanTwoUserLevels) {
  // 16 users fill level 2 (slots 5..20). Two joins split slot 5: its user
  // moves to 21 and the joins take 22 and 23, so nk = 5. A later leave
  // under k-node 4 leaves k-node 1 unchanged: a frontier node whose users
  // sit on both levels, 6..8 on level 2 and 21..23 on level 3.
  KeyTree t(4, 1);
  t.populate(16);
  Marker m(t);
  m.run(std::vector<MemberId>{100, 101}, {});
  const auto upd = m.run({}, std::vector<MemberId>{15});  // slot 20
  ASSERT_EQ(upd.max_kid, 5u);
  const auto payload = generate_rekey_payload(t, upd, 2);

  std::vector<std::pair<NodeId, NodeId>> runs;
  for (const UserNeeds::Run& r : payload.user_needs.runs())
    runs.emplace_back(r.first, r.last);
  const std::vector<std::pair<NodeId, NodeId>> want = {
      {6, 8}, {9, 12}, {13, 16}, {17, 17}, {18, 18}, {19, 19}, {21, 23}};
  EXPECT_EQ(runs, want);
  // Frontier nodes 1, 2, 3, 17, 18, 19; node 1 owns two runs.
  EXPECT_EQ(payload.user_needs.frontiers(), 6u);

  // Both runs of node 1 need exactly {k0}_k1.
  for (const NodeId slot : {6u, 8u, 21u, 23u}) {
    const auto needs = payload.user_needs.needs_of(slot);
    ASSERT_EQ(needs.size(), 1u) << "slot " << slot;
    EXPECT_EQ(payload.encryptions[needs[0]].enc_id, 1u) << "slot " << slot;
  }
  // The departed slot, the split k-node and the slot past the last user.
  for (const NodeId id : {20u, 5u, 24u})
    EXPECT_TRUE(payload.user_needs.needs_of(id).empty()) << "id " << id;
}

TEST(RekeyPayload, EmptyBatchYieldsEmptyPayload) {
  KeyTree t(4, 1);
  t.populate(8);
  Marker m(t);
  const auto upd = m.run({}, {});
  const auto payload = generate_rekey_payload(t, upd, 1);
  EXPECT_TRUE(payload.encryptions.empty());
  EXPECT_TRUE(payload.user_needs.empty());
  for (const NodeId slot : t.user_slots())
    EXPECT_TRUE(payload.user_needs.needs_of(slot).empty());
}

TEST(RekeyPayload, EncryptionCountMatchesSubtreeEdges) {
  // Every changed k-node contributes one encryption per present child.
  KeyTree t(4, 1);
  t.populate(64);
  Marker m(t);
  const auto upd = m.run({}, std::vector<MemberId>{0, 1, 2, 3, 20});
  const auto payload = generate_rekey_payload(t, upd, 1);
  std::size_t expected = 0;
  for (const NodeId x : upd.changed_knodes)
    for (unsigned j = 0; j < 4; ++j)
      expected += t.contains(child_of(x, j, 4)) ? 1 : 0;
  EXPECT_EQ(payload.encryptions.size(), expected);
}

// Randomized end-to-end security sweep across degrees and churn.
class SecuritySweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(SecuritySweep, AllSurvivorsTrackGroupKeyUnderChurn) {
  const unsigned d = GetParam();
  Rng rng(d * 31 + 7);
  KeyTree t(d, 3);
  t.populate(40);
  std::map<MemberId, UserKeyView> views;
  for (MemberId u = 0; u < 40; ++u)
    views.emplace(u, UserKeyView(u, t.slot_of(u), d, snapshot_keys(t, u)));
  MemberId next = 40;

  for (std::uint32_t msg = 1; msg <= 12; ++msg) {
    std::vector<MemberId> members;
    for (const NodeId s : t.user_slots()) members.push_back(t.node(s).member);
    rng.shuffle(members);
    const std::size_t L =
        static_cast<std::size_t>(rng.next_in(0, members.size() / 3));
    std::vector<MemberId> leaves(members.begin(), members.begin() + L);
    std::vector<MemberId> joins;
    const std::size_t J = static_cast<std::size_t>(rng.next_in(0, 15));
    for (std::size_t j = 0; j < J; ++j) joins.push_back(next++);
    if (leaves.empty() && joins.empty()) continue;

    Marker m(t);
    const auto upd = m.run(joins, leaves);
    const auto payload = generate_rekey_payload(t, upd, msg);

    for (const MemberId gone : leaves) views.erase(gone);
    for (const auto& [u, slot] : upd.joined) {
      const std::pair<NodeId, crypto::SymmetricKey> cred{slot,
                                                         t.node(slot).key};
      views.emplace(u, UserKeyView(u, slot, d, std::span(&cred, 1)));
    }
    for (auto& [u, view] : views) {
      view.apply(payload.msg_id, payload.max_kid, payload.encryptions);
      ASSERT_TRUE(view.group_key().has_value()) << "user " << u;
      EXPECT_EQ(*view.group_key(), t.group_key()) << "user " << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, SecuritySweep,
                         ::testing::Values(2u, 3u, 4u));

}  // namespace
}  // namespace rekey::tree
