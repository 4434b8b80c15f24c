// Service-level crash recovery: a key server restored from its snapshot
// must carry on rekeying the same group seamlessly.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>

#include "core/service.h"
#include "support/oracles.h"

namespace rekey::core {
namespace {

ServiceConfig config() {
  ServiceConfig cfg;
  cfg.degree = 4;
  return cfg;
}

// Interval i's requests, a pure function of the tree and i: one member
// leaves, one or two register and join (J > L splits on even i).
void request_churn(GroupKeyService& svc, int i) {
  const std::vector<tree::NodeId> slots = svc.tree().user_slots();
  const auto pick = static_cast<std::size_t>(i) * 7 % slots.size();
  svc.request_leave(svc.tree().node(slots[pick]).member);
  svc.request_join(svc.register_member());
  if (i % 2 == 0) svc.request_join(svc.register_member());
}

TEST(ServiceRecovery, RestoredServiceMatchesOriginal) {
  GroupKeyService svc(config());
  auto members = svc.bootstrap_members(32);
  svc.request_leave(members[3]);
  svc.request_join(svc.register_member());
  svc.rekey_interval();

  const Bytes blob = svc.snapshot();
  auto restored = GroupKeyService::restore(blob, config());
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->group_size(), svc.group_size());
  EXPECT_EQ(restored->group_key(), svc.group_key());
  EXPECT_EQ(restored->intervals_completed(), svc.intervals_completed());
  restored->tree().check_invariants();
  for (const auto m : members) {
    if (!svc.has_member(m)) continue;
    ASSERT_TRUE(restored->has_member(m));
    EXPECT_EQ(*restored->member(m).group_key(), svc.group_key());
  }
}

TEST(ServiceRecovery, RestoredServiceKeepsRekeying) {
  GroupKeyService svc(config());
  auto members = svc.bootstrap_members(16);
  svc.request_leave(members[0]);
  svc.rekey_interval();

  auto restored = GroupKeyService::restore(svc.snapshot(), config());
  ASSERT_TRUE(restored.has_value());

  // New churn on the restored server.
  const auto newbie = restored->register_member();
  restored->request_join(newbie);
  restored->request_leave(members[5]);
  const auto report = restored->rekey_interval();
  EXPECT_GT(report.encryptions, 0u);
  EXPECT_EQ(*restored->member(newbie).group_key(), restored->group_key());
  EXPECT_FALSE(restored->has_member(members[5]));
  restored->tree().check_invariants();
}

TEST(ServiceRecovery, NewKeysAfterRestoreDifferFromCrashTimeline) {
  // The same future replayed twice from one snapshot is identical
  // (determinism).
  GroupKeyService svc(config());
  auto members = svc.bootstrap_members(8);
  const Bytes blob = svc.snapshot();

  auto a = GroupKeyService::restore(blob, config());
  auto b = GroupKeyService::restore(blob, config());
  ASSERT_TRUE(a.has_value() && b.has_value());
  a->request_leave(members[1]);
  b->request_leave(members[1]);
  a->rekey_interval();
  b->rekey_interval();
  EXPECT_EQ(a->group_key(), b->group_key());
}

// A restored service resumes the draw stream where the snapshot left it:
// its intervals rebuild the uninterrupted run's tree node for node, and no
// key it refreshes existed when the snapshot was taken (a departed member
// holds some of those).
TEST(ServiceRecovery, RestoredServiceReplaysTheUninterruptedRun) {
  for (const int at : {0, 1, 5}) {
    GroupKeyService svc(config());
    svc.bootstrap_members(64);
    for (int i = 0; i < at; ++i) {
      request_churn(svc, i);
      svc.rekey_interval();
    }
    auto restored = GroupKeyService::restore(svc.snapshot(), config());
    ASSERT_TRUE(restored.has_value()) << "snapshot at " << at;

    std::set<std::array<std::uint8_t, crypto::SymmetricKey::kSize>>
        keys_at_snapshot;
    std::map<tree::NodeId, crypto::SymmetricKey> knode_keys;
    std::set<tree::MemberId> members_at_snapshot;
    for (const auto& [id, n] : test::nodes(svc.tree())) {
      keys_at_snapshot.insert(n.key.bytes);
      if (n.kind == tree::NodeKind::KNode)
        knode_keys.emplace(id, n.key);
      else
        members_at_snapshot.insert(n.member);
    }

    for (int i = at; i < at + 3; ++i) {
      request_churn(svc, i);
      svc.rekey_interval();
      request_churn(*restored, i);
      restored->rekey_interval();

      const std::map<tree::NodeId, tree::Node> want = test::nodes(svc.tree());
      const std::map<tree::NodeId, tree::Node> got =
          test::nodes(restored->tree());
      for (const auto& [id, n] : got) {
        // A refreshed key: a k-node whose key is not the one it held at
        // snapshot time, or the individual key of a member who joined
        // since. A moved user keeps its own key.
        const bool refreshed =
            n.kind == tree::NodeKind::KNode
                ? !knode_keys.count(id) || knode_keys.at(id) != n.key
                : !members_at_snapshot.count(n.member);
        if (refreshed) {
          EXPECT_FALSE(keys_at_snapshot.count(n.key.bytes))
              << "node " << id << " reuses a key from before the snapshot"
              << " at " << at << ", interval " << i;
        }
      }
      ASSERT_EQ(got.size(), want.size()) << "snapshot at " << at << ", " << i;
      auto w = want.begin();
      for (const auto& [id, n] : got) {
        ASSERT_EQ(id, w->first) << "snapshot at " << at << ", interval " << i;
        ASSERT_EQ(n.kind, w->second.kind) << "node " << id;
        ASSERT_EQ(n.key, w->second.key)
            << "key of node " << id << ", snapshot at " << at
            << ", interval " << i;
        ASSERT_EQ(n.member, w->second.member) << "node " << id;
        ++w;
      }
      EXPECT_EQ(restored->group_key(), svc.group_key());
    }
  }
}

TEST(ServiceRecovery, CorruptBlobRejected) {
  GroupKeyService svc(config());
  svc.bootstrap_members(8);
  Bytes blob = svc.snapshot();
  blob[blob.size() / 2] ^= 1;
  EXPECT_FALSE(GroupKeyService::restore(blob, config()).has_value());
  Bytes truncated(blob.begin(), blob.begin() + 5);
  EXPECT_FALSE(GroupKeyService::restore(truncated, config()).has_value());
}

TEST(ServiceRecovery, DegreeMismatchRejected) {
  GroupKeyService svc(config());
  svc.bootstrap_members(8);
  ServiceConfig other = config();
  other.degree = 2;
  EXPECT_FALSE(GroupKeyService::restore(svc.snapshot(), other).has_value());
}

}  // namespace
}  // namespace rekey::core
