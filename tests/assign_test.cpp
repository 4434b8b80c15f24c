// UKA (User-oriented Key Assignment) tests: the single-packet-per-user
// guarantee, range monotonicity, capacity limits, and duplication
// accounting (paper §4.3, §4.4).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/rng.h"
#include "keytree/marking.h"
#include "packet/assign.h"

namespace rekey::packet {
namespace {

// A batch's post-batch tree and its payload.
struct Batch {
  tree::KeyTree tree;
  tree::RekeyPayload payload;
};

Batch make_batch(std::size_t n, std::size_t joins, std::size_t leaves,
                 unsigned d, std::uint64_t seed) {
  Rng rng(seed);
  tree::KeyTree t(d, rng.next_u64());
  t.populate(n);
  std::vector<tree::MemberId> ls;
  for (const auto pick : rng.sample_without_replacement(n, leaves))
    ls.push_back(static_cast<tree::MemberId>(pick));
  std::vector<tree::MemberId> js;
  for (std::size_t j = 0; j < joins; ++j)
    js.push_back(static_cast<tree::MemberId>(n + j));
  tree::Marker m(t);
  const auto upd = m.run(js, ls);
  tree::RekeyPayload payload = tree::generate_rekey_payload(t, upd, 1);
  return Batch{std::move(t), std::move(payload)};
}

tree::RekeyPayload make_payload(std::size_t n, std::size_t joins,
                                std::size_t leaves, unsigned d,
                                std::uint64_t seed) {
  return make_batch(n, joins, leaves, d, seed).payload;
}

// The users of the batch's tree that need at least one encryption.
std::vector<tree::NodeId> users_with_needs(const Batch& b) {
  std::vector<tree::NodeId> out;
  for (const tree::NodeId user : b.tree.user_slots())
    if (!b.payload.user_needs.needs_of(user).empty()) out.push_back(user);
  return out;
}

// All encryption ids a user needs, from the payload.
std::set<std::uint32_t> needed_ids(const tree::RekeyPayload& p,
                                   tree::NodeId user) {
  std::set<std::uint32_t> out;
  for (const auto idx : p.user_needs.needs_of(user))
    out.insert(static_cast<std::uint32_t>(p.encryptions[idx].enc_id));
  return out;
}

TEST(Uka, EmptyPayloadNoPackets) {
  tree::RekeyPayload p;
  const auto a = assign_keys(p, 1027);
  EXPECT_TRUE(a.packets.empty());
  EXPECT_EQ(a.duplication_overhead(), 0.0);
}

TEST(Uka, EachUserCoveredByExactlyOnePacket) {
  const Batch b = make_batch(256, 0, 64, 4, 1);
  const auto a = assign_keys(b.payload, 1027);
  for (const tree::NodeId user : users_with_needs(b)) {
    int covering = 0;
    for (const auto& pkt : a.packets)
      if (pkt.frm_id <= user && user <= pkt.to_id) ++covering;
    EXPECT_EQ(covering, 1) << "user " << user;
  }
}

TEST(Uka, CoveringPacketContainsAllUserNeeds) {
  const Batch b = make_batch(256, 32, 64, 4, 2);
  const auto a = assign_keys(b.payload, 1027);
  for (const tree::NodeId user : users_with_needs(b)) {
    const auto want = needed_ids(b.payload, user);
    for (const auto& pkt : a.packets) {
      if (!(pkt.frm_id <= user && user <= pkt.to_id)) continue;
      std::set<std::uint32_t> have;
      for (const auto& e : pkt.entries) have.insert(e.enc_id);
      for (const auto id : want)
        EXPECT_TRUE(have.count(id))
            << "user " << user << " missing encryption " << id;
    }
  }
}

TEST(Uka, RangesSortedAndDisjoint) {
  const auto payload = make_payload(512, 0, 128, 4, 3);
  const auto a = assign_keys(payload, 1027);
  ASSERT_GT(a.packets.size(), 1u);
  for (std::size_t i = 0; i < a.packets.size(); ++i)
    EXPECT_LE(a.packets[i].frm_id, a.packets[i].to_id);
  for (std::size_t i = 1; i < a.packets.size(); ++i)
    EXPECT_LT(a.packets[i - 1].to_id, a.packets[i].frm_id);
}

TEST(Uka, CapacityRespected) {
  const auto payload = make_payload(1024, 0, 256, 4, 4);
  for (const std::size_t size : {200u, 500u, 1027u}) {
    const auto a = assign_keys(payload, size);
    for (const auto& pkt : a.packets) {
      EXPECT_LE(pkt.entries.size(), max_entries(size));
      EXPECT_LE(pkt.serialize(size).size(), size);
    }
  }
}

TEST(Uka, EntriesBottomUpWithinPacket) {
  const auto payload = make_payload(256, 0, 64, 4, 5);
  const auto a = assign_keys(payload, 1027);
  for (const auto& pkt : a.packets)
    for (std::size_t i = 1; i < pkt.entries.size(); ++i)
      EXPECT_GT(pkt.entries[i - 1].enc_id, pkt.entries[i].enc_id);
}

TEST(Uka, HeadersCarryMessageMetadata) {
  const auto payload = make_payload(64, 0, 16, 4, 6);
  const auto a = assign_keys(payload, 1027);
  for (const auto& pkt : a.packets) {
    EXPECT_EQ(pkt.msg_id, payload.msg_id % 64);
    EXPECT_EQ(pkt.max_kid, payload.max_kid);
  }
}

TEST(Uka, SmallerPacketsMeanMorePacketsAndMoreDuplication) {
  const auto payload = make_payload(1024, 0, 256, 4, 7);
  const auto big = assign_keys(payload, 1027);
  const auto small = assign_keys(payload, 300);
  EXPECT_GT(small.packets.size(), big.packets.size());
  EXPECT_GE(small.duplication_overhead(), big.duplication_overhead());
}

TEST(Uka, DuplicationAccountingConsistent) {
  const auto payload = make_payload(512, 128, 128, 4, 8);
  const auto a = assign_keys(payload, 1027);
  std::size_t entries = 0;
  for (const auto& pkt : a.packets) entries += pkt.entries.size();
  EXPECT_EQ(entries, a.total_entries);
  EXPECT_EQ(a.unique_encryptions, payload.encryptions.size());
  EXPECT_GE(a.total_entries, a.unique_encryptions);
  // The paper's empirical bound: duplication < (log_d N - 1) / 46 * ~2.
  EXPECT_LT(a.duplication_overhead(), 0.3);
}

TEST(Uka, SingleUserBatchOnePacket) {
  const auto payload = make_payload(64, 1, 1, 4, 9);
  const auto a = assign_keys(payload, 1027);
  EXPECT_GE(a.packets.size(), 1u);
  // 64 users with a height-3 tree: all needs fit one packet? Not
  // necessarily, but every packet must be non-empty and within range.
  for (const auto& pkt : a.packets) EXPECT_FALSE(pkt.entries.empty());
}

TEST(SequentialBaseline, NoDuplication) {
  const auto payload = make_payload(512, 0, 128, 4, 20);
  const auto a = assign_keys_sequential(payload, 1027);
  EXPECT_EQ(a.total_entries, a.unique_encryptions);
  EXPECT_DOUBLE_EQ(a.duplication_overhead(), 0.0);
}

TEST(SequentialBaseline, FewerOrEqualPacketsThanUka) {
  const auto payload = make_payload(1024, 0, 256, 4, 21);
  const auto seq = assign_keys_sequential(payload, 1027);
  const auto uka = assign_keys(payload, 1027);
  EXPECT_LE(seq.packets.size(), uka.packets.size());
}

TEST(SequentialBaseline, EveryEncryptionCarriedOnce) {
  const auto payload = make_payload(256, 32, 64, 4, 22);
  const auto a = assign_keys_sequential(payload, 1027);
  std::set<std::uint32_t> seen;
  for (const auto& pkt : a.packets)
    for (const auto& e : pkt.entries)
      EXPECT_TRUE(seen.insert(e.enc_id).second);
  EXPECT_EQ(seen.size(), payload.encryptions.size());
}

TEST(SequentialBaseline, UsersNeedMultiplePackets) {
  const Batch b = make_batch(4096, 0, 1024, 4, 23);
  const auto seq = assign_keys_sequential(b.payload, 1027);
  const auto per_user = packets_needed_per_user(b.tree, b.payload, seq);
  double mean = 0;
  for (const auto n : per_user) mean += static_cast<double>(n);
  mean /= static_cast<double>(per_user.size());
  // The whole point of UKA: without it a user's chain spans packets.
  EXPECT_GT(mean, 1.5);
}

TEST(PacketsNeededPerUser, UkaIsAlwaysOne) {
  const Batch b = make_batch(1024, 128, 256, 4, 24);
  const auto uka = assign_keys(b.payload, 1027);
  for (const auto n : packets_needed_per_user(b.tree, b.payload, uka))
    EXPECT_EQ(n, 1u);
}

TEST(PacketsNeededPerUser, EmptyPayload) {
  tree::KeyTree t(4, 1);
  t.populate(16);
  tree::RekeyPayload payload;
  const auto a = assign_keys(payload, 1027);
  EXPECT_TRUE(packets_needed_per_user(t, payload, a).empty());
}

TEST(Uka, PaperScaleMessageSize) {
  // N=4096, J=0, L=N/4: the paper reports ~90-107 ENC packets.
  const auto payload = make_payload(4096, 0, 1024, 4, 10);
  const auto a = assign_keys(payload, 1027);
  EXPECT_GT(a.packets.size(), 60u);
  EXPECT_LT(a.packets.size(), 130u);
  // Duplication overhead around 0.05-0.12 at this shape (paper Fig 7).
  EXPECT_GT(a.duplication_overhead(), 0.01);
  EXPECT_LT(a.duplication_overhead(), 0.2);
}

}  // namespace
}  // namespace rekey::packet
