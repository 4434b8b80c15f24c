// Regression tests for the transport accounting fixes: unicast recoveries
// charged the wave they actually took, the Gilbert loss monotonicity
// contract, and usr_wire_bytes as the single source of truth for USR
// packet cost.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>

#include "common/ensure.h"
#include "common/rng.h"
#include "packet/wire.h"
#include "simnet/loss.h"
#include "transport/metrics.h"
#include "transport/server.h"
#include "transport/session.h"
#include "transport/workload.h"

namespace rekey::transport {
namespace {

MessageMetrics waved_message() {
  MessageMetrics m;
  m.users = 100;
  m.multicast_rounds = 2;
  m.recovered_in_round = {{1, 90}, {2, 5}};
  m.unicast_users = 5;
  // Wave w costs multicast_rounds + w rounds.
  m.unicast_recovered_in_wave = {{1, 3}, {3, 2}};
  m.unicast_waves = 3;
  return m;
}

TEST(UnicastWaves, MeanUserRoundsChargesActualWave) {
  const MessageMetrics m = waved_message();
  // 90*1 + 5*2 + 3*(2+1) + 2*(2+3) = 119 over 100 users.
  EXPECT_DOUBLE_EQ(m.mean_user_rounds(), 1.19);
  // The last stragglers finished in wave 3 = round 5.
  EXPECT_EQ(m.rounds_to_all(), 5);
}

TEST(UnicastWaves, FlatChargingWouldUndercount) {
  // The pre-fix accounting flattened every unicast recovery into the
  // multicast_rounds + 1 bucket; the wave-aware metrics must exceed it
  // whenever any straggler needed more than one wave.
  MessageMetrics flat = waved_message();
  flat.unicast_recovered_in_wave.clear();  // falls back to wave 1
  EXPECT_DOUBLE_EQ(flat.mean_user_rounds(), 1.15);
  EXPECT_EQ(flat.rounds_to_all(), 3);
  EXPECT_GT(waved_message().mean_user_rounds(), flat.mean_user_rounds());
}

TEST(UnicastWaves, UnattributedUsersFallBackToWaveOne) {
  MessageMetrics m = waved_message();
  m.unicast_recovered_in_wave = {{2, 3}};  // 2 of 5 users unattributed
  // 90*1 + 5*2 + 3*(2+2) + 2*(2+1) = 118 over 100 users.
  EXPECT_DOUBLE_EQ(m.mean_user_rounds(), 1.18);
  EXPECT_EQ(m.rounds_to_all(), 4);
}

TEST(UnicastWaves, RoundDistributionPlacesWavesInTheirBuckets) {
  RunMetrics run;
  run.messages.push_back(waved_message());
  const auto dist = run.round_distribution();
  ASSERT_EQ(dist.size(), 4u);
  EXPECT_DOUBLE_EQ(dist.at(1), 0.90);
  EXPECT_DOUBLE_EQ(dist.at(2), 0.05);
  EXPECT_DOUBLE_EQ(dist.at(3), 0.03);  // wave 1
  EXPECT_DOUBLE_EQ(dist.at(5), 0.02);  // wave 3
}

TEST(UnicastWaves, SessionAttributesEveryUnicastUserToAWave) {
  simnet::TopologyConfig tc;
  tc.num_users = 512;
  tc.alpha = 0.3;
  tc.p_high = 0.4;
  tc.p_low = 0.02;
  tc.p_source = 0.01;
  tc.burst_loss = true;

  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 1;  // force the unicast phase

  WorkloadConfig wc;
  wc.group_size = 512;
  wc.leaves = 128;
  auto msg = generate_message(wc, 3, 1);
  simnet::Topology topo(tc, 3 ^ 0xABCD);
  RhoController rho(cfg, 3);
  RekeySession session(topo, cfg, rho);
  const auto m = session.run_message(msg.payload, std::move(msg.assignment),
                                     msg.old_ids);

  ASSERT_GT(m.unicast_users, 0u);
  std::size_t attributed = 0;
  int max_wave = 0;
  for (const auto& [wave, count] : m.unicast_recovered_in_wave) {
    EXPECT_GE(wave, 1);
    EXPECT_LE(wave, static_cast<int>(m.unicast_waves));
    attributed += count;
    max_wave = std::max(max_wave, wave);
  }
  // Every unicast recovery is attributed to a real wave — no silent
  // fallback into the flat "+1" bucket.
  EXPECT_EQ(attributed, m.unicast_users);
  EXPECT_GE(m.unicast_waves, static_cast<std::size_t>(max_wave));
  EXPECT_EQ(m.rounds_to_all(), m.multicast_rounds + max_wave);
}

TEST(GilbertLoss, AcceptsWeaklyIncreasingQueries) {
  simnet::GilbertLoss loss(0.3, Rng(42));
  loss.lost(0.0);
  loss.lost(0.0);  // equal times are fine
  loss.lost(5.0);
  loss.lost(125.0);
  loss.lost(125.0);
  SUCCEED();
}

TEST(GilbertLoss, RejectsBackwardsQueries) {
  simnet::GilbertLoss loss(0.3, Rng(42));
  loss.lost(10.0);
  EXPECT_THROW(loss.lost(9.999), EnsureError);
}

TEST(GilbertLoss, RejectsBackwardsQueriesEvenWhenDegenerate) {
  // p = 0 short-circuits the chain, but the contract still holds: a
  // backwards query is a caller bug regardless of the loss rate.
  simnet::GilbertLoss loss(0.0, Rng(1));
  EXPECT_FALSE(loss.lost(50.0));
  EXPECT_THROW(loss.lost(0.0), EnsureError);
}

TEST(UsrWireBytes, MatchesSerializedPacketForEveryUser) {
  WorkloadConfig wc;
  wc.group_size = 256;
  wc.leaves = 64;
  auto msg = generate_message(wc, 7, 1);
  ProtocolConfig cfg;
  ServerTransport server(cfg, msg.payload, std::move(msg.assignment),
                         /*proactive_parities=*/0, /*msg_id=*/1);

  ASSERT_FALSE(msg.payload.user_needs.empty());
  // Every current user, at its post-batch slot.
  for (const std::uint16_t old_id : msg.old_ids) {
    const auto id = tree::derive_new_user_id(old_id, msg.payload.max_kid,
                                             msg.payload.degree);
    ASSERT_TRUE(id.has_value());
    const auto new_id = static_cast<std::uint16_t>(*id);
    const auto wire = server.usr_for(new_id).serialize();
    EXPECT_EQ(server.usr_wire_bytes(new_id),
              wire.size() + packet::kUdpIpOverheadBytes)
        << "user " << new_id;
  }
}

TEST(UsrWireBytes, AbsentUserCostsABareHeader) {
  WorkloadConfig wc;
  wc.group_size = 256;
  wc.leaves = 64;
  auto msg = generate_message(wc, 7, 1);
  ProtocolConfig cfg;
  ServerTransport server(cfg, msg.payload, std::move(msg.assignment), 0, 1);

  const std::uint16_t absent = 0xFFFF;
  ASSERT_TRUE(msg.payload.user_needs.needs_of(absent).empty());
  EXPECT_EQ(server.usr_wire_bytes(absent),
            packet::kUsrHeaderSize + packet::kUdpIpOverheadBytes);

  // The other ids no run covers. 250 users fill level 4 of a d = 4 tree
  // up to id 334, so the last k-node is 83 and id 84, on the k-nodes'
  // level, is no one's slot.
  wc.group_size = 250;
  auto partial = generate_message(wc, 7, 1);
  const tree::RekeyPayload& payload = partial.payload;
  ServerTransport partial_server(cfg, payload,
                                 std::move(partial.assignment), 0, 1);

  const tree::NodeId nk = payload.max_kid;
  const unsigned d = payload.degree;
  const tree::NodeId deep = tree::first_id_at_level(
      tree::level_of(nk, d) + 1, d);
  ASSERT_FALSE(payload.user_needs.empty());
  // No user sits on nk's level, so nk + 1 lies on a level with no users.
  ASSERT_LT(nk + 1, deep);
  ASSERT_GE(payload.user_needs.runs().front().first, deep);
  const tree::NodeId last_user = payload.user_needs.runs().back().last;
  const tree::NodeId ids[] = {
      nk + 1,         // a level with no users
      last_user + 1,  // past the last user
      nk,             // a k-node
      tree::kRootId,  // the root
  };
  for (const tree::NodeId id : ids) {
    EXPECT_TRUE(payload.user_needs.needs_of(id).empty()) << "id " << id;
    EXPECT_EQ(partial_server.usr_wire_bytes(static_cast<std::uint32_t>(id)),
              packet::kUsrHeaderSize + packet::kUdpIpOverheadBytes)
        << "id " << id;
  }
  // The run ends themselves are users with needs.
  EXPECT_FALSE(payload.user_needs.needs_of(last_user).empty());
}

}  // namespace
}  // namespace rekey::transport
