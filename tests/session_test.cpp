// End-to-end transport sessions over the simulated network: reliability
// under loss, multicast-only convergence, unicast fallback, adaptive rho
// behaviour, and deadline accounting.
#include <gtest/gtest.h>

#include <map>

#include "common/ensure.h"
#include "transport/session.h"
#include "transport/workload.h"

namespace rekey::transport {
namespace {

simnet::TopologyConfig topo_config(std::size_t n, double alpha,
                                   double p_high, double p_low,
                                   double p_src, bool burst = true) {
  simnet::TopologyConfig t;
  t.num_users = n;
  t.alpha = alpha;
  t.p_high = p_high;
  t.p_low = p_low;
  t.p_source = p_src;
  t.burst_loss = burst;
  return t;
}

MessageMetrics run_one(std::size_t n, std::size_t leaves,
                       const ProtocolConfig& cfg,
                       const simnet::TopologyConfig& tc,
                       std::uint64_t seed = 1) {
  WorkloadConfig wc;
  wc.group_size = n;
  wc.leaves = leaves;
  auto msg = generate_message(wc, seed, 1);
  simnet::Topology topo(tc, seed ^ 0xABCD);
  RhoController rho(cfg, seed);
  RekeySession session(topo, cfg, rho);
  return session.run_message(msg.payload, std::move(msg.assignment),
                             msg.old_ids);
}

TEST(Session, LosslessNetworkOneRound) {
  ProtocolConfig cfg;
  const auto m =
      run_one(256, 64, cfg, topo_config(256, 0.0, 0.0, 0.0, 0.0));
  EXPECT_EQ(m.multicast_rounds, 1);
  EXPECT_EQ(m.round1_nacks, 0u);
  EXPECT_EQ(m.recovered_in_round.at(1), m.users);
  EXPECT_EQ(m.unicast_users, 0u);
  EXPECT_EQ(m.multicast_sent, m.slots);  // rho = 1: no parities at all
  EXPECT_DOUBLE_EQ(m.rho_used, 1.0);
}

TEST(Session, EveryUserEventuallyRecoversMulticastOnly) {
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 0;  // multicast until done
  const auto m =
      run_one(512, 128, cfg, topo_config(512, 0.2, 0.2, 0.02, 0.01));
  std::size_t recovered = 0;
  for (const auto& [round, count] : m.recovered_in_round) recovered += count;
  EXPECT_EQ(recovered, m.users);
  EXPECT_EQ(m.unicast_users, 0u);
  EXPECT_GE(m.multicast_rounds, 2);
}

TEST(Session, UnicastFallbackCoversStragglers) {
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 1;
  const auto m =
      run_one(512, 128, cfg, topo_config(512, 0.3, 0.4, 0.02, 0.01), 3);
  std::size_t recovered_mc = 0;
  for (const auto& [round, count] : m.recovered_in_round)
    recovered_mc += count;
  EXPECT_EQ(recovered_mc + m.unicast_users, m.users);
  EXPECT_GT(m.unicast_users, 0u);
  EXPECT_GT(m.usr_packets, 0u);
  EXPECT_EQ(m.multicast_rounds, 1);
}

TEST(Session, ExtremeLossStillConverges) {
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 2;
  const auto m =
      run_one(64, 16, cfg, topo_config(64, 1.0, 0.7, 0.7, 0.05), 7);
  std::size_t total = m.unicast_users;
  for (const auto& [round, count] : m.recovered_in_round) total += count;
  EXPECT_EQ(total, m.users);
}

TEST(Session, ProactiveParitiesReduceRound1Nacks) {
  ProtocolConfig low, high;
  low.initial_rho = 1.0;
  low.adaptive_rho = false;
  high.initial_rho = 2.0;
  high.adaptive_rho = false;
  const auto tc = topo_config(1024, 0.2, 0.2, 0.02, 0.01);
  const auto m_low = run_one(1024, 256, low, tc, 11);
  const auto m_high = run_one(1024, 256, high, tc, 11);
  EXPECT_GT(m_low.round1_nacks, 4 * m_high.round1_nacks);
}

TEST(Session, AdaptiveRhoConvergesTowardsTarget) {
  // Run a sequence of messages; the round-1 NACK count should settle
  // near numNACK = 20 (paper Fig 13).
  ProtocolConfig cfg;
  cfg.num_nack_target = 20;
  WorkloadConfig wc;
  wc.group_size = 1024;
  wc.leaves = 256;
  simnet::Topology topo(topo_config(1024, 0.2, 0.2, 0.02, 0.01), 99);
  RhoController rho(cfg, 99);
  RekeySession session(topo, cfg, rho);
  std::vector<std::size_t> nacks;
  for (std::uint32_t i = 0; i < 12; ++i) {
    auto msg = generate_message(wc, 1000 + i, i);
    const auto m = session.run_message(msg.payload,
                                       std::move(msg.assignment),
                                       msg.old_ids);
    nacks.push_back(m.round1_nacks);
  }
  // Settled behaviour: last few messages within a loose band around 20.
  double tail = 0;
  for (std::size_t i = nacks.size() - 4; i < nacks.size(); ++i)
    tail += static_cast<double>(nacks[i]);
  tail /= 4;
  EXPECT_LT(tail, 60.0);
  EXPECT_GT(rho.rho(), 1.0);  // some proactivity was learned
}

TEST(Session, FixedRhoWhenAdaptationDisabled) {
  ProtocolConfig cfg;
  cfg.adaptive_rho = false;
  cfg.initial_rho = 1.3;
  WorkloadConfig wc;
  wc.group_size = 256;
  wc.leaves = 64;
  simnet::Topology topo(topo_config(256, 0.2, 0.2, 0.02, 0.01), 5);
  RhoController rho(cfg, 5);
  RekeySession session(topo, cfg, rho);
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto msg = generate_message(wc, 2000 + i, i);
    session.run_message(msg.payload, std::move(msg.assignment), msg.old_ids);
    EXPECT_DOUBLE_EQ(rho.rho(), 1.3);
  }
}

TEST(Session, DeadlineAccounting) {
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 2;
  cfg.deadline_rounds = 2;
  const auto m =
      run_one(512, 128, cfg, topo_config(512, 0.3, 0.4, 0.05, 0.01), 13);
  std::size_t met = 0;
  for (const auto& [round, count] : m.recovered_in_round)
    if (round <= 2) met += count;
  EXPECT_EQ(m.deadline_misses, m.users - met);
}

TEST(Session, RecoveredCallbackDeliversUsableEntries) {
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 2;
  WorkloadConfig wc;
  wc.group_size = 128;
  wc.leaves = 32;
  auto msg = generate_message(wc, 21, 1);
  simnet::Topology topo(topo_config(128, 0.2, 0.2, 0.02, 0.01), 21);
  RhoController rho(cfg, 21);
  RekeySession session(topo, cfg, rho);
  std::map<std::size_t, std::size_t> entries_per_user;
  const auto m = session.run_message(
      msg.payload, std::move(msg.assignment), msg.old_ids,
      [&](std::size_t u, const UserTransport& state) {
        EXPECT_TRUE(state.recovered());
        entries_per_user[u] = state.entries().size();
      });
  EXPECT_EQ(entries_per_user.size(), m.users);
  for (const auto& [u, n] : entries_per_user) EXPECT_GE(n, 1u);
}

TEST(Session, BandwidthOverheadAtLeastSlotRatio) {
  ProtocolConfig cfg;
  const auto m =
      run_one(512, 128, cfg, topo_config(512, 0.2, 0.2, 0.02, 0.01), 17);
  EXPECT_GE(m.bandwidth_overhead(),
            static_cast<double>(m.slots) /
                static_cast<double>(m.enc_packets));
  EXPECT_GT(m.total_nacks, 0u);
}

TEST(Session, SmallBlockSizeStillReliable) {
  ProtocolConfig cfg;
  cfg.block_size = 1;
  cfg.max_multicast_rounds = 2;
  const auto m =
      run_one(256, 64, cfg, topo_config(256, 0.2, 0.2, 0.02, 0.01), 19);
  std::size_t total = m.unicast_users;
  for (const auto& [round, count] : m.recovered_in_round) total += count;
  EXPECT_EQ(total, m.users);
}

TEST(Session, LargeBlockSizeStillReliable) {
  ProtocolConfig cfg;
  cfg.block_size = 50;
  cfg.max_multicast_rounds = 2;
  const auto m =
      run_one(256, 64, cfg, topo_config(256, 0.2, 0.2, 0.02, 0.01), 23);
  std::size_t total = m.unicast_users;
  for (const auto& [round, count] : m.recovered_in_round) total += count;
  EXPECT_EQ(total, m.users);
}

TEST(Session, EarlyUnicastBySizeSwitches) {
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 0;
  cfg.early_unicast_by_size = true;
  const auto m =
      run_one(512, 128, cfg, topo_config(512, 0.2, 0.2, 0.02, 0.01), 29);
  // With a handful of stragglers after round 1, USR bytes are far below a
  // parity round: the session should have switched instead of multicasting
  // for many rounds.
  EXPECT_LE(m.multicast_rounds, 3);
  std::size_t total = m.unicast_users;
  for (const auto& [round, count] : m.recovered_in_round) total += count;
  EXPECT_EQ(total, m.users);
}

TEST(Session, WakeupResendsCachedNacksWithoutExtraRoundEnds) {
  // Regression: the unicast wake-up path used to call end_of_round again
  // on every wave for users the server had not heard from, re-running
  // round-end decode on a round that had already ended. It must resend
  // the cached entries instead, so a user sees at most one end_of_round
  // per multicast round.
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 1;
  WorkloadConfig wc;
  wc.group_size = 256;
  wc.leaves = 64;
  auto msg = generate_message(wc, 37, 1);
  // Heavy loss on every link: round-1 NACKs are frequently lost, so the
  // unicast phase needs wake-up NACKs for users the server never heard.
  simnet::Topology topo(topo_config(256, 1.0, 0.6, 0.6, 0.05), 37);
  RhoController rho(cfg, 37);
  RekeySession session(topo, cfg, rho);
  int max_rounds_ended = 0;
  const auto m = session.run_message(
      msg.payload, std::move(msg.assignment), msg.old_ids,
      [&](std::size_t, const UserTransport& state) {
        max_rounds_ended = std::max(max_rounds_ended, state.rounds_ended());
      });
  ASSERT_GT(m.wakeup_nacks, 0u);
  EXPECT_LE(max_rounds_ended, m.multicast_rounds);
  std::size_t total = m.unicast_users;
  for (const auto& [round, count] : m.recovered_in_round) total += count;
  EXPECT_EQ(total, m.users);
}

TEST(Session, UsrBytesCountedInTotalBandwidthOverhead) {
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 1;
  const auto m =
      run_one(512, 128, cfg, topo_config(512, 0.3, 0.4, 0.02, 0.01), 3);
  ASSERT_GT(m.usr_packets, 0u);
  EXPECT_GT(m.usr_bytes, 0u);
  EXPECT_EQ(m.packet_size, cfg.packet_size);
  EXPECT_GT(m.total_bandwidth_overhead(), m.bandwidth_overhead());
}

TEST(Session, SplitsSurviveTransport) {
  // J > L workload: users relocated by splits must still recover.
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 2;
  WorkloadConfig wc;
  wc.group_size = 256;
  wc.joins = 128;
  wc.leaves = 16;
  auto msg = generate_message(wc, 31, 1);
  simnet::Topology topo(topo_config(512, 0.2, 0.2, 0.02, 0.01), 31);
  RhoController rho(cfg, 31);
  RekeySession session(topo, cfg, rho);
  const auto m = session.run_message(msg.payload, std::move(msg.assignment),
                                     msg.old_ids);
  std::size_t total = m.unicast_users;
  for (const auto& [round, count] : m.recovered_in_round) total += count;
  EXPECT_EQ(total, m.users);
  EXPECT_EQ(m.users, msg.num_users);
}

TEST(Session, ResumeClockBackwardsRejected) {
  ProtocolConfig cfg;
  simnet::Topology topo(topo_config(32, 0.2, 0.2, 0.02, 0.01), 9);
  RhoController rho(cfg, 9);
  RekeySession session(topo, cfg, rho);
  session.resume_clock_at(0.0);     // equal is fine
  session.resume_clock_at(500.0);   // forward is fine
  EXPECT_DOUBLE_EQ(session.clock_ms(), 500.0);
  // Backwards would hand the shared Gilbert chains non-monotone query
  // times; reject at the API boundary instead of deep inside a round.
  EXPECT_THROW(session.resume_clock_at(499.0), EnsureError);
}

TEST(Session, UnicastGiveUpAccountsEveryUser) {
  // A topology whose uplinks drop everything: the server never learns any
  // user, so the unicast phase can only spin on wake-up NACKs. With
  // unicast_max_waves armed the message terminates and every user is
  // explicitly accounted as given up.
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 2;
  cfg.unicast_max_waves = 4;
  simnet::TopologyConfig tc =
      topo_config(64, 1.0, 1.0, 1.0, 0.0, /*burst=*/false);
  const MessageMetrics m = run_one(64, 16, cfg, tc, 21);
  EXPECT_EQ(m.gave_up_users, m.users);
  EXPECT_EQ(m.unicast_waves, 4u);
  std::size_t recovered = 0;
  for (const auto& [round, count] : m.recovered_in_round) recovered += count;
  EXPECT_EQ(recovered, 0u);
}

TEST(Session, GiveUpDisabledByDefaultKeepsRetrying) {
  // Same degraded unicast phase but with recoverable loss: the default
  // unicast_max_waves=0 retries until everyone is served, as before.
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 1;
  simnet::TopologyConfig tc =
      topo_config(64, 1.0, 0.6, 0.6, 0.0, /*burst=*/false);
  const MessageMetrics m = run_one(64, 16, cfg, tc, 22);
  EXPECT_EQ(m.gave_up_users, 0u);
  std::size_t recovered = 0;
  for (const auto& [round, count] : m.recovered_in_round) recovered += count;
  for (const auto& [wave, count] : m.unicast_recovered_in_wave)
    recovered += count;
  EXPECT_EQ(recovered, m.users);
}

}  // namespace
}  // namespace rekey::transport
