// Full-stack integration tests for GroupKeyService: registration, batch
// rekeying, ideal and simulated delivery, and multi-interval consistency.
#include <gtest/gtest.h>

#include <string>

#include "common/ensure.h"
#include "core/service.h"

namespace rekey::core {
namespace {

ServiceConfig default_config() {
  ServiceConfig cfg;
  cfg.degree = 4;
  cfg.protocol.max_multicast_rounds = 2;
  return cfg;
}

TEST(Service, BootstrapHandsOutGroupKey) {
  GroupKeyService svc(default_config());
  const auto members = svc.bootstrap_members(64);
  EXPECT_EQ(svc.group_size(), 64u);
  for (const auto m : members) {
    ASSERT_TRUE(svc.member(m).group_key().has_value());
    EXPECT_EQ(*svc.member(m).group_key(), svc.group_key());
  }
}

TEST(Service, BootstrapRequiresEmptyGroup) {
  GroupKeyService svc(default_config());
  svc.bootstrap_members(4);
  EXPECT_THROW(svc.bootstrap_members(4), EnsureError);
}

TEST(Service, LeaveChangesGroupKeyAndLocksOutDeparted) {
  GroupKeyService svc(default_config());
  const auto members = svc.bootstrap_members(32);
  const auto old_key = svc.group_key();
  svc.request_leave(members[5]);
  const auto report = svc.rekey_interval();
  EXPECT_EQ(report.leaves, 1u);
  EXPECT_GT(report.encryptions, 0u);
  EXPECT_NE(svc.group_key(), old_key);
  EXPECT_FALSE(svc.has_member(members[5]));
  for (const auto m : members) {
    if (m == members[5]) continue;
    EXPECT_EQ(*svc.member(m).group_key(), svc.group_key());
  }
}

TEST(Service, JoinGetsKeysOnlyAfterInterval) {
  GroupKeyService svc(default_config());
  svc.bootstrap_members(16);
  const auto newbie = svc.register_member();
  svc.request_join(newbie);
  EXPECT_FALSE(svc.has_member(newbie));
  svc.rekey_interval();
  ASSERT_TRUE(svc.has_member(newbie));
  EXPECT_EQ(*svc.member(newbie).group_key(), svc.group_key());
}

TEST(Service, JoinValidation) {
  GroupKeyService svc(default_config());
  const auto members = svc.bootstrap_members(8);
  EXPECT_THROW(svc.request_join(members[0]), EnsureError);  // already in
  EXPECT_THROW(svc.request_join(1000), EnsureError);        // unregistered
  const auto m = svc.register_member();
  svc.request_join(m);
  EXPECT_THROW(svc.request_join(m), EnsureError);  // already pending
}

TEST(Service, LeaveValidation) {
  GroupKeyService svc(default_config());
  const auto members = svc.bootstrap_members(8);
  svc.request_leave(members[0]);
  EXPECT_THROW(svc.request_leave(members[0]), EnsureError);
  EXPECT_THROW(svc.request_leave(999), EnsureError);
}

TEST(Service, EmptyIntervalIsNoop) {
  GroupKeyService svc(default_config());
  svc.bootstrap_members(8);
  const auto key = svc.group_key();
  const auto report = svc.rekey_interval();
  EXPECT_EQ(report.encryptions, 0u);
  EXPECT_EQ(svc.group_key(), key);
  EXPECT_EQ(svc.intervals_completed(), 0u);
}

TEST(Service, ManyIntervalsOfChurnStayConsistent) {
  GroupKeyService svc(default_config());
  auto members = svc.bootstrap_members(64);
  Rng rng(77);
  for (int interval = 0; interval < 10; ++interval) {
    // A few leaves and joins per interval.
    rng.shuffle(members);
    const std::size_t L = 1 + rng.next_in(0, 5);
    std::vector<tree::MemberId> leaving(members.begin(),
                                        members.begin() + L);
    for (const auto m : leaving) svc.request_leave(m);
    members.erase(members.begin(), members.begin() + L);
    const std::size_t J = rng.next_in(0, 6);
    for (std::size_t j = 0; j < J; ++j) {
      const auto m = svc.register_member();
      svc.request_join(m);
      members.push_back(m);
    }
    svc.rekey_interval();
    EXPECT_EQ(svc.group_size(), members.size());
    for (const auto m : members)
      EXPECT_EQ(*svc.member(m).group_key(), svc.group_key())
          << "interval " << interval << " member " << m;
  }
  EXPECT_EQ(svc.intervals_completed(), 10u);
}

TEST(Service, SimulatedDeliveryLossyNetwork) {
  ServiceConfig cfg = default_config();
  GroupKeyService svc(cfg);
  auto members = svc.bootstrap_members(128);

  simnet::TopologyConfig tc;
  tc.num_users = 128;
  tc.alpha = 0.2;
  tc.p_high = 0.2;
  tc.p_low = 0.02;
  tc.p_source = 0.01;
  simnet::Topology topo(tc, 31337);

  for (int interval = 0; interval < 4; ++interval) {
    svc.request_leave(members.back());
    members.pop_back();
    const auto m = svc.register_member();
    svc.request_join(m);
    members.push_back(m);

    const auto report = svc.rekey_interval_over(topo);
    ASSERT_TRUE(report.transport.has_value());
    EXPECT_GT(report.transport->multicast_sent, 0u);
    for (const auto mem : members)
      EXPECT_EQ(*svc.member(mem).group_key(), svc.group_key())
          << "interval " << interval;
  }
}

TEST(Service, SimulatedDeliveryExtremeLossStillConsistent) {
  ServiceConfig cfg = default_config();
  cfg.protocol.max_multicast_rounds = 1;
  GroupKeyService svc(cfg);
  auto members = svc.bootstrap_members(48);

  simnet::TopologyConfig tc;
  tc.num_users = 48;
  tc.alpha = 1.0;
  tc.p_high = 0.5;
  tc.p_source = 0.05;
  simnet::Topology topo(tc, 4242);

  svc.request_leave(members[0]);
  members.erase(members.begin());
  const auto report = svc.rekey_interval_over(topo);
  ASSERT_TRUE(report.transport.has_value());
  for (const auto m : members)
    EXPECT_EQ(*svc.member(m).group_key(), svc.group_key());
}

TEST(Service, SimulatedDeliveryRefusesIdsBeyondSixteenBits) {
  // The simulator's packets carry 16-bit user ids. A d = 2 group of
  // 2^15 + 2 members holds slots up to 98 304, so its interval must fail
  // with an error that names the limit before the session sends a packet,
  // not deep in the unicast phase on truncated ids.
  ServiceConfig cfg = default_config();
  cfg.degree = 2;
  GroupKeyService svc(cfg);
  const auto members = svc.bootstrap_members((1u << 15) + 2);
  simnet::TopologyConfig tc;
  tc.num_users = members.size();
  simnet::Topology topo(tc, 7);
  svc.request_leave(members[0]);
  try {
    svc.rekey_interval_over(topo);
    ADD_FAILURE() << "an interval over ids beyond 16 bits ran";
  } catch (const EnsureError& e) {
    EXPECT_NE(std::string(e.what()).find("16-bit id limit"),
              std::string::npos)
        << e.what();
  }
}

TEST(Service, ReportCountsMatchWorkload) {
  GroupKeyService svc(default_config());
  auto members = svc.bootstrap_members(32);
  for (int i = 0; i < 3; ++i) svc.request_leave(members[i]);
  for (int i = 0; i < 5; ++i) svc.request_join(svc.register_member());
  const auto report = svc.rekey_interval();
  EXPECT_EQ(report.joins, 5u);
  EXPECT_EQ(report.leaves, 3u);
  EXPECT_EQ(svc.group_size(), 34u);
  EXPECT_GT(report.enc_packets, 0u);
  EXPECT_GE(report.duplication_overhead, 0.0);
}

}  // namespace
}  // namespace rekey::core
