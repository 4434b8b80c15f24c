// The per-message transport policy on scripted counts: the round-end
// decision (done, another round, unicast by the round cap or by §7.1's
// size test), round-1 feedback to AdjustRho, the USR copy schedule, the
// unicast wave cap, and the deadline report to numNACK.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <vector>

#include "common/ensure.h"
#include "transport/policy.h"

namespace rekey::transport {
namespace {

using Next = MessagePolicy::Next;

// An owed-bytes callback that answers `bytes` and counts its calls.
struct Owed {
  std::size_t bytes = 0;
  int calls = 0;
  std::function<std::size_t()> fn() {
    return [this] {
      ++calls;
      return bytes;
    };
  }
};

TEST(MessagePolicy, DoneAtZeroUnrecoveredEvenInTheCapRound) {
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 3;
  cfg.max_rounds_cap = 5;
  RhoController rho(cfg, 1);
  MessagePolicy policy(cfg, rho);
  Owed owed;
  EXPECT_EQ(policy.after_round(1, 0, 0, owed.fn()), Next::Done);
  EXPECT_EQ(policy.after_round(3, 0, 0, owed.fn()), Next::Done);
  ProtocolConfig only = cfg;
  only.max_multicast_rounds = 0;  // multicast only: the cap is max_rounds_cap
  MessagePolicy multicast_only(only, rho);
  EXPECT_EQ(multicast_only.after_round(5, 0, 0, owed.fn()), Next::Done);
}

TEST(MessagePolicy, UnicastAtTheRoundCapAndNeverByACapOfZero) {
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 3;
  RhoController rho(cfg, 1);
  MessagePolicy policy(cfg, rho);
  Owed owed;
  EXPECT_EQ(policy.after_round(1, 7, 4, owed.fn()), Next::Round);
  EXPECT_EQ(policy.after_round(2, 7, 4, owed.fn()), Next::Round);
  EXPECT_EQ(policy.after_round(3, 7, 4, owed.fn()), Next::Unicast);
  ProtocolConfig only = cfg;
  only.max_multicast_rounds = 0;
  MessagePolicy multicast_only(only, rho);
  for (int round = 1; round < only.max_rounds_cap; ++round)
    EXPECT_EQ(multicast_only.after_round(round, 1, 4, owed.fn()), Next::Round)
        << round;
}

TEST(MessagePolicy, EarlyUnicastWhenOwedBytesFitTheNextRoundsParities) {
  ProtocolConfig cfg;
  cfg.early_unicast_by_size = true;
  cfg.packet_size = 300;
  RhoController rho(cfg, 1);
  MessagePolicy policy(cfg, rho);
  Owed owed;
  owed.bytes = 2 * 300;  // exactly the 2 pending parities' bytes
  EXPECT_EQ(policy.after_round(1, 4, 2, owed.fn()), Next::Unicast);
  owed.bytes = 2 * 300 + 1;
  EXPECT_EQ(policy.after_round(1, 4, 2, owed.fn()), Next::Round);
  owed.bytes = 0;  // nothing owed is no reason to switch
  EXPECT_EQ(policy.after_round(1, 4, 2, owed.fn()), Next::Round);
  EXPECT_EQ(policy.after_round(1, 4, 0, owed.fn()), Next::Round);
  EXPECT_EQ(owed.calls, 4);
  // Nothing left short: done before any owed bytes are asked for.
  EXPECT_EQ(policy.after_round(2, 0, 2, owed.fn()), Next::Done);
  EXPECT_EQ(owed.calls, 4);
}

TEST(MessagePolicy, OwedBytesAreNeverAskedForWithoutTheSizeTest) {
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 4;
  RhoController rho(cfg, 1);
  MessagePolicy policy(cfg, rho);
  Owed owed;
  owed.bytes = 1;  // would switch at once if asked
  for (int round = 1; round < 4; ++round)
    EXPECT_EQ(policy.after_round(round, 9, 100, owed.fn()), Next::Round);
  EXPECT_EQ(policy.after_round(4, 9, 100, owed.fn()), Next::Unicast);
  EXPECT_EQ(owed.calls, 0);
}

TEST(MessagePolicy, MulticastOnlyThrowsPastTheRoundCap) {
  ProtocolConfig cfg;
  cfg.max_multicast_rounds = 0;
  cfg.max_rounds_cap = 5;
  RhoController rho(cfg, 1);
  MessagePolicy policy(cfg, rho);
  Owed owed;
  EXPECT_EQ(policy.after_round(4, 1, 0, owed.fn()), Next::Round);
  EXPECT_THROW(policy.after_round(5, 1, 0, owed.fn()), EnsureError);
}

TEST(MessagePolicy, OnlyRoundOneFeedbackMovesRhoAndOnlyWhenAdaptive) {
  ProtocolConfig cfg;
  cfg.num_nack_target = 2;
  const std::vector<std::uint8_t> five_nacks = {3, 3, 3, 3, 3};
  {
    RhoController rho(cfg, 1);
    MessagePolicy policy(cfg, rho);
    policy.on_feedback(2, five_nacks);
    EXPECT_EQ(rho.proactive_parities(), 0);
    policy.on_feedback(1, five_nacks);  // the 3rd neediest asked for 3
    EXPECT_EQ(rho.proactive_parities(), 3);
    policy.on_feedback(3, five_nacks);
    EXPECT_EQ(rho.proactive_parities(), 3);
  }
  cfg.adaptive_rho = false;
  RhoController rho(cfg, 1);
  MessagePolicy policy(cfg, rho);
  policy.on_feedback(1, five_nacks);
  EXPECT_EQ(rho.proactive_parities(), 0);
}

TEST(MessagePolicy, DegradedRoundOneReachesTheClamp) {
  ProtocolConfig cfg;
  cfg.num_nack_target = 2;
  RhoController rho(cfg, 1);
  MessagePolicy policy(cfg, rho);
  policy.on_feedback(1, {4, 4, 4, 4, 4}, /*degraded=*/true);
  EXPECT_EQ(rho.proactive_parities(), 1);  // one parity, not four
}

TEST(MessagePolicy, UsrCopiesGrowByOnePerMiss) {
  ProtocolConfig cfg;
  cfg.usr_initial_duplicates = 3;
  RhoController rho(cfg, 1);
  const MessagePolicy policy(cfg, rho);
  EXPECT_EQ(policy.usr_copies(0), 3);
  EXPECT_EQ(policy.usr_copies(1), 4);
  EXPECT_EQ(policy.usr_copies(5), 8);
}

TEST(MessagePolicy, WaveCapWhereZeroIsUnbounded) {
  ProtocolConfig cfg;
  cfg.unicast_max_waves = 2;
  RhoController rho(cfg, 1);
  const MessagePolicy capped(cfg, rho);
  EXPECT_TRUE(capped.more_waves(0));
  EXPECT_TRUE(capped.more_waves(1));
  EXPECT_FALSE(capped.more_waves(2));
  EXPECT_FALSE(capped.more_waves(3));
  ProtocolConfig open;
  const MessagePolicy unbounded(open, rho);
  EXPECT_TRUE(unbounded.more_waves(100000));
}

TEST(MessagePolicy, DeadlineMissesAreTheShortAfterTheDeadlineRound) {
  ProtocolConfig cfg;
  cfg.deadline_rounds = 2;
  RhoController rho(cfg, 1);
  Owed owed;
  {
    MessagePolicy policy(cfg, rho);
    EXPECT_EQ(policy.after_round(1, 10, 3, owed.fn()), Next::Round);
    EXPECT_EQ(policy.after_round(2, 4, 3, owed.fn()), Next::Round);
    EXPECT_EQ(policy.after_round(3, 1, 3, owed.fn()), Next::Round);
    EXPECT_EQ(policy.after_round(4, 0, 3, owed.fn()), Next::Done);
    EXPECT_EQ(policy.finish(), 4u);
  }
  {
    // The last round comes before the deadline: its short count stands.
    cfg.deadline_rounds = 5;
    cfg.max_multicast_rounds = 3;
    MessagePolicy policy(cfg, rho);
    policy.after_round(1, 10, 3, owed.fn());
    policy.after_round(2, 4, 3, owed.fn());
    EXPECT_EQ(policy.after_round(3, 2, 3, owed.fn()), Next::Unicast);
    EXPECT_EQ(policy.finish(), 2u);
  }
  {
    cfg.deadline_rounds = 0;  // no deadline: no misses
    MessagePolicy policy(cfg, rho);
    policy.after_round(1, 10, 3, owed.fn());
    EXPECT_EQ(policy.finish(), 0u);
  }
}

TEST(MessagePolicy, DeadlineReportAdaptsNumNackOnlyUnderAdaptNumNack) {
  ProtocolConfig cfg;
  cfg.deadline_rounds = 1;
  cfg.num_nack_target = 20;
  Owed owed;
  const auto message = [&](RhoController& rho, std::size_t short_after_1) {
    MessagePolicy policy(cfg, rho);
    policy.after_round(1, short_after_1, 0, owed.fn());
    policy.finish();
  };
  {
    RhoController rho(cfg, 1);
    message(rho, 0);
    EXPECT_EQ(rho.num_nack_target(), 20);
  }
  cfg.adapt_num_nack = true;
  RhoController rho(cfg, 1);
  message(rho, 0);  // no misses: one more NACK allowed
  EXPECT_EQ(rho.num_nack_target(), 21);
  message(rho, 3);  // three misses: three fewer
  EXPECT_EQ(rho.num_nack_target(), 18);
}

}  // namespace
}  // namespace rekey::transport
