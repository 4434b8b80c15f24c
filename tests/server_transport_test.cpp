// Server transport and AdjustRho controller tests (paper Figs 2, 11, 26).
#include <gtest/gtest.h>

#include <set>

#include "common/ensure.h"
#include "transport/server.h"
#include "transport/workload.h"

namespace rekey::transport {
namespace {

GeneratedMessage small_message(std::uint64_t seed = 1) {
  WorkloadConfig wc;
  wc.group_size = 256;
  wc.leaves = 64;
  return generate_message(wc, seed, 1);
}

ProtocolConfig config_k(std::size_t k) {
  ProtocolConfig cfg;
  cfg.block_size = k;
  return cfg;
}

TEST(ServerTransport, Round1CarriesAllSlotsPlusProactiveParities) {
  const auto msg = small_message();
  const auto cfg = config_k(10);
  ServerTransport s(cfg, msg.payload, msg.assignment, /*proactive=*/3, 1);
  auto wires = s.round_packets(1);
  EXPECT_EQ(wires.size(), s.num_slots() + 3 * s.num_blocks());
  // Count types.
  std::size_t enc = 0, parity = 0;
  for (const auto& w : wires) {
    const auto t = packet::peek_type(w);
    enc += t == packet::PacketType::Enc;
    parity += t == packet::PacketType::Parity;
  }
  EXPECT_EQ(enc, s.num_slots());
  EXPECT_EQ(parity, 3 * s.num_blocks());
}

TEST(ServerTransport, InterleavedSendOrder) {
  const auto msg = small_message();
  auto cfg = config_k(10);
  cfg.interleave = true;
  ServerTransport s(cfg, msg.payload, msg.assignment, 0, 1);
  const auto wires = s.round_packets(1);
  // First num_blocks packets must be seq 0 of blocks 0, 1, 2, ...
  for (std::size_t b = 0; b < s.num_blocks(); ++b) {
    const auto h = packet::parse_enc_header(wires[b]);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->block_id, b);
    EXPECT_EQ(h->seq, 0);
  }
}

TEST(ServerTransport, SequentialSendOrder) {
  const auto msg = small_message();
  auto cfg = config_k(10);
  cfg.interleave = false;
  ServerTransport s(cfg, msg.payload, msg.assignment, 0, 1);
  const auto wires = s.round_packets(1);
  for (std::size_t i = 0; i < cfg.block_size; ++i) {
    const auto h = packet::parse_enc_header(wires[i]);
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->block_id, 0);
    EXPECT_EQ(h->seq, i);
  }
}

TEST(ServerTransport, ReactiveRoundHonoursAmax) {
  const auto msg = small_message();
  const auto cfg = config_k(2);  // small k so the message spans blocks
  ServerTransport s(cfg, msg.payload, msg.assignment, 0, 1);
  ASSERT_GE(s.num_blocks(), 2u);
  s.round_packets(1);
  s.accept_nack(4, {{3, 0}});
  s.accept_nack(5, {{1, 0}, {2, 1}});
  const auto wires = s.round_packets(2);
  // amax[0] = 3, amax[1] = 2 -> 5 parity packets.
  EXPECT_EQ(wires.size(), 5u);
  std::map<std::uint16_t, int> per_block;
  std::set<int> seqs;
  for (const auto& w : wires) {
    const auto h = packet::parse_parity_header(w);
    ASSERT_TRUE(h.has_value());
    ++per_block[h->block_id];
  }
  EXPECT_EQ(per_block[0], 3);
  EXPECT_EQ(per_block[1], 2);
  // amax resets: an empty follow-up round.
  EXPECT_TRUE(s.round_packets(3).empty());
}

TEST(ServerTransport, FreshParityIndicesAcrossRounds) {
  const auto msg = small_message();
  const auto cfg = config_k(10);
  ServerTransport s(cfg, msg.payload, msg.assignment, 2, 1);
  std::set<int> seen;
  for (const auto& w : s.round_packets(1)) {
    const auto h = packet::parse_parity_header(w);
    if (!h || h->block_id != 0) continue;
    EXPECT_TRUE(seen.insert(h->parity_seq).second);
  }
  s.accept_nack(1, {{4, 0}});
  for (const auto& w : s.round_packets(2)) {
    const auto h = packet::parse_parity_header(w);
    if (!h || h->block_id != 0) continue;
    EXPECT_TRUE(seen.insert(h->parity_seq).second)
        << "parity index reused across rounds";
  }
  EXPECT_EQ(seen.size(), 6u);  // 2 proactive + 4 reactive
}

TEST(ServerTransport, FeedbackCollectsPerNackMaxima) {
  const auto msg = small_message();
  const auto cfg = config_k(10);
  ServerTransport s(cfg, msg.payload, msg.assignment, 0, 1);
  s.round_packets(1);
  s.accept_nack(0, {{2, 0}, {7, 1}});
  s.accept_nack(1, {{1, 1}});
  auto fb = s.take_feedback();
  std::sort(fb.begin(), fb.end());
  EXPECT_EQ(fb, (std::vector<std::uint8_t>{1, 7}));
  EXPECT_TRUE(s.take_feedback().empty());  // consumed
  EXPECT_EQ(s.straggler_set(), (std::set<std::size_t>{0, 1}));
}

TEST(ServerTransport, NackForUnknownBlockIgnoredButCounted) {
  // Appendix-D range estimates can exceed the real block count; such
  // entries produce no parities but the NACK still registers.
  const auto msg = small_message();
  const auto cfg = config_k(10);
  ServerTransport s(cfg, msg.payload, msg.assignment, 0, 1);
  s.round_packets(1);
  s.accept_nack(0, {{1, static_cast<std::uint16_t>(s.num_blocks() + 5)}});
  EXPECT_EQ(s.straggler_set().size(), 1u);
  EXPECT_TRUE(s.round_packets(2).empty());  // no amax was set
}

TEST(ServerTransport, UsrForCarriesExactNeeds) {
  const auto msg = small_message();
  const auto cfg = config_k(10);
  ServerTransport s(cfg, msg.payload, msg.assignment, 0, 1);
  // The first user: the first run's first id.
  const tree::NodeId user = msg.payload.user_needs.runs().front().first;
  const auto needs = msg.payload.user_needs.needs_of(user);
  const auto usr = s.usr_for(static_cast<std::uint16_t>(user));
  EXPECT_EQ(usr.new_user_id, user);
  EXPECT_EQ(usr.max_kid, msg.payload.max_kid);
  ASSERT_EQ(usr.entries.size(), needs.size());
  for (std::size_t i = 0; i < needs.size(); ++i)
    EXPECT_EQ(usr.entries[i].enc_id, msg.payload.encryptions[needs[i]].enc_id);
}

TEST(ServerTransport, UsrForUnknownUserThrows) {
  const auto msg = small_message();
  const auto cfg = config_k(10);
  ServerTransport s(cfg, msg.payload, msg.assignment, 0, 1);
  EXPECT_THROW(s.usr_for(1), EnsureError);  // id 1 is a k-node, not a user
}

TEST(ServerTransport, EmptyAssignmentRejected) {
  const auto msg = small_message();
  const auto cfg = config_k(10);
  packet::Assignment empty;
  EXPECT_THROW(ServerTransport(cfg, msg.payload, empty, 0, 1), EnsureError);
}

TEST(RhoController, InitialRhoQuantizesToParities) {
  ProtocolConfig cfg;
  cfg.block_size = 10;
  cfg.initial_rho = 1.0;
  EXPECT_EQ(RhoController(cfg, 1).proactive_parities(), 0);
  cfg.initial_rho = 1.6;
  EXPECT_EQ(RhoController(cfg, 1).proactive_parities(), 6);
  cfg.initial_rho = 2.0;
  RhoController c(cfg, 1);
  EXPECT_EQ(c.proactive_parities(), 10);
  EXPECT_DOUBLE_EQ(c.rho(), 2.0);
}

TEST(RhoController, IncreaseUsesNumNackPlusOneLargest) {
  ProtocolConfig cfg;
  cfg.block_size = 10;
  cfg.num_nack_target = 2;
  RhoController c(cfg, 1);
  // 5 NACKs requesting {9, 7, 4, 2, 1}: a[numNACK] = a[2] = 4.
  c.on_round1_feedback({9, 7, 4, 2, 1});
  EXPECT_EQ(c.proactive_parities(), 4);
  EXPECT_DOUBLE_EQ(c.rho(), 1.4);
}

TEST(RhoController, AtTargetNoChange) {
  ProtocolConfig cfg;
  cfg.block_size = 10;
  cfg.num_nack_target = 3;
  cfg.initial_rho = 1.5;
  RhoController c(cfg, 1);
  c.on_round1_feedback({1, 1, 1});  // exactly numNACK
  EXPECT_EQ(c.proactive_parities(), 5);
}

TEST(RhoController, DecreaseIsProbabilisticAndBounded) {
  ProtocolConfig cfg;
  cfg.block_size = 10;
  cfg.num_nack_target = 20;
  cfg.initial_rho = 1.5;
  RhoController c(cfg, 7);
  // Zero NACKs: decrease probability 1 -> one parity per message.
  for (int i = 0; i < 5; ++i) c.on_round1_feedback({});
  EXPECT_EQ(c.proactive_parities(), 0);
  for (int i = 0; i < 5; ++i) c.on_round1_feedback({});
  EXPECT_EQ(c.proactive_parities(), 0);  // floored
  EXPECT_DOUBLE_EQ(c.rho(), 1.0);
}

TEST(RhoController, HalfTargetDecreasesSometimes) {
  ProtocolConfig cfg;
  cfg.block_size = 10;
  cfg.num_nack_target = 20;
  cfg.initial_rho = 3.0;
  RhoController c(cfg, 11);
  // |A| = 5 -> decrease prob (20-10)/20 = 0.5. Starting from 20 proactive
  // parities, 30 trials at p=0.5 should shed well over 5 but (with high
  // probability) not all 20.
  int before = c.proactive_parities();
  ASSERT_EQ(before, 20);
  int decreases = 0;
  for (int i = 0; i < 30; ++i) {
    c.on_round1_feedback({1, 1, 1, 1, 1});
    decreases += before - c.proactive_parities();
    before = c.proactive_parities();
  }
  EXPECT_GT(decreases, 5);
  EXPECT_LE(decreases, 20);
}

TEST(RhoController, ZeroTargetNeverDecreases) {
  ProtocolConfig cfg;
  cfg.block_size = 10;
  cfg.num_nack_target = 0;
  cfg.initial_rho = 1.3;
  RhoController c(cfg, 1);
  c.on_round1_feedback({});
  EXPECT_EQ(c.proactive_parities(), 3);
  c.on_round1_feedback({5});  // any NACK with target 0 raises
  EXPECT_EQ(c.proactive_parities(), 8);
}

TEST(RhoController, InitialRhoClampedToCodeSpace) {
  // Regression: the constructor path used to quantize initial_rho into
  // proactive parities without the cap that bounds the feedback path, so
  // a large initial_rho drove wire parity_seq past the uint8_t range.
  ProtocolConfig cfg;
  cfg.block_size = 100;
  cfg.initial_rho = 50.0;  // naive quantization: 4900 parities
  RhoController c(cfg, 1);
  EXPECT_LE(c.proactive_parities(), 256 - 2 * 100);
  EXPECT_EQ(c.proactive_parities(), 56);
}

TEST(ServerTransport, RejectsParitiesBeyondCodeSpace) {
  // Regression: parity sequence numbers are uint8_t on the wire; asking
  // for more parities than the RSE code supports must fail loudly instead
  // of silently truncating parity_seq.
  const auto msg = small_message();
  const auto cfg = config_k(10);  // max_parity = 246
  EXPECT_THROW(ServerTransport(cfg, msg.payload, msg.assignment, 300, 1),
               EnsureError);
  // At the cap itself, round 1 emits every parity with a distinct,
  // in-range sequence number.
  ServerTransport ok(cfg, msg.payload, msg.assignment, 246, 1);
  std::set<int> seqs;
  for (const auto& w : ok.round_packets(1)) {
    const auto h = packet::parse_parity_header(w);
    if (!h || h->block_id != 0) continue;
    EXPECT_LT(h->parity_seq, 246);
    EXPECT_TRUE(seqs.insert(h->parity_seq).second);
  }
  EXPECT_EQ(seqs.size(), 246u);
}

TEST(RhoController, DeadlineAdaptationOfNumNack) {
  ProtocolConfig cfg;
  cfg.num_nack_target = 20;
  cfg.max_nack = 25;
  RhoController c(cfg, 1);
  c.on_deadline_report(0);
  EXPECT_EQ(c.num_nack_target(), 21);
  for (int i = 0; i < 10; ++i) c.on_deadline_report(0);
  EXPECT_EQ(c.num_nack_target(), 25);  // capped at maxNACK
  c.on_deadline_report(7);
  EXPECT_EQ(c.num_nack_target(), 18);
  c.on_deadline_report(100);
  EXPECT_EQ(c.num_nack_target(), 0);  // floored
}

TEST(ServerTransport, StormDuplicatedNacksFoldIntoOneFeedbackEntry) {
  // NACK-storm amplification delivers the same NACK many times. The amax
  // maxima absorb redelivery by construction; the AdjustRho feedback must
  // also stay one entry per user, or a storm reads as "many users short".
  const auto msg = small_message();
  const auto cfg = config_k(10);
  ServerTransport s(cfg, msg.payload, msg.assignment, 0, 1);
  s.round_packets(1);
  for (int copy = 0; copy < 5; ++copy) s.accept_nack(0, {{2, 0}, {7, 1}});
  s.accept_nack(1, {{1, 1}});
  auto fb = s.take_feedback();
  std::sort(fb.begin(), fb.end());
  EXPECT_EQ(fb, (std::vector<std::uint8_t>{1, 7}));
  EXPECT_EQ(s.straggler_set(), (std::set<std::size_t>{0, 1}));
  // The dedup set is per round: the same user NACKing next round counts.
  s.accept_nack(0, {{3, 0}});
  EXPECT_EQ(s.take_feedback(), (std::vector<std::uint8_t>{3}));
}

TEST(RhoController, DegradedRound1SilenceSkipsBackoff) {
  // A blackout can swallow every NACK of round 1; the resulting silence
  // must not trigger the probabilistic rho back-off.
  ProtocolConfig cfg;
  cfg.block_size = 10;
  cfg.num_nack_target = 20;
  cfg.initial_rho = 1.5;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    RhoController c(cfg, seed);
    c.on_round1_feedback({}, /*degraded=*/true);
    EXPECT_EQ(c.proactive_parities(), 5) << "seed " << seed;
  }
  // The same silence on a healthy network backs off for some seed.
  bool backed_off = false;
  for (std::uint64_t seed = 0; seed < 50 && !backed_off; ++seed) {
    RhoController c(cfg, seed);
    c.on_round1_feedback({});
    backed_off = c.proactive_parities() < 5;
  }
  EXPECT_TRUE(backed_off);
}

TEST(RhoController, DegradedEscalationClampedToOneParity) {
  // Storm-inflated or blackout-distorted feedback must creep rho up by at
  // most one parity per message instead of ratcheting to the cap.
  ProtocolConfig cfg;
  cfg.block_size = 10;
  cfg.num_nack_target = 2;
  RhoController healthy(cfg, 1);
  healthy.on_round1_feedback({9, 7, 4, 2, 1});
  EXPECT_EQ(healthy.proactive_parities(), 4);  // a[2] = 4, unclamped
  RhoController degraded(cfg, 1);
  degraded.on_round1_feedback({9, 7, 4, 2, 1}, /*degraded=*/true);
  EXPECT_EQ(degraded.proactive_parities(), 1);  // clamped to +1
  // A one-parity step stays allowed under degradation.
  RhoController small_step(cfg, 1);
  small_step.on_round1_feedback({1, 1, 1}, /*degraded=*/true);
  EXPECT_EQ(small_step.proactive_parities(), 1);
}

}  // namespace
}  // namespace rekey::transport
