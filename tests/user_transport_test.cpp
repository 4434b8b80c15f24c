// User (receiver) protocol tests: recovery via own packet, via FEC
// decoding, via USR; block estimation integration; NACK generation.
#include <gtest/gtest.h>

#include "common/ensure.h"
#include "transport/server.h"
#include "transport/user.h"
#include "transport/workload.h"

namespace rekey::transport {
namespace {

struct Rig {
  GeneratedMessage msg;
  ProtocolConfig cfg;
  std::unique_ptr<ServerTransport> server;
  PacketPool pool;

  // Large enough that the message spans many ENC packets and blocks, so a
  // user's own packet is one of many.
  explicit Rig(std::size_t n = 512, std::size_t leaves = 128,
               std::size_t k = 5, int proactive = 0,
               std::uint64_t seed = 1) {
    WorkloadConfig wc;
    wc.group_size = n;
    wc.leaves = leaves;
    msg = generate_message(wc, seed, /*msg_id=*/1);
    cfg.block_size = k;
    cfg.validate();
    server = std::make_unique<ServerTransport>(cfg, msg.payload,
                                               msg.assignment, proactive,
                                               /*msg_id=*/1);
  }

  // Send round-1 packets into the pool; returns indices.
  std::vector<std::size_t> send_round(int round) {
    std::vector<std::size_t> idx;
    for (Bytes& w : server->round_packets(round)) {
      idx.push_back(pool.size());
      pool.push_back(std::move(w));
    }
    return idx;
  }

  UserTransport user(std::size_t i) const {
    return UserTransport(msg.old_ids[i], cfg.block_size, msg.payload.degree,
                         &pool);
  }
};

TEST(UserTransport, OwnPacketMeansImmediateRecovery) {
  Rig rig;
  const auto idx = rig.send_round(1);
  UserTransport u = rig.user(0);
  for (const auto i : idx) u.on_packet(i, 1);
  EXPECT_TRUE(u.recovered());
  EXPECT_EQ(u.recovery_round(), 1);
  EXPECT_FALSE(u.entries().empty());
  EXPECT_TRUE(u.end_of_round(1).empty());
}

TEST(UserTransport, AppliedEntriesYieldGroupKey) {
  Rig rig;
  const auto idx = rig.send_round(1);
  UserTransport u = rig.user(3);
  for (const auto i : idx) u.on_packet(i, 1);
  ASSERT_TRUE(u.recovered());
  // The entries must include every encryption this user needs.
  const auto needs = rig.msg.payload.user_needs.needs_of(u.current_id());
  ASSERT_FALSE(needs.empty());
  for (const auto need_idx : needs) {
    const auto want = rig.msg.payload.encryptions[need_idx].enc_id;
    bool found = false;
    for (const auto& e : u.entries()) found |= e.enc_id == want;
    EXPECT_TRUE(found) << "missing encryption " << want;
  }
}

TEST(UserTransport, RecoversViaFecWhenOwnPacketLost) {
  Rig rig(512, 128, 5, /*proactive=*/2);
  const auto idx = rig.send_round(1);
  UserTransport u = rig.user(5);
  // Find and drop the user's own packet; deliver everything else.
  for (const auto i : idx) {
    const auto h = packet::parse_enc_header(rig.pool[i]);
    if (h && h->frm_id <= rig.msg.old_ids[5] &&
        rig.msg.old_ids[5] <= h->to_id)
      continue;  // lost
    u.on_packet(i, 1);
  }
  EXPECT_FALSE(u.recovered());  // not before round end
  EXPECT_TRUE(u.end_of_round(1).empty());
  EXPECT_TRUE(u.recovered());  // decoded at round end
  EXPECT_FALSE(u.entries().empty());
}

TEST(UserTransport, NacksMissingParitiesForItsBlock) {
  Rig rig(512, 128, 5, /*proactive=*/0);
  const auto idx = rig.send_round(1);
  UserTransport u = rig.user(5);
  const std::uint16_t me = rig.msg.old_ids[5];
  // Drop the own packet AND one more packet of the same block.
  std::size_t dropped = 0;
  std::uint16_t my_block = 0;
  for (const auto i : idx) {
    const auto h = packet::parse_enc_header(rig.pool[i]);
    ASSERT_TRUE(h.has_value());
    if (h->frm_id <= me && me <= h->to_id) {
      my_block = h->block_id;
      ++dropped;
      continue;
    }
    u.on_packet(i, 1);
  }
  ASSERT_EQ(dropped, 1u);
  const auto nack = u.end_of_round(1);
  ASSERT_EQ(nack.size(), 1u);
  EXPECT_EQ(nack[0].block_id, my_block);
  EXPECT_EQ(nack[0].parities_needed, 1);
}

TEST(UserTransport, ParityFillsTheGapNextRound) {
  Rig rig(512, 128, 5, 0);
  const auto idx = rig.send_round(1);
  UserTransport u = rig.user(7);
  const std::uint16_t me = rig.msg.old_ids[7];
  for (const auto i : idx) {
    const auto h = packet::parse_enc_header(rig.pool[i]);
    if (h && h->frm_id <= me && me <= h->to_id) continue;
    u.on_packet(i, 1);
  }
  const auto nack = u.end_of_round(1);
  ASSERT_FALSE(nack.empty());
  rig.server->accept_nack(7, nack);
  const auto idx2 = rig.send_round(2);
  ASSERT_FALSE(idx2.empty());
  for (const auto i : idx2) u.on_packet(i, 2);
  EXPECT_TRUE(u.end_of_round(2).empty());
  EXPECT_TRUE(u.recovered());
  EXPECT_EQ(u.recovery_round(), 2);
}

TEST(UserTransport, WakeUpNackWhenNothingReceived) {
  Rig rig;
  rig.send_round(1);
  UserTransport u = rig.user(0);
  const auto nack = u.end_of_round(1);
  ASSERT_EQ(nack.size(), 1u);
  EXPECT_EQ(nack[0].block_id, 0);
  EXPECT_EQ(nack[0].parities_needed, rig.cfg.block_size);
}

TEST(UserTransport, UsrPacketCompletes) {
  Rig rig;
  rig.send_round(1);
  UserTransport u = rig.user(9);
  const std::uint16_t new_id = static_cast<std::uint16_t>(
      tree::derive_new_user_id(rig.msg.old_ids[9], rig.msg.payload.max_kid,
                               rig.msg.payload.degree)
          .value());
  u.on_usr(rig.server->usr_for(new_id));
  EXPECT_TRUE(u.recovered());
  EXPECT_EQ(u.current_id(), new_id);
  EXPECT_FALSE(u.entries().empty());
}

TEST(UserTransport, IdUpdatedFromFirstPacket) {
  // Force splits: more joins than leaves.
  WorkloadConfig wc;
  wc.group_size = 16;
  wc.joins = 5;
  wc.leaves = 0;
  const auto msg = generate_message(wc, 3, 1);
  ProtocolConfig cfg;
  cfg.block_size = 5;
  ServerTransport server(cfg, msg.payload, msg.assignment, 0, 1);
  PacketPool pool;
  for (Bytes& w : server.round_packets(1)) pool.push_back(std::move(w));

  // A split-relocated user exists in this workload (16 full + 5 joins).
  bool found_moved = false;
  for (std::size_t i = 0; i < msg.old_ids.size(); ++i) {
    const auto derived = tree::derive_new_user_id(
        msg.old_ids[i], msg.payload.max_kid, msg.payload.degree);
    ASSERT_TRUE(derived.has_value());
    if (*derived == msg.old_ids[i]) continue;
    found_moved = true;
    UserTransport u(msg.old_ids[i], cfg.block_size, msg.payload.degree,
                    &pool);
    for (std::size_t p = 0; p < pool.size(); ++p) u.on_packet(p, 1);
    EXPECT_EQ(u.current_id(), *derived);
    EXPECT_TRUE(u.recovered());
  }
  EXPECT_TRUE(found_moved);
}

TEST(UserTransport, DuplicateSlotsHelpDecoding) {
  // Small message with a partially-filled last block: duplicates make the
  // block decodable even when the real packet is lost.
  WorkloadConfig wc;
  wc.group_size = 16;
  wc.leaves = 4;
  const auto msg = generate_message(wc, 9, 1);
  ProtocolConfig cfg;
  cfg.block_size = 10;  // single block with duplicates
  ServerTransport server(cfg, msg.payload, msg.assignment, 0, 1);
  ASSERT_EQ(server.num_blocks(), 1u);
  PacketPool pool;
  for (Bytes& w : server.round_packets(1)) pool.push_back(std::move(w));
  ASSERT_EQ(pool.size(), 10u);

  UserTransport u(msg.old_ids[0], cfg.block_size, msg.payload.degree, &pool);
  // Drop slot 0 (the user's packet, assuming it is in the first slot);
  // duplicates of it appear later in the block and still deliver it.
  const auto h0 = packet::parse_enc_header(pool[0]);
  ASSERT_TRUE(h0.has_value());
  for (std::size_t i = 1; i < pool.size(); ++i) u.on_packet(i, 1);
  u.end_of_round(1);
  EXPECT_TRUE(u.recovered());
}

TEST(UserTransport, RedeliveredShardsAreIdempotent) {
  // Duplicated/reordered network delivery: the same wire arriving many
  // times must not inflate per-block shard counts (a block must not look
  // decodable before k *distinct* shards arrived), and the NACK must ask
  // for the same parities as a single clean delivery would.
  Rig rig(512, 128, 5, /*proactive=*/0);
  const auto idx = rig.send_round(1);
  UserTransport clean = rig.user(5);
  UserTransport noisy = rig.user(5);
  const std::uint16_t me = rig.msg.old_ids[5];
  for (const auto i : idx) {
    const auto h = packet::parse_enc_header(rig.pool[i]);
    ASSERT_TRUE(h.has_value());
    if (h->frm_id <= me && me <= h->to_id) continue;  // drop own packet
    clean.on_packet(i, 1);
    // The noisy path sees every packet three times.
    noisy.on_packet(i, 1);
    noisy.on_packet(i, 1);
    noisy.on_packet(i, 1);
  }
  const auto nack_clean = clean.end_of_round(1);
  const auto nack_noisy = noisy.end_of_round(1);
  EXPECT_EQ(clean.recovered(), noisy.recovered());
  ASSERT_EQ(nack_clean.size(), nack_noisy.size());
  for (std::size_t i = 0; i < nack_clean.size(); ++i) {
    EXPECT_EQ(nack_clean[i].block_id, nack_noisy[i].block_id);
    EXPECT_EQ(nack_clean[i].parities_needed, nack_noisy[i].parities_needed);
  }
}

TEST(UserTransport, CorruptedDatagramIsIgnoredNotFatal) {
  // A bit-corrupted wire that slips past the checksum reaches the parser;
  // a rejected parse must leave the receiver state untouched, even when
  // the damaged packet would have been the user's own.
  Rig rig(512, 128, 5, 0);
  const auto idx = rig.send_round(1);
  UserTransport u = rig.user(3);
  // Truncate a copy of the first packet mid-entry: strict-tail parsing
  // rejects it; on_packet must shrug it off.
  Bytes damaged = rig.pool[idx[0]];
  damaged.resize(packet::kEncHeaderSize + packet::kEntrySize / 2);
  const std::size_t didx = rig.pool.size();
  rig.pool.push_back(damaged);
  EXPECT_NO_THROW(u.on_packet(didx, 1));
  EXPECT_FALSE(u.recovered());
  // The clean copies still work.
  for (const auto i : idx) u.on_packet(i, 1);
  EXPECT_TRUE(u.recovered());
}

}  // namespace
}  // namespace rekey::transport
