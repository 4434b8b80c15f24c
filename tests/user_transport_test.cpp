// User (receiver) protocol tests: recovery via own packet, via FEC
// decoding, via USR; block estimation integration; NACK generation; the
// flat shard store; failing closed on forged FEC blocks; the
// allocation-free own-packet path; and the packet facts and FEC decodes
// the pool finds once for every user.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/ensure.h"
#include "common/rng.h"
#include "packet/assign.h"
#include "transport/server.h"
#include "transport/user.h"
#include "transport/workload.h"

// Global allocation counter for the no-allocation assertion. Counting
// operator new is enough: the receive path allocates only through
// standard containers. The nothrow form is replaced too, because what it
// returns (std::stable_sort's buffer) is freed by the operator delete
// below.
namespace {
std::atomic<std::size_t> g_allocs{0};
}

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(size == 0 ? 1 : size);
}

// These pair malloc with free. GCC does not see that through the inlined
// operator calls and would warn of a new/free mismatch.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
#pragma GCC diagnostic pop

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
               std::uint64_t seed = 1, bool wide = false,
               std::size_t joins = 0) {
    WorkloadConfig wc;
    wc.group_size = n;
    wc.leaves = leaves;
    wc.joins = joins;
    msg = generate_message(wc, seed, /*msg_id=*/1);
    if (wide)  // wide packets hold one entry fewer
      msg.assignment = packet::assign_keys(msg.payload, wc.packet_size, true);
    cfg.block_size = k;
    cfg.wide_slots = wide;
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
                         &pool, cfg.wide_slots);
  }

  // User i's id after this message (Theorem 4.2).
  std::uint32_t new_id(std::size_t i) const {
    return static_cast<std::uint32_t>(
        tree::derive_new_user_id(msg.old_ids[i], msg.payload.max_kid,
                                 msg.payload.degree)
            .value());
  }

  // Pool index of user i's own ENC packet among the pooled packets `idx`.
  std::size_t own_packet(const std::vector<std::size_t>& idx,
                         std::size_t i) const {
    const std::uint32_t id = new_id(i);
    for (const auto p : idx) {
      const auto h = packet::parse_enc_header(pool[p], cfg.wide_slots);
      if (h && h->frm_id <= id && id <= h->to_id) return p;
    }
    ADD_FAILURE() << "user " << i << " has no ENC packet";
    return 0;
  }

  // Block of user i's own ENC packet among the pooled packets `idx`.
  std::uint16_t own_block(const std::vector<std::size_t>& idx,
                          std::size_t i) const {
    for (const auto p : idx) {
      const auto h = packet::parse_enc_header(pool[p]);
      if (h && h->frm_id <= msg.old_ids[i] && msg.old_ids[i] <= h->to_id)
        return h->block_id;
    }
    ADD_FAILURE() << "user " << i << " has no ENC packet";
    return 0;
  }

  // Delivers round-1 ENC packets to `u`, withholding every packet of
  // block `withheld`.
  void deliver_all_but_block(UserTransport& u,
                             const std::vector<std::size_t>& idx,
                             std::uint16_t withheld) const {
    for (const auto p : idx) {
      const auto h = packet::parse_enc_header(pool[p]);
      if (h && h->block_id == withheld) continue;
      u.on_packet(p, 1);
    }
  }

  std::size_t add(Bytes wire) {
    pool.push_back(std::move(wire));
    return pool.size() - 1;
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

// k forged parities for the user's one candidate block, with the user's
// own block withheld, so the forged parities are the block's only shards.
// Genuine traffic cannot make a block decode without yielding the user's
// packet: the user must fail closed (no throw, no recovery, the block
// NACKed in full with its forged shards dropped) and then recover from
// the genuine parities that NACK asks for. The forged parities reuse the
// genuine parity indices, so a forged shard kept around would shadow a
// genuine one.
void expect_fails_closed_then_recovers(std::size_t fec_bytes,
                                       std::uint64_t seed) {
  Rig rig(512, 128, 5, /*proactive=*/0);
  const auto idx = rig.send_round(1);
  // In the first of two blocks: the second block's packets bound the
  // user's candidate range to exactly its own block.
  const std::size_t me = 100;
  const std::uint16_t block = rig.own_block(idx, me);
  ASSERT_EQ(block, 0);
  UserTransport u = rig.user(me);
  rig.deliver_all_but_block(u, idx, block);

  Rng rng(seed);
  for (std::uint8_t p = 0; p < rig.cfg.block_size; ++p) {
    packet::ParityPacket forged;
    forged.msg_id = 1;
    forged.block_id = block;
    forged.parity_seq = p;
    for (std::size_t i = 0; i < fec_bytes; ++i)
      forged.fec.push_back(static_cast<std::uint8_t>(rng.next_in(0, 255)));
    u.on_packet(rig.add(forged.serialize()), 1);
  }
  std::vector<packet::NackEntry> nack;
  ASSERT_NO_THROW(nack = u.end_of_round(1));
  EXPECT_FALSE(u.recovered());
  ASSERT_EQ(nack.size(), 1u);
  EXPECT_EQ(nack[0], (packet::NackEntry{
                         static_cast<std::uint8_t>(rig.cfg.block_size), block,
                         /*max_shard_seen=*/0}));

  rig.server->accept_nack(static_cast<std::uint32_t>(me), nack);
  for (const auto p : rig.send_round(2)) u.on_packet(p, 2);
  EXPECT_TRUE(u.end_of_round(2).empty());
  EXPECT_TRUE(u.recovered());
  EXPECT_FALSE(u.entries().empty());
}

TEST(UserTransport, ShortForgedParitiesFailClosed) {
  // Header plus one byte: the block decodes to 1-byte regions.
  expect_fails_closed_then_recovers(/*fec_bytes=*/1, /*seed=*/21);
}

TEST(UserTransport, FullLengthForgedParitiesFailClosed) {
  // Packet-sized random parities: the block decodes to regions that
  // carry no packet for this user.
  expect_fails_closed_then_recovers(
      ProtocolConfig{}.packet_size - packet::kFecOffset, /*seed=*/22);
}

TEST(UserTransport, ParityIndexPastTheCodeIsIgnored) {
  // A parity_seq of 255 names shard k + 255, past the code's 256 shards.
  // It must not count as a shard (the decoder would throw on it): four
  // genuine ENC shards plus the forged parity still NACK one parity.
  Rig rig(512, 128, 5, /*proactive=*/0);
  const auto idx = rig.send_round(1);
  const std::size_t me = 200;
  const std::uint16_t block = rig.own_block(idx, me);
  UserTransport u = rig.user(me);
  std::uint32_t max_seq = 0;
  std::size_t have = 0;
  for (const auto p : idx) {
    const auto h = packet::parse_enc_header(rig.pool[p]);
    ASSERT_TRUE(h.has_value());
    if (h->frm_id <= rig.msg.old_ids[me] && rig.msg.old_ids[me] <= h->to_id)
      continue;  // own packet lost
    if (h->block_id == block && !h->duplicate) {
      ++have;
      max_seq = std::max<std::uint32_t>(max_seq, h->seq);
    }
    u.on_packet(p, 1);
  }
  ASSERT_EQ(have, rig.cfg.block_size - 1);
  packet::ParityPacket forged;
  forged.msg_id = 1;
  forged.block_id = block;
  forged.parity_seq = 255;
  forged.fec.assign(rig.pool[idx[0]].size() - packet::kFecOffset, 0x5A);
  u.on_packet(rig.add(forged.serialize()), 1);
  std::vector<packet::NackEntry> nack;
  ASSERT_NO_THROW(nack = u.end_of_round(1));
  EXPECT_FALSE(u.recovered());
  ASSERT_EQ(nack.size(), 1u);
  EXPECT_EQ(nack[0], (packet::NackEntry{1, block,
                                        static_cast<std::uint8_t>(max_seq)}));
}

TEST(UserTransport, FlatShardStoreCountsDedupsAndPrunes) {
  // Hand-built packets for a user with id 150 in a degree-4 tree whose
  // maxKID is 100 (so the id stays 150), k = 4, 100-byte packets. The
  // expected NACKs below are computed by hand from the store's rules:
  // a (block, shard) pair counts once, every shard of a block has the
  // size of the block's first shard, and a narrowed block range drops
  // the shards outside it.
  constexpr std::size_t kK = 4;
  constexpr std::size_t kSize = 100;
  PacketPool pool;
  const auto enc = [&pool](std::uint16_t block, std::uint8_t seq,
                           std::uint32_t frm, std::uint32_t to) {
    packet::EncPacket p;
    p.msg_id = 1;
    p.block_id = block;
    p.seq = seq;
    p.max_kid = 100;
    p.frm_id = frm;
    p.to_id = to;
    pool.push_back(p.serialize(kSize));
    return pool.size() - 1;
  };
  const auto parity = [&pool](std::uint16_t block, std::uint8_t seq,
                              std::size_t size) {
    packet::ParityPacket p;
    p.msg_id = 1;
    p.block_id = block;
    p.parity_seq = seq;
    p.fec.assign(size - packet::kFecOffset, 0x33);
    pool.push_back(p.serialize());
    return pool.size() - 1;
  };
  UserTransport u(/*old_id=*/150, kK, /*degree=*/4, &pool);
  // Before me, block 0 seq 1: range [0, 73]; keeps (0, 1).
  u.on_packet(enc(0, 1, 101, 110), 1);
  // After me, block 2 seq 0: range [0, 1]; block 2 is not stored.
  u.on_packet(enc(2, 0, 200, 210), 1);
  // Interleaved parities. Block 1's first shard is short (50 bytes), so
  // its full-length parity 1 is refused and its short parity 2 kept.
  u.on_packet(parity(1, 0, 50), 1);     // (1, 4)
  u.on_packet(parity(0, 1, kSize), 1);  // (0, 5)
  u.on_packet(parity(1, 1, kSize), 1);  // refused: size differs
  u.on_packet(parity(1, 2, 50), 1);     // (1, 6)
  u.on_packet(parity(0, 1, kSize), 1);  // duplicate of (0, 5)
  u.on_packet(enc(0, 2, 111, 115), 1);  // (0, 2)
  EXPECT_EQ(u.end_of_round(1),
            (std::vector<packet::NackEntry>{{/*parities_needed=*/1, 0, 5},
                                            {/*parities_needed=*/2, 1, 6}}));

  // Before me, block 1 seq 0: range [1, 1]. Block 0's shards are pruned;
  // the full-length ENC shard itself is refused by block 1's size rule.
  u.on_packet(enc(1, 0, 120, 130), 2);
  EXPECT_EQ(u.end_of_round(2),
            (std::vector<packet::NackEntry>{{/*parities_needed=*/2, 1, 6}}));
  EXPECT_FALSE(u.recovered());
}

TEST(UserTransport, OwnPacketDeliveryAllocatesNothing) {
  // The own ENC packet is checked in place and kept by pool index: the
  // delivery that recovers a user makes no heap allocation, whether it is
  // the first packet the user sees or comes after stored shards.
  Rig rig;
  const auto idx = rig.send_round(1);
  for (const std::size_t me : {std::size_t{0}, std::size_t{200},
                               rig.msg.old_ids.size() - 1}) {
    UserTransport u = rig.user(me);
    std::size_t allocs = 0;
    for (const auto p : idx) {
      const std::size_t before = g_allocs.load();
      u.on_packet(p, 1);
      allocs = g_allocs.load() - before;
      if (u.recovered()) break;
    }
    ASSERT_TRUE(u.recovered()) << "user " << me;
    EXPECT_EQ(allocs, 0u) << "user " << me;
    EXPECT_FALSE(u.entries().empty()) << "user " << me;
  }
}

TEST(CountingAllocator, ServesTheNothrowFormThatStableSortUses) {
  // std::stable_sort takes its scratch buffer from the nothrow operator
  // new and hands it back to operator delete, which this file replaces
  // with free: the nothrow form must come from malloc too, or a
  // sanitizer build aborts on the mismatch. It is counted like the rest.
  std::vector<std::pair<int, int>> v;
  for (int i = 0; i < 64; ++i) v.emplace_back((i * 37) % 8, i);
  const std::size_t before = g_allocs.load();
  std::stable_sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
    return a.first < b.first;
  });
  EXPECT_GT(g_allocs.load(), before);
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end()));  // ties keep their order
}

// What a transport shows once one message has been played to it.
struct Outcome {
  bool recovered = false;
  int recovery_round = 0;
  std::uint32_t id = 0;
  std::uint32_t max_kid = 0;
  std::vector<packet::EncEntry> entries;
  std::vector<std::vector<packet::NackEntry>> nacks;  // every end_of_round

  friend bool operator==(const Outcome&, const Outcome&) = default;
};

enum class Script { OwnPacket, FecAfterLoss, Usr, Nothing };

// What a play fed by interest() left out, and what it took for the id
// range alone.
struct Fed {
  std::size_t skipped = 0;
  // Packets of another block than the settled user's, taken because
  // their range holds its id, that recovered it.
  std::size_t recovered_by_range = 0;
};

// Plays the round-1 packets `idx` of `rig`'s message to `u`, as user i:
// every packet; every ENC packet but its own, then the parities in
// round 2 (an FEC decode after a NACK); a USR packet; or nothing. With
// `fed`, `u` gets only the packets its interest() takes, asked before
// each packet.
Outcome play(const Rig& rig, const std::vector<std::size_t>& idx,
             UserTransport& u, std::size_t i, Script script,
             Fed* fed = nullptr) {
  const auto deliver = [&](std::size_t p, int round) {
    if (fed == nullptr) return u.on_packet(p, round);
    const PacketFacts& f = rig.pool.facts(p, rig.cfg.wide_slots);
    const UserTransport::Interest in = u.interest();
    if (!in.takes(f)) {
      ++fed->skipped;
      return;
    }
    u.on_packet(p, round);
    if (in.settled && f.enc && f.enc->block_id != in.block && u.recovered())
      ++fed->recovered_by_range;
  };
  Outcome o;
  switch (script) {
    case Script::OwnPacket:
      for (const auto p : idx) deliver(p, 1);
      o.nacks.push_back(u.end_of_round(1));
      break;
    case Script::FecAfterLoss: {
      const std::size_t own = rig.own_packet(idx, i);
      std::vector<std::size_t> parities;
      for (const auto p : idx) {
        if (packet::peek_type(rig.pool[p]) == packet::PacketType::Parity)
          parities.push_back(p);
        else if (p != own)
          deliver(p, 1);
      }
      o.nacks.push_back(u.end_of_round(1));
      for (const auto p : parities) deliver(p, 2);
      o.nacks.push_back(u.end_of_round(2));
      break;
    }
    case Script::Usr:
      u.on_usr(rig.server->usr_for(rig.new_id(i)));
      break;
    case Script::Nothing:
      o.nacks.push_back(u.end_of_round(1));
      o.nacks.push_back(u.end_of_round(2));
      break;
  }
  o.recovered = u.recovered();
  o.recovery_round = u.recovery_round();
  o.id = u.current_id();
  o.max_kid = u.max_kid();
  if (o.recovered) o.entries = u.entries();
  return o;
}

TEST(UserTransport, RestartedTransportEqualsAFreshOne) {
  // One transport restarted with reset() after every message, and a
  // newly built one per message, play the same seeded sequence of users
  // and scripts at both widths: they must agree on everything a caller
  // can read. Joins into a full tree split leaves, so ids move.
  for (const bool wide : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      Rig rig(256, 0, 5, /*proactive=*/2, seed, wide, /*joins=*/128);
      const auto idx = rig.send_round(1);
      Rng rng(seed);
      UserTransport restarted = rig.user(0);
      play(rig, idx, restarted, 0, Script::FecAfterLoss);
      std::size_t recovered = 0;
      std::size_t nacked = 0;
      std::size_t moved = 0;
      for (int step = 0; step < 24; ++step) {
        const std::size_t i = rng.next_in(0, rig.msg.old_ids.size() - 1);
        const auto script = static_cast<Script>(rng.next_in(0, 3));
        restarted.reset(rig.msg.old_ids[i]);
        UserTransport fresh = rig.user(i);
        const Outcome want = play(rig, idx, fresh, i, script);
        EXPECT_EQ(play(rig, idx, restarted, i, script), want)
            << "wide " << wide << " seed " << seed << " step " << step;
        recovered += want.recovered;
        for (const auto& n : want.nacks) nacked += !n.empty();
        moved += want.id != rig.msg.old_ids[i];
      }
      // The sequences exercised recovery, NACKs and moved ids alike.
      EXPECT_GT(recovered, 0u);
      EXPECT_GT(nacked, 0u);
      EXPECT_GT(moved, 0u);
    }
  }
}

TEST(UserTransport, InterestIsExact) {
  // Every member plays its share of one message twice: one copy gets
  // every packet, the other only those its interest() takes. Each share
  // holds the round-1 packets the member did not lose (30% loss, and
  // every fourth member loses its own packet), redelivered packets,
  // copies cut short anywhere (inside the header or the entries), for
  // every third member full-length forged parities under the genuine
  // parity indices of every block, and a forged ENC packet of another
  // block whose range holds the member's id and whose entry region
  // checks: at the end for the members that lost their own packet, so
  // that it reaches them settled, else at a random place. Even members
  // play the whole share in round 1; odd ones play it without the first
  // packet that holds their id and get its parities in round 2. Both
  // copies must agree on everything a caller can read, every NACK list
  // included. Joins into a full tree split leaves, so ids move, and the
  // messages at k = 7 end in a block with duplicate slots.
  constexpr int kProactive = 2;
  Fed fed;
  std::size_t duplicates = 0, moved = 0, nacked = 0, mismatches = 0;
  for (const bool wide : {false, true}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      for (const std::size_t k : {std::size_t{5}, std::size_t{7}}) {
        Rig rig(1024, 0, k, kProactive, seed, wide, /*joins=*/384);
        const auto idx = rig.send_round(1);
        std::uint32_t blocks = 0;
        for (const auto p : idx) {
          if (const auto& h = rig.pool.facts(p, wide).enc) {
            blocks = std::max<std::uint32_t>(blocks, h->block_id + 1u);
            duplicates += h->duplicate;
          }
        }
        ASSERT_GT(blocks, 1u);
        Rng rng(seed * 10 + k);
        const auto random_bytes = [&rng](auto& bytes) {
          for (auto& b : bytes)
            b = static_cast<std::uint8_t>(rng.next_in(0, 255));
        };
        std::vector<std::size_t> noise;
        for (std::uint32_t blk = 0; blk < blocks; ++blk) {
          for (int p = 0; p < kProactive; ++p) {
            packet::ParityPacket f;
            f.msg_id = 1;
            f.block_id = static_cast<std::uint16_t>(blk);
            f.parity_seq = static_cast<std::uint8_t>(p);
            f.fec.resize(rig.pool[idx[0]].size() - packet::kFecOffset);
            random_bytes(f.fec);
            noise.push_back(rig.add(f.serialize()));
          }
        }
        std::vector<std::size_t> cut;
        for (const auto p : idx) {
          Bytes copy = rig.pool[p];
          copy.resize(rng.next_in(1, copy.size() - 1));
          cut.push_back(rig.add(std::move(copy)));
        }

        const auto insert_at_random = [&rng](std::vector<std::size_t>& v,
                                             std::size_t p) {
          const auto at =
              static_cast<std::ptrdiff_t>(rng.next_in(0, v.size()));
          v.insert(v.begin() + at, p);
        };
        for (std::size_t i = 0; i < rig.msg.old_ids.size(); ++i) {
          const std::uint32_t id = rig.new_id(i);
          const std::size_t own = rig.own_packet(idx, i);
          const bool lose_own = i % 4 == 0;
          packet::EncPacket forged;
          forged.msg_id = 1;
          forged.block_id = static_cast<std::uint16_t>(
              (rig.pool.facts(own, wide).enc->block_id + 1) % blocks);
          forged.max_kid = rig.msg.payload.max_kid;
          forged.frm_id = forged.to_id = id;
          packet::EncEntry e;
          e.enc_id = static_cast<std::uint32_t>(rng.next_in(1, 1000));
          e.enc.tag = static_cast<std::uint16_t>(rng.next_in(0, 0xFFFF));
          random_bytes(e.enc.ciphertext);
          forged.entries.push_back(e);
          const std::size_t fake =
              rig.add(forged.serialize(rig.cfg.packet_size, wide));

          std::vector<std::size_t> share;
          for (const auto p : idx) {
            if ((p == own && lose_own) || rng.next_in(0, 99) < 30) continue;
            share.push_back(p);
            if (rng.next_in(0, 99) < 10) insert_at_random(share, p);
          }
          for (const auto p : cut)
            if (rng.next_in(0, 99) < 20) insert_at_random(share, p);
          if (i % 3 == 0)
            for (const auto p : noise) insert_at_random(share, p);
          if (lose_own)
            share.push_back(fake);
          else
            insert_at_random(share, fake);

          const Script script =
              i % 2 == 0 ? Script::OwnPacket : Script::FecAfterLoss;
          UserTransport all = rig.user(i);
          UserTransport lean = rig.user(i);
          const Outcome want = play(rig, share, all, i, script);
          const Outcome got = play(rig, share, lean, i, script, &fed);
          moved += want.id != rig.msg.old_ids[i];
          for (const auto& n : want.nacks) nacked += !n.empty();
          if (got == want) continue;
          if (++mismatches <= 5)
            ADD_FAILURE() << "wide " << wide << " seed " << seed << " k "
                          << k << " user " << i;
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // The interest-fed copies skipped packets, and some recovered only
  // through the id range of another block's packet; ids moved, members
  // NACKed, and some messages carried duplicate slots.
  EXPECT_GT(fed.skipped, 0u);
  EXPECT_GT(fed.recovered_by_range, 0u);
  EXPECT_GT(moved, 0u);
  EXPECT_GT(nacked, 0u);
  EXPECT_GT(duplicates, 0u);
}

TEST(UserTransport, ResetThenOwnPacketAllocatesNothing) {
  // A fleet restarts each member in place every batch: the restart plus
  // the delivery that recovers the member make no heap allocation, also
  // after a message that left shards or entries behind.
  for (const bool wide : {false, true}) {
    Rig rig(512, 128, 5, /*proactive=*/2, /*seed=*/1, wide);
    const auto idx = rig.send_round(1);
    UserTransport u = rig.user(0);
    play(rig, idx, u, 0, Script::FecAfterLoss);
    for (const std::size_t i : {std::size_t{1}, std::size_t{200},
                                rig.msg.old_ids.size() - 1}) {
      const std::size_t own = rig.own_packet(idx, i);
      const std::size_t before = g_allocs.load();
      u.reset(rig.msg.old_ids[i]);
      u.on_packet(own, 1);
      const std::size_t allocs = g_allocs.load() - before;
      ASSERT_TRUE(u.recovered()) << "user " << i;
      EXPECT_EQ(allocs, 0u) << "wide " << wide << " user " << i;
      EXPECT_FALSE(u.entries().empty());
      u.reset(rig.msg.old_ids[i]);
      play(rig, idx, u, i, Script::Usr);  // leaves entries behind
    }
  }
}

TEST(UserTransport, SharedRoundEndDecodeAllocatesOnlyItsEntries) {
  // Once one member has decoded a block, a second member that lost its
  // own packet of that block recovers at round end from the rows the
  // pool keeps: its one allocation is its entries.
  for (const bool wide : {false, true}) {
    Rig rig(512, 128, 5, /*proactive=*/2, /*seed=*/1, wide);
    const auto idx = rig.send_round(1);
    // Every ENC packet that serves member i, duplicates included.
    const auto serves = [&rig](std::size_t p, std::size_t i) {
      const auto h = packet::parse_enc_header(rig.pool[p], rig.cfg.wide_slots);
      return h && h->frm_id <= rig.new_id(i) && rig.new_id(i) <= h->to_id;
    };
    const auto block_of = [&rig](std::size_t p) {
      return packet::parse_enc_header(rig.pool[p], rig.cfg.wide_slots)
          ->block_id;
    };
    const std::size_t a = 0;
    const std::size_t own_a = rig.own_packet(idx, a);
    std::size_t b = 1;
    while (b < rig.msg.old_ids.size() &&
           (serves(own_a, b) ||
            block_of(rig.own_packet(idx, b)) != block_of(own_a)))
      ++b;
    ASSERT_LT(b, rig.msg.old_ids.size());
    UserTransport first = rig.user(a);
    UserTransport second = rig.user(b);
    for (const auto p : idx) {
      if (!serves(p, a)) first.on_packet(p, 1);
      if (!serves(p, b)) second.on_packet(p, 1);
    }
    ASSERT_TRUE(first.end_of_round(1).empty());
    ASSERT_TRUE(first.recovered());
    ASSERT_FALSE(second.recovered());
    const std::size_t before = g_allocs.load();
    const auto nack = second.end_of_round(1);
    const std::size_t allocs = g_allocs.load() - before;
    ASSERT_TRUE(second.recovered()) << "wide " << wide;
    EXPECT_TRUE(nack.empty());
    EXPECT_EQ(allocs, 1u) << "wide " << wide;
    EXPECT_FALSE(second.entries().empty());
  }
}

TEST(PacketPool, FactsMatchTheParsers) {
  // The facts a pool stores for each packet equal what the header parsers
  // and, for an ENC packet, the entry check find in its bytes, at both
  // widths, for every
  // packet type, every truncation up to the widest header, damaged entry
  // regions and random bytes.
  PacketPool pool;
  const auto add_with_truncations = [&pool](const Bytes& wire) {
    pool.push_back(wire);
    for (std::size_t n = 0; n <= packet::kEncHeaderSizeWide; ++n)
      pool.push_back(Bytes(wire.begin(),
                           wire.begin() + std::min(n, wire.size())));
  };
  for (const bool wide : {false, true}) {
    Rig rig(512, 128, 5, /*proactive=*/2, /*seed=*/1, wide);
    for (const Bytes& w : rig.server->round_packets(1))  // ENC and PARITY
      add_with_truncations(w);
    add_with_truncations(rig.server->usr_for(rig.new_id(0)).serialize(wide));
  }
  // A NACK-typed packet (msg 1; entries: 2 parities for block 3 with
  // shard 4 seen, 1 parity for block 7 with shard 9 seen).
  add_with_truncations(
      Bytes{0xC1, 0x02, 0x00, 0x03, 0x04, 0x01, 0x00, 0x07, 0x09});

  for (const bool wide : {false, true}) {
    packet::EncPacket p;
    p.msg_id = 1;
    p.max_kid = 100;
    p.frm_id = 120;
    p.to_id = 130;
    for (std::uint32_t e = 1; e <= 3; ++e) {
      packet::EncEntry entry;
      entry.enc_id = e;
      entry.enc.tag = 0xA5A5;
      entry.enc.ciphertext.fill(static_cast<std::uint8_t>(e));
      p.entries.push_back(entry);
    }
    const Bytes good = p.serialize(packet::kDefaultPacketSize, wide);
    const std::size_t header =
        wide ? packet::kEncHeaderSizeWide : packet::kEncHeaderSize;
    Bytes padding = good;  // nonzero padding after the last entry
    padding.back() = 1;
    // A partial trailing entry: cut inside the third entry.
    const Bytes partial(good.begin(),
                        good.begin() + header + 2 * packet::kEntrySize + 7);
    Bytes zero_id = good;  // the second entry's id zeroed, its data kept
    std::fill_n(zero_id.begin() + header + packet::kEntrySize, 4, 0);
    pool.push_back(good);
    pool.push_back(std::move(padding));
    pool.push_back(partial);
    pool.push_back(std::move(zero_id));
  }

  Rng rng(4);
  for (int i = 0; i < 500; ++i) {
    Bytes junk(rng.next_in(0, 1027));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_in(0, 255));
    pool.push_back(std::move(junk));
  }

  std::size_t enc = 0, parity = 0, enc_damaged = 0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    for (const bool wide : {false, true}) {
      const PacketFacts& f = pool.facts(i, wide);
      EXPECT_EQ(f.enc, packet::parse_enc_header(pool[i], wide))
          << "packet " << i << " wide " << wide;
      EXPECT_EQ(f.parity, packet::parse_parity_header(pool[i]))
          << "packet " << i << " wide " << wide;
      EXPECT_EQ(f.entries_ok,
                packet::parse_enc_header(pool[i], wide).has_value() &&
                    packet::enc_entries(pool[i], wide).has_value())
          << "packet " << i << " wide " << wide;
      enc += f.enc.has_value();
      parity += f.parity.has_value();
      enc_damaged += f.enc.has_value() && !f.entries_ok;
    }
  }
  // The inputs reached every kind of fact.
  EXPECT_GT(enc, 0u);
  EXPECT_GT(parity, 0u);
  EXPECT_GE(enc_damaged, 6u);
}


TEST(PacketPool, SharedDecodeMatchesAPrivatePool) {
  // Each member loses 30% of the round-1 packets, and every fifth one
  // also receives full-length forged parities under the genuine parity
  // indices of every block, at random positions. Every member's round
  // end on a pool it shares with all the others, whether the forged
  // holders decode first (and leave a forger's rows as a block's memo)
  // or last, must equal its round end alone on a copy of the pool taken
  // before any decode.
  constexpr int kProactive = 2;
  std::size_t decoded = 0, forged_mattered = 0, nacked = 0, mismatches = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const bool wide = seed % 2 == 0;
    Rig rig(512, 128, 5, kProactive, seed, wide);
    const auto idx = rig.send_round(1);
    std::uint32_t blocks = 0;
    for (const auto p : idx)
      if (const auto h = packet::parse_enc_header(rig.pool[p], wide))
        blocks = std::max<std::uint32_t>(blocks, h->block_id + 1u);
    Rng rng(seed);
    std::vector<std::size_t> forged;
    for (std::uint32_t blk = 0; blk < blocks; ++blk) {
      for (int p = 0; p < kProactive; ++p) {
        packet::ParityPacket f;
        f.msg_id = 1;
        f.block_id = static_cast<std::uint16_t>(blk);
        f.parity_seq = static_cast<std::uint8_t>(p);
        f.fec.resize(rig.pool[idx[0]].size() - packet::kFecOffset);
        for (auto& byte : f.fec)
          byte = static_cast<std::uint8_t>(rng.next_in(0, 255));
        forged.push_back(rig.add(f.serialize()));
      }
    }
    const PacketPool pristine = rig.pool;

    const std::size_t n = rig.msg.old_ids.size();
    // What each member receives: the genuine packets it did not lose,
    // plus, for every fifth member, the forged ones.
    std::vector<std::vector<std::size_t>> genuine(n), delivered(n);
    for (std::size_t u = 0; u < n; ++u) {
      for (const auto p : idx)
        if (rng.next_in(0, 99) >= 30) genuine[u].push_back(p);
      delivered[u] = genuine[u];
      if (u % 5 != 0) continue;
      for (const auto f : forged) {
        const auto at = static_cast<std::ptrdiff_t>(
            rng.next_in(0, delivered[u].size()));
        delivered[u].insert(delivered[u].begin() + at, f);
      }
    }
    const auto member = [&](const PacketPool& pool, std::size_t u,
                            const std::vector<std::size_t>& packets) {
      UserTransport t(rig.msg.old_ids[u], rig.cfg.block_size,
                      rig.msg.payload.degree, &pool, wide);
      for (const auto p : packets) t.on_packet(p, 1);
      return t;
    };
    const auto round_end = [](UserTransport& t) {
      Outcome o;
      o.nacks.push_back(t.end_of_round(1));
      o.recovered = t.recovered();
      o.recovery_round = t.recovery_round();
      o.id = t.current_id();
      o.max_kid = t.max_kid();
      if (o.recovered) o.entries = t.entries();
      return o;
    };

    std::vector<Outcome> alone(n);
    for (std::size_t u = 0; u < n; ++u) {
      const PacketPool own = pristine;
      UserTransport t = member(own, u, delivered[u]);
      const bool lost_own = !t.recovered();
      alone[u] = round_end(t);
      decoded += lost_own && alone[u].recovered;
      nacked += !alone[u].nacks[0].empty();
      if (u % 5 == 0) {
        const PacketPool clean = pristine;
        UserTransport g = member(clean, u, genuine[u]);
        forged_mattered += round_end(g) != alone[u];
      }
    }

    for (const bool forged_first : {true, false}) {
      const PacketPool shared = pristine;
      std::vector<UserTransport> users;
      users.reserve(n);
      for (std::size_t u = 0; u < n; ++u)
        users.push_back(member(shared, u, delivered[u]));
      std::vector<std::size_t> order;
      for (const bool forged : {forged_first, !forged_first})
        for (std::size_t u = 0; u < n; ++u)
          if ((u % 5 == 0) == forged) order.push_back(u);
      for (const std::size_t u : order) {
        if (round_end(users[u]) == alone[u]) continue;
        if (++mismatches <= 5)
          ADD_FAILURE() << "seed " << seed << " user " << u
                        << (forged_first ? " (forged holders first)"
                                         : " (forged holders last)");
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
  // Members decoded and NACKed, and the forged parities changed what
  // some of their holders got.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(nacked, 0u);
  EXPECT_GT(forged_mattered, 0u);
}

}  // namespace
}  // namespace rekey::transport
