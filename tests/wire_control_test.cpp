// Control-plane frame tests (wire/control.h): round-trips, strict
// parsing off a real socket, slot-map/report chunking, USR fragmentation
// and reassembly, and MTU-boundary behavior at 1472/1500/9000-byte
// datagram budgets.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/keys.h"
#include "wire/control.h"

namespace rekey::wire {
namespace {

packet::NackEntry nack(std::uint8_t p, std::uint16_t b, std::uint8_t s) {
  packet::NackEntry e;
  e.parities_needed = p;
  e.block_id = b;
  e.max_shard_seen = s;
  return e;
}

// A serialized USR packet with `n` entries (realistic unicast payload).
Bytes usr_wire(std::size_t n, std::uint64_t seed) {
  packet::UsrPacket p;
  p.msg_id = 9;
  p.new_user_id = 311;
  p.max_kid = 512;
  crypto::KeyGenerator gen(seed);
  for (std::size_t i = 0; i < n; ++i) {
    packet::EncEntry e;
    e.enc_id = static_cast<std::uint32_t>(100 + i);
    const auto k = gen.next();
    std::copy(k.bytes.begin(), k.bytes.end(), e.enc.ciphertext.begin());
    e.enc.tag = static_cast<std::uint16_t>(i * 31 + 1);
    p.entries.push_back(e);
  }
  return p.serialize();
}

std::string hex(const Bytes& b) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (const std::uint8_t c : b) {
    s.push_back(kDigits[c >> 4]);
    s.push_back(kDigits[c & 0xF]);
  }
  return s;
}

std::vector<std::string> hex(const std::vector<Bytes>& frames) {
  std::vector<std::string> out;
  for (const Bytes& f : frames) out.push_back(hex(f));
  return out;
}

// The frames WireBytesArePinned serializes, at either slot width. Only
// these helpers name frame types, so the pinned bytes stay independent of
// how the frame API spells a width.
Bytes slot_map_wire(bool wide, std::uint32_t base_uid,
                    const std::vector<std::uint32_t>& slots) {
  return *serialize(SlotMapFrame{base_uid, slots, wide});
}

Bytes report_wire(bool wide, std::uint32_t part, std::uint32_t nparts,
                  const std::vector<ReportUser>& users) {
  return *serialize(ReportFrame{2, 3, 1, part, nparts, 17, users, wide});
}

Bytes usr_frag_wire(bool wide, std::uint16_t frag, std::uint16_t nfrags,
                    const Bytes& bytes) {
  return *serialize(UsrFragFrame{9, 0x1ABCDE, frag, nfrags, bytes, wide});
}

std::vector<Bytes> report_chunks_wire(bool wide,
                                      const std::vector<ReportUser>& users,
                                      std::size_t max_payload) {
  std::vector<Bytes> out;
  for (const auto& f : chunk_report(5, 2, 0, 9, users, max_payload, wide))
    out.push_back(*serialize(f));
  return out;
}

std::vector<Bytes> usr_frags_wire(bool wide, const Bytes& usr,
                                  std::size_t max_payload) {
  std::vector<Bytes> out;
  for (const auto& f : fragment_usr(4, 0x10203, usr, max_payload, wide))
    out.push_back(*serialize(f));
  return out;
}

TEST(Control, FixedFrameRoundtrips) {
  {
    const SubFrame f{12345, 678};
    const auto r = parse_sub(serialize(f));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->first_uid, f.first_uid);
    EXPECT_EQ(r->count, f.count);
    EXPECT_EQ(r->max_version, kWireV1);
  }
  {
    SubAckFrame f;
    f.group_size = 4096;
    f.expected_clients = 1000;
    f.degree = 4;
    f.block_size = 10;
    f.packet_size = 1027;
    f.batches = 25;
    const auto r = parse_sub_ack(serialize(f));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->group_size, f.group_size);
    EXPECT_EQ(r->expected_clients, f.expected_clients);
    EXPECT_EQ(r->degree, f.degree);
    EXPECT_EQ(r->block_size, f.block_size);
    EXPECT_EQ(r->packet_size, f.packet_size);
    EXPECT_EQ(r->batches, f.batches);
  }
  {
    const BatchStartFrame f{7, 63};
    const auto r = parse_batch_start(serialize(f));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->batch_seq, 7u);
    EXPECT_EQ(r->msg_id, 63);
  }
  {
    RoundMarkFrame f;
    f.batch_seq = 3;
    f.msg_id = 5;
    f.round = 2;
    f.phase = 1;
    const auto r = parse_round_mark(serialize(f));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->batch_seq, 3u);
    EXPECT_EQ(r->msg_id, 5);
    EXPECT_EQ(r->round, 2);
    EXPECT_EQ(r->phase, 1);
  }
  {
    const BatchDoneFrame f{11, 1};
    const auto r = parse_batch_done(serialize(f));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->batch_seq, 11u);
    EXPECT_EQ(r->last_batch, 1);
  }
  {
    DoneAckFrame f;
    f.batch_seq = 11;
    f.recovered = 100;
    f.via_usr = 3;
    f.gave_up = 1;
    const auto r = parse_done_ack(serialize(f));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->recovered, 100u);
    EXPECT_EQ(r->via_usr, 3u);
    EXPECT_EQ(r->gave_up, 1u);
  }
  {
    const SlotMapAckFrame f{4242};
    const auto r = parse_slot_map_ack(serialize(f));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->first_uid, 4242u);
  }
  EXPECT_EQ(peek_op(serialize(FinFrame{})), ControlOp::Fin);
  EXPECT_EQ(peek_op(serialize(FinAckFrame{})), ControlOp::FinAck);
}

TEST(Control, ReportRoundtripWithEntries) {
  ReportFrame f;
  f.batch_seq = 2;
  f.round = 3;
  f.phase = 0;
  f.part = 1;
  f.nparts = 4;
  f.unrecovered = 17;
  f.users.push_back(ReportUser{100, {nack(2, 0, 9), nack(1, 3, 11)}});
  f.users.push_back(ReportUser{101, {}});
  const auto w = serialize(f);
  ASSERT_TRUE(w);
  const auto r = parse_report(*w);
  ASSERT_TRUE(r);
  EXPECT_FALSE(r->wide);  // op Report
  EXPECT_EQ(r->batch_seq, 2u);
  EXPECT_EQ(r->round, 3);
  EXPECT_EQ(r->part, 1u);
  EXPECT_EQ(r->nparts, 4u);
  EXPECT_EQ(r->unrecovered, 17u);
  ASSERT_EQ(r->users.size(), 2u);
  EXPECT_EQ(r->users[0].uid, 100u);
  ASSERT_EQ(r->users[0].entries.size(), 2u);
  EXPECT_EQ(r->users[0].entries[0].parities_needed, 2);
  EXPECT_EQ(r->users[0].entries[1].block_id, 3);
  EXPECT_EQ(r->users[0].entries[1].max_shard_seen, 11);
  EXPECT_TRUE(r->users[1].entries.empty());
}

TEST(Control, ParsersRejectTrailingGarbage) {
  for (const Bytes& base :
       {serialize(SubFrame{1, 2}), serialize(RoundMarkFrame{}),
        serialize(BatchDoneFrame{}), serialize(FinFrame{})}) {
    Bytes padded = base;
    padded.push_back(0x00);
    EXPECT_FALSE(parse_sub(padded) || parse_round_mark(padded) ||
                 parse_batch_done(padded));
  }
  ReportFrame f;
  f.users.push_back(ReportUser{5, {nack(1, 0, 2)}});
  Bytes padded = *serialize(f);
  padded.push_back(0xAA);
  EXPECT_FALSE(parse_report(padded).has_value());

  ReportFrame f2;
  f2.wide = true;
  f2.users.push_back(ReportUser{5, {nack(1, 0, 2)}});
  Bytes padded2 = *serialize(f2);
  padded2.push_back(0xAA);
  EXPECT_FALSE(parse_report(padded2).has_value());

  SlotMapFrame sm2;
  sm2.base_uid = 1;
  sm2.slots = {0x12345, 0x54321};
  sm2.wide = true;
  Bytes padded3 = *serialize(sm2);
  padded3.push_back(0x00);
  EXPECT_FALSE(parse_slot_map(padded3).has_value());

  UsrFragFrame uf2;
  uf2.bytes = Bytes(10, 0x7E);
  uf2.wide = true;
  Bytes padded4 = *serialize(uf2);
  padded4.push_back(0x00);
  EXPECT_FALSE(parse_usr_frag(padded4).has_value());
}

TEST(Control, VersionNegotiationBytes) {
  // A v1 Sub/SubAck must serialize to the legacy byte stream exactly —
  // old and new builds interoperate through these frames.
  EXPECT_EQ(serialize(SubFrame{1, 2}).size(), 9u);
  EXPECT_EQ(serialize(SubAckFrame{}).size(), 17u);

  SubFrame sub{70000, 500};
  sub.max_version = kWireV2;
  const Bytes w = serialize(sub);
  EXPECT_EQ(w.size(), 10u);
  const auto r = parse_sub(w);
  ASSERT_TRUE(r);
  EXPECT_EQ(r->first_uid, 70000u);
  EXPECT_EQ(r->count, 500u);
  EXPECT_EQ(r->max_version, kWireV2);

  SubAckFrame ack;
  ack.group_size = 1 << 17;
  ack.version = kWireV2;
  const Bytes aw = serialize(ack);
  EXPECT_EQ(aw.size(), 18u);
  const auto ra = parse_sub_ack(aw);
  ASSERT_TRUE(ra);
  EXPECT_EQ(ra->version, kWireV2);

  // A trailing version byte claiming v1 (or v0) is not a valid encoding:
  // v1 is expressed by the legacy length, so this is garbage.
  for (const std::uint8_t bad : {std::uint8_t{0}, std::uint8_t{1}}) {
    Bytes padded = serialize(SubFrame{1, 2});
    padded.push_back(bad);
    EXPECT_FALSE(parse_sub(padded).has_value());
    Bytes apadded = serialize(SubAckFrame{});
    apadded.push_back(bad);
    EXPECT_FALSE(parse_sub_ack(apadded).has_value());
  }
}

TEST(Control, WireBytesArePinned) {
  // Exact bytes of both widths of every width-dependent op (SlotMap /
  // SlotMapV2, Report / ReportV2, UsrFrag / UsrFragV2), fixed frames and
  // chunker output alike. Deployed clients parse these streams, and CI's
  // daemon smoke runs v1 while the benchmark runs v2, so neither width
  // may move by a byte.
  EXPECT_EQ(hex(slot_map_wire(false, 0x01020304, {0x0001, 0xABCD, 0xFFFF})),
            "03" "01020304" "0003" "0001abcdffff");
  EXPECT_EQ(hex(slot_map_wire(true, 0x0012D687, {0x15555, 0x3FFFC,
                                                 0xFFFFFFFF})),
            "0d" "0012d687" "0003" "00015555" "0003fffc" "ffffffff");
  const std::vector<ReportUser> users = {
      {100, {nack(2, 0, 9), nack(1, 3, 11)}}, {0x20001, {}}};
  EXPECT_EQ(hex(report_wire(false, 1, 4, users)),
            "07" "00000002" "0003" "01" "0001" "0004" "00000011" "0002"
            "00000064" "02" "020000" "09" "010003" "0b" "00020001" "00");
  EXPECT_EQ(hex(report_wire(true, 70000, 70001, users)),
            "0e" "00000002" "0003" "01" "00011170" "00011171" "00000011"
            "00000002"
            "00000064" "02" "020000" "09" "010003" "0b" "00020001" "00");
  const Bytes payload = {0xA5, 0x5A, 0x00, 0xFF, 0x01};
  EXPECT_EQ(hex(usr_frag_wire(false, 1, 3, payload)),
            "08" "00000009" "001abcde" "01" "03" "0005" "a55a00ff01");
  EXPECT_EQ(hex(usr_frag_wire(true, 300, 400, payload)),
            "0f" "00000009" "001abcde" "012c" "0190" "0005" "a55a00ff01");

  // Chunker output at a budget small enough to split: the narrow report
  // fits in two parts, the wide one (6 bytes more header) needs three.
  const std::vector<ReportUser> stream = {{7, {nack(1, 0, 2)}},
                                          {8, {}},
                                          {9, {nack(2, 1, 3), nack(1, 2, 0)}},
                                          {10, {}}};
  EXPECT_EQ(hex(report_chunks_wire(false, stream, 40)),
            (std::vector<std::string>{
                "07000000050002000000000200000009000200000007010100000200"
                "00000800",
                "07000000050002000001000200000009000200000009020200010301"
                "0002000000000a00"}));
  EXPECT_EQ(hex(report_chunks_wire(true, stream, 40)),
            (std::vector<std::string>{
                "0e000000050002000000000000000003000000090000000200000007"
                "01010000020000000800",
                "0e000000050002000000000100000003000000090000000100000009"
                "020200010301000200",
                "0e00000005000200000000020000000300000009000000010000000a"
                "00"}));
  Bytes usr(20);
  for (std::size_t i = 0; i < usr.size(); ++i)
    usr[i] = static_cast<std::uint8_t>(i * 37 + 1);
  EXPECT_EQ(hex(usr_frags_wire(false, usr, 24)),
            (std::vector<std::string>{
                "0800000004000102030002000b01264b7095badf04294e73",
                "0800000004000102030102000998bde2072c51769bc0"}));
  EXPECT_EQ(hex(usr_frags_wire(true, usr, 24)),
            (std::vector<std::string>{
                "0f000000040001020300000003000901264b7095badf0429",
                "0f00000004000102030001000300094e7398bde2072c5176",
                "0f00000004000102030002000300029bc0"}));
}

TEST(Control, V2FrameRoundtrips) {
  {
    SlotMapFrame f;
    f.base_uid = 0x0012D687;                  // > 2^16 uids
    f.slots = {0x15555, 0x3FFFC, 0xFFFFFFFF};  // > 2^16 slot ids
    f.wide = true;
    const auto w = serialize(f);
    ASSERT_TRUE(w);
    EXPECT_EQ(peek_op(*w), ControlOp::SlotMapV2);
    // The one parser reads the v2 op as a wide frame with the same slots.
    const auto r = parse_slot_map(*w);
    ASSERT_TRUE(r);
    EXPECT_TRUE(r->wide);
    EXPECT_EQ(r->base_uid, f.base_uid);
    EXPECT_EQ(r->slots, f.slots);
  }
  {
    ReportFrame f;
    f.wide = true;
    f.batch_seq = 7;
    f.round = 3;
    f.phase = 0;
    f.part = 70000;   // past the v1 u16 part counters
    f.nparts = 70001;
    f.unrecovered = 1 << 20;
    f.users.push_back(ReportUser{0x20000, {nack(2, 5, 7)}});
    f.users.push_back(ReportUser{0x20001, {}});
    const auto w = serialize(f);
    ASSERT_TRUE(w);
    EXPECT_EQ(peek_op(*w), ControlOp::ReportV2);
    const auto r = parse_report(*w);
    ASSERT_TRUE(r);
    EXPECT_TRUE(r->wide);
    EXPECT_EQ(r->part, 70000u);
    EXPECT_EQ(r->nparts, 70001u);
    EXPECT_EQ(r->unrecovered, 1u << 20);
    ASSERT_EQ(r->users.size(), 2u);
    EXPECT_EQ(r->users[0].uid, 0x20000u);
    ASSERT_EQ(r->users[0].entries.size(), 1u);
    EXPECT_EQ(r->users[0].entries[0].block_id, 5);
  }
  {
    UsrFragFrame f;
    f.batch_seq = 2;
    f.uid = 0x1ABCDE;
    f.frag = 300;  // past the v1 u8 fragment counters
    f.nfrags = 400;
    f.bytes = Bytes(57, 0xA5);
    f.wide = true;
    const auto w = serialize(f);
    ASSERT_TRUE(w);
    EXPECT_EQ(peek_op(*w), ControlOp::UsrFragV2);
    const auto r = parse_usr_frag(*w);
    ASSERT_TRUE(r);
    EXPECT_TRUE(r->wide);
    EXPECT_EQ(r->uid, 0x1ABCDEu);
    EXPECT_EQ(r->frag, 300);
    EXPECT_EQ(r->nfrags, 400);
    EXPECT_EQ(r->bytes, f.bytes);
  }
}

TEST(Control, OversizeSerializersReturnErrorNotAbort) {
  // Satellite of the wide-slot change: a frame whose counters cannot be
  // represented serializes to nullopt instead of crashing the daemon.
  SlotMapFrame sm;
  sm.slots.assign(0x10000, 1);  // count field is a u16
  EXPECT_FALSE(serialize(sm).has_value());
  SlotMapFrame sm2;
  sm2.slots.assign(0x10000, 1);
  sm2.wide = true;
  EXPECT_FALSE(serialize(sm2).has_value());

  ReportFrame rep;
  rep.users.push_back(ReportUser{1, {}});
  rep.users[0].entries.assign(0x100, nack(1, 0, 0));  // entry count is a u8
  EXPECT_FALSE(serialize(rep).has_value());
  ReportFrame rep2 = rep;
  rep2.wide = true;
  EXPECT_FALSE(serialize(rep2).has_value());

  UsrFragFrame uf;
  uf.bytes.assign(0x10000, 0);  // length field is a u16
  EXPECT_FALSE(serialize(uf).has_value());
  UsrFragFrame uf2 = uf;
  uf2.wide = true;
  EXPECT_FALSE(serialize(uf2).has_value());

  // A narrow frame holding a value only its wide op can carry: a slot
  // past u16, a part count past u16, a fragment count past u8. The same
  // frame serializes wide.
  SlotMapFrame big_slot;
  big_slot.slots = {7, 0x10000};
  EXPECT_FALSE(serialize(big_slot).has_value());
  big_slot.wide = true;
  EXPECT_TRUE(serialize(big_slot).has_value());
  ReportFrame many_parts;
  many_parts.nparts = 0x10000;
  EXPECT_FALSE(serialize(many_parts).has_value());
  many_parts.wide = true;
  EXPECT_TRUE(serialize(many_parts).has_value());
  UsrFragFrame many_frags;
  many_frags.nfrags = 0x100;
  EXPECT_FALSE(serialize(many_frags).has_value());
  many_frags.wide = true;
  EXPECT_TRUE(serialize(many_frags).has_value());
}

TEST(Control, ParsersNeverThrowOnRandomInput) {
  // Every other input leads with one of the six width-dependent op bytes,
  // so each unified parser meets random bodies under both of its ops.
  constexpr ControlOp kWidthOps[] = {
      ControlOp::SlotMap, ControlOp::SlotMapV2, ControlOp::Report,
      ControlOp::ReportV2, ControlOp::UsrFrag, ControlOp::UsrFragV2};
  Rng rng(0xC0117701);
  for (int t = 0; t < 20000; ++t) {
    Bytes wire(rng.next_u64() % 96);
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.next_u64());
    if (t % 2 == 1 && !wire.empty())
      wire[0] = static_cast<std::uint8_t>(kWidthOps[rng.next_u64() % 6]);
    ASSERT_NO_THROW({
      (void)peek_op(wire);
      (void)parse_sub(wire);
      (void)parse_sub_ack(wire);
      (void)parse_slot_map(wire);
      (void)parse_slot_map_ack(wire);
      (void)parse_batch_start(wire);
      (void)parse_round_mark(wire);
      (void)parse_report(wire);
      (void)parse_usr_frag(wire);
      (void)parse_batch_done(wire);
      (void)parse_done_ack(wire);
    });
  }
}

TEST(Control, TruncationSweepNeverAccepts) {
  // Valid frames cut at every byte boundary, including inside the fixed
  // header: strict parsers must reject every proper prefix (control
  // frames, unlike ENC entry lists, are never self-delimiting).
  ReportFrame rep;
  rep.batch_seq = 9;
  rep.unrecovered = 2;
  rep.users.push_back(ReportUser{7, {nack(3, 1, 4), nack(1, 2, 0)}});
  rep.users.push_back(ReportUser{8, {}});
  UsrFragFrame uf;
  uf.batch_seq = 9;
  uf.uid = 7;
  uf.frag = 0;
  uf.nfrags = 2;
  uf.bytes = Bytes(33, 0x5C);
  SlotMapFrame sm;
  sm.base_uid = 40;
  sm.slots = {100, 101, 102, 103};
  ReportFrame rep2;
  rep2.wide = true;
  rep2.batch_seq = 9;
  rep2.part = 70000;
  rep2.nparts = 70002;
  rep2.unrecovered = 2;
  rep2.users.push_back(ReportUser{0x17007, {nack(3, 1, 4), nack(1, 2, 0)}});
  rep2.users.push_back(ReportUser{0x17008, {}});
  UsrFragFrame uf2;
  uf2.wide = true;
  uf2.batch_seq = 9;
  uf2.uid = 0x17007;
  uf2.frag = 0;
  uf2.nfrags = 300;
  uf2.bytes = Bytes(33, 0x5C);
  SlotMapFrame sm2;
  sm2.wide = true;
  sm2.base_uid = 0x20028;
  sm2.slots = {0x10000, 0x10001, 0x20002, 0xFFFFFFFF};
  const std::vector<Bytes> fulls = {
      *serialize(rep),  *serialize(uf),          *serialize(sm),
      *serialize(rep2), *serialize(uf2),         *serialize(sm2),
      serialize(SubFrame{}), serialize(SubAckFrame{}),
      serialize(DoneAckFrame{})};
  for (std::size_t fi = 0; fi < fulls.size(); ++fi) {
    const Bytes& full = fulls[fi];
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const Bytes wire(full.begin(), full.begin() + cut);
      ASSERT_NO_THROW({
        EXPECT_FALSE(parse_report(wire) || parse_usr_frag(wire) ||
                     parse_slot_map(wire) || parse_sub(wire) ||
                     parse_sub_ack(wire) || parse_done_ack(wire))
            << "frame " << fi << " cut " << cut;
      });
    }
  }
  // Version-extended Sub/SubAck are the one deliberate exception: the
  // legacy 9/17-byte prefix IS a valid v1 frame (versioning is by
  // length), so truncating exactly the version byte downgrades to v1;
  // every other cut still rejects.
  SubFrame sub2;
  sub2.max_version = kWireV2;
  SubAckFrame ack2;
  ack2.version = kWireV2;
  const Bytes sub_wire = serialize(sub2);
  for (std::size_t cut = 0; cut < sub_wire.size(); ++cut) {
    const Bytes wire(sub_wire.begin(), sub_wire.begin() + cut);
    const auto r = parse_sub(wire);
    if (cut == 9) {
      ASSERT_TRUE(r);
      EXPECT_EQ(r->max_version, kWireV1);
    } else {
      EXPECT_FALSE(r) << "cut " << cut;
    }
  }
  const Bytes ack_wire = serialize(ack2);
  for (std::size_t cut = 0; cut < ack_wire.size(); ++cut) {
    const Bytes wire(ack_wire.begin(), ack_wire.begin() + cut);
    const auto r = parse_sub_ack(wire);
    if (cut == 17) {
      ASSERT_TRUE(r);
      EXPECT_EQ(r->version, kWireV1);
    } else {
      EXPECT_FALSE(r) << "cut " << cut;
    }
  }
}

TEST(Control, SlotMapChunkingCoversEveryUidOnce) {
  std::vector<std::uint32_t> slots(5000);
  for (std::size_t i = 0; i < slots.size(); ++i)
    slots[i] = static_cast<std::uint32_t>(i * 3 + 7);
  const std::size_t max_payload = 300;
  const auto frames = chunk_slot_map(1000, slots, max_payload);
  ASSERT_GT(frames.size(), 1u);
  std::vector<bool> seen(slots.size(), false);
  for (const SlotMapFrame& f : frames) {
    const auto w = serialize(f);
    ASSERT_TRUE(w);
    EXPECT_LE(w->size(), max_payload);
    const auto rt = parse_slot_map(*w);
    ASSERT_TRUE(rt);
    EXPECT_FALSE(rt->wide);
    for (std::size_t i = 0; i < rt->slots.size(); ++i) {
      const std::size_t idx = rt->base_uid - 1000 + i;
      ASSERT_LT(idx, slots.size());
      EXPECT_FALSE(seen[idx]) << "uid covered twice";
      seen[idx] = true;
      EXPECT_EQ(rt->slots[i], slots[idx]);
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Control, ReportChunkingFitsBudgetAndCoversEveryUser) {
  std::vector<ReportUser> users;
  Rng rng(0xBEEF);
  for (std::uint32_t u = 0; u < 400; ++u) {
    ReportUser ru;
    ru.uid = u;
    const std::size_t n = rng.next_u64() % 5;
    for (std::size_t i = 0; i < n; ++i)
      ru.entries.push_back(
          nack(static_cast<std::uint8_t>(1 + i),
               static_cast<std::uint16_t>(u % 7), static_cast<std::uint8_t>(i)));
    users.push_back(std::move(ru));
  }
  const std::size_t max_payload = 256;
  const auto parts = chunk_report(3, 2, 0, 400, users, max_payload);
  ASSERT_GT(parts.size(), 1u);
  std::vector<bool> seen(users.size(), false);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].part, i);
    EXPECT_EQ(parts[i].nparts, parts.size());
    EXPECT_EQ(parts[i].unrecovered, 400u);
    const auto wire = serialize(parts[i]);
    ASSERT_TRUE(wire);
    EXPECT_LE(wire->size(), max_payload);
    const auto rt = parse_report(*wire);
    ASSERT_TRUE(rt);
    for (const ReportUser& u : rt->users) {
      ASSERT_LT(u.uid, seen.size());
      EXPECT_FALSE(seen[u.uid]);
      seen[u.uid] = true;
      EXPECT_EQ(u.entries.size(), users[u.uid].entries.size());
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Control, UsrFragmentationRoundtrip) {
  const Bytes usr = usr_wire(46, 0xFACE);  // a full 1027-byte packet
  for (const std::size_t max_payload : {64u, 200u, 1471u}) {
    const auto frags = fragment_usr(5, 77, usr, max_payload);
    ASSERT_GE(frags.size(), 1u);
    UsrReassembly reasm;
    std::optional<Bytes> full;
    for (const UsrFragFrame& f : frags) {
      EXPECT_LE(serialize(f)->size(), max_payload);
      EXPECT_FALSE(full.has_value());
      full = reasm.add(f);
    }
    ASSERT_TRUE(full.has_value()) << "max_payload " << max_payload;
    EXPECT_EQ(*full, usr);
  }
  // Same sweep through the wide fragmenter (2 bytes more header).
  for (const std::size_t max_payload : {64u, 200u, 1471u}) {
    const auto frags = fragment_usr(5, 0x1084D, usr, max_payload, true);
    ASSERT_GE(frags.size(), 1u);
    UsrReassembly reasm;
    std::optional<Bytes> full;
    for (const UsrFragFrame& f : frags) {
      EXPECT_TRUE(f.wide);
      EXPECT_EQ(f.uid, 0x1084Du);
      EXPECT_LE(serialize(f)->size(), max_payload);
      EXPECT_FALSE(full.has_value());
      full = reasm.add(f);
    }
    ASSERT_TRUE(full.has_value()) << "max_payload " << max_payload;
    EXPECT_EQ(*full, usr);
  }
}

TEST(Control, FragmenterOverflowReturnsEmptyNotAbort) {
  // 300 fragments needed: past the v1 u8 counter, fine for the v2 u16.
  // The v1 fragmenter must signal the overflow by returning nothing
  // rather than constructing frames with wrapped counters.
  const std::size_t max_payload = 64;
  const std::size_t v1_chunk = max_payload - 13;  // v1 UsrFrag header
  Bytes big(v1_chunk * 300, 0x3C);
  EXPECT_TRUE(fragment_usr(1, 7, big, max_payload).empty());
  const auto frags = fragment_usr(1, 7, big, max_payload, true);
  ASSERT_GE(frags.size(), 300u);
  UsrReassembly reasm;
  std::optional<Bytes> full;
  for (const UsrFragFrame& f : frags) full = reasm.add(f);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, big);
}

TEST(Control, SlotMapV2ChunkingCoversEveryUidOnce) {
  // Slot ids beyond the u16 ceiling — the population the v2 frames exist
  // for (degree-4 tree with 2^17 leaves).
  std::vector<std::uint32_t> slots(5000);
  for (std::size_t i = 0; i < slots.size(); ++i)
    slots[i] = static_cast<std::uint32_t>(0x15555 + i * 4);
  const std::size_t max_payload = 300;
  const std::uint32_t first_uid = 0x20000;
  const auto frames = chunk_slot_map(first_uid, slots, max_payload, true);
  ASSERT_GT(frames.size(), 1u);
  std::vector<bool> seen(slots.size(), false);
  for (const SlotMapFrame& f : frames) {
    const auto w = serialize(f);
    ASSERT_TRUE(w);
    EXPECT_LE(w->size(), max_payload);
    const auto rt = parse_slot_map(*w);
    ASSERT_TRUE(rt);
    EXPECT_TRUE(rt->wide);
    for (std::size_t i = 0; i < rt->slots.size(); ++i) {
      const std::size_t idx = rt->base_uid - first_uid + i;
      ASSERT_LT(idx, slots.size());
      EXPECT_FALSE(seen[idx]) << "uid covered twice";
      seen[idx] = true;
      EXPECT_EQ(rt->slots[i], slots[idx]);
    }
  }
  EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](bool b) { return b; }));
}

TEST(Control, ReportV2ChunkingCoversEveryUserAndV1Overflows) {
  // 70000 unrecovered users at a tiny payload budget: the part counter
  // passes the v1 u16 ceiling, so v1 chunking must return empty while v2
  // covers every user exactly once.
  std::vector<ReportUser> users(70000);
  for (std::uint32_t u = 0; u < users.size(); ++u) {
    users[u].uid = 0x10000 + u;
    users[u].entries.push_back(nack(1, 0, 0));
  }
  // 34 bytes fits exactly one one-entry user per v2 part (24-byte header
  // budget + 5-byte user + 4-byte entry), forcing 70000 parts.
  const std::size_t max_payload = 34;
  EXPECT_TRUE(chunk_report(1, 1, 0, 70000, users, max_payload).empty());
  const auto parts = chunk_report(1, 1, 0, 70000, users, max_payload, true);
  ASSERT_GT(parts.size(), 0xFFFFu);
  std::vector<bool> seen(users.size(), false);
  std::size_t covered = 0;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].part, i);
    EXPECT_EQ(parts[i].nparts, parts.size());
    const auto w = serialize(parts[i]);
    ASSERT_TRUE(w);
    ASSERT_LE(w->size(), max_payload);
    for (const ReportUser& u : parts[i].users) {
      const std::size_t idx = u.uid - 0x10000;
      ASSERT_LT(idx, seen.size());
      ASSERT_FALSE(seen[idx]);
      seen[idx] = true;
      ++covered;
    }
  }
  EXPECT_EQ(covered, users.size());
}

TEST(Control, UsrReassemblyHandlesDuplicatesAndReordering) {
  const Bytes usr = usr_wire(20, 0xD1CE);
  auto frags = fragment_usr(1, 9, usr, 100);
  ASSERT_GE(frags.size(), 3u);
  UsrReassembly reasm;
  // Deliver in reverse, each fragment twice; completion exactly once, on
  // the final missing fragment.
  std::optional<Bytes> full;
  for (std::size_t i = frags.size(); i-- > 0;) {
    EXPECT_FALSE(reasm.add(frags[i == 0 ? frags.size() - 1 : i]).has_value());
    const auto r = reasm.add(frags[i]);
    if (i == 0) {
      ASSERT_TRUE(r.has_value());
      full = r;
    } else {
      EXPECT_FALSE(r.has_value());
    }
  }
  EXPECT_EQ(*full, usr);

  // A fresh uid with a different nfrags claim must not mix streams.
  auto other = fragment_usr(1, 9, usr_wire(4, 0xD2), 100);
  EXPECT_FALSE(reasm.add(other[0]).has_value());
}

TEST(Control, UsrFragmentationAtMtuBoundaries) {
  // Real deployment MTU budgets: 1472 (ethernet, pre-channel-byte 1473
  // payload would overflow), 1500, and 9000 (jumbo). max_payload models
  // mtu - 28 (IP+UDP) - 1 (channel byte).
  for (const std::size_t mtu : {1472u, 1500u, 9000u}) {
    const std::size_t max_payload = mtu - 28 - 1;
    // A USR wire exactly at, one under, and one over the per-fragment
    // byte budget, plus a jumbo-sized one.
    const std::size_t chunk = max_payload - 13;  // UsrFrag header
    for (const std::size_t wire_size :
         {chunk - 1, chunk, chunk + 1, 3 * chunk + 5}) {
      Bytes usr(wire_size);
      Rng rng(wire_size);
      for (auto& b : usr) b = static_cast<std::uint8_t>(rng.next_u64());
      const auto frags = fragment_usr(0, 1, usr, max_payload);
      const std::size_t expect =
          wire_size <= chunk ? 1 : (wire_size + chunk - 1) / chunk;
      EXPECT_EQ(frags.size(), expect) << "mtu " << mtu << " sz " << wire_size;
      UsrReassembly reasm;
      std::optional<Bytes> full;
      for (const UsrFragFrame& f : frags) {
        // No fragment may exceed the datagram budget — this is the
        // "rekeyd never emits an over-MTU datagram" invariant.
        EXPECT_LE(serialize(f)->size(), max_payload);
        full = reasm.add(f);
      }
      ASSERT_TRUE(full.has_value());
      EXPECT_EQ(*full, usr);
    }
  }
}

TEST(Control, BatchStartEpochRoundtripAndLegacyBytes) {
  // epoch == 0 serializes to the legacy 6-byte frame — byte-identical to
  // a pre-replication writer, so every existing golden stays bit-exact.
  const BatchStartFrame legacy{7, 7 % 64, 0};
  const Bytes legacy_wire = serialize(legacy);
  EXPECT_EQ(legacy_wire.size(), 6u);
  {
    const auto r = parse_batch_start(legacy_wire);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->batch_seq, 7u);
    EXPECT_EQ(r->epoch, 0u);
  }
  // A nonzero epoch appends exactly four bytes and round-trips.
  const BatchStartFrame fenced{7, 7 % 64, 3};
  const Bytes fenced_wire = serialize(fenced);
  EXPECT_EQ(fenced_wire.size(), 10u);
  EXPECT_TRUE(std::equal(legacy_wire.begin(), legacy_wire.end(),
                         fenced_wire.begin()));
  {
    const auto r = parse_batch_start(fenced_wire);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->batch_seq, 7u);
    EXPECT_EQ(r->epoch, 3u);
  }
}

TEST(Control, BatchStartEpochTruncationDowngradesLikeSub) {
  // Versioning-by-length, the Sub/SubAck rule: cutting exactly the epoch
  // field yields the valid legacy frame (epoch 0); every other cut
  // rejects. And the long form announcing the default (epoch == 0 in 10
  // bytes) is not a frame any writer emits, so the parser refuses it.
  const Bytes wire = serialize(BatchStartFrame{9, 9, 42});
  ASSERT_EQ(wire.size(), 10u);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const Bytes prefix(wire.begin(), wire.begin() + cut);
    const auto r = parse_batch_start(prefix);
    if (cut == 6) {
      ASSERT_TRUE(r);
      EXPECT_EQ(r->batch_seq, 9u);
      EXPECT_EQ(r->epoch, 0u);
    } else {
      EXPECT_FALSE(r) << "cut " << cut;
    }
  }
  Bytes zero_epoch = wire;
  zero_epoch[6] = zero_epoch[7] = zero_epoch[8] = zero_epoch[9] = 0;
  EXPECT_FALSE(parse_batch_start(zero_epoch));
}

TEST(Control, ReplicationFrameRoundtrips) {
  {
    const SnapAckFrame f{0xDEADBEEF};
    const auto r = parse_snap_ack(serialize(f));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->snap_seq, 0xDEADBEEFu);
  }
  {
    // The standby never parses a heartbeat (any frame from its peer is
    // liveness), so its bytes are pinned instead: op, epoch, next_batch.
    const HeartbeatFrame f{5, 17};
    EXPECT_EQ(serialize(f), (Bytes{static_cast<std::uint8_t>(
                                       ControlOp::Heartbeat),
                                   0, 0, 0, 5, 0, 0, 0, 17}));
  }
  {
    const ResubFrame f{4096, 512, 2, 9, 0x123456789ABCull};
    const auto r = parse_resub(serialize(f));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->first_uid, 4096u);
    EXPECT_EQ(r->count, 512u);
    EXPECT_EQ(r->epoch, 2u);
    EXPECT_EQ(r->done_seq, 9u);
    EXPECT_EQ(r->first_id, 0x123456789ABCull);
  }
  {
    const Bytes body(100, 0xA5);
    SnapChunkFrame f;
    f.snap_seq = 3;
    f.part = 1;
    f.nparts = 4;
    f.bytes = body;
    const auto wire = serialize(f);
    ASSERT_TRUE(wire.has_value());
    const auto r = parse_snap_chunk(*wire);
    ASSERT_TRUE(r);
    EXPECT_EQ(r->snap_seq, 3u);
    EXPECT_EQ(r->part, 1u);
    EXPECT_EQ(r->nparts, 4u);
    EXPECT_EQ(Bytes(r->bytes.begin(), r->bytes.end()), body);
  }
  // Oversize chunk payload is a serializer error, not an abort.
  {
    const Bytes body(0x10000, 0);  // one past the u16 length field
    SnapChunkFrame f;
    f.bytes = body;
    EXPECT_FALSE(serialize(f).has_value());
  }
}

TEST(Control, ReplicationFrameTruncationSweepNeverAccepts) {
  const Bytes body(25, 0x3C);
  SnapChunkFrame chunk;
  chunk.snap_seq = 3;
  chunk.part = 0;
  chunk.nparts = 2;
  chunk.bytes = body;
  const std::vector<Bytes> fulls = {
      *serialize(chunk), serialize(SnapAckFrame{1}),
      serialize(HeartbeatFrame{1, 2}), serialize(ResubFrame{1, 2, 3, 4, 5})};
  for (std::size_t fi = 0; fi < fulls.size(); ++fi) {
    const Bytes& full = fulls[fi];
    for (std::size_t cut = 0; cut < full.size(); ++cut) {
      const Bytes wire(full.begin(), full.begin() + cut);
      ASSERT_NO_THROW({
        EXPECT_FALSE(parse_snap_chunk(wire) || parse_snap_ack(wire) ||
                     parse_resub(wire))
            << "frame " << fi << " cut " << cut;
      });
    }
  }
  // Structural nonsense inside an intact frame: zero nparts, part out of
  // range, and a length field disagreeing with the remaining bytes.
  SnapChunkFrame bad = chunk;
  bad.nparts = 0;
  bad.part = 0;
  EXPECT_FALSE(serialize(bad).has_value() &&
               parse_snap_chunk(*serialize(bad)));
  Bytes wire = *serialize(chunk);
  wire.push_back(0x00);  // trailing garbage after the declared length
  EXPECT_FALSE(parse_snap_chunk(wire));
}

TEST(Control, ChunkSnapshotSplitsAndReassembles) {
  Bytes blob(5000);
  for (std::size_t i = 0; i < blob.size(); ++i)
    blob[i] = static_cast<std::uint8_t>(i * 13 + 5);
  const auto frames = chunk_snapshot(11, blob, 1471);
  ASSERT_GT(frames.size(), 1u);
  std::size_t covered = 0;
  for (const auto& f : frames) {
    EXPECT_EQ(f.snap_seq, 11u);
    EXPECT_EQ(f.nparts, frames.size());
    ASSERT_TRUE(serialize(f).has_value());
    EXPECT_LE(serialize(f)->size(), 1471u);
    covered += f.bytes.size();
  }
  EXPECT_EQ(covered, blob.size());

  // In-order reassembly returns the blob on the last chunk.
  SnapshotReassembly reasm;
  for (std::size_t i = 0; i + 1 < frames.size(); ++i)
    EXPECT_FALSE(reasm.add(frames[i]).has_value());
  const auto full = reasm.add(frames.back());
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, blob);
  // Duplicates of a completed sequence are ignored, not re-delivered.
  EXPECT_FALSE(reasm.add(frames[0]).has_value());

  // An empty blob still travels (one empty chunk) — a snapshot is never
  // simply absent.
  const Bytes empty_blob;
  const auto empty_frames = chunk_snapshot(12, empty_blob, 1471);
  ASSERT_EQ(empty_frames.size(), 1u);
  SnapshotReassembly reasm2;
  const auto empty_full = reasm2.add(empty_frames[0]);
  ASSERT_TRUE(empty_full.has_value());
  EXPECT_TRUE(empty_full->empty());

  // A budget that cannot fit header + 1 byte is an error, not an abort.
  EXPECT_TRUE(chunk_snapshot(13, blob, 10).empty());
}

TEST(Control, SnapshotReassemblyNewestSeqWins) {
  Bytes old_blob(3000, 0x11);
  Bytes new_blob(3000);
  for (std::size_t i = 0; i < new_blob.size(); ++i)
    new_blob[i] = static_cast<std::uint8_t>(i);
  const auto old_frames = chunk_snapshot(5, old_blob, 600);
  const auto new_frames = chunk_snapshot(6, new_blob, 600);
  ASSERT_GT(old_frames.size(), 2u);

  SnapshotReassembly reasm;
  // Partial old snapshot...
  EXPECT_FALSE(reasm.add(old_frames[0]).has_value());
  EXPECT_FALSE(reasm.add(old_frames[1]).has_value());
  // ...superseded by the newer sequence, out of order and with
  // duplicates.
  for (std::size_t i = new_frames.size(); i-- > 1;)
    EXPECT_FALSE(reasm.add(new_frames[i]).has_value());
  EXPECT_FALSE(reasm.add(new_frames[2]).has_value());  // duplicate part
  // A stale chunk of the abandoned sequence is ignored mid-reassembly.
  EXPECT_FALSE(reasm.add(old_frames[2]).has_value());
  const auto full = reasm.add(new_frames[0]);
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(*full, new_blob);
  // After completion, stale chunks stay ignored.
  EXPECT_FALSE(reasm.add(old_frames[0]).has_value());

  // Hostile nparts past the chunk cap must not size a huge vector.
  SnapChunkFrame hostile;
  hostile.snap_seq = 99;
  hostile.part = 0;
  hostile.nparts = 0xFFFFFFFF;
  EXPECT_FALSE(SnapshotReassembly{}.add(hostile).has_value());
}

}  // namespace
}  // namespace rekey::wire
