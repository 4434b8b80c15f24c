// Wire-format tests for the packet types: roundtrips through the parsers
// the receive path runs (parse_enc_header and enc_entries for ENC,
// parse_parity_header for PARITY), header peeks, padding semantics, and
// size accounting (the paper's 46 encryptions per 1027-byte ENC packet).
#include <gtest/gtest.h>

#include "common/ensure.h"
#include "common/rng.h"
#include "crypto/keys.h"
#include "packet/wire.h"

namespace rekey::packet {
namespace {

EncEntry make_entry(std::uint32_t id, std::uint64_t seed) {
  crypto::KeyGenerator gen(seed);
  EncEntry e;
  e.enc_id = id;
  const auto k = gen.next();
  std::copy(k.bytes.begin(), k.bytes.end(), e.enc.ciphertext.begin());
  e.enc.tag = static_cast<std::uint16_t>(seed * 7919);
  return e;
}

TEST(Wire, CapacityMatchesPaper) {
  EXPECT_EQ(max_entries(1027), 46u);
  EXPECT_EQ(kEntrySize, 22u);
  // The wide (32-bit slot id) header costs one entry at the paper's
  // packet size: 16 header bytes instead of 10.
  EXPECT_EQ(max_entries(1027, true), 45u);
}

TEST(Wire, EncRoundtrip) {
  EncPacket p;
  p.msg_id = 13;
  p.block_id = 777;
  p.seq = 9;
  p.duplicate = true;
  p.max_kid = 5461;
  p.frm_id = 5462;
  p.to_id = 6000;
  for (std::uint32_t i = 1; i <= 46; ++i) p.entries.push_back(make_entry(i, i));

  const Bytes wire = p.serialize(1027);
  EXPECT_EQ(wire.size(), 1027u);
  const auto back = parse_enc_header(wire);
  const auto region = enc_entries(wire);
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(back->msg_id, p.msg_id);
  EXPECT_EQ(back->block_id, p.block_id);
  EXPECT_EQ(back->seq, p.seq);
  EXPECT_EQ(back->duplicate, p.duplicate);
  EXPECT_EQ(back->max_kid, p.max_kid);
  EXPECT_EQ(back->frm_id, p.frm_id);
  EXPECT_EQ(back->to_id, p.to_id);
  EXPECT_EQ(region->to_vector(), p.entries);
}

TEST(Wire, EncWideRoundtripCarriesBigSlotIds) {
  EncPacket p;
  p.msg_id = 13;
  p.block_id = 777;
  p.seq = 9;
  p.duplicate = true;
  p.max_kid = 0x15554;  // past the u16 ceiling (degree-4, N = 2^17)
  p.frm_id = 0x15555;
  p.to_id = 0x5FFFC;
  for (std::uint32_t i = 1; i <= 45; ++i) p.entries.push_back(make_entry(i, i));

  const Bytes wire = p.serialize(1027, /*wide=*/true);
  EXPECT_EQ(wire.size(), 1027u);
  const auto back = parse_enc_header(wire, /*wide=*/true);
  const auto region = enc_entries(wire, /*wide=*/true);
  ASSERT_TRUE(back.has_value());
  ASSERT_TRUE(region.has_value());
  EXPECT_EQ(back->max_kid, p.max_kid);
  EXPECT_EQ(back->frm_id, p.frm_id);
  EXPECT_EQ(back->to_id, p.to_id);
  EXPECT_EQ(back->block_id, p.block_id);
  EXPECT_EQ(back->seq, p.seq);
  EXPECT_EQ(back->duplicate, p.duplicate);
  EXPECT_EQ(region->to_vector(), p.entries);

  // The narrow format stays what it always was: ids overflowing u16 wrap
  // silently (the simulator's flat-tree benches rely on the byte layout),
  // which is exactly why the wire daemon negotiates the wide format.
  const Bytes narrow = p.serialize(1027);
  const auto nb = parse_enc_header(narrow);
  ASSERT_TRUE(nb.has_value());
  ASSERT_TRUE(enc_entries(narrow).has_value());
  EXPECT_EQ(nb->max_kid, p.max_kid & 0xFFFF);
  EXPECT_EQ(nb->frm_id, p.frm_id & 0xFFFF);
  EXPECT_EQ(nb->to_id, p.to_id & 0xFFFF);
}

TEST(Wire, EncPaddingStopsAtZeroId) {
  EncPacket p;
  p.msg_id = 1;
  p.entries.push_back(make_entry(5, 1));
  const Bytes wire = p.serialize(200);
  const auto back = enc_entries(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->to_vector().size(), 1u);
}

TEST(Wire, EncZeroIdRejectedOnSerialize) {
  EncPacket p;
  p.entries.push_back(make_entry(0, 1));
  EXPECT_THROW(p.serialize(200), EnsureError);
}

TEST(Wire, EncOverflowRejected) {
  EncPacket p;
  for (std::uint32_t i = 1; i <= 47; ++i) p.entries.push_back(make_entry(i, i));
  EXPECT_THROW(p.serialize(1027), EnsureError);
}

TEST(Wire, EncHeaderPeekMatchesFullParse) {
  EncPacket p;
  p.msg_id = 63;
  p.block_id = 65535;
  p.seq = 127;
  p.duplicate = false;
  p.max_kid = 1;
  p.frm_id = 2;
  p.to_id = 3;
  p.entries.push_back(make_entry(9, 9));
  const Bytes wire = p.serialize(100);
  const auto h = parse_enc_header(wire);
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->msg_id, 63);
  EXPECT_EQ(h->block_id, 65535);
  EXPECT_EQ(h->seq, 127);
  EXPECT_FALSE(h->duplicate);
  EXPECT_EQ(h->max_kid, 1);
  EXPECT_EQ(h->frm_id, 2);
  EXPECT_EQ(h->to_id, 3);
}

TEST(Wire, DuplicateFlagDoesNotDisturbSeq) {
  for (const bool dup : {false, true}) {
    EncPacket p;
    p.seq = 77;
    p.duplicate = dup;
    p.entries.push_back(make_entry(3, 3));
    const auto h = parse_enc_header(p.serialize(64));
    ASSERT_TRUE(h.has_value());
    EXPECT_EQ(h->seq, 77);
    EXPECT_EQ(h->duplicate, dup);
  }
}

TEST(Wire, ParityRoundtrip) {
  ParityPacket p;
  p.msg_id = 7;
  p.block_id = 300;
  p.parity_seq = 200;
  p.fec.assign(1023, 0xA5);
  const Bytes wire = p.serialize();
  EXPECT_EQ(wire.size(), 1027u);  // same length as an ENC packet
  const auto back = parse_parity_header(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->msg_id, 7);
  EXPECT_EQ(back->block_id, 300);
  EXPECT_EQ(back->parity_seq, 200);
  EXPECT_EQ(Bytes(wire.begin() + kFecOffset, wire.end()), p.fec);
}

TEST(Wire, ParityHeaderPeek) {
  ParityPacket p;
  p.msg_id = 2;
  p.block_id = 9;
  p.parity_seq = 4;
  p.fec.assign(16, 0);
  const auto h = parse_parity_header(p.serialize());
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->msg_id, 2);
  EXPECT_EQ(h->block_id, 9);
  EXPECT_EQ(h->parity_seq, 4);
}

TEST(Wire, UsrRoundtrip) {
  UsrPacket p;
  p.msg_id = 44;
  p.new_user_id = 21845;
  p.max_kid = 5461;
  p.entries.push_back(make_entry(21845, 1));
  p.entries.push_back(make_entry(5461, 2));
  const Bytes wire = p.serialize();
  // USR packets are small: header 5 bytes + 22 per entry.
  EXPECT_EQ(wire.size(), 5u + 44u);
  const auto back = UsrPacket::parse(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->new_user_id, p.new_user_id);
  EXPECT_EQ(back->max_kid, p.max_kid);
  EXPECT_EQ(back->entries, p.entries);
}

TEST(Wire, UsrWideRoundtrip) {
  UsrPacket p;
  p.msg_id = 44;
  p.new_user_id = 0x15555;  // wide slot id
  p.max_kid = 0x15554;
  p.entries.push_back(make_entry(0x15555, 1));
  p.entries.push_back(make_entry(0x15554, 2));
  const Bytes wire = p.serialize(/*wide=*/true);
  // Wide USR header is 9 bytes (u32 new_user_id and max_kid).
  EXPECT_EQ(wire.size(), 9u + 44u);
  const auto back = UsrPacket::parse(wire, /*wide=*/true);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->new_user_id, p.new_user_id);
  EXPECT_EQ(back->max_kid, p.max_kid);
  EXPECT_EQ(back->entries, p.entries);
  // A wide wire fed to the narrow parser must not round-trip the ids.
  const auto narrow = UsrPacket::parse(wire);
  if (narrow.has_value()) {
    EXPECT_NE(narrow->new_user_id, p.new_user_id);
  }
}

TEST(Wire, PeekTypeDistinguishesAll) {
  EncPacket e;
  e.entries.push_back(make_entry(1, 1));
  ParityPacket par;
  par.fec.assign(4, 0);
  UsrPacket u;
  EXPECT_EQ(peek_type(e.serialize(64)), PacketType::Enc);
  EXPECT_EQ(peek_type(par.serialize()), PacketType::Parity);
  EXPECT_EQ(peek_type(u.serialize()), PacketType::Usr);
  // No NACK packet is serialized, but its tag is the fourth value.
  EXPECT_EQ(peek_type(Bytes{0xC0}), PacketType::Nack);
  EXPECT_FALSE(peek_type({}).has_value());
}

TEST(Wire, CrossTypeParseRejected) {
  UsrPacket u;
  u.msg_id = 1;
  const Bytes wire = u.serialize();
  EXPECT_FALSE(parse_enc_header(wire).has_value());
  EXPECT_FALSE(parse_parity_header(wire).has_value());
}

TEST(Wire, TruncatedPacketsRejected) {
  EXPECT_FALSE(parse_enc_header(Bytes{0x00, 0x01}).has_value());
  EXPECT_FALSE(enc_entries(Bytes{0x00, 0x01}).has_value());
  EXPECT_FALSE(parse_parity_header(Bytes{0x40}).has_value());
  EXPECT_FALSE(UsrPacket::parse(Bytes{0x80}).has_value());
}

TEST(Wire, MsgIdRange) {
  EncPacket p;
  p.msg_id = 64;  // 6-bit field
  p.entries.push_back(make_entry(1, 1));
  EXPECT_THROW(p.serialize(64), EnsureError);
}

// Independent RFC 1071 reference: accumulate into 64 bits, then fold the
// carries in a loop until none remain. The production routine must agree
// with this on every input, including ones whose first fold itself
// carries past bit 16.
std::uint16_t reference_checksum(const Bytes& wire) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < wire.size(); i += 2) {
    const std::uint16_t hi = wire[i];
    const std::uint16_t lo = i + 1 < wire.size() ? wire[i + 1] : 0;
    sum += static_cast<std::uint16_t>((hi << 8) | lo);
  }
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  const auto c = static_cast<std::uint16_t>(~sum & 0xFFFF);
  return c == 0 ? std::uint16_t{0xFFFF} : c;
}

TEST(Wire, ChecksumMatchesReferenceOnCarryHeavyPayloads) {
  // All-0xFF payloads maximize per-word sums: by ~64 KiB of 0xFFFF words
  // the 32-bit accumulator's first end-around fold carries again, which a
  // single-pass fold would bake into the result as an off-by-one.
  for (const std::size_t n : {2u, 3u, 1500u, 9000u, 65535u, 65536u, 70000u}) {
    const Bytes wire(n, 0xFF);
    EXPECT_EQ(udp_checksum(wire), reference_checksum(wire)) << "n=" << n;
  }
  // Random payloads, jumbo-sized so the sum leaves the low 16 bits.
  Rng rng(0xC5C5);
  for (int t = 0; t < 50; ++t) {
    Bytes wire(9000);
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.next_u64());
    EXPECT_EQ(udp_checksum(wire), reference_checksum(wire)) << "trial " << t;
  }
}

TEST(Wire, ChecksumZeroTransmitsAsAllOnes) {
  // RFC 768: a computed checksum of zero is transmitted as all ones. A
  // single 0xFFFF word sums to 0xFFFF, whose complement is zero.
  const Bytes wire{0xFF, 0xFF};
  EXPECT_EQ(udp_checksum(wire), 0xFFFF);
  // Same with enough words to require folding first.
  Bytes many;
  for (int i = 0; i < 17; ++i) {
    many.push_back(0xFF);
    many.push_back(0xFF);
  }
  EXPECT_EQ(udp_checksum(many), 0xFFFF);
  EXPECT_EQ(udp_checksum(Bytes{}), 0xFFFF);  // empty sum is zero too
}

TEST(Wire, ChecksumDetectsSingleByteFlips) {
  Rng rng(0xF11F);
  Bytes wire(257);  // odd length: exercises the padded tail byte
  for (auto& b : wire) b = static_cast<std::uint8_t>(rng.next_u64());
  const std::uint16_t good = udp_checksum(wire);
  for (std::size_t i = 0; i < wire.size(); ++i) {
    Bytes flipped = wire;
    flipped[i] ^= 0x5A;
    EXPECT_NE(udp_checksum(flipped), good) << "flip at " << i;
  }
}

TEST(Wire, TreeEncryptionConversionRoundtrip) {
  tree::Encryption t;
  t.enc_id = 21;
  t.target_id = 5;  // parent of 21 at degree 4
  crypto::KeyGenerator gen(3);
  t.payload = crypto::encrypt_key(gen.next(), gen.next(), 1, 21);
  const EncEntry e = to_wire_entry(t);
  const tree::Encryption back = to_tree_encryption(e, 4);
  EXPECT_EQ(back.enc_id, t.enc_id);
  EXPECT_EQ(back.target_id, t.target_id);
  EXPECT_EQ(back.payload, t.payload);
}

}  // namespace
}  // namespace rekey::packet
