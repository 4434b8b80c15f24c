// Robustness ("fuzz") tests: the wire parsers and the receiver state
// machine must survive arbitrary byte soup — returning nullopt or simply
// ignoring garbage, never crashing or throwing on network input.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "packet/estimate.h"
#include "packet/wire.h"
#include "transport/user.h"

namespace rekey {
namespace {

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_in(0, 255));
  return b;
}

// The entry-region rule written out with ByteReader, independently of
// packet::EntryRegion: entries until a zero id or until fewer than
// kEntrySize bytes remain, then only zero bytes.
std::optional<std::vector<packet::EncEntry>> reference_entries(
    packet::WireView region) {
  ByteReader r(region);
  std::vector<packet::EncEntry> out;
  while (r.remaining() >= packet::kEntrySize) {
    packet::EncEntry e;
    e.enc_id = r.get_u32();
    if (e.enc_id == 0) break;
    const Bytes ct = r.get_bytes(crypto::SymmetricKey::kSize);
    std::copy(ct.begin(), ct.end(), e.enc.ciphertext.begin());
    e.enc.tag = r.get_u16();
    out.push_back(e);
  }
  while (r.remaining() > 0)
    if (r.get_u8() != 0) return std::nullopt;
  return out;
}

// The in-place check accepts exactly the ENC packets EncPacket::parse
// accepts, with equal entries, and both follow the reference rule.
void expect_enc_parsers_agree(const Bytes& wire, bool wide) {
  const auto parsed = packet::EncPacket::parse(wire, wide);
  const auto header = packet::parse_enc_header(wire, wide);
  const auto region = packet::enc_entries(wire, wide);
  ASSERT_EQ(parsed.has_value(), header.has_value() && region.has_value());
  const std::size_t hdr =
      wide ? packet::kEncHeaderSizeWide : packet::kEncHeaderSize;
  const auto ref = wire.size() < hdr
                       ? std::nullopt
                       : reference_entries(packet::WireView(wire).subspan(hdr));
  ASSERT_EQ(region.has_value(), ref.has_value());
  if (!region) return;
  EXPECT_EQ(region->to_vector(), *ref);
  if (parsed) {
    EXPECT_EQ(parsed->entries, *ref);
  }
}

// The same for USR packets: UsrPacket::parse accepts exactly the packets
// with a USR header whose entry region passes the in-place check.
void expect_usr_parsers_agree(const Bytes& wire, bool wide) {
  const auto parsed = packet::UsrPacket::parse(wire, wide);
  const std::size_t hdr =
      wide ? packet::kUsrHeaderSizeWide : packet::kUsrHeaderSize;
  const bool usr_header =
      wire.size() >= hdr && packet::peek_type(wire) == packet::PacketType::Usr;
  const auto region =
      wire.size() < hdr
          ? std::nullopt
          : packet::EntryRegion::check(packet::WireView(wire).subspan(hdr));
  const auto ref = wire.size() < hdr
                       ? std::nullopt
                       : reference_entries(packet::WireView(wire).subspan(hdr));
  ASSERT_EQ(region.has_value(), ref.has_value());
  ASSERT_EQ(parsed.has_value(), usr_header && region.has_value());
  if (!region) return;
  EXPECT_EQ(region->to_vector(), *ref);
  if (parsed) {
    EXPECT_EQ(parsed->entries, *ref);
  }
}

// Every single-bit flip of `wire`, each checked by `agree`.
template <typename Agree>
void for_each_bit_flip(const Bytes& wire, Agree agree) {
  for (std::size_t pos = 0; pos < wire.size(); ++pos)
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = wire;
      flipped[pos] ^= static_cast<std::uint8_t>(1u << bit);
      agree(flipped);
      if (::testing::Test::HasFatalFailure()) {
        ADD_FAILURE() << "flip of byte " << pos << " bit " << bit;
        return;
      }
    }
}

TEST(Fuzz, ParsersNeverThrowOnRandomInput) {
  Rng rng(1);
  for (int trial = 0; trial < 5000; ++trial) {
    const Bytes wire = random_bytes(rng, rng.next_in(0, 64));
    EXPECT_NO_THROW({
      (void)packet::EncPacket::parse(wire);
      (void)packet::ParityPacket::parse(wire);
      (void)packet::UsrPacket::parse(wire);
      (void)packet::NackPacket::parse(wire);
      (void)packet::parse_enc_header(wire);
      (void)packet::parse_parity_header(wire);
      (void)packet::peek_type(wire);
    });
  }
}

TEST(Fuzz, ParsersNeverThrowOnPacketSizedRandomInput) {
  Rng rng(2);
  for (int trial = 0; trial < 2000; ++trial) {
    const Bytes wire = random_bytes(rng, 1027);
    EXPECT_NO_THROW({
      (void)packet::EncPacket::parse(wire);
      (void)packet::ParityPacket::parse(wire);
      (void)packet::UsrPacket::parse(wire);
      (void)packet::NackPacket::parse(wire);
    });
  }
}

TEST(Fuzz, BitflippedEncPacketsParseOrRejectCleanly) {
  // Start from a valid packet and flip bits: parse must not throw, and if
  // it succeeds the result must be internally consistent enough to print.
  packet::EncPacket p;
  p.msg_id = 5;
  p.block_id = 3;
  p.seq = 2;
  p.max_kid = 100;
  p.frm_id = 101;
  p.to_id = 120;
  crypto::KeyGenerator gen(1);
  for (std::uint32_t i = 1; i <= 10; ++i) {
    packet::EncEntry e;
    e.enc_id = i;
    const auto k = gen.next();
    std::copy(k.bytes.begin(), k.bytes.end(), e.enc.ciphertext.begin());
    p.entries.push_back(e);
  }
  const Bytes base = p.serialize(512);
  Rng rng(3);
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes wire = base;
    const std::size_t flips = 1 + rng.next_in(0, 7);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.next_in(0, wire.size() - 1);
      wire[pos] ^= static_cast<std::uint8_t>(1u << rng.next_in(0, 7));
    }
    EXPECT_NO_THROW((void)packet::EncPacket::parse(wire));
    expect_enc_parsers_agree(wire, /*wide=*/false);
  }
}

TEST(Fuzz, UserTransportIgnoresGarbagePackets) {
  Rng rng(4);
  transport::PacketPool pool;
  for (int i = 0; i < 500; ++i)
    pool.push_back(random_bytes(rng, rng.next_in(0, 1027)));
  transport::UserTransport u(/*old_id=*/100, /*k=*/10, /*degree=*/4, &pool);
  for (std::size_t i = 0; i < pool.size(); ++i)
    EXPECT_NO_THROW(u.on_packet(i, 1));
  // With nothing intelligible received, the round ends in a NACK (random
  // bytes can in principle masquerade as this user's ENC packet — the
  // integrity tags reject the garbage keys downstream — so only the
  // not-recovered case is asserted on).
  if (!u.recovered()) {
    std::vector<packet::NackEntry> nack;
    EXPECT_NO_THROW(nack = u.end_of_round(1));
    EXPECT_FALSE(nack.empty());
  }
}

TEST(Fuzz, EstimatorToleratesInconsistentHeaders) {
  // Random (but type-correct) ENC headers: inconsistent observations are
  // dropped, low() <= high() always holds, and observe never throws.
  Rng rng(5);
  for (int trial = 0; trial < 2000; ++trial) {
    packet::BlockIdEstimator est(/*my_id=*/500, /*k=*/10, /*degree=*/4);
    for (int i = 0; i < 20; ++i) {
      packet::EncHeader h;
      h.block_id = static_cast<std::uint16_t>(rng.next_in(0, 40));
      h.seq = static_cast<std::uint8_t>(rng.next_in(0, 9));
      h.frm_id = static_cast<std::uint16_t>(rng.next_in(0, 1000));
      h.to_id = static_cast<std::uint16_t>(h.frm_id + rng.next_in(0, 50));
      h.max_kid = static_cast<std::uint16_t>(rng.next_in(125, 2000));
      EXPECT_NO_THROW(est.observe(h));
      EXPECT_LE(est.low(), est.high());
    }
  }
}

// Helpers for the truncation sweep: entries whose serialized id bytes are
// all nonzero, so a cut anywhere inside an entry leaves a nonzero tail
// byte and the strict-tail parser must reject the wire.
std::vector<packet::EncEntry> nonzero_id_entries(std::size_t n) {
  std::vector<packet::EncEntry> out;
  crypto::KeyGenerator gen(7);
  for (std::size_t i = 0; i < n; ++i) {
    packet::EncEntry e;
    e.enc_id = 0x01010101u + static_cast<std::uint32_t>(i);
    const auto k = gen.next();
    std::copy(k.bytes.begin(), k.bytes.end(), e.enc.ciphertext.begin());
    out.push_back(e);
  }
  return out;
}

// Every valid packet type, truncated at every byte boundary: parsing never
// throws, and a cut that lands mid-entry (a nonzero partial tail) parses
// to nullopt. Cuts at entry boundaries are self-delimiting — they are
// byte-identical to a genuine shorter packet, so the parser accepts the
// prefix; detecting those is the UDP length/checksum's job, not the
// format's.
//
// Each sweep runs for the narrow and the wide layout, and every cut (and
// every single-bit flip of the full packet) must also be judged the same
// way by the in-place entry check as by the copying parser.
TEST(Fuzz, TruncationSweepEncPacket) {
  for (const bool wide : {false, true}) {
    SCOPED_TRACE(wide ? "wide" : "narrow");
    packet::EncPacket p;
    p.msg_id = 11;
    p.block_id = 2;
    p.seq = 1;
    p.max_kid = 300;
    p.frm_id = 301;
    p.to_id = 320;
    p.entries = nonzero_id_entries(8);
    const Bytes full = p.serialize(512, wide);
    const std::size_t hdr =
        wide ? packet::kEncHeaderSizeWide : packet::kEncHeaderSize;
    const std::size_t data_end = hdr + p.entries.size() * packet::kEntrySize;
    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
      const Bytes wire(full.begin(), full.begin() + cut);
      std::optional<packet::EncPacket> parsed;
      ASSERT_NO_THROW(parsed = packet::EncPacket::parse(wire, wide))
          << "cut " << cut;
      if (cut < hdr) {
        EXPECT_FALSE(parsed.has_value()) << "cut " << cut;
      } else if (cut < data_end && (cut - hdr) % packet::kEntrySize != 0) {
        EXPECT_FALSE(parsed.has_value()) << "mid-entry cut " << cut;
      } else {
        // Entry boundary or inside the zero padding: a valid prefix.
        ASSERT_TRUE(parsed.has_value()) << "cut " << cut;
        const std::size_t expect_entries =
            cut >= data_end ? p.entries.size()
                            : (cut - hdr) / packet::kEntrySize;
        EXPECT_EQ(parsed->entries.size(), expect_entries) << "cut " << cut;
      }
      expect_enc_parsers_agree(wire, wide);
    }
    for_each_bit_flip(full, [wide](const Bytes& w) {
      expect_enc_parsers_agree(w, wide);
    });
  }
}

TEST(Fuzz, TruncationSweepUsrPacket) {
  for (const bool wide : {false, true}) {
    SCOPED_TRACE(wide ? "wide" : "narrow");
    packet::UsrPacket p;
    p.msg_id = 12;
    p.new_user_id = 77;
    p.max_kid = 400;
    p.entries = nonzero_id_entries(5);
    const Bytes full = p.serialize(wide);
    const std::size_t hdr =
        wide ? packet::kUsrHeaderSizeWide : packet::kUsrHeaderSize;
    for (std::size_t cut = 0; cut <= full.size(); ++cut) {
      const Bytes wire(full.begin(), full.begin() + cut);
      std::optional<packet::UsrPacket> parsed;
      ASSERT_NO_THROW(parsed = packet::UsrPacket::parse(wire, wide))
          << "cut " << cut;
      if (cut < hdr) {
        EXPECT_FALSE(parsed.has_value()) << "cut " << cut;
      } else if ((cut - hdr) % packet::kEntrySize != 0) {
        EXPECT_FALSE(parsed.has_value()) << "mid-entry cut " << cut;
      } else {
        ASSERT_TRUE(parsed.has_value()) << "cut " << cut;
        EXPECT_EQ(parsed->entries.size(), (cut - hdr) / packet::kEntrySize)
            << "cut " << cut;
      }
      expect_usr_parsers_agree(wire, wide);
    }
    for_each_bit_flip(full, [wide](const Bytes& w) {
      expect_usr_parsers_agree(w, wide);
    });
  }
}

TEST(Fuzz, EntryCheckMatchesParsersOnRandomBuffers) {
  // Random ENC- and USR-typed buffers: random headers, a few entries with
  // random (possibly zero) ids, then a tail that is zero padding half of
  // the time and random otherwise, so both verdicts occur often.
  Rng rng(8);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const bool usr = trial % 2 == 1;
    const bool wide = trial % 4 >= 2;
    Bytes wire = random_bytes(rng, rng.next_in(0, 20));
    if (!wire.empty()) {
      const auto type = usr ? packet::PacketType::Usr : packet::PacketType::Enc;
      wire[0] = static_cast<std::uint8_t>(static_cast<unsigned>(type) << 6 |
                                          (wire[0] & 0x3F));
    }
    const std::size_t entries = rng.next_in(0, 4);
    for (std::size_t e = 0; e < entries; ++e) {
      const Bytes entry = random_bytes(rng, packet::kEntrySize);
      wire.insert(wire.end(), entry.begin(), entry.end());
    }
    const std::size_t tail = rng.next_in(0, 30);
    const Bytes noise = random_bytes(rng, tail);
    if (rng.next_in(0, 1) == 0)
      wire.insert(wire.end(), tail, 0);
    else
      wire.insert(wire.end(), noise.begin(), noise.end());
    if (usr) {
      expect_usr_parsers_agree(wire, wide);
      accepted += packet::UsrPacket::parse(wire, wide).has_value();
    } else {
      expect_enc_parsers_agree(wire, wide);
      accepted += packet::EncPacket::parse(wire, wide).has_value();
    }
  }
  // Both verdicts were exercised.
  EXPECT_GT(accepted, 400u);
  EXPECT_LT(accepted, 3600u);
}

// `n` entries with nonzero ids and random bodies, then `pad` zero bytes.
Bytes entry_region(Rng& rng, std::size_t n, std::size_t pad) {
  Bytes region = random_bytes(rng, n * packet::kEntrySize + pad);
  for (std::size_t e = 0; e < n; ++e)
    region[e * packet::kEntrySize] |= 0x80;  // the id is never zero
  std::fill(region.end() - static_cast<std::ptrdiff_t>(pad), region.end(), 0);
  return region;
}

TEST(Fuzz, EntryCheckMatchesTheOracleAtEveryWordBoundary) {
  // The in-place check reads ids 4 bytes and padding 8 bytes at a time.
  // Regions built to land each edge on every offset within a word, behind
  // an ENC header of either width (so at two offsets from the buffer
  // start, checked through the parsers too) and on their own, must get
  // the oracle's verdict and entries.
  Rng rng(30);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto agree = [&](const Bytes& region) {
    const auto got = packet::EntryRegion::check(region);
    const auto want = reference_entries(region);
    ASSERT_EQ(got.has_value(), want.has_value());
    if (got) {
      EXPECT_EQ(got->to_vector(), *want);
      ++accepted;
    } else {
      ++rejected;
    }
    for (const bool wide : {false, true}) {
      Bytes wire(wide ? packet::kEncHeaderSizeWide : packet::kEncHeaderSize,
                 0);
      wire.insert(wire.end(), region.begin(), region.end());
      expect_enc_parsers_agree(wire, wide);
    }
  };
  for (std::size_t n = 0; n <= 5; ++n) {
    // Padding after the last entry, of every length mod 8 and past one
    // entry's width; then one nonzero byte at each padding offset.
    for (std::size_t pad = 0; pad <= 2 * packet::kEntrySize; ++pad) {
      const Bytes region = entry_region(rng, n, pad);
      agree(region);
      for (std::size_t off = 0; off < pad; ++off) {
        Bytes dirty = region;
        dirty[n * packet::kEntrySize + off] =
            static_cast<std::uint8_t>(rng.next_in(1, 255));
        agree(dirty);
      }
    }
    // A zero id at each entry position, followed by data (rejected) or
    // by zeros only (accepted, the entries before it).
    for (std::size_t at = 0; at < n; ++at) {
      Bytes region = entry_region(rng, n, rng.next_in(0, 9));
      const auto id = region.begin() + at * packet::kEntrySize;
      std::fill(id, id + 4, 0);
      agree(region);
      std::fill(id, region.end(), 0);
      agree(region);
    }
    // A partial trailing entry that holds data, of every length.
    for (std::size_t part = 1; part < packet::kEntrySize; ++part) {
      Bytes region = entry_region(rng, n, part);
      region[n * packet::kEntrySize + rng.next_in(0, part - 1)] = 0x5A;
      agree(region);
    }
  }
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 1000u);
}

TEST(Fuzz, TruncationSweepNackPacket) {
  packet::NackPacket p;
  p.msg_id = 13;
  for (int i = 0; i < 6; ++i) {
    packet::NackEntry e;
    e.parities_needed = static_cast<std::uint8_t>(1 + i);
    e.block_id = static_cast<std::uint16_t>(10 + i);
    e.max_shard_seen = static_cast<std::uint8_t>(3 + i);
    p.entries.push_back(e);
  }
  const Bytes full = p.serialize();
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const Bytes wire(full.begin(), full.begin() + cut);
    std::optional<packet::NackPacket> parsed;
    ASSERT_NO_THROW(parsed = packet::NackPacket::parse(wire)) << "cut " << cut;
    if (cut < 1) {
      EXPECT_FALSE(parsed.has_value()) << "cut " << cut;
    } else if ((cut - 1) % 4 != 0) {
      // NACK entries carry no padding: a partial trailing entry is a
      // truncated datagram, rejected outright.
      EXPECT_FALSE(parsed.has_value()) << "mid-entry cut " << cut;
    } else {
      ASSERT_TRUE(parsed.has_value()) << "cut " << cut;
      EXPECT_EQ(parsed->entries.size(), (cut - 1) / 4) << "cut " << cut;
    }
  }
}

TEST(Fuzz, TruncationSweepParityPacket) {
  packet::ParityPacket p;
  p.msg_id = 14;
  p.block_id = 4;
  p.parity_seq = 9;
  p.fec.assign(128, 0xAB);
  const Bytes full = p.serialize();
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    const Bytes wire(full.begin(), full.begin() + cut);
    std::optional<packet::ParityPacket> parsed;
    ASSERT_NO_THROW(parsed = packet::ParityPacket::parse(wire))
        << "cut " << cut;
    // A parity body is opaque FEC bytes with no internal structure; only
    // the header is checkable (the UDP checksum catches body truncation).
    EXPECT_EQ(parsed.has_value(), cut >= packet::kFecOffset) << "cut " << cut;
  }
}

TEST(Fuzz, TruncatedUsrAndNackHandled) {
  packet::UsrPacket usr;
  usr.msg_id = 9;
  usr.new_user_id = 44;
  crypto::KeyGenerator gen(6);
  packet::EncEntry e;
  e.enc_id = 7;
  const auto k = gen.next();
  std::copy(k.bytes.begin(), k.bytes.end(), e.enc.ciphertext.begin());
  usr.entries.push_back(e);
  const Bytes full = usr.serialize();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const Bytes wire(full.begin(), full.begin() + cut);
    EXPECT_NO_THROW((void)packet::UsrPacket::parse(wire));
  }
}

}  // namespace
}  // namespace rekey
