#include "packet/wire.h"

#include <algorithm>
#include <cstring>

#include "common/ensure.h"

namespace rekey::packet {

namespace {

void put_entry(ByteWriter& w, const EncEntry& e) {
  REKEY_ENSURE_MSG(e.enc_id != 0, "encryption id 0 is reserved for padding");
  w.put_u32(e.enc_id);
  w.put_bytes(e.enc.ciphertext);
  w.put_u16(e.enc.tag);
}

std::uint32_t read_u32_at(WireView wire, std::size_t off) {
  return static_cast<std::uint32_t>(wire[off]) << 24 |
         static_cast<std::uint32_t>(wire[off + 1]) << 16 |
         static_cast<std::uint32_t>(wire[off + 2]) << 8 |
         static_cast<std::uint32_t>(wire[off + 3]);
}

template <class T>
T load_native(const std::uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::size_t enc_header_size(bool wide) {
  return wide ? kEncHeaderSizeWide : kEncHeaderSize;
}

}  // namespace

tree::Encryption to_tree_encryption(const EncEntry& e, unsigned degree) {
  tree::Encryption t;
  t.enc_id = e.enc_id;
  t.target_id = tree::parent_of(e.enc_id, degree);
  t.payload = e.enc;
  return t;
}

EncEntry to_wire_entry(const tree::Encryption& e) {
  EncEntry w;
  REKEY_ENSURE_MSG(e.enc_id <= 0xFFFFFFFFull, "encryption id overflow");
  w.enc_id = static_cast<std::uint32_t>(e.enc_id);
  w.enc = e.payload;
  return w;
}

// A packet pool checks each packet here once per slot width as it
// arrives, and members read the result instead of checking their own
// packet. The check still starts on a cache line of its own, like the
// member path's functions: where the linker happens to place it cannot
// move their timing.
[[gnu::aligned(64)]] std::optional<EntryRegion> EntryRegion::check(
    WireView region) {
  const std::uint8_t* p = region.data();
  const std::size_t n = region.size();
  // A zero id is four zero bytes, so one native 4-byte load tests it
  // whatever the host's byte order.
  std::size_t end = 0;
  while (n - end >= kEntrySize && load_native<std::uint32_t>(p + end) != 0)
    end += kEntrySize;
  // The zero id that stopped the loop (if any) and everything after it
  // must be padding. OR-folding the tail 8 bytes at a time keeps the
  // loop branch-free; four folds in flight keep it from waiting on one.
  std::uint64_t fold[4] = {0, 0, 0, 0};
  std::size_t i = end;
  for (; n - i >= 32; i += 32)
    for (std::size_t w = 0; w < 4; ++w)
      fold[w] |= load_native<std::uint64_t>(p + i + 8 * w);
  for (; n - i >= 8; i += 8) fold[0] |= load_native<std::uint64_t>(p + i);
  for (; i < n; ++i) fold[0] |= p[i];
  if ((fold[0] | fold[1] | fold[2] | fold[3]) != 0) return std::nullopt;
  return EntryRegion(region.first(end));
}

std::vector<EncEntry> EntryRegion::to_vector() const {
  std::vector<EncEntry> out(entries_.size() / kEntrySize);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const WireView b = entries_.subspan(i * kEntrySize, kEntrySize);
    EncEntry& e = out[i];
    e.enc_id = read_u32_at(b, 0);
    std::copy_n(b.begin() + 4, e.enc.ciphertext.size(),
                e.enc.ciphertext.begin());
    e.enc.tag = static_cast<std::uint16_t>(b[kEntrySize - 2] << 8 |
                                           b[kEntrySize - 1]);
  }
  return out;
}

std::optional<EntryRegion> enc_entries(WireView wire, bool wide) {
  const std::size_t header = enc_header_size(wide);
  if (wire.size() < header) return std::nullopt;
  return EntryRegion::check(wire.subspan(header));
}

Bytes EncPacket::serialize(std::size_t packet_size, bool wide) const {
  REKEY_ENSURE(msg_id < 64);
  REKEY_ENSURE(seq < 128);
  REKEY_ENSURE_MSG(
      enc_header_size(wide) + entries.size() * kEntrySize <= packet_size,
      "too many encryptions for the packet size");
  ByteWriter w;
  w.put_bits(static_cast<std::uint32_t>(PacketType::Enc), 2);
  w.put_bits(msg_id, 6);
  w.put_u16(block_id);
  w.put_bits(duplicate ? 1 : 0, 1);
  w.put_bits(seq, 7);
  if (wide) {
    w.put_u32(max_kid);
    w.put_u32(frm_id);
    w.put_u32(to_id);
  } else {
    // Pre-wide behavior, kept bit-identical: ids silently truncate to 16
    // bits (sim/bench paths that never put these bytes on a real wire
    // depend on the narrow layout — groups that need more negotiate v2).
    w.put_u16(static_cast<std::uint16_t>(max_kid));
    w.put_u16(static_cast<std::uint16_t>(frm_id));
    w.put_u16(static_cast<std::uint16_t>(to_id));
  }
  for (const EncEntry& e : entries) put_entry(w, e);
  w.pad_to(packet_size);
  return std::move(w).take();
}

Bytes ParityPacket::serialize() const {
  REKEY_ENSURE(msg_id < 64);
  ByteWriter w;
  w.put_bits(static_cast<std::uint32_t>(PacketType::Parity), 2);
  w.put_bits(msg_id, 6);
  w.put_u16(block_id);
  w.put_u8(parity_seq);
  w.put_bytes(fec);
  return std::move(w).take();
}

Bytes UsrPacket::serialize(bool wide) const {
  REKEY_ENSURE(msg_id < 64);
  ByteWriter w;
  w.put_bits(static_cast<std::uint32_t>(PacketType::Usr), 2);
  w.put_bits(msg_id, 6);
  if (wide) {
    w.put_u32(new_user_id);
    w.put_u32(max_kid);
  } else {
    w.put_u16(static_cast<std::uint16_t>(new_user_id));
    w.put_u16(static_cast<std::uint16_t>(max_kid));
  }
  for (const EncEntry& e : entries) put_entry(w, e);
  return std::move(w).take();
}

std::optional<UsrPacket> UsrPacket::parse(WireView wire, bool wide) {
  const std::size_t header = wide ? kUsrHeaderSizeWide : kUsrHeaderSize;
  if (wire.size() < header) return std::nullopt;
  ByteReader r(wire);
  if (r.get_bits(2) != static_cast<std::uint32_t>(PacketType::Usr))
    return std::nullopt;
  UsrPacket p;
  p.msg_id = static_cast<std::uint8_t>(r.get_bits(6));
  if (wide) {
    p.new_user_id = r.get_u32();
    p.max_kid = r.get_u32();
  } else {
    p.new_user_id = r.get_u16();
    p.max_kid = r.get_u16();
  }
  const auto region = EntryRegion::check(wire.subspan(header));
  if (!region) return std::nullopt;  // truncated or damaged entry region
  p.entries = region->to_vector();
  return p;
}

std::optional<PacketType> peek_type(WireView wire) {
  if (wire.empty()) return std::nullopt;
  return static_cast<PacketType>(wire[0] >> 6);
}

std::uint16_t udp_checksum(WireView wire) {
  // Ones'-complement sum of big-endian 16-bit words, odd byte zero-padded,
  // complemented like RFC 768/1071. The end-around-carry fold must loop:
  // on long (jumbo-sized) payloads the first fold can itself carry past
  // bit 16, and a single-pass `~sum & 0xFFFF` would bake that deferred
  // carry into the result.
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < wire.size(); i += 2)
    sum += static_cast<std::uint32_t>(wire[i]) << 8 | wire[i + 1];
  if (i < wire.size()) sum += static_cast<std::uint32_t>(wire[i]) << 8;
  while (sum >> 16) sum = (sum & 0xFFFF) + (sum >> 16);
  const auto folded = static_cast<std::uint16_t>(~sum & 0xFFFF);
  // RFC 768: a computed checksum of zero is transmitted as all ones —
  // on the wire 0x0000 means "no checksum", and a receiver would wave the
  // datagram through unverified.
  return folded == 0 ? std::uint16_t{0xFFFF} : folded;
}

std::optional<EncHeader> parse_enc_header(WireView wire, bool wide) {
  if (wire.size() < enc_header_size(wide) ||
      peek_type(wire) != PacketType::Enc)
    return std::nullopt;
  EncHeader h;
  h.msg_id = wire[0] & 0x3F;
  h.block_id = static_cast<std::uint16_t>(wire[1] << 8 | wire[2]);
  h.duplicate = (wire[3] & 0x80) != 0;
  h.seq = wire[3] & 0x7F;
  if (wide) {
    h.max_kid = read_u32_at(wire, 4);
    h.frm_id = read_u32_at(wire, 8);
    h.to_id = read_u32_at(wire, 12);
  } else {
    h.max_kid = static_cast<std::uint16_t>(wire[4] << 8 | wire[5]);
    h.frm_id = static_cast<std::uint16_t>(wire[6] << 8 | wire[7]);
    h.to_id = static_cast<std::uint16_t>(wire[8] << 8 | wire[9]);
  }
  return h;
}

std::optional<ParityHeader> parse_parity_header(WireView wire) {
  if (wire.size() < kFecOffset || peek_type(wire) != PacketType::Parity)
    return std::nullopt;
  ParityHeader h;
  h.msg_id = wire[0] & 0x3F;
  h.block_id = static_cast<std::uint16_t>(wire[1] << 8 | wire[2]);
  h.parity_seq = wire[3];
  return h;
}

}  // namespace rekey::packet
