#include "wire/control.h"

#include <algorithm>

#include "common/byte_cursor.h"
#include "common/ensure.h"

namespace rekey::wire {

namespace {

// Serialized sizes (op byte included).
constexpr std::size_t kSubSize = 9;       // legacy v1 form; +1 with version
constexpr std::size_t kSubAckSize = 17;   // legacy v1 form; +1 with version
constexpr std::size_t kSlotMapHeaderSize = 7;  // op + base_uid + count (u16)
constexpr std::size_t kSlotMapAckSize = 5;
constexpr std::size_t kBatchStartSize = 6;
constexpr std::size_t kRoundMarkSize = 9;
constexpr std::size_t kReportUserSize = 5;   // uid + entry_count
constexpr std::size_t kReportEntrySize = 4;  // parities + block + max_shard
constexpr std::size_t kBatchDoneSize = 6;
constexpr std::size_t kDoneAckSize = 17;
// Replication frames.
constexpr std::size_t kSnapChunkHeaderSize = 15;  // op + seq + part + nparts + len
constexpr std::size_t kSnapAckSize = 5;
constexpr std::size_t kResubSize = 25;

// Width-dependent sizes (op byte included): a slot id is a u16 or a u32;
// a report header (through its user count) carries three u16 or u32
// counters; a UsrFrag header carries u8 or u16 frag/nfrags.
constexpr std::size_t slot_size(bool wide) { return wide ? 4 : 2; }
constexpr std::size_t report_header_size(bool wide) { return wide ? 24 : 18; }
constexpr std::size_t usr_frag_header_size(bool wide) { return wide ? 15 : 13; }

ByteWriter begin_frame(ControlOp op) {
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(op));
  return w;
}

// A u32 field wide, a u16 field narrow; false when `v` overflows the
// narrow field.
bool put_u16_or_u32(ByteWriter& w, bool wide, std::uint32_t v) {
  if (wide) {
    w.put_u32(v);
  } else if (v > 0xFFFF) {
    return false;
  } else {
    w.put_u16(static_cast<std::uint16_t>(v));
  }
  return true;
}

std::uint32_t get_u16_or_u32(ByteReader& r, bool wide) {
  return wide ? r.get_u32() : r.get_u16();
}

// The op of a width-dependent frame: `narrow` or `wide`, nullopt for any
// other op byte.
std::optional<bool> width_of(packet::WireView payload, ControlOp narrow,
                             ControlOp wide) {
  const auto op = peek_op(payload);
  if (op != narrow && op != wide) return std::nullopt;
  return op == wide;
}

}  // namespace

Bytes serialize(const SubFrame& f) {
  ByteWriter w = begin_frame(ControlOp::Sub);
  w.put_u32(f.first_uid);
  w.put_u32(f.count);
  // v1 clients emit the 9-byte legacy frame, byte-identical to the
  // pre-negotiation protocol; the version byte only exists from v2 on.
  if (f.max_version >= kWireV2) w.put_u8(f.max_version);
  return std::move(w).take();
}

Bytes serialize(const SubAckFrame& f) {
  ByteWriter w = begin_frame(ControlOp::SubAck);
  w.put_u32(f.group_size);
  w.put_u32(f.expected_clients);
  w.put_u8(f.degree);
  w.put_u8(f.block_size);
  w.put_u16(f.packet_size);
  w.put_u32(f.batches);
  if (f.version >= kWireV2) w.put_u8(f.version);
  return std::move(w).take();
}

std::optional<Bytes> serialize(const SlotMapFrame& f) {
  if (f.slots.size() > 0xFFFF) return std::nullopt;  // count is a u16
  ByteWriter w =
      begin_frame(f.wide ? ControlOp::SlotMapV2 : ControlOp::SlotMap);
  w.put_u32(f.base_uid);
  w.put_u16(static_cast<std::uint16_t>(f.slots.size()));
  for (const std::uint32_t s : f.slots)
    if (!put_u16_or_u32(w, f.wide, s)) return std::nullopt;
  return std::move(w).take();
}

Bytes serialize(const SlotMapAckFrame& f) {
  ByteWriter w = begin_frame(ControlOp::SlotMapAck);
  w.put_u32(f.first_uid);
  return std::move(w).take();
}

Bytes serialize(const BatchStartFrame& f) {
  ByteWriter w = begin_frame(ControlOp::BatchStart);
  w.put_u32(f.batch_seq);
  w.put_u8(f.msg_id);
  // Epoch 0 keeps the legacy 6-byte frame byte-identical (the fencing
  // field only exists once a failover has happened), mirroring the
  // Sub/SubAck version-byte pattern.
  if (f.epoch > 0) w.put_u32(f.epoch);
  return std::move(w).take();
}

Bytes serialize(const RoundMarkFrame& f) {
  ByteWriter w = begin_frame(ControlOp::RoundMark);
  w.put_u32(f.batch_seq);
  w.put_u8(f.msg_id);
  w.put_u16(f.round);
  w.put_u8(f.phase);
  return std::move(w).take();
}

namespace {

// Entry-list emitter of a report; false when any user's entry list
// overflows its u8 count field.
bool put_report_users(ByteWriter& w, const std::vector<ReportUser>& users) {
  for (const ReportUser& u : users) {
    if (u.entries.size() > 0xFF) return false;
    w.put_u32(u.uid);
    w.put_u8(static_cast<std::uint8_t>(u.entries.size()));
    for (const packet::NackEntry& e : u.entries) {
      w.put_u8(e.parities_needed);
      w.put_u16(e.block_id);
      w.put_u8(e.max_shard_seen);
    }
  }
  return true;
}

}  // namespace

std::optional<Bytes> serialize(const ReportFrame& f) {
  if (f.users.size() > 0xFFFFFFFFull) return std::nullopt;
  ByteWriter w = begin_frame(f.wide ? ControlOp::ReportV2 : ControlOp::Report);
  w.put_u32(f.batch_seq);
  w.put_u16(f.round);
  w.put_u8(f.phase);
  if (!put_u16_or_u32(w, f.wide, f.part) ||
      !put_u16_or_u32(w, f.wide, f.nparts))
    return std::nullopt;
  w.put_u32(f.unrecovered);
  const auto n = static_cast<std::uint32_t>(f.users.size());
  if (!put_u16_or_u32(w, f.wide, n) || !put_report_users(w, f.users))
    return std::nullopt;
  return std::move(w).take();
}

std::optional<Bytes> serialize(const UsrFragFrame& f) {
  if (f.bytes.size() > 0xFFFF) return std::nullopt;  // length is a u16
  if (!f.wide && (f.frag > 0xFF || f.nfrags > 0xFF)) return std::nullopt;
  ByteWriter w =
      begin_frame(f.wide ? ControlOp::UsrFragV2 : ControlOp::UsrFrag);
  w.put_u32(f.batch_seq);
  w.put_u32(f.uid);
  if (f.wide) {
    w.put_u16(f.frag);
    w.put_u16(f.nfrags);
  } else {
    w.put_u8(static_cast<std::uint8_t>(f.frag));
    w.put_u8(static_cast<std::uint8_t>(f.nfrags));
  }
  w.put_u16(static_cast<std::uint16_t>(f.bytes.size()));
  w.put_bytes(f.bytes);
  return std::move(w).take();
}

Bytes serialize(const BatchDoneFrame& f) {
  ByteWriter w = begin_frame(ControlOp::BatchDone);
  w.put_u32(f.batch_seq);
  w.put_u8(f.last_batch);
  return std::move(w).take();
}

Bytes serialize(const DoneAckFrame& f) {
  ByteWriter w = begin_frame(ControlOp::DoneAck);
  w.put_u32(f.batch_seq);
  w.put_u32(f.recovered);
  w.put_u32(f.via_usr);
  w.put_u32(f.gave_up);
  return std::move(w).take();
}

Bytes serialize(const SnapAckFrame& f) {
  ByteWriter w = begin_frame(ControlOp::SnapAck);
  w.put_u32(f.snap_seq);
  return std::move(w).take();
}

Bytes serialize(const HeartbeatFrame& f) {
  ByteWriter w = begin_frame(ControlOp::Heartbeat);
  w.put_u32(f.epoch);
  w.put_u32(f.next_batch);
  return std::move(w).take();
}

Bytes serialize(const ResubFrame& f) {
  ByteWriter w = begin_frame(ControlOp::Resub);
  w.put_u32(f.first_uid);
  w.put_u32(f.count);
  w.put_u32(f.epoch);
  w.put_u32(f.done_seq);
  w.put_u64(f.first_id);
  return std::move(w).take();
}

std::optional<Bytes> serialize(const SnapChunkFrame& f) {
  if (f.bytes.size() > 0xFFFF) return std::nullopt;
  // Sized up front: a snapshot ship sends tens of thousands of these.
  Bytes out(kSnapChunkHeaderSize + f.bytes.size());
  ByteCursor w(out.data());
  w.put_u8(static_cast<std::uint8_t>(ControlOp::SnapChunk));
  w.put_u32(f.snap_seq);
  w.put_u32(f.part);
  w.put_u32(f.nparts);
  w.put_u16(static_cast<std::uint16_t>(f.bytes.size()));
  w.put_bytes(f.bytes);
  return out;
}

Bytes serialize(const FinFrame&) {
  return std::move(begin_frame(ControlOp::Fin)).take();
}

Bytes serialize(const FinAckFrame&) {
  return std::move(begin_frame(ControlOp::FinAck)).take();
}

std::optional<ControlOp> peek_op(packet::WireView payload) {
  if (payload.empty()) return std::nullopt;
  const std::uint8_t op = payload[0];
  if (op < static_cast<std::uint8_t>(ControlOp::Sub) ||
      op > static_cast<std::uint8_t>(ControlOp::Resub))
    return std::nullopt;
  return static_cast<ControlOp>(op);
}

std::optional<SubFrame> parse_sub(packet::WireView payload) {
  if ((payload.size() != kSubSize && payload.size() != kSubSize + 1) ||
      peek_op(payload) != ControlOp::Sub)
    return std::nullopt;
  ByteReader r(payload.subspan(1));
  SubFrame f;
  f.first_uid = r.get_u32();
  f.count = r.get_u32();
  if (r.remaining() > 0) {
    f.max_version = r.get_u8();
    // A trailing version byte announcing v1 (or 0) is not a frame any
    // writer emits — v1 is expressed by the byte's absence.
    if (f.max_version < kWireV2) return std::nullopt;
  }
  return f;
}

std::optional<SubAckFrame> parse_sub_ack(packet::WireView payload) {
  if ((payload.size() != kSubAckSize && payload.size() != kSubAckSize + 1) ||
      peek_op(payload) != ControlOp::SubAck)
    return std::nullopt;
  ByteReader r(payload.subspan(1));
  SubAckFrame f;
  f.group_size = r.get_u32();
  f.expected_clients = r.get_u32();
  f.degree = r.get_u8();
  f.block_size = r.get_u8();
  f.packet_size = r.get_u16();
  f.batches = r.get_u32();
  if (r.remaining() > 0) {
    f.version = r.get_u8();
    if (f.version < kWireV2) return std::nullopt;
  }
  return f;
}

std::optional<SlotMapFrame> parse_slot_map(packet::WireView payload) {
  const auto wide = width_of(payload, ControlOp::SlotMap, ControlOp::SlotMapV2);
  if (!wide || payload.size() < kSlotMapHeaderSize) return std::nullopt;
  ByteReader r(payload.subspan(1));
  SlotMapFrame f;
  f.wide = *wide;
  f.base_uid = r.get_u32();
  const std::uint16_t n = r.get_u16();
  if (r.remaining() != n * slot_size(f.wide)) return std::nullopt;
  f.slots.reserve(n);
  for (std::uint16_t i = 0; i < n; ++i)
    f.slots.push_back(get_u16_or_u32(r, f.wide));
  return f;
}

std::optional<SlotMapAckFrame> parse_slot_map_ack(packet::WireView payload) {
  if (payload.size() != kSlotMapAckSize ||
      peek_op(payload) != ControlOp::SlotMapAck)
    return std::nullopt;
  ByteReader r(payload.subspan(1));
  SlotMapAckFrame f;
  f.first_uid = r.get_u32();
  return f;
}

std::optional<BatchStartFrame> parse_batch_start(packet::WireView payload) {
  if ((payload.size() != kBatchStartSize &&
       payload.size() != kBatchStartSize + 4) ||
      peek_op(payload) != ControlOp::BatchStart)
    return std::nullopt;
  ByteReader r(payload.subspan(1));
  BatchStartFrame f;
  f.batch_seq = r.get_u32();
  f.msg_id = r.get_u8();
  if (r.remaining() > 0) {
    f.epoch = r.get_u32();
    // A trailing epoch field carrying 0 is not a frame any writer emits —
    // epoch 0 is expressed by the field's absence (as with Sub's version
    // byte), so the 6-byte truncation of an epoch'd frame is itself valid.
    if (f.epoch == 0) return std::nullopt;
  }
  return f;
}

std::optional<RoundMarkFrame> parse_round_mark(packet::WireView payload) {
  if (payload.size() != kRoundMarkSize ||
      peek_op(payload) != ControlOp::RoundMark)
    return std::nullopt;
  ByteReader r(payload.subspan(1));
  RoundMarkFrame f;
  f.batch_seq = r.get_u32();
  f.msg_id = r.get_u8();
  f.round = r.get_u16();
  f.phase = r.get_u8();
  return f;
}

namespace {

// Strict user-list reader of a report.
bool get_report_users(ByteReader& r, std::uint32_t n,
                      std::vector<ReportUser>& users) {
  users.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (r.remaining() < kReportUserSize) return false;
    ReportUser u;
    u.uid = r.get_u32();
    const std::uint8_t entries = r.get_u8();
    if (r.remaining() < entries * kReportEntrySize) return false;
    u.entries.reserve(entries);
    for (std::uint8_t e = 0; e < entries; ++e) {
      packet::NackEntry ne;
      ne.parities_needed = r.get_u8();
      ne.block_id = r.get_u16();
      ne.max_shard_seen = r.get_u8();
      u.entries.push_back(ne);
    }
    users.push_back(std::move(u));
  }
  return r.remaining() == 0;  // trailing garbage rejects the frame
}

}  // namespace

std::optional<ReportFrame> parse_report(packet::WireView payload) {
  const auto wide = width_of(payload, ControlOp::Report, ControlOp::ReportV2);
  if (!wide || payload.size() < report_header_size(*wide)) return std::nullopt;
  ByteReader r(payload.subspan(1));
  ReportFrame f;
  f.wide = *wide;
  f.batch_seq = r.get_u32();
  f.round = r.get_u16();
  f.phase = r.get_u8();
  f.part = get_u16_or_u32(r, f.wide);
  f.nparts = get_u16_or_u32(r, f.wide);
  f.unrecovered = r.get_u32();
  const std::uint32_t n = get_u16_or_u32(r, f.wide);
  if (f.nparts == 0 || f.part >= f.nparts) return std::nullopt;
  // A count the remaining bytes cannot possibly hold is rejected before
  // reserve() trusts it (each user costs at least kReportUserSize bytes).
  if (static_cast<std::uint64_t>(n) * kReportUserSize > r.remaining())
    return std::nullopt;
  if (!get_report_users(r, n, f.users)) return std::nullopt;
  return f;
}

std::optional<UsrFragFrame> parse_usr_frag(packet::WireView payload) {
  const auto wide = width_of(payload, ControlOp::UsrFrag, ControlOp::UsrFragV2);
  if (!wide || payload.size() < usr_frag_header_size(*wide))
    return std::nullopt;
  ByteReader r(payload.subspan(1));
  UsrFragFrame f;
  f.wide = *wide;
  f.batch_seq = r.get_u32();
  f.uid = r.get_u32();
  f.frag = f.wide ? r.get_u16() : r.get_u8();
  f.nfrags = f.wide ? r.get_u16() : r.get_u8();
  const std::uint16_t len = r.get_u16();
  if (f.nfrags == 0 || f.frag >= f.nfrags) return std::nullopt;
  if (r.remaining() != len) return std::nullopt;  // truncated or padded
  f.bytes = r.get_bytes(len);
  return f;
}

std::optional<BatchDoneFrame> parse_batch_done(packet::WireView payload) {
  if (payload.size() != kBatchDoneSize ||
      peek_op(payload) != ControlOp::BatchDone)
    return std::nullopt;
  ByteReader r(payload.subspan(1));
  BatchDoneFrame f;
  f.batch_seq = r.get_u32();
  f.last_batch = r.get_u8();
  return f;
}

std::optional<DoneAckFrame> parse_done_ack(packet::WireView payload) {
  if (payload.size() != kDoneAckSize || peek_op(payload) != ControlOp::DoneAck)
    return std::nullopt;
  ByteReader r(payload.subspan(1));
  DoneAckFrame f;
  f.batch_seq = r.get_u32();
  f.recovered = r.get_u32();
  f.via_usr = r.get_u32();
  f.gave_up = r.get_u32();
  return f;
}

std::optional<SnapChunkFrame> parse_snap_chunk(packet::WireView payload) {
  if (payload.size() < kSnapChunkHeaderSize ||
      peek_op(payload) != ControlOp::SnapChunk)
    return std::nullopt;
  ByteReader r(payload.subspan(1));
  SnapChunkFrame f;
  f.snap_seq = r.get_u32();
  f.part = r.get_u32();
  f.nparts = r.get_u32();
  const std::uint16_t len = r.get_u16();
  if (f.nparts == 0 || f.part >= f.nparts) return std::nullopt;
  if (r.remaining() != len) return std::nullopt;  // truncated or padded
  f.bytes = payload.subspan(kSnapChunkHeaderSize);
  return f;
}

std::optional<SnapAckFrame> parse_snap_ack(packet::WireView payload) {
  if (payload.size() != kSnapAckSize || peek_op(payload) != ControlOp::SnapAck)
    return std::nullopt;
  ByteReader r(payload.subspan(1));
  SnapAckFrame f;
  f.snap_seq = r.get_u32();
  return f;
}

std::optional<ResubFrame> parse_resub(packet::WireView payload) {
  if (payload.size() != kResubSize || peek_op(payload) != ControlOp::Resub)
    return std::nullopt;
  ByteReader r(payload.subspan(1));
  ResubFrame f;
  f.first_uid = r.get_u32();
  f.count = r.get_u32();
  f.epoch = r.get_u32();
  f.done_seq = r.get_u32();
  f.first_id = r.get_u64();
  return f;
}

std::vector<SlotMapFrame> chunk_slot_map(
    std::uint32_t first_uid, const std::vector<std::uint32_t>& slots,
    std::size_t max_payload, bool wide) {
  REKEY_ENSURE(max_payload > kSlotMapHeaderSize + slot_size(wide));
  const std::size_t per_chunk = std::min<std::size_t>(
      (max_payload - kSlotMapHeaderSize) / slot_size(wide), 0xFFFF);
  std::vector<SlotMapFrame> out;
  for (std::size_t base = 0; base < slots.size(); base += per_chunk) {
    SlotMapFrame f;
    f.base_uid = first_uid + static_cast<std::uint32_t>(base);
    const std::size_t end = std::min(slots.size(), base + per_chunk);
    f.slots.assign(slots.begin() + static_cast<std::ptrdiff_t>(base),
                   slots.begin() + static_cast<std::ptrdiff_t>(end));
    f.wide = wide;
    out.push_back(std::move(f));
  }
  if (out.empty()) out.push_back(SlotMapFrame{first_uid, {}, wide});
  return out;
}

std::vector<ReportFrame> chunk_report(std::uint32_t batch_seq,
                                      std::uint16_t round, std::uint8_t phase,
                                      std::uint32_t unrecovered,
                                      const std::vector<ReportUser>& users,
                                      std::size_t max_payload, bool wide) {
  const std::size_t header = report_header_size(wide);
  // Per-frame user count and part count: the counter's limit.
  const std::size_t cap = wide ? 0xFFFFFFFFull : 0xFFFF;
  REKEY_ENSURE(max_payload > header + kReportUserSize + kReportEntrySize);
  const ReportFrame blank{batch_seq, round, phase, 0, 1, unrecovered, {}, wide};
  std::vector<ReportFrame> parts;
  ReportFrame cur = blank;
  std::size_t size = header;
  for (const ReportUser& u : users) {
    ReportUser clipped = u;
    // entry_count is a u8, and one user must fit one frame: clip the
    // entry list if need be — the protocol treats missing NACK entries
    // as lost NACKs and retries next round.
    const std::size_t entry_budget = std::min<std::size_t>(
        0xFF, (max_payload - header - kReportUserSize) / kReportEntrySize);
    if (clipped.entries.size() > entry_budget)
      clipped.entries.resize(entry_budget);
    const std::size_t need =
        kReportUserSize + clipped.entries.size() * kReportEntrySize;
    if (size + need > max_payload || cur.users.size() == cap) {
      parts.push_back(std::move(cur));
      cur = blank;
      size = header;
    }
    size += need;
    cur.users.push_back(std::move(clipped));
  }
  parts.push_back(std::move(cur));
  // More parts than the part counter can number cannot be represented:
  // fail (empty) rather than emit frames that alias each other's part ids.
  if (parts.size() > cap) return {};
  for (std::size_t i = 0; i < parts.size(); ++i) {
    parts[i].part = static_cast<std::uint32_t>(i);
    parts[i].nparts = static_cast<std::uint32_t>(parts.size());
  }
  return parts;
}

std::vector<UsrFragFrame> fragment_usr(std::uint32_t batch_seq,
                                       std::uint32_t uid, const Bytes& usr_wire,
                                       std::size_t max_payload, bool wide) {
  const std::size_t header = usr_frag_header_size(wide);
  REKEY_ENSURE(max_payload > header);
  const std::size_t chunk = std::min<std::size_t>(max_payload - header, 0xFFFF);
  const std::size_t nfrags =
      usr_wire.empty() ? 1 : (usr_wire.size() + chunk - 1) / chunk;
  // Empty on counter overflow: emitting aliased fragment ids would
  // reassemble a corrupt USR.
  if (nfrags > (wide ? 0xFFFFu : 0xFFu)) return {};
  std::vector<UsrFragFrame> out;
  out.reserve(nfrags);
  for (std::size_t i = 0; i < nfrags; ++i) {
    UsrFragFrame f;
    f.batch_seq = batch_seq;
    f.uid = uid;
    f.frag = static_cast<std::uint16_t>(i);
    f.nfrags = static_cast<std::uint16_t>(nfrags);
    f.wide = wide;
    const std::size_t begin = i * chunk;
    const std::size_t end = std::min(usr_wire.size(), begin + chunk);
    f.bytes.assign(usr_wire.begin() + static_cast<std::ptrdiff_t>(begin),
                   usr_wire.begin() + static_cast<std::ptrdiff_t>(end));
    out.push_back(std::move(f));
  }
  return out;
}

std::optional<Bytes> UsrReassembly::add(const UsrFragFrame& frag) {
  if (frag.nfrags == 0 || frag.frag >= frag.nfrags) return std::nullopt;
  Partial& p = pending_[frag.uid];
  if (p.seen.empty()) {
    p.nfrags = frag.nfrags;
    p.parts.resize(frag.nfrags);
    p.seen.assign(frag.nfrags, false);
  }
  // A fragment disagreeing with the established count is a stale or
  // damaged duplicate; keep the first wave's shape.
  if (frag.nfrags != p.nfrags) return std::nullopt;
  if (p.seen[frag.frag]) return std::nullopt;  // duplicate fragment
  p.seen[frag.frag] = true;
  p.parts[frag.frag] = frag.bytes;
  ++p.have;
  if (p.have < p.nfrags) return std::nullopt;
  Bytes full;
  for (const Bytes& part : p.parts)
    full.insert(full.end(), part.begin(), part.end());
  pending_.erase(frag.uid);
  return full;
}

std::vector<SnapChunkFrame> chunk_snapshot(std::uint32_t snap_seq,
                                           const Bytes& blob,
                                           std::size_t max_payload) {
  if (max_payload <= kSnapChunkHeaderSize) return {};  // header doesn't fit
  const std::size_t chunk =
      std::min<std::size_t>(max_payload - kSnapChunkHeaderSize, 0xFFFF);
  const std::size_t nparts =
      blob.empty() ? 1 : (blob.size() + chunk - 1) / chunk;
  std::vector<SnapChunkFrame> out;
  out.reserve(nparts);
  for (std::size_t i = 0; i < nparts; ++i) {
    SnapChunkFrame f;
    f.snap_seq = snap_seq;
    f.part = static_cast<std::uint32_t>(i);
    f.nparts = static_cast<std::uint32_t>(nparts);
    const std::size_t begin = i * chunk;
    f.bytes = std::span(blob).subspan(begin,
                                      std::min(chunk, blob.size() - begin));
    out.push_back(f);
  }
  return out;
}

std::optional<Bytes> SnapshotReassembly::add(const SnapChunkFrame& frag) {
  if (frag.nparts == 0 || frag.part >= frag.nparts) return std::nullopt;
  if (frag.nparts > kMaxChunks) return std::nullopt;
  if ((active_ || complete_) && frag.snap_seq < seq_)
    return std::nullopt;  // stale retransmit of a superseded snapshot
  if (frag.snap_seq > seq_ || (!active_ && !complete_)) {
    // Newer snapshot: any partial older blob is dead weight — the primary
    // only retransmits its latest.
    seq_ = frag.snap_seq;
    active_ = true;
    complete_ = false;
    nparts_ = frag.nparts;
    have_ = 0;
    parts_.assign(frag.nparts, Bytes{});
    seen_.assign(frag.nparts, false);
  }
  if (complete_) return std::nullopt;  // duplicate of a delivered snapshot
  // A chunk disagreeing with the established count is a damaged duplicate.
  if (frag.nparts != nparts_) return std::nullopt;
  if (seen_[frag.part]) return std::nullopt;
  seen_[frag.part] = true;
  parts_[frag.part].assign(frag.bytes.begin(), frag.bytes.end());
  ++have_;
  if (have_ < nparts_) return std::nullopt;
  Bytes full;
  for (const Bytes& part : parts_)
    full.insert(full.end(), part.begin(), part.end());
  active_ = false;
  complete_ = true;
  parts_.clear();
  seen_.clear();
  return full;
}

}  // namespace rekey::wire
