// Control-plane frames of the wire rekey session (wire/daemon.h,
// wire/fleet.h).
//
// The rekey protocol itself (packet/wire.h) defines only the four data
// packets; the paper's evaluation drives them from a simulator where
// round boundaries and membership are ambient. On a real datagram
// transport those have to travel too. Every datagram starts with a
// 1-byte channel:
//
//   kChanData    — payload is exactly one protocol packet (ENC / PARITY /
//                  USR / NACK wire bytes, unchanged from packet/wire.h).
//   kChanControl — payload is one of the frames below.
//
// Control frames keep the round-based protocol's lockstep over a lossy
// transport: the daemon re-marks a round until every endpoint's final
// report (or the deadline) arrives, and endpoints answer duplicate marks
// by resending their cached reports. Data-plane loss is the protocol's
// own business (FEC + NACK); control frames are the only thing the wire
// layer retransmits.
//
// All integers are big-endian, serialized with ByteWriter like the data
// packets. Parsers are strict: any truncation, trailing bytes, or length
// mismatch returns nullopt — these arrive off a real socket.
//
// Protocol versions. v1 (the original format) carries 16-bit keytree slot
// ids; v2 widens SlotMap/Report/UsrFrag (ops 13–15) and the data-plane
// ENC/USR headers to 32-bit slot ids, and raises the UsrFrag fragment
// count to 16 bits. Versions are negotiated per session: Sub optionally
// carries the client's max supported version (a trailing byte, absent for
// v1 so the 9-byte legacy frame is unchanged) and SubAck optionally
// carries the server's selection the same way. Everything else is shared
// between versions byte-for-byte.
//
// Each op has one frame type whatever its width. SlotMapFrame,
// ReportFrame and UsrFragFrame hold the wide field types and a `wide`
// flag: serialize() picks the op byte and the field widths from it, a
// parser accepts both op bytes and sets it from the op, and a chunker
// takes `wide` the way packet/wire.h does for ENC and USR.
//
// Replication frames (ops 16–19) carry the replicated key server's
// control traffic: full-server snapshots ship replica-to-replica as
// SnapChunk/SnapAck at batch boundaries, Heartbeat lets a warm standby
// detect primary death, and Resub is a client's re-subscription to a
// freshly promoted replica. Epoch fencing rides in BatchStart the same
// trailing-field way as version negotiation: epoch 0 (the unreplicated
// and pre-failover case) keeps the legacy 6-byte frame byte-identical,
// a promoted replica appends its nonzero epoch, and clients reject
// BatchStarts fenced below the highest epoch they have seen.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "packet/wire.h"

namespace rekey::wire {

inline constexpr std::uint8_t kChanData = 0x00;
inline constexpr std::uint8_t kChanControl = 0x01;

enum class ControlOp : std::uint8_t {
  Sub = 1,          // client -> server: subscribe a uid range
  SubAck = 2,       // server -> client: group parameters
  SlotMap = 3,      // server -> client: initial keytree slot of each uid
  SlotMapAck = 4,   // client -> server: slot map fully received
  BatchStart = 5,   // server -> client: a rekey message begins
  RoundMark = 6,    // server -> client: end-of-round, report now
  Report = 7,       // client -> server: aggregated NACKs + unrecovered count
  UsrFrag = 8,      // server -> client: unicast USR payload fragment
  BatchDone = 9,    // server -> client: message delivered / abandoned
  DoneAck = 10,     // client -> server: per-endpoint batch stats
  Fin = 11,         // server -> client: session over
  FinAck = 12,      // client -> server
  SlotMapV2 = 13,   // server -> client: SlotMap with 32-bit slot ids
  ReportV2 = 14,    // client -> server: Report with 32-bit part counters
  UsrFragV2 = 15,   // server -> client: UsrFrag with 16-bit frag counters
  SnapChunk = 16,   // primary -> standby: full-server snapshot fragment
  SnapAck = 17,     // standby -> primary: snapshot fully restored
  Heartbeat = 18,   // primary -> standby: liveness + progress
  Resub = 19,       // client -> promoted standby: failover re-subscribe
};

// Wire protocol versions (see header comment).
inline constexpr std::uint8_t kWireV1 = 1;  // 16-bit slot ids
inline constexpr std::uint8_t kWireV2 = 2;  // 32-bit slot ids
inline constexpr std::uint8_t kMaxWireVersion = kWireV2;

// An endpoint (one load-generator socket) speaks for a contiguous range
// of virtual clients; uid is the stable client identity across batches
// (its keytree slot changes every batch, its uid never does).
struct SubFrame {
  std::uint32_t first_uid = 0;
  std::uint32_t count = 0;
  // Highest wire version this client speaks. kWireV1 serializes to the
  // 9-byte legacy frame (no version byte); higher values append one byte.
  std::uint8_t max_version = kWireV1;
};

struct SubAckFrame {
  std::uint32_t group_size = 0;        // current keytree member count
  std::uint32_t expected_clients = 0;  // fleet size the daemon waits for
  std::uint8_t degree = 4;
  std::uint8_t block_size = 10;  // FEC k
  std::uint16_t packet_size = 0;
  std::uint32_t batches = 0;  // churn batches the daemon will run
  // Wire version the server selected for the session (global: the data
  // plane is multicast, so every endpoint speaks the same width). kWireV1
  // keeps the 17-byte legacy ack; higher values append one byte.
  std::uint8_t version = kWireV1;
};

// Initial keytree slots for a contiguous run of uids. Only sent once per
// session, right after subscription: a client must know its pre-batch-0
// slot id to run the Theorem-4.2 id derivation; from then on ids evolve
// client-side. Chunked to fit the MTU; the client acks once every uid in
// its subscribed range has a slot.
struct SlotMapFrame {
  std::uint32_t base_uid = 0;
  std::vector<std::uint32_t> slots;  // slot of base_uid, base_uid+1, ...
  bool wide = false;  // SlotMapV2: u32 slots (u16 otherwise)
};

struct SlotMapAckFrame {
  std::uint32_t first_uid = 0;  // identifies the endpoint's range
};

struct BatchStartFrame {
  std::uint32_t batch_seq = 0;
  std::uint8_t msg_id = 0;  // 6-bit data-plane message id of this batch
  // Fencing token of the sending replica. 0 (an unreplicated server, or
  // a primary that was never failed over) serializes to the legacy
  // 6-byte frame; a promoted replica's nonzero epoch appends four bytes.
  // Clients track the highest epoch seen and drop BatchStarts below it,
  // so a stale primary that comes back cannot drive the group.
  std::uint32_t epoch = 0;
};

// phase 0 = multicast round `round`; phase 1 = unicast wave `round`.
struct RoundMarkFrame {
  std::uint32_t batch_seq = 0;
  std::uint8_t msg_id = 0;  // lets a client that lost BatchStart bootstrap
  std::uint16_t round = 0;
  std::uint8_t phase = 0;
};

// One client's end-of-round feedback inside a report.
struct ReportUser {
  std::uint32_t uid = 0;
  // Empty in the unicast phase, and when shaping lost the client's NACK.
  std::vector<packet::NackEntry> entries;
};

// An endpoint's end-of-round report. Large fleets overflow one datagram,
// so a report is `nparts` frames sharing (batch_seq, round, phase), each
// carrying `part` and the authoritative unrecovered total; the server
// holds the round open until all parts of every live endpoint arrive.
struct ReportFrame {
  std::uint32_t batch_seq = 0;
  std::uint16_t round = 0;
  std::uint8_t phase = 0;
  std::uint32_t part = 0;
  std::uint32_t nparts = 1;
  std::uint32_t unrecovered = 0;  // clients of this endpoint still short
  std::vector<ReportUser> users;
  // ReportV2: part, nparts and the user count are u32 (u16 otherwise), so
  // a multi-million-client endpoint's report stream cannot overflow them.
  bool wide = false;
};

// One fragment of a serialized USR packet (unicast straggler delivery).
// `bytes` is a raw slice [frag * chunk, ...) of UsrPacket::serialize();
// the receiver concatenates all `nfrags` slices and parses the result,
// so a 9000-byte jumbo USR crosses a 1500-byte wire without the daemon
// ever emitting an over-MTU datagram.
struct UsrFragFrame {
  std::uint32_t batch_seq = 0;
  std::uint32_t uid = 0;
  std::uint16_t frag = 0;
  std::uint16_t nfrags = 1;
  Bytes bytes;
  // UsrFragV2: frag and nfrags are u16 (u8 otherwise) — a wide-slot USR
  // for a deep tree can exceed 255 MTU-sized fragments on a tiny-MTU path.
  bool wide = false;
};

struct BatchDoneFrame {
  std::uint32_t batch_seq = 0;
  std::uint8_t last_batch = 0;
};

struct DoneAckFrame {
  std::uint32_t batch_seq = 0;
  std::uint32_t recovered = 0;
  std::uint32_t via_usr = 0;
  std::uint32_t gave_up = 0;
};

// One fragment of a serialized full-server snapshot (wire/server_snapshot.h)
// shipped primary -> standby at a batch boundary. `snap_seq` is the batch
// the snapshot precedes (monotone per session); `bytes` is the raw slice
// [part * chunk, ...) of the snapshot blob, reassembled by concatenation
// exactly like UsrFrag.
struct SnapChunkFrame {
  std::uint32_t snap_seq = 0;
  std::uint32_t part = 0;
  std::uint32_t nparts = 1;
  Bytes bytes;
};

// Standby's confirmation that snapshot `snap_seq` arrived whole and
// restored cleanly; the primary blocks the next batch on it so the
// standby's state always corresponds to a known batch boundary.
struct SnapAckFrame {
  std::uint32_t snap_seq = 0;
};

// Primary -> standby liveness. `next_batch` is the batch the primary is
// running (or about to run); a standby that stops hearing these past its
// election timeout promotes itself with epoch = snapshot epoch + 1.
struct HeartbeatFrame {
  std::uint32_t epoch = 0;
  std::uint32_t next_batch = 0;
};

// A client's re-subscription to a promoted replica. Carries the range
// (as in Sub), the epoch the client is following, the first batch it has
// not finalized, and the Theorem-4.2 evolved id of its first uid — the
// standby spot-checks that id against its restored tree, so a client
// whose id derivation diverged is caught at failover instead of
// silently failing to decrypt.
struct ResubFrame {
  std::uint32_t first_uid = 0;
  std::uint32_t count = 0;
  std::uint32_t epoch = 0;
  std::uint32_t done_seq = 0;   // batches finalized client-side
  std::uint64_t first_id = 0;   // current id of first_uid
};

struct FinFrame {};
struct FinAckFrame {};

Bytes serialize(const SubFrame&);
Bytes serialize(const SubAckFrame&);
Bytes serialize(const SlotMapAckFrame&);
Bytes serialize(const BatchStartFrame&);
Bytes serialize(const RoundMarkFrame&);
Bytes serialize(const BatchDoneFrame&);
Bytes serialize(const DoneAckFrame&);
Bytes serialize(const SnapAckFrame&);
Bytes serialize(const HeartbeatFrame&);
Bytes serialize(const ResubFrame&);
Bytes serialize(const FinFrame&);
Bytes serialize(const FinAckFrame&);

// Variable-length frames can hold more than their length fields express
// (a u16 slot count, a u8 entry count, a u16 fragment byte length), and a
// narrow frame can hold a value too large for its narrow field (a slot,
// part count or fragment count). Serializers for those return nullopt
// instead of aborting the daemon on such malformed in-memory state — the
// chunkers below never construct an over-limit frame, so a nullopt here
// means a caller bug, handled like a parse failure rather than a crash.
std::optional<Bytes> serialize(const SlotMapFrame&);
std::optional<Bytes> serialize(const ReportFrame&);
std::optional<Bytes> serialize(const UsrFragFrame&);
std::optional<Bytes> serialize(const SnapChunkFrame&);

// Peek the op of a control payload (nullopt on empty/unknown).
std::optional<ControlOp> peek_op(packet::WireView payload);

std::optional<SubFrame> parse_sub(packet::WireView payload);
std::optional<SubAckFrame> parse_sub_ack(packet::WireView payload);
// parse_slot_map, parse_report and parse_usr_frag accept both widths of
// their op and set the frame's `wide` from the op byte.
std::optional<SlotMapFrame> parse_slot_map(packet::WireView payload);
std::optional<SlotMapAckFrame> parse_slot_map_ack(packet::WireView payload);
std::optional<BatchStartFrame> parse_batch_start(packet::WireView payload);
std::optional<RoundMarkFrame> parse_round_mark(packet::WireView payload);
std::optional<ReportFrame> parse_report(packet::WireView payload);
std::optional<UsrFragFrame> parse_usr_frag(packet::WireView payload);
std::optional<BatchDoneFrame> parse_batch_done(packet::WireView payload);
std::optional<DoneAckFrame> parse_done_ack(packet::WireView payload);
std::optional<SnapChunkFrame> parse_snap_chunk(packet::WireView payload);
std::optional<SnapAckFrame> parse_snap_ack(packet::WireView payload);
std::optional<HeartbeatFrame> parse_heartbeat(packet::WireView payload);
std::optional<ResubFrame> parse_resub(packet::WireView payload);

// Splits a uid range's slot assignments into SlotMap frames of width
// `wide` fitting `max_payload` each. A narrow chunk holding a slot past
// u16 fails to serialize.
std::vector<SlotMapFrame> chunk_slot_map(std::uint32_t first_uid,
                                         const std::vector<std::uint32_t>&
                                             slots,
                                         std::size_t max_payload,
                                         bool wide = false);

// Splits one client's end-of-round feedback stream into Report frames
// whose serialized size never exceeds `max_payload`. `users` spans the
// endpoint's unrecovered clients; `unrecovered` is stamped on each part.
// Returns empty (an error, not a report) if the stream needs more parts
// than the part counter can number — practically unreachable narrow and
// astronomically so wide.
std::vector<ReportFrame> chunk_report(std::uint32_t batch_seq,
                                      std::uint16_t round, std::uint8_t phase,
                                      std::uint32_t unrecovered,
                                      const std::vector<ReportUser>& users,
                                      std::size_t max_payload,
                                      bool wide = false);

// Splits a serialized USR packet into UsrFrag frames fitting
// `max_payload` each (at least one, even for an empty payload). Returns
// empty (an error) when the payload needs more fragments than the narrow
// u8 counter can number; the wide u16 counter lifts that to 2^16-1.
std::vector<UsrFragFrame> fragment_usr(std::uint32_t batch_seq,
                                       std::uint32_t uid, const Bytes& usr_wire,
                                       std::size_t max_payload,
                                       bool wide = false);

// Splits a snapshot blob into SnapChunk frames fitting `max_payload`
// each (at least one, even for an empty blob). Returns empty (an error)
// only when max_payload cannot fit the chunk header plus one byte.
std::vector<SnapChunkFrame> chunk_snapshot(std::uint32_t snap_seq,
                                           const Bytes& blob,
                                           std::size_t max_payload);

// Reassembles SnapChunk frames into snapshot blobs. Only the newest
// snap_seq is tracked: a chunk of a higher sequence discards any partial
// older state (the primary only ever retransmits its latest snapshot),
// and chunks of completed or stale sequences are ignored. Returns the
// full blob on the chunk that completes it.
class SnapshotReassembly {
 public:
  std::optional<Bytes> add(const SnapChunkFrame& frag);
  void clear();

 private:
  // Chunk-count cap: a hostile nparts must not size a huge vector. At
  // ~1.4 KB per chunk this still admits multi-GB snapshots.
  static constexpr std::uint32_t kMaxChunks = 1u << 20;

  std::uint32_t seq_ = 0;
  bool active_ = false;    // a partial blob of seq_ is in progress
  bool complete_ = false;  // seq_ already delivered (ignore duplicates)
  std::uint32_t nparts_ = 0;
  std::size_t have_ = 0;
  std::vector<Bytes> parts_;
  std::vector<bool> seen_;
};

// Reassembles UsrFrag frames per uid. Duplicate fragments are ignored;
// returns the full USR wire once every fragment of a uid has arrived.
// Both widths feed the same per-uid state (a session only ever sees one
// width, but the counters are compatible).
class UsrReassembly {
 public:
  std::optional<Bytes> add(const UsrFragFrame& frag);
  void clear() { pending_.clear(); }

 private:
  struct Partial {
    std::uint16_t nfrags = 0;
    std::size_t have = 0;
    std::vector<Bytes> parts;
    std::vector<bool> seen;  // emptiness of a part is not "missing"
  };
  std::map<std::uint32_t, Partial> pending_;
};

// Compatibility forwards for perfbench/replay.cpp and
// perfbench/trace_wire.cpp, which still call the names of the former
// v2-only twins. The next change to the benchmark moves them onto the
// unified calls above and deletes this block; nothing else may call them.
inline std::optional<ReportFrame> parse_report_v2(packet::WireView payload) {
  return parse_report(payload);
}
inline std::optional<UsrFragFrame> parse_usr_frag_v2(packet::WireView payload) {
  return parse_usr_frag(payload);
}
inline std::vector<UsrFragFrame> fragment_usr_v2(std::uint32_t batch_seq,
                                                 std::uint32_t uid,
                                                 const Bytes& usr_wire,
                                                 std::size_t max_payload) {
  return fragment_usr(batch_seq, uid, usr_wire, max_payload, true);
}

}  // namespace rekey::wire
