// Wire formats of the protocol packets (paper Fig 5 and Appendix A).
//
//   ENC    — encrypted new keys for a contiguous range of users
//   PARITY — RSE parity over the FEC-covered region of a block's ENC packets
//   USR    — one straggler's encryptions, unicast
//   NACK   — per-block parity counts a user still needs (NackEntry). No
//            NACK packet is serialized: the simulator hands the entries
//            to the server directly and the daemon carries them in its
//            Report control frames, so the type tag stays reserved.
//
// Layout choices relative to the paper (documented deviations):
//  * Block id is 16 bits rather than 8: the paper's own Fig 16 sweeps to
//    N=16384 with k=1, which needs >255 blocks. The ENC header grows from
//    9 to 10 bytes, and a 1027-byte ENC packet still carries the paper's
//    46 encryptions (10 + 46*22 = 1022 <= 1027).
//  * The "duplicate" flag of §5.1 lives in the top bit of the 8-bit
//    sequence-number field (so block size is limited to 128, far above the
//    paper's k <= 50 sweep).
//  * An encryption entry is <id:4, ciphertext:16, tag:2> = 22 bytes; ids
//    are never 0 on the wire (the root is never an encrypting key), so
//    zero padding is unambiguous, as the paper notes.
//
// PARITY packets protect the ENC bytes from offset kFecOffset (maxKID
// onward — "fields 5 to 8"), so ENC and PARITY packets have equal size.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "crypto/keys.h"
#include "keytree/rekey_subtree.h"

namespace rekey::packet {

// Parsers take a borrowed byte view rather than a Bytes: the wire path
// (tools/rekeyd, tools/rekey_load) parses straight out of recvmmsg
// buffers, and a sub-header datagram from a real socket must come back
// nullopt — every fixed offset is bounds-checked against the view length
// before it is read.
using WireView = std::span<const std::uint8_t>;

enum class PacketType : std::uint8_t { Enc = 0, Parity = 1, Usr = 2, Nack = 3 };

constexpr std::size_t kDefaultPacketSize = 1027;  // the paper's ENC size
constexpr std::size_t kEncHeaderSize = 10;
constexpr std::size_t kUsrHeaderSize = 5;  // type/msg byte + new_id + max_kid
// Wide (v2) variants carry 32-bit slot ids — max_kid/frm/to in ENC,
// new_user_id/max_kid in USR — for groups whose BFS slot ids exceed
// 0xFFFF. The narrow layout above stays byte-identical; block_id and
// dup/seq keep their positions so kFecOffset is width-independent.
constexpr std::size_t kEncHeaderSizeWide = 16;
constexpr std::size_t kUsrHeaderSizeWide = 9;
constexpr std::size_t kEntrySize = 22;  // 4 id + 16 ciphertext + 2 tag
constexpr std::size_t kFecOffset = 4;   // FEC covers maxKID onward
// Per-datagram UDP + IPv4 header bytes added to every wire size that feeds
// bandwidth accounting.
constexpr std::size_t kUdpIpOverheadBytes = 28;

// Max encryptions per ENC packet of a given size (46 for 1027 bytes
// narrow, 45 wide).
constexpr std::size_t max_entries(std::size_t packet_size, bool wide = false) {
  return (packet_size - (wide ? kEncHeaderSizeWide : kEncHeaderSize)) /
         kEntrySize;
}

struct EncEntry {
  std::uint32_t enc_id = 0;  // id of the encrypting node; never 0 on wire
  crypto::EncryptedKey enc;

  friend bool operator==(const EncEntry&, const EncEntry&) = default;
};

// Recover the full Encryption (the target is always the parent's key).
tree::Encryption to_tree_encryption(const EncEntry& e, unsigned degree);
EncEntry to_wire_entry(const tree::Encryption& e);

// The entry region of an ENC or USR packet (or of a decoded ENC region),
// checked in place. Entries run until a zero id or until fewer than
// kEntrySize bytes remain; every byte after the last entry must be zero.
// A nonzero tail means the datagram was truncated mid-entry or carries
// trailing garbage, and the whole region is rejected. Checking allocates
// nothing; entries are built only by to_vector().
class EntryRegion {
 public:
  static std::optional<EntryRegion> check(WireView region);

  std::vector<EncEntry> to_vector() const;

 private:
  explicit EntryRegion(WireView entries) : entries_(entries) {}
  WireView entries_;  // whole entries only, no padding
};

// The checked entry region of a serialized ENC packet: everything after
// its header. nullopt when the packet is shorter than the header or the
// region is damaged. The header itself is not inspected here.
std::optional<EntryRegion> enc_entries(WireView wire, bool wide = false);

struct EncPacket {
  std::uint8_t msg_id = 0;  // 6 bits
  std::uint16_t block_id = 0;
  std::uint8_t seq = 0;  // 7 bits: sequence within the block
  bool duplicate = false;
  std::uint32_t max_kid = 0;
  std::uint32_t frm_id = 0;  // users in [frm_id, to_id] are served here
  std::uint32_t to_id = 0;
  std::vector<EncEntry> entries;

  // Narrow (default) truncates the id fields to 16 bits exactly as the
  // pre-wide format did; wide emits the 16-byte v2 header. Receivers read
  // the header with parse_enc_header and the entries with enc_entries.
  Bytes serialize(std::size_t packet_size = kDefaultPacketSize,
                  bool wide = false) const;
};

struct ParityPacket {
  std::uint8_t msg_id = 0;
  std::uint16_t block_id = 0;
  std::uint8_t parity_seq = 0;  // parity index within the block's code
  Bytes fec;                    // packet_size - kFecOffset bytes

  // Receivers read the header with parse_parity_header; the FEC bytes are
  // the wire bytes from kFecOffset on.
  Bytes serialize() const;
};

struct UsrPacket {
  std::uint8_t msg_id = 0;
  std::uint32_t new_user_id = 0;
  std::uint32_t max_kid = 0;
  std::vector<EncEntry> entries;

  Bytes serialize(bool wide = false) const;
  static std::optional<UsrPacket> parse(WireView wire, bool wide = false);
};

struct NackEntry {
  std::uint8_t parities_needed = 0;
  std::uint16_t block_id = 0;
  // Highest shard index received in this block (ENC seq, or k+parity_seq).
  // Appendix A proposes carrying this (after Rubenstein et al.) so the
  // server can tell whether packets already in flight satisfy the request;
  // the eager (event-driven) transport mode relies on it, the round-based
  // mode ignores it.
  std::uint8_t max_shard_seen = 0;

  friend bool operator==(const NackEntry&, const NackEntry&) = default;
};

// Inspect the 2-bit type tag of any serialized packet.
std::optional<PacketType> peek_type(WireView wire);

// RFC-768-style 16-bit ones'-complement checksum over the wire bytes: the
// UDP checksum already charged in kUdpIpOverheadBytes, made explicit. The
// fault-injected delivery path verifies it so a bit-corrupted copy is
// dropped like a real UDP datagram — counted as corruption, not loss —
// instead of reaching the structural parsers.
std::uint16_t udp_checksum(WireView wire);

// Header parsers, the only ENC and PARITY parsers: the receive path
// classifies hundreds of packets per round and reads the entries of only
// the one it keeps (through enc_entries), so these copy no entry list or
// parity payload.
struct EncHeader {
  std::uint8_t msg_id = 0;
  std::uint16_t block_id = 0;
  std::uint8_t seq = 0;
  bool duplicate = false;
  std::uint32_t max_kid = 0;
  std::uint32_t frm_id = 0;
  std::uint32_t to_id = 0;

  friend bool operator==(const EncHeader&, const EncHeader&) = default;
};
std::optional<EncHeader> parse_enc_header(WireView wire, bool wide = false);

struct ParityHeader {
  std::uint8_t msg_id = 0;
  std::uint16_t block_id = 0;
  std::uint8_t parity_seq = 0;

  friend bool operator==(const ParityHeader&, const ParityHeader&) = default;
};
std::optional<ParityHeader> parse_parity_header(WireView wire);

}  // namespace rekey::packet
