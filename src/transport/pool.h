// The per-message packet pool that a session's users share.
//
// Every user of a session classifies the same multicast packets, and a
// fleet's ~10^5 members all read the header of the same ENC packet. So
// the pool parses each packet once, when it enters: its ENC or PARITY
// header and whether its ENC entry region checks, at both slot widths.
// Users read those facts by index (UserTransport::on_packet) and touch
// a packet's bytes only to decode an FEC block or build their entries.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "packet/wire.h"

namespace rekey::transport {

// What a user reads of one pooled packet at one slot width. Each field
// equals the named parser's result on the packet's bytes, whatever the
// packet's type: plain values, no views into the bytes.
struct PacketFacts {
  std::optional<packet::EncHeader> enc;        // parse_enc_header(p, wide)
  std::optional<packet::ParityHeader> parity;  // parse_parity_header(p)
  bool entries_ok = false;  // enc_entries(p, wide).has_value()
};

// Packets live here for one rekey message; users hold indices, so N
// users retaining the same packet costs N*4 bytes, not N KB. That
// includes a user's own ENC packet: its entries are read from the pool
// on demand, so the pool must outlive every entries() call. Packets
// never change once added, so their facts stay true; the pool holds
// only values and is safe to copy and move (users point at it, so a
// pool they use must stay put).
class PacketPool {
 public:
  // Appends `packet` and finds its facts at both widths.
  void push_back(Bytes packet);
  void clear();

  std::size_t size() const { return packets_.size(); }
  const Bytes& operator[](std::size_t i) const { return packets_[i]; }
  const Bytes& at(std::size_t i) const { return packets_.at(i); }
  const PacketFacts& facts(std::size_t i, bool wide) const {
    return facts_[i][wide ? 1 : 0];
  }

 private:
  std::vector<Bytes> packets_;
  std::vector<std::array<PacketFacts, 2>> facts_;  // [narrow, wide]
};

}  // namespace rekey::transport
