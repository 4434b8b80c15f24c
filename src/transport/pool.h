// The per-message packet pool that a session's users share.
//
// Every user of a session classifies the same multicast packets, and a
// fleet's ~10^5 members all read the header of the same ENC packet. So
// the pool parses each packet once, when it enters: its ENC or PARITY
// header and, for an ENC packet, whether its entry region checks, at
// both slot widths. Users read those facts by index
// (UserTransport::on_packet) and touch a packet's bytes only to build
// their entries.
//
// The users that lost their own ENC packet decode its FEC block at round
// end, and they all decode the same few blocks from the same packets. So
// the pool decodes each block once (decode_block): the first user to
// decode a block solves it, and its k rows become the block's memo. A
// later user gets the memo's rows when every shard it chose agrees with
// them, which the pool finds at most once per packet:
// - a data shard agrees when its FEC region (from kFecOffset) equals the
//   row of its seq byte for byte;
// - a parity agrees when it equals the parity re-encoded from the rows;
// - the shards the memo was solved from agree by construction.
// k agreeing shards of an MDS code have one solution, so those rows are
// exactly what the user's own decode returns. A user with a shard that
// disagrees (a forged shard, or a genuine one when the memo was solved
// from forged shards) gets a private decode of its own shards instead.
// The rule is exact: no user's result depends on whether, or with whom,
// it shares.
//
// A packet's block and shard index follow from its header bytes (block
// id and seq sit at the same offsets at both widths), and the rows start
// at kFecOffset at both widths, so a memo is keyed by block id alone. One
// pool serves users of one block size. The memo is mutable state behind
// const users: all users of one pool must run on one thread.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "fec/rse.h"
#include "packet/wire.h"

namespace rekey::transport {

// What a user reads of one pooled packet at one slot width: plain values,
// no views into the bytes.
struct PacketFacts {
  std::optional<packet::EncHeader> enc;        // parse_enc_header(p, wide)
  std::optional<packet::ParityHeader> parity;  // parse_parity_header(p)
  // enc && enc_entries(p, wide): false for every packet that is not ENC
  // at this width.
  bool entries_ok = false;
};

// Packets live here for one rekey message; users hold indices, so N
// users retaining the same packet costs N*4 bytes, not N KB. That
// includes a user's own ENC packet: its entries are read from the pool
// on demand, so the pool must outlive every entries() call. Packets
// never change once added, so their facts stay true and so do the
// decode memos; clear() drops both. The pool holds only values and is
// safe to copy and move (users point at it, so a pool they use must stay
// put).
class PacketPool {
 public:
  // The largest block size decode_block serves.
  static constexpr std::size_t kMaxBlockSize = fec::kMaxBlockSize;

  // Appends `packet` and finds its facts at both widths.
  void push_back(Bytes packet);
  void clear();

  std::size_t size() const { return packets_.size(); }
  const Bytes& operator[](std::size_t i) const { return packets_[i]; }
  const Bytes& at(std::size_t i) const { return packets_.at(i); }
  const PacketFacts& facts(std::size_t i, bool wide) const {
    return facts_[i][wide ? 1 : 0];
  }

  // Decodes FEC block `block` of a k-shard code from the pooled packets
  // `chosen`: k distinct shards of one size, picked as
  // fec::RseCoder::decode picks them from a user's shards of the block
  // (its data shards in arrival order, then its parities in arrival
  // order). Returns the block's k FEC regions, each from kFecOffset,
  // viewing storage the pool owns until its next decode_block or
  // clear(); empty when the shards do not decode.
  std::span<const Bytes> decode_block(
      std::uint32_t block, std::size_t k,
      std::span<const std::uint32_t> chosen) const;

 private:
  struct Memo {
    std::uint32_t block;
    std::vector<Bytes> rows;  // the k rows its first decode solved
  };
  enum class Agreement : std::uint8_t { Unknown, Yes, No };

  // Packet i's shard index in block `block` of the k_-shard code: seq for
  // ENC, k_ + parity_seq for PARITY.
  std::uint32_t shard_of(std::uint32_t i, std::uint32_t block) const;
  std::optional<std::vector<Bytes>> solve(
      std::uint32_t block, std::span<const std::uint32_t> chosen) const;
  bool agrees(const Memo& memo, std::uint32_t i) const;

  std::vector<Bytes> packets_;
  std::vector<std::array<PacketFacts, 2>> facts_;  // [narrow, wide]

  // The shared decode; see the file comment.
  mutable std::size_t k_ = 0;  // the block size of every decode so far
  mutable std::vector<Memo> memos_;
  mutable std::vector<Agreement> agreement_;  // per packet, with its memo
  mutable Bytes parity_;  // a parity re-encoded from a memo's rows
  mutable std::vector<Bytes> private_rows_;  // a decode that did not share
};

}  // namespace rekey::transport
