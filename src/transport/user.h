// The user (receiver) protocol for one rekey message (paper Fig 27).
//
// During a round a user classifies incoming packets: its own ENC packet
// (frmID <= id <= toID) means immediate success; other ENC packets feed the
// block-id estimator; ENC and PARITY packets of candidate blocks are
// retained (by index into the session's packet pool) for FEC decoding. The
// pool parsed each packet's header once for all users (transport/pool.h).
// At each round end the user picks k shards of every candidate block that
// has them, and the pool decodes them: once per block for all users whose
// shards agree, privately for the others (PacketPool::decode_block). If
// its packet is still missing the user emits NACK entries — one
// <parities needed, block> pair per candidate block. Genuine blocks cannot
// all decode without yielding the user's packet; when they do, some shards
// were forged, and the user fails closed: it drops every stored shard and
// NACKs each candidate block in full.
//
// A user that received *nothing* cannot bound its block range; it emits a
// conservative wake-up NACK for block 0 so the server learns it exists
// (the server's unicast fallback then covers it).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "packet/estimate.h"
#include "packet/wire.h"
#include "transport/pool.h"

namespace rekey::transport {

class UserTransport {
 public:
  // old_id: the user's id before this rekey message; k: block size;
  // degree: key tree degree; pool: the session packet pool. `wide` selects
  // the v2 wide-slot packet formats (32-bit ids on the wire); it must
  // match the sender's negotiated width.
  UserTransport(std::uint32_t old_id, std::size_t k, unsigned degree,
                const PacketPool* pool, bool wide = false);

  // Restarts this transport for the next rekey message, as if newly
  // built with `old_id` and the same k, degree, pool and width, so a
  // fleet restarts its members in place instead of rebuilding them every
  // batch. Like a new transport, it holds no shard or entry storage.
  void reset(std::uint32_t old_id);

  // Deliver the packet stored at pool[pool_index], classified by the
  // facts the pool found for it at this transport's width. `round` is the
  // current multicast round (1-based), used for latency accounting.
  void on_packet(std::size_t pool_index, int round);

  // Deliver a unicast USR packet.
  void on_usr(const packet::UsrPacket& usr);

  // Round-end processing (paper Fig 27 "when timeout"): attempt FEC
  // decoding, then report the NACK entries still needed (empty when
  // recovered).
  std::vector<packet::NackEntry> end_of_round(int round);

  bool recovered() const { return recovered_; }
  // Multicast round in which recovery happened (1-based); 0 if not yet.
  int recovery_round() const { return recovery_round_; }
  // Round-end passes actually processed (decode attempts + NACK builds).
  // The session must drive at most one per multicast round: the unicast
  // wake-up path resends cached NACK entries instead of re-running this.
  int rounds_ended() const { return rounds_ended_; }

  // This user's current id: updated from the first maxKID seen.
  std::uint32_t current_id() const { return id_; }
  std::uint32_t max_kid() const { return max_kid_; }

  // Which packets can still change this user (paper Fig 27: a user keeps
  // only the packets of its candidate blocks). Until its id is settled
  // (the first usable maxKID) and its block estimate is exact, every
  // packet can. After that, only the packets of its block and the ENC
  // packets whose [frmID, toID] holds its id: a forged ENC packet of
  // another block that carries its id still recovers it. on_packet of
  // any other packet changes nothing but the eager-mode mark below, and
  // a recovered user ignores every packet. Settling is one-way until
  // reset(), so a caller can index settled users by block and by id
  // (wire::ClientFleet does).
  struct Interest {
    bool settled = false;  // false: every packet
    std::uint32_t block = 0;
    std::uint32_t id = 0;

    // Whether a packet with these facts (at the user's width) can change
    // the user.
    bool takes(const PacketFacts& f) const {
      if (!settled) return true;
      if (f.enc)
        return f.enc->block_id == block ||
               (f.enc->frm_id <= id && id <= f.enc->to_id);
      return f.parity && f.parity->block_id == block;
    }
  };
  Interest interest() const {
    if (!id_updated_ || !estimator_.exact()) return {};
    return {true, estimator_.low(), id_};
  }

  // Eager-mode loss detection. With interleaved sending the ENC slots go
  // out wave by wave (seq 0 of every block, then seq 1, ...), so receiving
  // block b's seq-(k-1) slot proves the initial shards of every block
  // <= b have been sent, and any parity proves it for all blocks. A user
  // "detects a loss" (paper Appendix A) once every block that could hold
  // its packet is provably complete yet still undecodable. The mark counts
  // only the packets handed to this user, so a user fed by interest()
  // alone must not read it; EagerSession hands every user every packet.
  bool initial_pass_complete() const {
    return estimator_.bounded() &&
           complete_through_ >= static_cast<std::int64_t>(estimator_.high());
  }

  // After recovery: the user's encryption entries (empty when the rekey
  // message carried nothing for this user). Built on each call: from the
  // pool when the user's own ENC packet arrived (the pool checked it and
  // the user keeps only its index), else from the copy an FEC decode or a
  // USR packet left behind.
  std::vector<packet::EncEntry> entries() const;

 private:
  // Updates this user's id from an advertised maxKID; false (packet
  // ignored) when the id cannot be derived, i.e. the header is corrupt.
  bool note_max_kid(std::uint32_t max_kid);
  void prune_out_of_range();
  // Retains a shard for FEC decoding; duplicate shard indices (duplicated
  // or reordered redelivery) are ignored, keeping per-block counts honest.
  void store_shard(std::uint32_t block, std::uint32_t shard,
                   std::size_t pool_index);
  bool try_decode_block(std::uint32_t block, int round);
  void recover(int round);

  // What every delivered packet reads comes first, in 64 bytes; the rest
  // is cold.
  bool recovered_ = false;
  bool wide_;
  bool id_updated_ = false;
  std::uint32_t id_;
  std::size_t k_;
  const PacketPool* pool_;
  // Built for the updated id once a usable maxKID arrives; unbounded
  // until then.
  packet::BlockIdEstimator estimator_;
  std::int64_t complete_through_ = -1;  // last provably-complete block id

  // Shards of the candidate blocks in arrival order, ENC slots and
  // parities alike (shard index = seq for ENC, k + parity_seq for PARITY).
  // One flat array: a user holds a few blocks of at most a few dozen
  // shards, so a linear scan beats a per-block map.
  struct StoredShard {
    std::uint32_t block;
    std::uint32_t shard;
    std::uint32_t pool_index;
  };
  std::vector<StoredShard> shards_;

  unsigned degree_;
  std::uint32_t max_kid_ = 0;
  int recovery_round_ = 0;
  int rounds_ended_ = 0;
  // Recovered through the own ENC packet: its pool index. Otherwise
  // entries_ holds what an FEC decode or a USR packet delivered.
  std::optional<std::uint32_t> own_packet_;
  std::vector<packet::EncEntry> entries_;
};

}  // namespace rekey::transport
