#include "transport/user.h"

#include <algorithm>
#include <array>
#include <limits>

#include "common/ensure.h"
#include "keytree/ids.h"

namespace rekey::transport {

namespace {

// The checked entry region of a decoded FEC region (maxKID onward) whose
// served id range holds `id`. nullopt when the range misses `id`, and
// when the region is too short or its entry region is damaged, which
// only forged or corrupted shards can cause.
std::optional<packet::EntryRegion> entries_for(const Bytes& region, bool wide,
                                               std::uint32_t id) {
  const std::size_t ids = (wide ? packet::kEncHeaderSizeWide
                                : packet::kEncHeaderSize) -
                          packet::kFecOffset;
  if (region.size() < ids) return std::nullopt;
  ByteReader r(region);
  const auto next = [&r, wide]() -> std::uint32_t {
    return wide ? r.get_u32() : r.get_u16();
  };
  next();  // maxKID: the user's id was settled before any decode
  const std::uint32_t frm = next();
  const std::uint32_t to = next();
  if (id < frm || id > to) return std::nullopt;
  return packet::EntryRegion::check(packet::WireView(region).subspan(ids));
}

}  // namespace

UserTransport::UserTransport(std::uint32_t old_id, std::size_t k,
                             unsigned degree, const PacketPool* pool,
                             bool wide)
    : wide_(wide),
      id_(old_id),
      k_(k),
      pool_(pool),
      estimator_(old_id, k, degree),
      degree_(degree) {
  REKEY_ENSURE(pool != nullptr);
}

void UserTransport::reset(std::uint32_t old_id) {
  recovered_ = false;
  id_updated_ = false;
  id_ = old_id;
  estimator_ = packet::BlockIdEstimator(old_id, k_, degree_);
  complete_through_ = -1;
  shards_ = std::vector<StoredShard>();
  max_kid_ = 0;
  recovery_round_ = 0;
  rounds_ended_ = 0;
  own_packet_.reset();
  entries_ = std::vector<packet::EncEntry>();
}

bool UserTransport::note_max_kid(std::uint32_t max_kid) {
  if (id_updated_) return true;
  const auto derived = tree::derive_new_user_id(id_, max_kid, degree_);
  // An undecodable maxKID means a corrupted packet (Theorem 4.2 guarantees
  // derivability from genuine headers): ignore it. The bound is the wire
  // format's id width — an id the frame could never carry is equally
  // un-derivable.
  const std::uint64_t id_cap = wide_ ? 0xFFFFFFFFull : 0xFFFFull;
  if (!derived.has_value() || *derived > id_cap) return false;
  max_kid_ = max_kid;
  id_ = static_cast<std::uint32_t>(*derived);
  id_updated_ = true;
  estimator_ = packet::BlockIdEstimator(id_, k_, degree_);
  return true;
}

void UserTransport::prune_out_of_range() {
  if (!estimator_.bounded()) return;
  const std::uint32_t lo = estimator_.low();
  const std::uint32_t hi = estimator_.high();
  std::erase_if(shards_, [lo, hi](const StoredShard& s) {
    return s.block < lo || s.block > hi;
  });
}

void UserTransport::recover(int round) {
  recovered_ = true;
  recovery_round_ = round;
  shards_ = std::vector<StoredShard>();  // a recovered user holds no shards
}

// on_packet, store_shard and end_of_round run once per member and frame
// or round, so each starts on a cache line of its own: where the linker
// happens to place them cannot move the member path's timing.
[[gnu::aligned(64)]] void UserTransport::on_packet(std::size_t pool_index,
                                                   int round) {
  if (recovered_) return;
  const PacketFacts& facts = pool_->facts(pool_index, wide_);

  if (const auto& h = facts.enc) {
    if (!note_max_kid(h->max_kid)) return;  // corrupt header
    if (h->frm_id <= id_ && id_ <= h->to_id) {
      // My specific packet: keep the pool index, nothing else. The pool
      // checked its entry region once for every member. The check can
      // still fail on a damaged entry region that slipped past the header
      // checks (e.g. a corrupted copy whose checksum collided); that is a
      // bad datagram, not a protocol error — drop it and wait for FEC or a
      // resend.
      if (!facts.entries_ok) return;
      own_packet_ = static_cast<std::uint32_t>(pool_index);
      recover(round);
      return;
    }
    // An exact range cannot move (consistent observations only narrow
    // it), and only a moved range has shards to prune.
    if (!estimator_.exact()) {
      const std::uint32_t low = estimator_.low();
      const std::uint32_t high = estimator_.high();
      estimator_.observe(*h);
      if (estimator_.low() != low || estimator_.high() != high)
        prune_out_of_range();
    }
    if (h->seq + 1u >= k_)
      complete_through_ =
          std::max(complete_through_, static_cast<std::int64_t>(h->block_id));
    if (h->block_id >= estimator_.low() &&
        h->block_id <= estimator_.high()) {
      store_shard(h->block_id, h->seq, pool_index);
    }
    return;
  }

  if (const auto& h = facts.parity) {
    // Parities follow the last ENC slot wave: every block is complete.
    complete_through_ = std::numeric_limits<std::int64_t>::max();
    // The code has 256 - k parities: a larger parity_seq is forged, and
    // the decoder would throw on its shard index.
    if (k_ + h->parity_seq >= 256) return;
    const bool in_range =
        !estimator_.bounded() ||
        (h->block_id >= estimator_.low() &&
         h->block_id <= estimator_.high());
    if (in_range) {
      store_shard(h->block_id, static_cast<std::uint32_t>(k_ + h->parity_seq),
                  pool_index);
    }
    return;
  }
}

[[gnu::aligned(64)]] void UserTransport::store_shard(std::uint32_t block,
                                                    std::uint32_t shard,
                                                    std::size_t pool_index) {
  // Idempotent against duplicated and reordered delivery: a shard index
  // already held is ignored, so duplicates can neither inflate the
  // shard count past k (which would fake decodability and understate
  // NACKs) nor feed the decoder a singular system of repeated rows.
  const StoredShard* first = nullptr;
  for (const StoredShard& s : shards_) {
    if (s.block != block) continue;
    if (s.shard == shard) return;
    if (first == nullptr) first = &s;
  }
  // All shards of a block must be the same wire size (the FEC code is over
  // equal-length regions). The simnet always pads to packet_size, but a
  // real socket can hand us a truncated datagram whose header still parses
  // — storing it would poison the decode. The block's first stored shard
  // sets the size; the RSE decoder additionally refuses mixed-size inputs
  // outright.
  if (first != nullptr &&
      (*pool_)[pool_index].size() != (*pool_)[first->pool_index].size())
    return;
  if (shards_.capacity() == 0) shards_.reserve(k_);  // one block, one alloc
  shards_.push_back({block, shard, static_cast<std::uint32_t>(pool_index)});
}

void UserTransport::on_usr(const packet::UsrPacket& usr) {
  if (recovered_) return;
  max_kid_ = usr.max_kid;
  id_ = usr.new_user_id;
  id_updated_ = true;
  entries_ = usr.entries;
  recover(/*round=*/0);  // unicast, not a multicast round
}

std::vector<packet::EncEntry> UserTransport::entries() const {
  if (!own_packet_) return entries_;
  // Checked on arrival; the pool keeps its packets unchanged.
  const auto region = packet::enc_entries(pool_->at(*own_packet_), wide_);
  REKEY_ENSURE_MSG(region.has_value(),
                   "own ENC packet changed in the pool after its check");
  return region->to_vector();
}

bool UserTransport::try_decode_block(std::uint32_t block, int round) {
  // The shards the FEC decoder picks from the block's: its data shards,
  // then its parities, each in arrival order, k in all (the store holds
  // each shard index once). The pool decodes them, or shares the rows of
  // an earlier user's decode that those very shards agree with.
  REKEY_ENSURE(k_ <= PacketPool::kMaxBlockSize);
  std::array<std::uint32_t, PacketPool::kMaxBlockSize> chosen{};
  std::size_t n = 0;
  for (const StoredShard& s : shards_)
    if (s.block == block && s.shard < k_) chosen[n++] = s.pool_index;
  for (const StoredShard& s : shards_) {
    if (n == k_) break;
    if (s.block == block && s.shard >= k_) chosen[n++] = s.pool_index;
  }
  for (const Bytes& region :
       pool_->decode_block(block, k_, std::span(chosen.data(), n))) {
    if (const auto entries = entries_for(region, wide_, id_)) {
      entries_ = entries->to_vector();
      recover(round);
      return true;
    }
  }
  return false;
}

[[gnu::aligned(64)]] std::vector<packet::NackEntry> UserTransport::end_of_round(
    int round) {
  if (recovered_) return {};
  ++rounds_ended_;

  if (!estimator_.bounded()) {
    // Nothing usable arrived: wake-up NACK so the server learns about us.
    packet::NackEntry e;
    e.parities_needed = static_cast<std::uint8_t>(k_);
    e.block_id = 0;
    return {e};
  }

  std::vector<packet::NackEntry> needs;
  for (std::uint32_t blk = estimator_.low(); blk <= estimator_.high();
       ++blk) {
    std::size_t have = 0;
    std::uint32_t max_shard = 0;
    for (const StoredShard& s : shards_) {
      if (s.block != blk) continue;
      ++have;
      max_shard = std::max(max_shard, s.shard);
    }
    if (have >= k_) {
      if (try_decode_block(blk, round)) return {};
      continue;  // decodable block that is not mine
    }
    packet::NackEntry e;
    e.parities_needed = static_cast<std::uint8_t>(k_ - have);
    e.block_id = static_cast<std::uint16_t>(blk);
    e.max_shard_seen =
        static_cast<std::uint8_t>(std::min<std::uint32_t>(max_shard, 255));
    needs.push_back(e);
  }
  if (needs.empty()) {
    // Every candidate block decoded, yet none held my packet: genuine
    // shards cannot do that, so some were forged. Fail closed: drop the
    // shards and NACK each candidate block in full; fresh parities or the
    // unicast phase still reach this user.
    shards_.clear();
    for (std::uint32_t blk = estimator_.low(); blk <= estimator_.high();
         ++blk) {
      packet::NackEntry e;
      e.parities_needed = static_cast<std::uint8_t>(k_);
      e.block_id = static_cast<std::uint16_t>(blk);
      needs.push_back(e);
    }
  }
  return needs;
}

}  // namespace rekey::transport
