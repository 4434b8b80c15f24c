#include "transport/pool.h"

#include <algorithm>
#include <utility>

#include "common/ensure.h"

namespace rekey::transport {

namespace {

PacketFacts find_facts(const Bytes& p, bool wide) {
  PacketFacts f;
  f.enc = packet::parse_enc_header(p, wide);
  f.parity = packet::parse_parity_header(p);
  f.entries_ok = f.enc && packet::enc_entries(p, wide).has_value();
  return f;
}

// What the FEC code covers of an ENC or PARITY packet: maxKID onward.
packet::WireView fec_region(const Bytes& p) {
  return packet::WireView(p).subspan(packet::kFecOffset);
}

}  // namespace

void PacketPool::push_back(Bytes packet) {
  facts_.push_back({find_facts(packet, false), find_facts(packet, true)});
  packets_.push_back(std::move(packet));
}

void PacketPool::clear() {
  packets_.clear();
  facts_.clear();
  k_ = 0;
  memos_.clear();
  agreement_.clear();
  private_rows_.clear();
}

std::uint32_t PacketPool::shard_of(std::uint32_t i, std::uint32_t block) const {
  // A packet that is ENC at the wide width is ENC at the narrow one, with
  // the same block id and seq.
  const PacketFacts& f = facts_[i][0];
  REKEY_ENSURE_MSG(
      (f.enc && f.enc->block_id == block) ||
          (f.parity && f.parity->block_id == block),
      "a shard is an ENC or PARITY packet of its block");
  if (f.enc) return f.enc->seq;
  return static_cast<std::uint32_t>(k_) + f.parity->parity_seq;
}

std::optional<std::vector<Bytes>> PacketPool::solve(
    std::uint32_t block, std::span<const std::uint32_t> chosen) const {
  std::vector<fec::Shard> shards;
  shards.reserve(chosen.size());
  for (const std::uint32_t i : chosen) {
    const packet::WireView region = fec_region(packets_[i]);
    shards.push_back({static_cast<int>(shard_of(i, block)),
                      Bytes(region.begin(), region.end())});
  }
  return fec::RseCoder(static_cast<int>(k_)).decode(shards);
}

bool PacketPool::agrees(const Memo& memo, std::uint32_t i) const {
  if (agreement_[i] == Agreement::Unknown) {
    const packet::WireView region = fec_region(packets_[i]);
    const std::size_t len = memo.rows[0].size();
    const std::uint32_t shard = shard_of(i, memo.block);
    bool yes = region.size() == len;
    if (yes && shard < k_) {
      yes = std::ranges::equal(region, memo.rows[shard]);
    } else if (yes) {
      const std::span<std::uint8_t> parity(parity_.data(), len);
      fec::RseCoder(static_cast<int>(k_))
          .encode_one_into(memo.rows, static_cast<int>(shard - k_), parity);
      yes = std::ranges::equal(region, parity);
    }
    agreement_[i] = yes ? Agreement::Yes : Agreement::No;
  }
  return agreement_[i] == Agreement::Yes;
}

std::span<const Bytes> PacketPool::decode_block(
    std::uint32_t block, std::size_t k,
    std::span<const std::uint32_t> chosen) const {
  REKEY_ENSURE(chosen.size() == k);
  if (k_ == 0) k_ = k;
  REKEY_ENSURE_MSG(k == k_, "one pool serves users of one block size");
  if (agreement_.size() < packets_.size()) agreement_.resize(packets_.size());

  const auto memo = std::ranges::find(memos_, block, &Memo::block);
  if (memo == memos_.end()) {
    // The first decode of this block: its rows become the memo, and they
    // reproduce every shard they were solved from.
    auto rows = solve(block, chosen);
    if (!rows) return {};
    for (const std::uint32_t i : chosen) agreement_[i] = Agreement::Yes;
    if (parity_.size() < rows->front().size())
      parity_.resize(rows->front().size());
    memos_.push_back({block, std::move(*rows)});
    return memos_.back().rows;
  }
  if (std::ranges::all_of(chosen,
                          [&](std::uint32_t i) { return agrees(*memo, i); }))
    return memo->rows;
  auto rows = solve(block, chosen);
  if (!rows) return {};
  private_rows_ = std::move(*rows);
  return private_rows_;
}

}  // namespace rekey::transport
