#include "keytree/shard_pipeline.h"

#include <algorithm>

#include "common/ensure.h"

namespace rekey::tree {

void generate_rekey_payload_sharded(const KeyTree& tree,
                                    const BatchUpdate& update,
                                    std::uint32_t msg_id, RekeyPayload& out,
                                    const ShardPlan& plan,
                                    rekey::TaskRunner& runner,
                                    ShardBatchStats* stats) {
  REKEY_ENSURE_MSG(plan.degree == tree.degree(),
                   "shard plan degree does not match the tree");
  out.msg_id = msg_id;
  out.degree = tree.degree();
  out.max_kid = update.max_kid;
  out.encryptions.clear();
  out.user_needs.clear();
  out.labels.clear();

  const unsigned d = tree.degree();
  const NodeIdSet& changed = update.changed_knodes;
  const std::size_t n_changed = changed.size();
  const unsigned S = plan.shards;

  // Labels stay serial: the taint walks write shared entries (a departed
  // slot in one shard taints aggregator ancestors), and the pass is ~10%
  // of payload cost. Identical to the serial generator's block.
  auto& labels = out.labels.entries_;
  labels.reserve(n_changed);
  for (std::size_t i = 0; i < n_changed; ++i)
    labels.emplace_back(changed[i], Label::Join);
  auto taint = [&](NodeId slot) {
    NodeId id = slot;
    while (id != kRootId) {
      id = parent_of(id, d);
      const std::size_t i = changed.index_of(id);
      if (i == n_changed) continue;
      if (labels[i].second == Label::Replace) break;
      labels[i].second = Label::Replace;
    }
  };
  for (const auto& [member, slot] : update.departed) taint(slot);
  for (const auto& [old_slot, new_slot] : update.moved) {
    taint(old_slot);
    // The split node itself hides a relocation from users beneath it.
    const std::size_t i = changed.index_of(old_slot);
    if (i != n_changed) labels[i].second = Label::Replace;
  }

  // Partition the descending positions k (block order of the serial
  // generator: k <-> changed[n_changed-1-k]) by shard ownership of the
  // changed k-node. Owners are computed in shard-count-derived chunks;
  // binning is a serial O(n_changed) pass.
  std::vector<std::uint32_t> owner(n_changed);
  if (n_changed > 0) {
    const std::size_t chunks = std::min<std::size_t>(n_changed, S * 2);
    runner.run(chunks, [&](std::size_t c) {
      const std::size_t b = n_changed * c / chunks;
      const std::size_t e = n_changed * (c + 1) / chunks;
      for (std::size_t k = b; k < e; ++k) {
        const unsigned s = plan.shard_of(changed[n_changed - 1 - k]);
        owner[k] = s == ShardPlan::kAggregator ? S : s;
      }
    });
  }
  std::vector<std::vector<std::uint32_t>> shard_ks(S + 1);
  for (std::size_t k = 0; k < n_changed; ++k)
    shard_ks[owner[k]].push_back(static_cast<std::uint32_t>(k));

  // Count -> prefix-sum -> fill, with each shard's task touching only the
  // enc_offset entries and encryption blocks of its own k positions. The
  // offsets (and therefore every byte of the output) match the serial
  // generator exactly.
  std::vector<std::uint32_t> enc_offset(n_changed + 1, 0);
  runner.run(S + 1, [&](std::size_t t) {
    for (const std::uint32_t k : shard_ks[t]) {
      const NodeId x = changed[n_changed - 1 - k];
      std::uint32_t cnt = 0;
      for (unsigned j = 0; j < d; ++j)
        if (tree.contains(child_of(x, j, d))) ++cnt;
      enc_offset[k + 1] = cnt;
    }
  });
  if (stats != nullptr) {
    stats->shard_encryptions.assign(S + 1, 0);
    for (unsigned t = 0; t <= S; ++t)
      for (const std::uint32_t k : shard_ks[t])
        stats->shard_encryptions[t] += enc_offset[k + 1];
  }
  for (std::size_t k = 0; k < n_changed; ++k)
    enc_offset[k + 1] += enc_offset[k];
  out.encryptions.resize(enc_offset[n_changed]);
  runner.run(S + 1, [&](std::size_t t) {
    for (const std::uint32_t k : shard_ks[t]) {
      const NodeId x = changed[n_changed - 1 - k];
      const crypto::SymmetricKey& new_key = tree.key_of(x);
      std::uint32_t at = enc_offset[k];
      for (unsigned j = 0; j < d; ++j) {
        const NodeId c = child_of(x, j, d);
        if (!tree.contains(c)) continue;  // n-node
        Encryption& enc = out.encryptions[at++];
        enc.enc_id = c;
        enc.target_id = x;
        enc.payload = crypto::encrypt_key(tree.key_of(c), new_key, msg_id, c);
      }
    }
  });

  // User needs: the same frontier pass as the serial generator. It costs
  // O(encryptions x depth), so it stays serial.
  out.user_needs.build(tree, update, enc_offset);
}

void check_enc_id_disjointness(const RekeyPayload& payload,
                               const ShardPlan& plan) {
  std::vector<NodeId> ids;
  ids.reserve(payload.encryptions.size());
  for (const Encryption& e : payload.encryptions) {
    // Every id must have a well-defined owner (shard or aggregator); the
    // encrypting child of a changed k-node always does.
    const unsigned s = plan.shard_of(e.enc_id);
    REKEY_ENSURE(s == ShardPlan::kAggregator || s < plan.shards);
    ids.push_back(e.enc_id);
  }
  std::sort(ids.begin(), ids.end());
  REKEY_ENSURE_MSG(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                   "duplicate encryption id across shards");
}

}  // namespace rekey::tree
