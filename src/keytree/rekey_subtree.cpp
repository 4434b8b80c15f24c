#include "keytree/rekey_subtree.h"

#include <algorithm>

#include "common/ensure.h"
#include "common/parallel.h"
#include "keytree/shard.h"

namespace rekey::tree {

RekeyPayload generate_rekey_payload(const KeyTree& tree,
                                    const BatchUpdate& update,
                                    std::uint32_t msg_id) {
  RekeyPayload out;
  generate_rekey_payload_into(tree, update, msg_id, out);
  return out;
}

void generate_rekey_payload_into(const KeyTree& tree,
                                 const BatchUpdate& update,
                                 std::uint32_t msg_id, RekeyPayload& out) {
  rekey::TaskRunner runner;
  generate_rekey_payload_into(tree, update, msg_id, out,
                              ShardPlan::make(tree.degree(), 1), runner);
}

void generate_rekey_payload_into(const KeyTree& tree,
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

  // Labels: a changed k-node above any departed or split-relocated slot is
  // Replace; one whose changes are joins only is Join. The label array is
  // parallel to the (sorted) changed set, so the taint walk is a binary
  // search per ancestor. Replace labels are upward-closed at every step,
  // so a walk may stop at an already-Replace node — everything above it is
  // already tainted. (It must NOT stop at an unlabeled ancestor: pruning
  // can leave gaps of absent nodes below changed ones.) The pass stays
  // serial: a departed slot in one shard taints aggregator ancestors, and
  // it is about a tenth of the payload cost.
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

  // Encryptions, deepest changed k-nodes first (bottom-up traversal):
  // descending position k is the changed k-node changed[n_changed-1-k],
  // and enc_offset[k] is the first encryption of its children. Count,
  // prefix-sum, fill: each of 2 x shards tasks owns a contiguous range of
  // positions and writes only their enc_offset entries and encryption
  // blocks, so every byte of the output is the same for every shard
  // count, thread count and task order.
  std::vector<std::uint32_t> enc_offset(n_changed + 1, 0);
  const std::size_t chunks = std::min<std::size_t>(n_changed, 2 * plan.shards);
  const auto first = [&](std::size_t part) {
    return n_changed * part / chunks;
  };
  runner.run(chunks, [&](std::size_t part) {
    const std::size_t end = first(part + 1);
    for (std::size_t k = first(part); k < end; ++k) {
      const NodeId x = changed[n_changed - 1 - k];
      std::uint32_t cnt = 0;
      for (unsigned j = 0; j < d; ++j)
        if (tree.contains(child_of(x, j, d))) ++cnt;
      enc_offset[k + 1] = cnt;
    }
  });
  if (stats != nullptr) {
    stats->shard_encryptions.assign(plan.shards + 1, 0);
    for (std::size_t k = 0; k < n_changed; ++k) {
      const unsigned s = plan.shard_of(changed[n_changed - 1 - k]);
      const unsigned t = s == ShardPlan::kAggregator ? plan.shards : s;
      stats->shard_encryptions[t] += enc_offset[k + 1];
    }
  }
  for (std::size_t k = 0; k < n_changed; ++k)
    enc_offset[k + 1] += enc_offset[k];
  out.encryptions.resize(enc_offset[n_changed]);
  runner.run(chunks, [&](std::size_t part) {
    const std::size_t end = first(part + 1);
    for (std::size_t k = first(part); k < end; ++k) {
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

  // User needs: one frontier pass, O(encryptions x depth), so serial.
  out.user_needs.build(tree, update, enc_offset);
}

void UserNeeds::build(const KeyTree& tree, const BatchUpdate& update,
                      std::span<const std::uint32_t> enc_offset) {
  clear();
  const NodeIdSet& changed = update.changed_knodes;
  const std::size_t n_changed = changed.size();
  if (n_changed == 0) return;
  REKEY_ENSURE_MSG(changed[0] == kRootId, "changed set misses the root");
  const unsigned d = tree.degree();
  // Lemma 4.1 + I4: k-nodes are the present ids <= nk, users the present
  // ids in (nk, d*nk + d] — on nk's level (shallow) or the next (deep).
  const NodeId nk = update.max_kid;
  const NodeId deep_begin = first_id_at_level(level_of(nk, d) + 1, d);

  // First / last present child of a k-node, and the first / last user
  // below a node (a leftmost / rightmost descent).
  const auto first_child = [&](NodeId x) {
    for (unsigned j = 0; j < d; ++j)
      if (tree.contains(child_of(x, j, d))) return child_of(x, j, d);
    REKEY_ENSURE_MSG(false, "k-node with no children");
    return x;  // unreachable
  };
  const auto last_child = [&](NodeId x) {
    for (unsigned j = d; j-- > 0;)
      if (tree.contains(child_of(x, j, d))) return child_of(x, j, d);
    REKEY_ENSURE_MSG(false, "k-node with no children");
    return x;  // unreachable
  };
  const auto first_user = [&](NodeId x) {
    while (x <= nk) x = first_child(x);
    return x;
  };
  const auto last_user = [&](NodeId x) {
    while (x <= nk) x = last_child(x);
    return x;
  };

  // Deep runs follow every shallow run in id order; within a level the
  // depth-first walk meets frontier nodes left to right, so both lists
  // come out sorted.
  std::vector<Run> deep;
  const auto add_run = [&](NodeId first, NodeId last) {
    const auto f = static_cast<std::uint32_t>(offsets_.size() - 1);
    (first < deep_begin ? runs_ : deep).push_back(Run{first, last, f});
  };

  struct Frame {
    NodeId x;                // a changed k-node
    std::size_t block;       // its encryption block (descending order)
    unsigned next_child;     // next child slot to visit
    std::uint32_t next_enc;  // encryption of the next present child
  };
  std::vector<Frame> stack{
      Frame{kRootId, n_changed - 1, 0, enc_offset[n_changed - 1]}};
  // Encryptions of the changed k-nodes on the walk's path below the root,
  // top-down.
  std::vector<std::uint32_t> path;
  std::size_t visited = 1;
  offsets_.push_back(0);
  while (!stack.empty()) {
    Frame& top = stack.back();
    if (top.next_child == d) {
      REKEY_ENSURE_MSG(top.next_enc == enc_offset[top.block + 1],
                       "encryption block does not match the tree");
      stack.pop_back();
      if (!stack.empty()) path.pop_back();
      continue;
    }
    const NodeId c = child_of(top.x, top.next_child++, d);
    if (!tree.contains(c)) continue;  // n-node
    const std::uint32_t enc = top.next_enc++;
    const std::size_t k = c <= nk ? changed.index_of(c) : n_changed;
    if (k != n_changed) {
      path.push_back(enc);
      stack.push_back(Frame{c, n_changed - 1 - k, 0,
                            enc_offset[n_changed - 1 - k]});
      ++visited;
      continue;
    }
    // c is a frontier node: every user below it needs c's encryption and
    // then the path's, bottom-up.
    indices_.push_back(enc);
    indices_.insert(indices_.end(), path.rbegin(), path.rend());
    const NodeId lo = first_user(c), hi = last_user(c);
    if ((lo < deep_begin) == (hi < deep_begin)) {
      add_run(lo, hi);
    } else {
      // Users on both levels: nk lies below c. The deep run ends at nk's
      // last child; the shallow run starts at the first present node to
      // the right of nk on nk's level.
      add_run(lo, last_child(nk));
      NodeId x = nk, next = nk;
      while (next == nk) {
        REKEY_ENSURE(x != c);
        const NodeId p = parent_of(x, d);
        for (NodeId s = x + 1; s <= child_of(p, d - 1, d) && next == nk; ++s)
          if (tree.contains(s)) next = first_user(s);
        x = p;
      }
      add_run(next, hi);
    }
    offsets_.push_back(static_cast<std::uint32_t>(indices_.size()));
  }
  REKEY_ENSURE_MSG(visited == n_changed, "changed set is not upward-closed");
  runs_.insert(runs_.end(), deep.begin(), deep.end());
}

}  // namespace rekey::tree
