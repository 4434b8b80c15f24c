#include "keytree/marking.h"

#include <algorithm>

#include "common/ensure.h"
#include "common/parallel.h"

namespace rekey::tree {

void Marker::defer_user_draw(MemberId m) {
  draws_.push_back({tree_.keygen_.counter(), 0, m, true});
  tree_.keygen_.skip(1);
}

void Marker::defer_knode_draw(NodeId id, bool live) {
  // Dead draws (creation draws overwritten by the final refresh) still
  // consume their counter index — the stream position must match the
  // fully inline draw sequence exactly.
  if (live) draws_.push_back({tree_.keygen_.counter(), id, 0, false});
  tree_.keygen_.skip(1);
}

void Marker::materialize(rekey::TaskRunner& runner, std::size_t chunks) {
  const std::size_t n = draws_.size();
  if (n == 0) return;
  auto fill_range = [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const Draw& d = draws_[i];
      const crypto::SymmetricKey key = tree_.keygen_.key_at(d.counter);
      // Distinct draws target distinct nodes (one draw per member, one
      // refresh per k-node), so writes are disjoint across chunks.
      const NodeId id = d.is_member ? tree_.slot_of(d.member) : d.node;
      tree_.key_ref(id) = key;
    }
  };
  const std::size_t parts = std::min(chunks, n);
  runner.run(parts, [&](std::size_t c) {
    fill_range(n * c / parts, n * (c + 1) / parts);
  });
  draws_.clear();
}

NodeId Marker::place_user(MemberId m, NodeId slot) {
  // Key-generator call order matters: one draw per placed user, exactly as
  // the inline implementation made them (determinism contract). The key
  // itself is deferred; the arena holds a placeholder until materialize.
  tree_.set_unode(slot, crypto::SymmetricKey{}, m);
  defer_user_draw(m);
  return slot;
}

void Marker::prune_upwards(NodeId from_parent) {
  NodeId id = from_parent;
  while (true) {
    if (tree_.state_at(id) != KeyTree::kKNode) return;
    bool has_child = false;
    for (unsigned j = 0; j < tree_.degree_ && !has_child; ++j)
      has_child = tree_.state_at(child_of(id, j, tree_.degree_)) !=
                  KeyTree::kAbsent;
    if (has_child) return;
    tree_.remove_node(id);
    if (id == kRootId) return;
    id = parent_of(id, tree_.degree_);
  }
}

void Marker::create_ancestors(NodeId slot, bool live_draws) {
  NodeId id = slot;
  while (id != kRootId) {
    id = parent_of(id, tree_.degree_);
    const std::uint8_t s = tree_.state_at(id);
    if (s != KeyTree::kAbsent) {
      REKEY_ENSURE(s == KeyTree::kKNode);
      return;  // existing ancestors are all present (invariant I1)
    }
    tree_.set_knode(id, crypto::SymmetricKey{});
    defer_knode_draw(id, live_draws);
    // Live draws mean bootstrap, whose changed set is exactly the
    // created k-nodes; any other batch finds them by its path walks.
    if (live_draws) changed_scratch_.push_back(id);
  }
}

void Marker::split_first_user(BatchUpdate& upd,
                              std::vector<NodeId>& free_slots) {
  REKEY_ENSURE(free_slots.empty());
  const auto nk = tree_.max_knode_id();
  REKEY_ENSURE_MSG(nk.has_value(), "split on an empty tree");
  const NodeId s = *nk + 1;
  REKEY_ENSURE_MSG(tree_.state_at(s) == KeyTree::kUNode,
                   "split target is not a u-node");

  // The user at s descends to s's leftmost child; s becomes a k-node.
  // The key copy may be a placeholder when the user was placed this very
  // batch — its deferred draw is member-keyed, so materialization writes
  // the real key to the final slot either way.
  const crypto::SymmetricKey user_key = tree_.key_cref(s);
  const MemberId member = tree_.member_at(s);
  const NodeId dest = child_of(s, 0, tree_.degree_);
  tree_.remove_node(s);
  tree_.set_unode(dest, user_key, member);

  tree_.set_knode(s, crypto::SymmetricKey{});
  // s is in the changed set, so its creation draw is dead (refreshed).
  defer_knode_draw(s, false);
  upd.moved[s] = dest;
  // If the relocated user joined in this very batch, report its final slot.
  const auto jit = upd.joined.find(member);
  if (jit != upd.joined.end()) jit->second = dest;

  // d-1 fresh sibling slots, stored descending so pop_back yields the
  // smallest id first ("in order from low to high").
  for (unsigned j = tree_.degree_ - 1; j >= 1; --j)
    free_slots.push_back(child_of(s, j, tree_.degree_));
}

bool Marker::structural_pass(std::span<const MemberId> joins,
                             std::span<const MemberId> leaves,
                             BatchUpdate& upd,
                             std::vector<NodeId>& changed_slots) {
  changed_scratch_.clear();
  draws_.clear();

  for (const MemberId m : joins)
    REKEY_ENSURE_MSG(!tree_.has_member(m), "join of an existing member");
  for (const MemberId m : leaves)
    REKEY_ENSURE_MSG(tree_.has_member(m), "leave of an unknown member");

  // Bootstrap: an empty tree is (re)built directly; every k-node is new and
  // therefore changed. No final refresh — all draws are live.
  if (tree_.empty()) {
    REKEY_ENSURE(leaves.empty());
    if (joins.empty()) return true;
    const NodeId first_leaf = tree_.size_initial_tree(joins.size());
    for (std::size_t i = 0; i < joins.size(); ++i) {
      const NodeId slot = first_leaf + i;
      place_user(joins[i], slot);
      create_ancestors(slot, /*live_draws=*/true);
      upd.joined.emplace(joins[i], slot);
    }
    upd.changed_knodes.assign(std::move(changed_scratch_));
    changed_scratch_ = {};
    upd.max_kid = tree_.max_knode_id().value_or(0);
    return true;
  }

  const std::size_t J = joins.size();
  const std::size_t L = leaves.size();

  std::vector<NodeId> departed;
  departed.reserve(L);
  for (const MemberId m : leaves) {
    const NodeId slot = tree_.slot_of(m);
    departed.push_back(slot);
    upd.departed.emplace(m, slot);
  }
  std::sort(departed.begin(), departed.end());

  changed_slots.reserve(std::max(J, L));

  // Replace the min(J, L) smallest-id departed slots with joins. The new
  // member gets a fresh individual key (the old one is known to the
  // departed user).
  const std::size_t replaced = std::min(J, L);
  for (std::size_t i = 0; i < replaced; ++i) {
    const NodeId slot = departed[i];
    tree_.remove_node(slot);
    place_user(joins[i], slot);
    upd.joined.emplace(joins[i], slot);
    changed_slots.push_back(slot);
  }

  if (J < L) {
    // Remaining departures become n-nodes; childless k-nodes are pruned.
    for (std::size_t i = J; i < L; ++i) {
      const NodeId slot = departed[i];
      tree_.remove_node(slot);
      changed_slots.push_back(slot);
      if (slot != kRootId) prune_upwards(parent_of(slot, tree_.degree_));
    }
  } else if (J > L) {
    // Free n-node slots in (nk, d*nk+d], ascending; stored descending so
    // pop_back is the smallest. Only J-L slots can ever be consumed, so
    // the scan stops early instead of enumerating the whole range.
    const std::size_t need = J - L;
    std::vector<NodeId> free_slots;
    {
      const auto nk = tree_.max_knode_id();
      REKEY_ENSURE(nk.has_value());
      const NodeId lo = *nk + 1;
      const NodeId hi = *nk * tree_.degree_ + tree_.degree_;
      std::vector<NodeId> ascending;
      ascending.reserve(std::min<std::size_t>(need, 64));
      for (NodeId id = lo; id <= hi && ascending.size() < need; ++id)
        if (tree_.state_at(id) == KeyTree::kAbsent) ascending.push_back(id);
      free_slots.assign(ascending.rbegin(), ascending.rend());
    }

    for (std::size_t i = L; i < J; ++i) {
      if (free_slots.empty()) split_first_user(upd, free_slots);
      const NodeId slot = free_slots.back();
      free_slots.pop_back();
      place_user(joins[i], slot);
      create_ancestors(slot, /*live_draws=*/false);
      upd.joined.emplace(joins[i], slot);
      changed_slots.push_back(slot);
    }
  }

  // Users relocated by splits count as changed slots too.
  for (const auto& [old_slot, new_slot] : upd.moved)
    changed_slots.push_back(new_slot);
  return false;
}

BatchUpdate Marker::run(std::span<const MemberId> joins,
                        std::span<const MemberId> leaves) {
  rekey::TaskRunner runner;
  return run(joins, leaves, ShardPlan::make(tree_.degree_, 1), runner);
}

BatchUpdate Marker::run(std::span<const MemberId> joins,
                        std::span<const MemberId> leaves,
                        const ShardPlan& plan, rekey::TaskRunner& runner,
                        ShardBatchStats* stats) {
  REKEY_ENSURE_MSG(plan.degree == tree_.degree_,
                   "shard plan degree does not match the tree");
  BatchUpdate upd;
  std::vector<NodeId> changed_slots;
  if (structural_pass(joins, leaves, upd, changed_slots)) {
    // Bootstrap builds the whole changed set serially; only the key
    // materialization (the HMAC-heavy part) fans out.
    materialize(runner, plan.shards);
    if (!tree_.empty()) tree_.rebalance();
    if (stats != nullptr) {
      stats->shard_changed.assign(plan.shards, 0);
      stats->aggregator_changed = 0;
      for (std::size_t i = 0; i < upd.changed_knodes.size(); ++i) {
        const unsigned s = plan.shard_of(upd.changed_knodes[i]);
        if (s == ShardPlan::kAggregator)
          ++stats->aggregator_changed;
        else
          ++stats->shard_changed[s];
      }
    }
    return upd;
  }

  const unsigned S = plan.shards;
  // Bin changed slots by owning shard; slots above the cut (tiny trees)
  // go to the aggregator task's bin.
  std::vector<std::vector<NodeId>> slot_bins(S + 1);
  for (const NodeId slot : changed_slots) {
    const unsigned s = plan.shard_of(slot);
    slot_bins[s == ShardPlan::kAggregator ? S : s].push_back(slot);
  }

  // Per-shard path walks. A slot's ancestors at or below the cut stay in
  // the slot's own shard (they share its cut-level ancestor), so each
  // task writes only its own below-cut vector; above-cut ancestors go to
  // the task's private aggregator contribution. Created k-nodes need no
  // separate seeding: every one is an ancestor of some changed slot, so
  // the walks rediscover them.
  std::vector<std::vector<NodeId>> shard_sets(S);
  std::vector<std::vector<NodeId>> agg_contrib(S + 1);
  runner.run(S + 1, [&](std::size_t t) {
    std::vector<NodeId>& above = agg_contrib[t];
    std::vector<NodeId>* below = t < S ? &shard_sets[t] : nullptr;
    // walked[l] is the last id at level l this task walked through (~0
    // before any). Its ancestors were all walked with it, so a walk that
    // reaches it stops: slots come mostly in ascending order, and without
    // the stop every slot would push its whole path for the sort below
    // to drop again.
    std::vector<NodeId> walked;
    for (const NodeId slot : slot_bins[t]) {
      unsigned level = level_of(slot, tree_.degree_);
      if (walked.size() < level) walked.resize(level, ~NodeId{0});
      NodeId id = slot;
      while (id != kRootId) {
        id = parent_of(id, tree_.degree_);
        if (walked[--level] == id) break;
        walked[level] = id;
        if (tree_.state_at(id) != KeyTree::kKNode) continue;
        if (below != nullptr && id >= plan.first_cut_id)
          below->push_back(id);
        else
          above.push_back(id);
      }
    }
    if (below != nullptr) {
      std::sort(below->begin(), below->end());
      below->erase(std::unique(below->begin(), below->end()), below->end());
    }
  });

  // Aggregator set: the region above the cut is tiny (< d^cut_level
  // * d/(d-1) ids), so a serial sort+unique of the contributions is noise.
  std::vector<NodeId> aggregator;
  for (const std::vector<NodeId>& contrib : agg_contrib)
    aggregator.insert(aggregator.end(), contrib.begin(), contrib.end());
  std::sort(aggregator.begin(), aggregator.end());
  aggregator.erase(std::unique(aggregator.begin(), aggregator.end()),
                   aggregator.end());

  if (stats != nullptr) {
    stats->shard_changed.assign(S, 0);
    for (unsigned s = 0; s < S; ++s)
      stats->shard_changed[s] = shard_sets[s].size();
    stats->aggregator_changed = aggregator.size();
    check_shard_partition(plan, shard_sets, aggregator);
  }

  // Deterministic merge: aggregator ids all precede the first cut id, and
  // the per-shard sets are pairwise disjoint, so the merged vector is the
  // same sorted set whatever order the shard tasks completed in.
  std::vector<std::vector<NodeId>> parts;
  parts.reserve(S + 1);
  parts.push_back(std::move(aggregator));
  for (std::vector<NodeId>& set : shard_sets) parts.push_back(std::move(set));
  upd.changed_knodes.assign_sorted(merge_disjoint_sorted(std::move(parts)));

  for (const NodeId x : upd.changed_knodes) {
    REKEY_ENSURE(tree_.state_at(x) == KeyTree::kKNode);
    defer_knode_draw(x, /*live=*/true);
  }
  materialize(runner, plan.shards);

  upd.max_kid = tree_.max_knode_id().value_or(0);
  tree_.rebalance();
  return upd;
}

}  // namespace rekey::tree
