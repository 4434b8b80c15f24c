// The marking algorithm: periodic batch rekeying (paper §2.2, Appendix B).
//
// At the end of a rekey interval the key server has collected J join and L
// leave requests. The marking algorithm updates the key tree:
//
//   J = L : departed u-nodes are replaced by joined users;
//   J < L : the J smallest-id departed slots are replaced, the remaining
//           L-J become n-nodes, and k-nodes left without u-descendants are
//           pruned (become n-nodes);
//   J > L : departed slots are replaced first, then extra joins fill
//           n-node slots with ids in (nk, d*nk+d] from low to high; when
//           those run out, the u-node with id nk+1 is split — it becomes a
//           k-node and its user moves to its leftmost child — freeing d-1
//           sibling slots, repeatedly.
//
// Every k-node on a path from a changed slot to the root receives a fresh
// key; the rekey subtree (keytree/rekey_subtree.h) is derived from this
// changed set.
//
// One body runs every batch, on a ShardPlan and a TaskRunner
// (keytree/shard.h). The structural pass is serial (it is O(batch));
// changed-set collection runs as one path-walk task per shard plus an
// aggregator task, and the per-shard sorted sets merge into one. The
// default plan has one shard and the default runner runs its tasks
// inline, in order, on the calling thread; more shards or a pool change
// who computes what, never a byte of the result.
//
// Key draws are deferred: the structural pass assigns every draw its
// counter index (KeyGenerator::skip) and records where the key belongs;
// materialization then computes key_at(index) for each live draw and
// writes it to its final location. Because the stream is a pure function
// of (seed, counter), materialization order is irrelevant — the draws fan
// out across the runner in chunks, and the tree is byte-identical to the
// one a fully inline next() sequence would build. Two draw classes exist:
//   * user draws, keyed by MemberId so a split relocating the slot still
//     lands the key in the member's final slot;
//   * k-node draws, keyed by NodeId. A k-node creation draw is dead in a
//     non-bootstrap batch (every created k-node is in the changed set and
//     its key is overwritten by the final refresh), so only the counter
//     advances; in bootstrap there is no refresh and the draw is live.
#pragma once

#include <algorithm>
#include <map>
#include <set>
#include <span>
#include <vector>

#include "common/ensure.h"
#include "keytree/keytree.h"
#include "keytree/shard.h"

namespace rekey {
class TaskRunner;
}

namespace rekey::tree {

// A sorted, de-duplicated set of node ids stored contiguously. Lookups are
// binary searches; construction is a batch sort+unique — the marking hot
// path never pays per-insert tree rebalancing.
class NodeIdSet {
 public:
  using const_iterator = std::vector<NodeId>::const_iterator;

  NodeIdSet() = default;

  // Takes ownership of arbitrary ids; sorts and de-duplicates.
  void assign(std::vector<NodeId> ids) {
    ids_ = std::move(ids);
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  }

  // Takes ownership of ids that are already sorted and duplicate-free
  // (the per-shard merge produces exactly that); verified, not re-sorted.
  void assign_sorted(std::vector<NodeId> ids) {
    REKEY_ENSURE_MSG(std::is_sorted(ids.begin(), ids.end()) &&
                         std::adjacent_find(ids.begin(), ids.end()) ==
                             ids.end(),
                     "assign_sorted input is not sorted and unique");
    ids_ = std::move(ids);
  }

  const_iterator begin() const { return ids_.begin(); }
  const_iterator end() const { return ids_.end(); }
  std::size_t size() const { return ids_.size(); }
  bool empty() const { return ids_.empty(); }
  void clear() { ids_.clear(); }

  bool contains(NodeId id) const {
    return std::binary_search(ids_.begin(), ids_.end(), id);
  }
  std::size_t count(NodeId id) const { return contains(id) ? 1 : 0; }

  // Position of `id` in the ascending order, or size() when absent.
  std::size_t index_of(NodeId id) const {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) return ids_.size();
    return static_cast<std::size_t>(it - ids_.begin());
  }

  NodeId operator[](std::size_t i) const { return ids_[i]; }

  friend bool operator==(const NodeIdSet& a, const NodeIdSet& b) {
    return a.ids_ == b.ids_;
  }
  friend bool operator==(const NodeIdSet& a, const std::set<NodeId>& b) {
    return a.ids_.size() == b.size() &&
           std::equal(a.ids_.begin(), a.ids_.end(), b.begin());
  }
  friend bool operator==(const std::set<NodeId>& a, const NodeIdSet& b) {
    return b == a;
  }

 private:
  std::vector<NodeId> ids_;
};

// Outcome of one batch, consumed by encryption generation and by tests.
struct BatchUpdate {
  // k-nodes whose keys were refreshed (includes newly created k-nodes).
  NodeIdSet changed_knodes;
  // Members placed this batch, with their slots.
  std::map<MemberId, NodeId> joined;
  // Members removed this batch, with their former slots.
  std::map<MemberId, NodeId> departed;
  // Users relocated by splitting: old slot -> new slot.
  std::map<NodeId, NodeId> moved;
  // Maximum k-node id after the batch (the ENC packet maxKID field).
  NodeId max_kid = 0;
};

class Marker {
 public:
  explicit Marker(KeyTree& tree) : tree_(tree) {}

  // Applies one batch. `joins` are fresh member ids (must not be in the
  // tree); `leaves` are current member ids. Returns the update summary.
  // The path walks run as plan.task_count() tasks on `runner` and the
  // key draws materialize in plan.shards chunks; the tree, update and
  // key material are bit-identical for every shard and thread count.
  // When `stats` is non-null it is filled with per-shard changed counts
  // and the partition is validated with check_shard_partition.
  BatchUpdate run(std::span<const MemberId> joins,
                  std::span<const MemberId> leaves, const ShardPlan& plan,
                  rekey::TaskRunner& runner,
                  ShardBatchStats* stats = nullptr);

  // The same batch on one shard with an inline runner.
  BatchUpdate run(std::span<const MemberId> joins,
                  std::span<const MemberId> leaves);

 private:
  // One deferred key draw: stream index plus the final destination.
  struct Draw {
    std::uint64_t counter = 0;
    NodeId node = 0;      // k-node draws
    MemberId member = 0;  // user draws (slot resolved at materialization)
    bool is_member = false;
  };

  NodeId place_user(MemberId m, NodeId slot);           // create u-node
  void prune_upwards(NodeId from_parent);               // drop empty k-nodes
  void create_ancestors(NodeId slot, bool live_draws);  // n-node -> k-node
  void split_first_user(BatchUpdate& upd,
                        std::vector<NodeId>& free_slots);

  void defer_user_draw(MemberId m);
  void defer_knode_draw(NodeId id, bool live);
  // Computes every recorded live draw via key_at and writes it home, in
  // `chunks` fixed chunks on `runner` (disjoint destinations, so any
  // execution order is safe).
  void materialize(rekey::TaskRunner& runner, std::size_t chunks);

  // The marking algorithm proper (draws deferred). Returns true when the
  // bootstrap path ran, in which case upd is complete except for
  // materialization; otherwise fills upd's membership maps and
  // changed_slots, leaving changed-set collection to the path walks.
  bool structural_pass(std::span<const MemberId> joins,
                       std::span<const MemberId> leaves, BatchUpdate& upd,
                       std::vector<NodeId>& changed_slots);

  KeyTree& tree_;
  // Ids of the k-nodes a bootstrap creates; sorted once into
  // BatchUpdate::changed_knodes.
  std::vector<NodeId> changed_scratch_;
  std::vector<Draw> draws_;
};

}  // namespace rekey::tree
