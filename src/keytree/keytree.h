// The logical key hierarchy (LKH) key tree (paper §2.1).
//
// The tree is a d-ary hierarchy whose root holds the group key, internal
// k-nodes hold auxiliary keys, and u-nodes (always below every k-node in id
// order — Lemma 4.1) hold users' individual keys. n-nodes of the expanded
// tree are represented implicitly: an id with no entry is an n-node.
//
// Storage is a flat arena, not a node-per-allocation map: the dense id
// range [0, dense_capacity()) lives in three parallel arrays (state byte,
// key, member) indexed directly by NodeId — the BFS numbering makes
// id -> index the identity for complete levels — and the sparse tail of
// ids beyond the dense range spills into one open-addressed overflow map.
// Lookups in the hot path are a byte load + array index; there is no
// per-node allocation and no pointer chasing. The dense capacity is
// resized (never shrunk) at batch boundaries to max(256, 2*d*num_nodes),
// which covers every id of a balanced tree (max id <= N*d/(d-1) there)
// while bounding memory for pathologically sparse deep trees.
//
// That capacity is reserved, not committed. Each array is an anonymous
// mapping of zero pages that is never value-initialized, so the OS
// commits a page only when an id on it is first written: the resident
// arena follows the highest live id (21 B per id up to it), not the
// capacity, which is 4.6 times that id for 2^18 + 512 members at d = 4.
// Growing remaps the arrays, so the OS moves their pages and nothing is
// copied or zeroed; copying a tree writes the live ids only.
// arena_bytes() and the service's keyserver.arena_bytes gauge report the
// reserved bytes.
//
// Structural invariants maintained across batches (checked by
// KeyTree::check_invariants and enforced in tests):
//   I1  every non-root node's parent exists and is a k-node;
//   I2  every k-node has at least one u-node descendant;
//   I3  (Lemma 4.1) max k-node id < min u-node id;
//   I4  every u-node id lies in (nk, d*nk + d] where nk = max k-node id.
//
// Mutation happens only through the marking algorithm (keytree/marking.h),
// which is the paper's batch-rekeying update.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_map.h"
#include "crypto/keys.h"
#include "keytree/ids.h"

namespace rekey::tree {

// Stable identity of a group member across tree restructurings. Slots
// (NodeIds) move when the marking algorithm splits nodes; MemberIds do not.
using MemberId = std::uint32_t;

enum class NodeKind : std::uint8_t { KNode, UNode };

struct Node {
  NodeKind kind = NodeKind::KNode;
  crypto::SymmetricKey key;
  MemberId member = 0;  // meaningful only for u-nodes
};

class KeyTree {
 public:
  // An empty tree of the given degree; keys are drawn deterministically
  // from key_seed so runs are reproducible.
  KeyTree(unsigned degree, std::uint64_t key_seed);

  // Build the initial tree for members [first_member, first_member + n):
  // height ceil(log_d n), users packed into the leftmost leaf slots.
  // Requires an empty tree.
  void populate(std::size_t n, MemberId first_member = 0);

  unsigned degree() const { return degree_; }
  std::size_t num_users() const { return num_unodes_; }
  std::size_t num_nodes() const { return num_knodes_ + num_unodes_; }
  bool empty() const { return num_nodes() == 0; }

  bool contains(NodeId id) const { return state_at(id) != kAbsent; }
  // A materialized copy of the node (n-node ids throw).
  Node node(NodeId id) const;
  // nullopt when the tree is empty or holds a single u-node at the root.
  std::optional<NodeId> max_knode_id() const;

  // Sorted u-node ids.
  std::vector<NodeId> user_slots() const;
  // Allocation-free variant: clears and refills `out` (no allocation once
  // its capacity has warmed up).
  void user_slots_into(std::vector<NodeId>& out) const;
  // Visits every u-node id in ascending order without materializing a
  // vector. Allocation-free whenever no node lives in the overflow map.
  template <typename F>
  void for_each_user_slot(F&& fn) const {
    for (std::size_t id = 0; id < dense_.size(); ++id)
      if (dense_.state[id] == kUNode) fn(static_cast<NodeId>(id));
    if (!overflow_.empty()) {
      std::vector<NodeId> ids = sorted_overflow_unodes();
      for (const NodeId id : ids) fn(id);
    }
  }

  NodeId slot_of(MemberId m) const;
  bool has_member(MemberId m) const;

  // The group key (root key). Requires a non-empty tree with a k-node root.
  const crypto::SymmetricKey& group_key() const;

  // All keys a user at `slot` holds: its individual key plus every k-node
  // key on the path to the root (paper §2.1). Clears and refills `out`, so
  // it allocates nothing once `out` has warmed up.
  void keys_for_slot_into(
      NodeId slot,
      std::vector<std::pair<NodeId, crypto::SymmetricKey>>& out) const;

  // Direct reference to a present node's key in the arena (n-node ids
  // throw). The reference is invalidated by the next mutation.
  const crypto::SymmetricKey& key_of(NodeId id) const;

  // Tree height = level of the deepest node (0 for a root-only tree).
  unsigned height() const;

  // Verifies I1-I4 plus arena bookkeeping; throws EnsureError on
  // violation. Cold path: tests, snapshot restore — never per batch.
  void check_invariants() const;

  crypto::KeyGenerator& key_generator() { return keygen_; }
  // Read-only access (sharded snapshots persist the stream counter).
  const crypto::KeyGenerator& key_generator() const { return keygen_; }

  // Read-only iteration over all nodes in ascending id order (snapshots,
  // tests). The Node reference is a per-call scratch — copy what you keep.
  template <typename F>
  void for_each_node(F&& fn) const {
    for_each_node_in(0, std::numeric_limits<NodeId>::max(), fn);
  }

  // for_each_node restricted to the ids in [lo, hi), still ascending (the
  // sharded snapshot writes each shard's per-level id ranges this way).
  // Allocation-free whenever no node of the range lives in the overflow
  // map.
  template <typename F>
  void for_each_node_in(NodeId lo, NodeId hi, F&& fn) const {
    Node scratch;
    const NodeId dense_hi = std::min<NodeId>(hi, dense_.size());
    for (NodeId id = lo; id < dense_hi; ++id) {
      if (dense_.state[id] == kAbsent) continue;
      fill_node(id, scratch);
      fn(id, scratch);
    }
    if (!overflow_.empty() && hi > dense_.size()) {
      std::vector<NodeId> ids = sorted_overflow_ids();
      for (const NodeId id : ids) {
        if (id < lo || id >= hi) continue;
        fill_node(id, scratch);
        fn(id, scratch);
      }
    }
  }

  // Rebuild a tree from node data (snapshot restore). Validates the
  // structural invariants; throws EnsureError on inconsistent input.
  static KeyTree from_nodes(unsigned degree, std::uint64_t key_seed,
                            const std::map<NodeId, Node>& nodes);

  // The same rebuild without materializing the nodes (the snapshot
  // decoders): sizes the arena once for `num_nodes` nodes, then
  // `read(put)` calls put(id, node) once per node, in any order, and each
  // node goes straight into the arena. `read` may throw EnsureError to
  // reject its input; so does a duplicate id or member, or a tree that
  // breaks I1-I4.
  template <typename Read>
  static KeyTree from_records(unsigned degree, std::uint64_t key_seed,
                              std::size_t num_nodes, Read&& read) {
    KeyTree t(degree, key_seed);
    t.grow_dense(t.dense_target(num_nodes));
    t.slot_of_member_.reserve(num_nodes);
    read([&t](NodeId id, const Node& n) {
      if (n.kind == NodeKind::KNode)
        t.set_knode(id, n.key);
      else
        t.set_unode(id, n.key, n.member);
    });
    t.check_invariants();
    return t;
  }

  // Bytes reserved by the arena (dense arrays + overflow + member map);
  // the dense arrays' resident share is smaller (see the storage note).
  std::size_t arena_bytes() const;
  std::size_t dense_capacity() const { return dense_.size(); }

 private:
  friend class Marker;  // the marking algorithm mutates the tree

  static constexpr std::uint8_t kAbsent = 0, kKNode = 1, kUNode = 2;
  // The dense arrays start as zero bytes and are never value-initialized,
  // so an all-zero slot must read as an absent node with a default key
  // and member.
  static_assert(kAbsent == 0);
  static_assert(std::bit_cast<std::array<std::uint8_t,
                                         crypto::SymmetricKey::kSize>>(
                    crypto::SymmetricKey{}) ==
                std::array<std::uint8_t, crypto::SymmetricKey::kSize>{});
  static_assert(MemberId{} == 0);

  // An anonymous private mapping: its pages read as zero and the OS
  // commits each one on first write. Growing remaps it, so the OS moves
  // the committed pages instead of copying them.
  class ZeroPages {
   public:
    ZeroPages() = default;
    ZeroPages(const ZeroPages&) = delete;
    ZeroPages& operator=(const ZeroPages&) = delete;
    ~ZeroPages();

    void* data() const { return data_; }
    // Throws std::bad_alloc, leaving the mapping as it was, when the OS
    // refuses the pages.
    void grow(std::size_t bytes);
    void swap(ZeroPages& other) noexcept;

   private:
    void* data_ = nullptr;
    std::size_t bytes_ = 0;
  };

  // The dense id range: key, member and state arrays, each its own
  // ZeroPages, so a grow keeps their pages and copies nothing. A copy
  // writes the live ids only.
  class DenseArena {
   public:
    DenseArena() = default;
    DenseArena(const DenseArena& other);
    DenseArena& operator=(const DenseArena& other);
    DenseArena(DenseArena&& other) noexcept { swap(other); }
    DenseArena& operator=(DenseArena&& other) noexcept {
      swap(other);
      return *this;
    }

    std::size_t size() const { return size_; }
    // Covers ids [0, size) at least; the added ids read as absent.
    void grow(std::size_t size);
    void swap(DenseArena& other) noexcept;

    crypto::SymmetricKey* key = nullptr;
    MemberId* member = nullptr;
    std::uint8_t* state = nullptr;

   private:
    ZeroPages key_pages_, member_pages_, state_pages_;
    std::size_t size_ = 0;
  };

  struct OverflowNode {
    std::uint8_t state = kAbsent;
    MemberId member = 0;
    crypto::SymmetricKey key;
  };

  std::uint8_t state_at(NodeId id) const {
    if (id < dense_.size()) return dense_.state[id];
    const OverflowNode* n = overflow_.find(id);
    return n == nullptr ? kAbsent : n->state;
  }

  void fill_node(NodeId id, Node& out) const;

  // Mutators shared by populate, from_records, and the Marker. They keep
  // the counters, member map, and max-k-node tracking consistent.
  void set_knode(NodeId id, const crypto::SymmetricKey& key);
  void set_unode(NodeId id, const crypto::SymmetricKey& key, MemberId m);
  void remove_node(NodeId id);  // present node -> n-node

  crypto::SymmetricKey& key_ref(NodeId id);  // present nodes only
  const crypto::SymmetricKey& key_cref(NodeId id) const;
  MemberId member_at(NodeId id) const;  // u-nodes only

  // Grows the dense arrays to cover dense_target(num_nodes()) and
  // migrates overflow entries that now fit. Never shrinks (high-water
  // policy), so ids that were dense stay dense. Called at batch
  // boundaries only.
  void rebalance();
  void grow_dense(std::size_t new_cap);
  // The sizing policy: max(256, 2*d*nodes) ids.
  std::size_t dense_target(std::size_t nodes) const {
    return std::max<std::size_t>(256,
                                 2 * static_cast<std::size_t>(degree_) * nodes);
  }
  // Sizes the dense range of an empty tree, once, for the initial tree of
  // n users (populate and the Marker's bootstrap build the same shape):
  // every id that build creates, and rebalance()'s target after it.
  // Returns the first leaf id, where user 0 goes.
  NodeId size_initial_tree(std::size_t n);

  std::vector<NodeId> sorted_overflow_ids() const;
  std::vector<NodeId> sorted_overflow_unodes() const;

  unsigned degree_;
  crypto::KeyGenerator keygen_;

  // Dense arena, indexed directly by NodeId.
  DenseArena dense_;
  // Sparse tail: ids >= dense_capacity().
  FlatMap<NodeId, OverflowNode> overflow_;

  FlatMap<MemberId, NodeId> slot_of_member_;
  std::size_t num_knodes_ = 0;
  std::size_t num_unodes_ = 0;

  // Exact max k-node id while `kmax_valid_`; after removing the max it
  // degrades to an upper bound and max_knode_id() lazily rescans.
  mutable NodeId kmax_ = 0;
  mutable bool kmax_valid_ = true;
};

}  // namespace rekey::tree
