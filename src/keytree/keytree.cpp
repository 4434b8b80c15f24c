#include "keytree/keytree.h"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "common/ensure.h"

namespace rekey::tree {

KeyTree::ZeroPages::~ZeroPages() {
  if (bytes_ != 0) munmap(data_, bytes_);
}

void KeyTree::ZeroPages::grow(std::size_t bytes) {
  if (bytes <= bytes_) return;
  void* p = bytes_ == 0 ? mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0)
                        : mremap(data_, bytes_, bytes, MREMAP_MAYMOVE);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = p;
  bytes_ = bytes;
}

void KeyTree::ZeroPages::swap(ZeroPages& other) noexcept {
  std::swap(data_, other.data_);
  std::swap(bytes_, other.bytes_);
}

KeyTree::DenseArena::DenseArena(const DenseArena& other) {
  grow(other.size_);
  for (std::size_t id = 0; id < size_; ++id) {
    if (other.state[id] == kAbsent) continue;
    state[id] = other.state[id];
    key[id] = other.key[id];
    if (other.state[id] == kUNode) member[id] = other.member[id];
  }
}

KeyTree::DenseArena& KeyTree::DenseArena::operator=(const DenseArena& other) {
  if (this != &other) {
    DenseArena copy(other);
    swap(copy);
  }
  return *this;
}

void KeyTree::DenseArena::grow(std::size_t size) {
  if (size <= size_) return;
  // Each pointer follows its mapping at once, so an array the OS refuses
  // leaves the arena at its old size with every pointer valid.
  key_pages_.grow(size * sizeof(*key));
  key = static_cast<crypto::SymmetricKey*>(key_pages_.data());
  member_pages_.grow(size * sizeof(*member));
  member = static_cast<MemberId*>(member_pages_.data());
  state_pages_.grow(size * sizeof(*state));
  state = static_cast<std::uint8_t*>(state_pages_.data());
  size_ = size;
}

void KeyTree::DenseArena::swap(DenseArena& other) noexcept {
  std::swap(key, other.key);
  std::swap(member, other.member);
  std::swap(state, other.state);
  key_pages_.swap(other.key_pages_);
  member_pages_.swap(other.member_pages_);
  state_pages_.swap(other.state_pages_);
  std::swap(size_, other.size_);
}

KeyTree::KeyTree(unsigned degree, std::uint64_t key_seed)
    : degree_(degree), keygen_(key_seed) {
  REKEY_ENSURE_MSG(degree >= 2, "key tree degree must be >= 2");
}

void KeyTree::fill_node(NodeId id, Node& out) const {
  if (id < dense_.size() && dense_.state[id] != kAbsent) {
    const std::uint8_t s = dense_.state[id];
    out.kind = s == kKNode ? NodeKind::KNode : NodeKind::UNode;
    out.key = dense_.key[id];
    out.member = s == kUNode ? dense_.member[id] : 0;
    return;
  }
  const OverflowNode* n = overflow_.find(id);
  REKEY_ENSURE_MSG(n != nullptr && n->state != kAbsent,
                   "node does not exist (n-node)");
  out.kind = n->state == kKNode ? NodeKind::KNode : NodeKind::UNode;
  out.key = n->key;
  out.member = n->state == kUNode ? n->member : 0;
}

void KeyTree::set_knode(NodeId id, const crypto::SymmetricKey& key) {
  REKEY_ENSURE(state_at(id) == kAbsent);
  if (id < dense_.size()) {
    dense_.state[id] = kKNode;
    dense_.key[id] = key;
  } else {
    OverflowNode n;
    n.state = kKNode;
    n.key = key;
    overflow_.insert(id, n);
  }
  ++num_knodes_;
  if (num_knodes_ == 1) {
    kmax_ = id;
    kmax_valid_ = true;
  } else if (id > kmax_) {
    kmax_ = id;  // still exact if it was; still an upper bound otherwise
  }
}

void KeyTree::set_unode(NodeId id, const crypto::SymmetricKey& key,
                        MemberId m) {
  REKEY_ENSURE(state_at(id) == kAbsent);
  if (id < dense_.size()) {
    dense_.state[id] = kUNode;
    dense_.key[id] = key;
    dense_.member[id] = m;
  } else {
    OverflowNode n;
    n.state = kUNode;
    n.key = key;
    n.member = m;
    overflow_.insert(id, n);
  }
  ++num_unodes_;
  REKEY_ENSURE_MSG(slot_of_member_.insert(m, id), "duplicate member");
}

void KeyTree::remove_node(NodeId id) {
  if (id < dense_.size() && dense_.state[id] != kAbsent) {
    if (dense_.state[id] == kUNode) {
      slot_of_member_.erase(dense_.member[id]);
      --num_unodes_;
    } else {
      --num_knodes_;
      if (id == kmax_) kmax_valid_ = false;
    }
    dense_.state[id] = kAbsent;
    return;
  }
  OverflowNode* n = overflow_.find(id);
  REKEY_ENSURE_MSG(n != nullptr && n->state != kAbsent, "removing an n-node");
  if (n->state == kUNode) {
    slot_of_member_.erase(n->member);
    --num_unodes_;
  } else {
    --num_knodes_;
    if (id == kmax_) kmax_valid_ = false;
  }
  overflow_.erase(id);
}

crypto::SymmetricKey& KeyTree::key_ref(NodeId id) {
  if (id < dense_.size() && dense_.state[id] != kAbsent) return dense_.key[id];
  OverflowNode* n = overflow_.find(id);
  REKEY_ENSURE_MSG(n != nullptr && n->state != kAbsent,
                   "node does not exist (n-node)");
  return n->key;
}

const crypto::SymmetricKey& KeyTree::key_cref(NodeId id) const {
  return const_cast<KeyTree*>(this)->key_ref(id);
}

const crypto::SymmetricKey& KeyTree::key_of(NodeId id) const {
  return key_cref(id);
}

MemberId KeyTree::member_at(NodeId id) const {
  if (id < dense_.size() && dense_.state[id] == kUNode)
    return dense_.member[id];
  const OverflowNode* n = overflow_.find(id);
  REKEY_ENSURE_MSG(n != nullptr && n->state == kUNode, "not a u-node");
  return n->member;
}

void KeyTree::grow_dense(std::size_t new_cap) {
  if (new_cap <= dense_.size()) return;
  dense_.grow(new_cap);
  if (overflow_.empty()) return;
  // Migrate overflow entries that the grown dense region now covers.
  std::vector<std::pair<NodeId, OverflowNode>> moved;
  overflow_.for_each([&](NodeId id, const OverflowNode& n) {
    if (id < new_cap) moved.emplace_back(id, n);
  });
  for (const auto& [id, n] : moved) {
    dense_.state[id] = n.state;
    dense_.key[id] = n.key;
    if (n.state == kUNode) dense_.member[id] = n.member;
    overflow_.erase(id);
  }
}

void KeyTree::rebalance() { grow_dense(dense_target(num_nodes())); }

NodeId KeyTree::size_initial_tree(std::size_t n) {
  // Smallest height whose leaf level can hold n users. A single user still
  // gets a k-node root above it so the root always carries the group key.
  unsigned height = 1;
  std::size_t capacity = degree_;
  while (capacity < n) {
    capacity *= degree_;
    ++height;
  }
  // Users fill the first n leaf slots, so level `height - k` holds
  // ceil(n / d^k) k-nodes.
  std::size_t nodes = n;
  for (std::size_t width = degree_, k = 1; k <= height; ++k, width *= degree_)
    nodes += (n + width - 1) / width;
  const NodeId first_leaf = first_id_at_level(height, degree_);
  grow_dense(std::max<std::size_t>(first_leaf + n, dense_target(nodes)));
  return first_leaf;
}

std::vector<NodeId> KeyTree::sorted_overflow_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(overflow_.size());
  overflow_.for_each([&](NodeId id, const OverflowNode&) {
    ids.push_back(id);
  });
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::vector<NodeId> KeyTree::sorted_overflow_unodes() const {
  std::vector<NodeId> ids;
  overflow_.for_each([&](NodeId id, const OverflowNode& n) {
    if (n.state == kUNode) ids.push_back(id);
  });
  std::sort(ids.begin(), ids.end());
  return ids;
}

void KeyTree::populate(std::size_t n, MemberId first_member) {
  REKEY_ENSURE_MSG(empty(), "populate requires an empty tree");
  if (n == 0) return;

  const NodeId first_leaf = size_initial_tree(n);
  slot_of_member_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const NodeId slot = first_leaf + i;
    // Key-generator call order (u-node first, then missing ancestors
    // bottom-up) is part of the determinism contract with the goldens.
    set_unode(slot, keygen_.next(), first_member + static_cast<MemberId>(i));
    NodeId id = slot;
    while (id != kRootId) {
      id = parent_of(id, degree_);
      if (state_at(id) != kAbsent) break;
      set_knode(id, keygen_.next());
    }
  }
}

KeyTree KeyTree::from_nodes(unsigned degree, std::uint64_t key_seed,
                            const std::map<NodeId, Node>& nodes) {
  return from_records(degree, key_seed, nodes.size(), [&](auto&& put) {
    for (const auto& [id, n] : nodes) put(id, n);
  });
}

Node KeyTree::node(NodeId id) const {
  Node out;
  fill_node(id, out);
  return out;
}

std::optional<NodeId> KeyTree::max_knode_id() const {
  if (num_knodes_ == 0) return std::nullopt;
  if (!kmax_valid_) {
    // Lazy rescan after the previous max was removed. All overflow ids are
    // beyond the dense range, so an overflow k-node (if any) is the max;
    // otherwise scan the dense state bytes downward from the stale bound.
    bool found = false;
    NodeId best = 0;
    overflow_.for_each([&](NodeId id, const OverflowNode& n) {
      if (n.state == kKNode && (!found || id > best)) {
        best = id;
        found = true;
      }
    });
    if (!found) {
      NodeId id = std::min<NodeId>(kmax_, dense_.size() == 0
                                              ? 0
                                              : dense_.size() - 1);
      while (true) {
        if (dense_.state[id] == kKNode) {
          best = id;
          found = true;
          break;
        }
        if (id == 0) break;
        --id;
      }
    }
    REKEY_ENSURE_MSG(found, "k-node count is positive but none found");
    kmax_ = best;
    kmax_valid_ = true;
  }
  return kmax_;
}

std::vector<NodeId> KeyTree::user_slots() const {
  std::vector<NodeId> out;
  user_slots_into(out);
  return out;
}

void KeyTree::user_slots_into(std::vector<NodeId>& out) const {
  out.clear();
  out.reserve(num_unodes_);
  for_each_user_slot([&](NodeId id) { out.push_back(id); });
}

NodeId KeyTree::slot_of(MemberId m) const {
  const NodeId* slot = slot_of_member_.find(m);
  REKEY_ENSURE_MSG(slot != nullptr, "unknown member");
  return *slot;
}

bool KeyTree::has_member(MemberId m) const {
  return slot_of_member_.contains(m);
}

const crypto::SymmetricKey& KeyTree::group_key() const {
  REKEY_ENSURE_MSG(state_at(kRootId) == kKNode, "root is not a k-node");
  return dense_.key[kRootId];
}

void KeyTree::keys_for_slot_into(
    NodeId slot,
    std::vector<std::pair<NodeId, crypto::SymmetricKey>>& out) const {
  out.clear();
  NodeId id = slot;
  while (true) {
    out.emplace_back(id, key_cref(id));
    if (id == kRootId) break;
    id = parent_of(id, degree_);
  }
}

unsigned KeyTree::height() const {
  if (empty()) return 0;
  // u-nodes have the largest ids, and ids grow with depth within the
  // expanded tree, so the deepest node is the one with the largest id.
  NodeId deepest = 0;
  if (!overflow_.empty()) {
    overflow_.for_each([&](NodeId id, const OverflowNode&) {
      deepest = std::max(deepest, id);
    });
  } else {
    NodeId id = dense_.size() - 1;
    while (dense_.state[id] == kAbsent && id > 0) --id;
    deepest = id;
  }
  return level_of(deepest, degree_);
}

std::size_t KeyTree::arena_bytes() const {
  return dense_.size() * (sizeof(crypto::SymmetricKey) + sizeof(MemberId) +
                          sizeof(std::uint8_t)) +
         overflow_.memory_bytes() + slot_of_member_.memory_bytes();
}

void KeyTree::check_invariants() const {
  // Arena bookkeeping: counters, member map, overflow placement.
  std::size_t knodes = 0, unodes = 0;
  std::optional<NodeId> max_k, min_u, max_u;
  for_each_node([&](NodeId id, const Node& n) {
    if (n.kind == NodeKind::KNode) {
      ++knodes;
      if (!max_k || id > *max_k) max_k = id;
    } else {
      ++unodes;
      if (!min_u) min_u = id;
      max_u = id;
    }
    // I1: parent exists and is a k-node.
    if (id != kRootId) {
      const std::uint8_t p = state_at(parent_of(id, degree_));
      REKEY_ENSURE_MSG(p != kAbsent, "orphan node");
      REKEY_ENSURE_MSG(p == kKNode, "parent is not a k-node");
    }
  });
  REKEY_ENSURE(knodes == num_knodes_ && unodes == num_unodes_);
  // The member map inverts the u-nodes' members: one entry per u-node,
  // each naming a u-node that holds its member. Checked from the map's
  // side in one sequential pass instead of a cache-missing lookup per
  // u-node.
  REKEY_ENSURE(slot_of_member_.size() == num_unodes_);
  slot_of_member_.for_each([&](MemberId m, NodeId id) {
    REKEY_ENSURE(state_at(id) == kUNode && member_at(id) == m);
  });
  if (max_k) REKEY_ENSURE(max_knode_id().value() == *max_k);
  overflow_.for_each([&](NodeId id, const OverflowNode& n) {
    REKEY_ENSURE_MSG(id >= dense_.size(), "overflow id inside dense range");
    REKEY_ENSURE(n.state == kKNode || n.state == kUNode);
  });

  // I2: every k-node has a u-node descendant. Equivalent check: every
  // k-node has at least one child, and (inductively, leaves of the k-node
  // subgraph must be u-nodes' parents) every childless node is a u-node.
  for_each_node([&](NodeId id, const Node& n) {
    if (n.kind != NodeKind::KNode) return;
    bool has_child = false;
    for (unsigned j = 0; j < degree_ && !has_child; ++j)
      has_child = state_at(child_of(id, j, degree_)) != kAbsent;
    REKEY_ENSURE_MSG(has_child, "k-node with no children");
  });

  // I3 + I4.
  if (max_k && min_u) {
    REKEY_ENSURE_MSG(*max_k < *min_u, "Lemma 4.1 violated");
    REKEY_ENSURE_MSG(*max_u <= *max_k * degree_ + degree_,
                     "u-node beyond d*nk+d");
  }
}

}  // namespace rekey::tree
