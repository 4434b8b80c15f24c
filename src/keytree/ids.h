// Node identification in the (conceptually expanded) full balanced d-ary
// key tree (paper §4.1).
//
// Nodes are numbered in BFS order: the root is 0 and the children of node m
// are d*m+1 .. d*m+d, so parent(m) = floor((m-1)/d). A key's id is its
// node's id; an encryption {k'}_k is identified by the id of the
// *encrypting* key k (each key encrypts at most one key per rekey message);
// a user's id is its u-node's id.
//
// Theorem 4.2 lets a user re-derive its id after the marking algorithm has
// restructured the tree, knowing only its old id m and the maximum k-node
// id nk: with f(x) = d^x * m + (d^x - 1)/(d - 1), the new id is the unique
// f(x) in (nk, d*nk + d].
#pragma once

#include <cstdint>
#include <optional>

namespace rekey::tree {

using NodeId = std::uint64_t;

constexpr NodeId kRootId = 0;

// Parent of a non-root node.
NodeId parent_of(NodeId id, unsigned degree);

// j-th child (0-based) of a node.
NodeId child_of(NodeId id, unsigned j, unsigned degree);

// Depth of a node (root = level 0).
unsigned level_of(NodeId id, unsigned degree);

// Smallest id at a given level: (d^level - 1) / (d - 1).
NodeId first_id_at_level(unsigned level, unsigned degree);

// True if `anc` is a (possibly improper) ancestor of `id`.
bool is_ancestor(NodeId anc, NodeId id, unsigned degree);

// Theorem 4.2: derive a user's new id from its pre-batch id and the
// post-batch maximum k-node id. Returns nullopt only if no f(x) falls in
// (max_kid, d*max_kid + d], which cannot happen for ids produced by the
// marking algorithm (the theorem guarantees existence and uniqueness).
std::optional<NodeId> derive_new_user_id(NodeId old_id, NodeId max_kid,
                                         unsigned degree);

}  // namespace rekey::tree
