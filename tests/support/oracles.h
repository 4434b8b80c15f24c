// Reference computations and invariant checks that only tests run: each
// is built from the library's public API, so a test can hold the shipped
// code to it without the library carrying it.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>

#include "fec/matrix.h"
#include "keytree/keytree.h"
#include "keytree/rekey_subtree.h"
#include "keytree/shard.h"

namespace rekey::test {

// Every node of the tree, materialized in id order.
std::map<tree::NodeId, tree::Node> nodes(const tree::KeyTree& tree);

// The tree's invariants (KeyTree::check_invariants), plus plan/tree degree
// agreement and a well-defined owner for every present node: a node's
// owner is its parent's, or, exactly at the cut, a shard whose parent is
// the aggregator. Throws EnsureError on violation.
void check_sharded_tree(const tree::KeyTree& tree,
                        const tree::ShardPlan& plan);

// The payload's encryption ids are globally unique, and each has a
// well-defined owning shard under `plan`. An encryption id is the
// encrypting child's node id; each child has one parent and node
// ownership is a partition, so encryptions from different shards never
// collide and need no shard tag or id-space offset, on the wire or in the
// cipher nonce. Throws EnsureError on violation.
void check_enc_id_disjointness(const tree::RekeyPayload& payload,
                               const tree::ShardPlan& plan);

// The product a * b over GF(2^8), one scalar multiply-add at a time.
fec::Matrix multiply(const fec::Matrix& a, const fec::Matrix& b);

// Lowercase hex of the bytes, for test vectors and diagnostics.
std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace rekey::test
