// Sharding plan for the key tree (million-user groups).
//
// The tree is partitioned at a fixed cut level L: the 2^s shards own the
// d^L cut-level subtrees in contiguous blocks, and an aggregator owns the
// top of the tree (every node strictly above the cut). L is the smallest
// level with d^L >= shards, so each shard owns at least one cut subtree
// and the aggregator region stays tiny (< d/(d-1) * d^L nodes).
//
// Ownership is a pure function of the node id: ids below the first
// cut-level id belong to the aggregator; any other id maps to the shard
// of its cut-level ancestor. Because a path from a slot to the root stays
// inside one cut subtree until it crosses the cut, per-shard path walks
// touch only that shard's ids plus aggregator ids — the property that
// makes per-shard marking tasks race-free and their merged output one
// sorted set (see marking.h).
//
// Every batch runs on a plan: Marker::run and generate_rekey_payload_into
// take one, and their plain forms use ShardPlan::make(degree, 1), under
// which one shard owns every id (cut level 0) and the aggregator task has
// nothing to do.
//
// Determinism contract: sharding changes who computes what, never what is
// computed. The tree, payload and packets are bit-identical for every
// shard count and thread count.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "keytree/keytree.h"

namespace rekey::tree {

struct ShardPlan {
  // Sentinel shard index for nodes above the cut (aggregator-owned).
  static constexpr unsigned kAggregator = ~0u;

  unsigned degree = 4;
  unsigned shards = 1;          // power of two, >= 1
  unsigned cut_level = 0;       // smallest L with d^L >= shards
  NodeId first_cut_id = 0;      // first_id_at_level(cut_level, degree)
  std::uint64_t cut_roots = 1;  // d^cut_level

  // Builds the plan; `shards` must be a power of two in [1, 256].
  static ShardPlan make(unsigned degree, unsigned shards);

  // Owner of a node id: kAggregator above the cut, else the shard of the
  // id's cut-level ancestor. Cut subtrees map to shards in contiguous
  // blocks (cut root index r -> shard r * shards / cut_roots).
  unsigned shard_of(NodeId id) const;

  // Independent tasks per batch phase: one per shard plus the aggregator.
  unsigned task_count() const { return shards + 1; }
};

// Per-batch observability of the shard tasks (and the handle tests use to
// inspect the partition the merge consumed).
struct ShardBatchStats {
  // Changed k-nodes collected below the cut, per shard.
  std::vector<std::size_t> shard_changed;
  // Changed k-nodes at or above the cut (aggregator-owned).
  std::size_t aggregator_changed = 0;
  // Encryptions under each shard's changed k-nodes (aggregator entry
  // last).
  std::vector<std::size_t> shard_encryptions;
};

// Shard-aware invariant checks (the sharded counterpart of
// KeyTree::check_invariants): every id in shard s's set must be owned by
// s (no cross-shard NodeId leakage), and every id in the aggregator set
// must lie strictly above the cut (aggregator-only ownership of cut-level
// ancestors). Each set must be sorted and duplicate-free. Throws
// EnsureError on violation.
void check_shard_partition(const ShardPlan& plan,
                           std::span<const std::vector<NodeId>> shard_sets,
                           const std::vector<NodeId>& aggregator_set);

// Merge of pairwise-disjoint sorted id vectors into one sorted vector —
// the deterministic merge step of marking's per-shard path walks. The
// result is identical to concatenating and sort+unique-ing the inputs,
// but costs O(total * log(parts)); a single non-empty part is moved.
std::vector<NodeId> merge_disjoint_sorted(
    std::vector<std::vector<NodeId>> parts);

}  // namespace rekey::tree
