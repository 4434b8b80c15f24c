// Key-tree snapshots.
//
// A key server must survive restarts without re-keying the whole group:
// the tree (structure + key material + member bindings) serializes to a
// self-describing byte blob and restores to an identical tree. Blobs are
// versioned and integrity-checked with a SHA-256 trailer; they contain
// raw key material, so at-rest encryption is the caller's responsibility
// (out of scope here, as in the paper).
#pragma once

#include <optional>
#include <span>

#include "common/bytes.h"
#include "keytree/keytree.h"
#include "keytree/shard.h"

namespace rekey::tree {

// Integrity trailer shared by every snapshot format: the SHA-256 of the
// body, in the blob's last 32 bytes. Every encoder sizes its blob
// exactly, writes the body in place and then calls snapshot_seal, which
// fills the trailer from the bytes before it. snapshot_open verifies and
// strips it, returning the body span (nullopt on truncation or any
// corruption). Exposed so higher-level snapshot formats (the wire
// layer's full-server snapshot embeds a tree snapshot) seal and check
// the same way instead of inventing a second trailer.
void snapshot_seal(std::span<std::uint8_t> blob);
std::optional<std::span<const std::uint8_t>> snapshot_open(const Bytes& blob);

// The tree snapshot (format v2): the degree, every node with its key and
// member binding, grouped into one section per shard plus an aggregator
// section, and the key generator's stream counter, so a restored server
// resumes the exact draw sequence — its next batch is bit-identical to an
// uninterrupted run's, even mid-epoch, whatever shard count either side
// runs. Restore validates that every node in a shard section is owned by
// that shard under the recorded plan; a corrupted shard boundary yields
// nullopt. A one-shard plan is the plain layout: one section in id order
// and an empty aggregator section.
//
// The encoder is one pass: it sizes the blob from the node count, writes
// each shard's section straight from the tree arena (at every level at
// or below the cut a shard owns one contiguous id range, so no node is
// copied or looked up twice), and seals in place.
Bytes snapshot_sharded_tree(const KeyTree& tree, const ShardPlan& plan);

// The same encoder for formats that embed a v2 blob (the full-server
// snapshot): the exact sealed size, and a writer that fills exactly that
// many bytes of `out` with what snapshot_sharded_tree returns.
std::size_t sharded_tree_size(const KeyTree& tree, const ShardPlan& plan);
void write_sharded_tree(const KeyTree& tree, const ShardPlan& plan,
                        std::span<std::uint8_t> out);

// Restore; nullopt when the blob is truncated, corrupt, or of another
// version (v1 included). `key_seed` must be the snapshotted tree's seed
// for the resumed stream to match. The decoder writes each record
// straight into a tree arena sized once from the blob length
// (KeyTree::from_records), checks each record's shard against its
// section (ShardPlan::shard_of), and checks I1-I4 once. Memory and time
// follow the node count; no node is copied into an intermediate
// container.
std::optional<KeyTree> restore_sharded_tree(const Bytes& blob,
                                            std::uint64_t key_seed,
                                            ShardPlan* plan_out = nullptr);

}  // namespace rekey::tree
