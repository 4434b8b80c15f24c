// Sharded rekey-payload generation (the batch pipeline's middle stage).
//
// The serial generator (keytree/rekey_subtree.h) already writes to fixed,
// precomputed output offsets; this variant re-partitions the same work by
// shard ownership: every changed k-node's encryption block is counted and
// filled by the task owning its shard (aggregator nodes by the aggregator
// task). The offsets are laid out serially between the fan-outs, and the
// user needs come from the serial generator's frontier pass, so the
// resulting RekeyPayload is byte-identical to the serial generator's for
// every shard count, thread count, and task execution order — the
// determinism contract sharding must keep.
//
// Encryption-id disjointness across shards holds by construction (an
// encryption id is the encrypting child's node id, each child has one
// parent, and node-id ownership is a partition); check_enc_id_disjointness
// verifies it, so per-shard outputs can be merged — and later parsed on
// the wire — without any shard tag or id-space offset.
#pragma once

#include "common/parallel.h"
#include "keytree/rekey_subtree.h"
#include "keytree/shard.h"

namespace rekey::tree {

// Fills `out` exactly as generate_rekey_payload_into(tree, update, msg_id,
// out) would, using one task per shard (plus the aggregator) on `runner`.
// When `stats` is non-null its shard_encryptions vector is filled
// (entries [0, shards) per shard, entry [shards] for the aggregator).
void generate_rekey_payload_sharded(const KeyTree& tree,
                                    const BatchUpdate& update,
                                    std::uint32_t msg_id, RekeyPayload& out,
                                    const ShardPlan& plan,
                                    rekey::TaskRunner& runner,
                                    ShardBatchStats* stats = nullptr);

// Verifies that the payload's encryption ids are globally unique and that
// each id has a well-defined owning shard under `plan` — the property the
// transport layer relies on to keep (msg_id, enc_id) nonces and wire
// entries collision-free when shards' outputs are interleaved. Throws
// EnsureError on violation.
void check_enc_id_disjointness(const RekeyPayload& payload,
                               const ShardPlan& plan);

}  // namespace rekey::tree
