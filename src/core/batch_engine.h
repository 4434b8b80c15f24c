// BatchEngine — the key server's batch pipeline (paper §1), written once:
// marking, the rekey-subtree encryptions under the caller's message id,
// then UKA packing. GroupKeyService and KeyServerDaemon (primary and
// promoted standby alike) run every batch here. The engine owns the key
// tree, its ShardPlan and its worker pool, records the keyserver.*
// metrics, and snapshots and restores the tree in the sharded v2 format.
// Its output is bit-identical for every shard and worker count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "common/bytes.h"
#include "common/parallel.h"
#include "keytree/rekey_subtree.h"
#include "packet/assign.h"

namespace rekey::core {

class BatchEngine {
 public:
  // `shards`: a power of two in [1, 256], 0 counting as 1. `workers`: 1
  // runs the shard tasks inline, 0 picks default_thread_count().
  BatchEngine(unsigned degree, std::uint64_t key_seed, unsigned shards = 1,
              unsigned workers = 1);

  // `payload` is the engine's buffer, valid until the next run().
  struct Batch {
    tree::BatchUpdate update;
    const tree::RekeyPayload& payload;
    packet::Assignment assignment;
  };
  // One batch: marking, the encryptions under `msg_id`, then UKA into
  // `packet_size`-byte ENC packets (`wide`: 32-bit slot ids).
  Batch run(std::span<const tree::MemberId> joins,
            std::span<const tree::MemberId> leaves, std::uint32_t msg_id,
            std::size_t packet_size, bool wide = false);

  // The initial group: members first, first + 1, ..., first + n - 1.
  void populate(std::size_t n, tree::MemberId first) {
    tree_.populate(n, first);
  }
  const tree::KeyTree& tree() const { return tree_; }
  const tree::ShardPlan& plan() const { return plan_; }

  Bytes snapshot() const;
  // Swaps in the tree `blob` holds. False, with the engine unchanged, when
  // the blob does not restore under this key seed, holds a tree of another
  // degree, or fails `accept`.
  bool restore(const Bytes& blob,
               const std::function<bool(const tree::KeyTree&)>& accept = {});

 private:
  std::uint64_t key_seed_;
  tree::KeyTree tree_;
  tree::ShardPlan plan_;
  std::unique_ptr<ThreadPool> pool_;  // null with one worker
  tree::RekeyPayload payload_;
};

}  // namespace rekey::core
