// Rekey subtree construction and encryption generation (paper §2.1, §2.2,
// Appendix B).
//
// The rekey subtree consists of the k-nodes whose keys changed in a batch,
// their direct children, and the connecting edges. For every edge
// (changed k-node x, child c) the server emits the encryption
// {newkey(x)}_{key(c)} — where key(c) is c's new key if c is itself a
// changed k-node, or c's (possibly brand-new) individual key if c is a
// u-node. The encryption's id is c's node id: each node's key encrypts at
// most one key per rekey message, so the id is unique and self-describing
// (the target is always the parent's key).
//
// Appendix-B labels (Unchanged / Join / Leave / Replace) are also computed:
// a changed k-node is labelled Join when the only changes beneath it are
// joins, Replace when some user beneath departed or was relocated by a
// split. They are diagnostic here (encryption generation does not depend on
// them) but are exercised by tests and by the analysis module.
//
// The payload containers are flat. User needs are stored per *frontier
// node*, not per user (see UserNeeds), so building them costs
// O(encryptions x depth) whatever the group size; labels are a sorted
// array parallel to the changed-k-node set.
//
// One generator fills a payload, on a ShardPlan and a TaskRunner
// (keytree/shard.h): the changed k-nodes' encryption blocks are counted
// and then filled by 2 x shards tasks, each over a contiguous range of
// blocks. Output positions are laid out between the two fan-outs, so the
// payload is byte-identical for every shard count, thread count and task
// order. The plain forms run one shard on an inline runner.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <span>
#include <utility>
#include <vector>

#include "common/ensure.h"
#include "crypto/keys.h"
#include "keytree/marking.h"

namespace rekey {
class TaskRunner;
}

namespace rekey::tree {

struct RekeyPayload;

// The generator (defined below); declared here so the flat payload
// containers can befriend it.
void generate_rekey_payload_into(const KeyTree& tree,
                                 const BatchUpdate& update,
                                 std::uint32_t msg_id, RekeyPayload& out,
                                 const ShardPlan& plan,
                                 rekey::TaskRunner& runner,
                                 ShardBatchStats* stats);

enum class Label : std::uint8_t { Join, Replace };

struct Encryption {
  NodeId enc_id = 0;     // id of the encrypting node (the child c)
  NodeId target_id = 0;  // id of the node whose new key is carried (parent)
  crypto::EncryptedKey payload;
};

// Which encryptions each user needs, stored per frontier node. A frontier
// node is the enc_id of an encryption that is not itself a changed k-node
// (an unchanged k-node or a u-node whose parent changed). Changed sets
// are upward-closed, so every user below a frontier node f needs the same
// encryptions: those with ids f, parent(f), ... up to the root's child —
// one needs list per frontier node serves them all.
//
// By Lemma 4.1 and invariant I4, users sit on at most two adjacent levels,
// so the users below f form at most two runs of consecutive user ids, one
// per level. The table keeps each run's first and last user, in ascending
// id order; the run ends come from leftmost/rightmost descents, not a
// scan. Storage and construction are O(encryptions x depth), independent
// of the group size.
class UserNeeds {
 public:
  using needs_span = std::span<const std::uint32_t>;

  // The users in [first, last] of one level, all below one frontier node.
  struct Run {
    NodeId first = 0;
    NodeId last = 0;
    std::uint32_t frontier = 0;  // index of the frontier node's needs list
  };

  // Runs in ascending id order. Two users adjacent in id order have equal
  // needs when they share a run.
  std::span<const Run> runs() const { return runs_; }
  std::size_t frontiers() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  // Indices into RekeyPayload::encryptions, bottom-up along the path.
  needs_span needs(const Run& run) const {
    return needs_span(indices_.data() + offsets_[run.frontier],
                      offsets_[run.frontier + 1] - offsets_[run.frontier]);
  }
  bool empty() const { return runs_.empty(); }
  void clear() {
    runs_.clear();
    offsets_.clear();
    indices_.clear();
  }

  // Needs of the user at slot `id`. Empty when no run covers the id: a
  // k-node, a level without users, an id past the last user. The table
  // knows runs, not members, so an absent slot between two users of one
  // run resolves to that run's needs.
  needs_span needs_of(NodeId id) const {
    const auto it = std::upper_bound(
        runs_.begin(), runs_.end(), id,
        [](NodeId v, const Run& r) { return v < r.first; });
    if (it == runs_.begin() || id > std::prev(it)->last) return {};
    return needs(*std::prev(it));
  }

 private:
  friend void generate_rekey_payload_into(const KeyTree&, const BatchUpdate&,
                                          std::uint32_t, RekeyPayload&,
                                          const ShardPlan&,
                                          rekey::TaskRunner&,
                                          ShardBatchStats*);

  // The frontier pass: one depth-first walk of the changed subtree.
  // enc_offset[k] is the first encryption of the k-th changed k-node in
  // descending id order (the generator's block order).
  void build(const KeyTree& tree, const BatchUpdate& update,
             std::span<const std::uint32_t> enc_offset);

  std::vector<Run> runs_;
  std::vector<std::uint32_t> offsets_;  // frontiers() + 1 entries
  std::vector<std::uint32_t> indices_;  // flat pool of encryption indices
};

// Appendix-B labels of the changed k-nodes: a sorted (node id, label)
// array parallel to BatchUpdate::changed_knodes.
class LabelMap {
 public:
  using value_type = std::pair<NodeId, Label>;
  using const_iterator = std::vector<value_type>::const_iterator;

  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  std::size_t count(NodeId id) const {
    return index_of(id) < entries_.size() ? 1 : 0;
  }
  Label at(NodeId id) const {
    const std::size_t i = index_of(id);
    REKEY_ENSURE_MSG(i < entries_.size(), "node has no label");
    return entries_[i].second;
  }

 private:
  friend void generate_rekey_payload_into(const KeyTree&, const BatchUpdate&,
                                          std::uint32_t, RekeyPayload&,
                                          const ShardPlan&,
                                          rekey::TaskRunner&,
                                          ShardBatchStats*);

  std::size_t index_of(NodeId id) const {
    const auto it = std::lower_bound(
        entries_.begin(), entries_.end(), id,
        [](const value_type& e, NodeId v) { return e.first < v; });
    if (it == entries_.end() || it->first != id) return entries_.size();
    return static_cast<std::size_t>(it - entries_.begin());
  }

  std::vector<value_type> entries_;  // sorted by node id
};

struct RekeyPayload {
  std::uint32_t msg_id = 0;
  unsigned degree = 4;
  NodeId max_kid = 0;
  // Bottom-up generation order (deepest subtrees first).
  std::vector<Encryption> encryptions;
  // For every current user: indices into `encryptions` it needs, ordered
  // bottom-up along its path, stored per frontier node. Empty when no
  // k-node changed.
  UserNeeds user_needs;
  // Appendix-B labels of the changed k-nodes.
  LabelMap labels;
};

// Generates the rekey message payload for a batch that was just applied to
// `tree` (whose keys are already the *new* keys). Clears and refills
// `out`, keeping its buffer capacity across batches. The encryption
// blocks are counted and filled as 2 x plan.shards tasks on `runner`.
// When `stats` is non-null its shard_encryptions vector is filled with
// the encryptions under each shard's changed k-nodes (entries [0, shards)
// per shard, entry [shards] for the aggregator).
void generate_rekey_payload_into(const KeyTree& tree,
                                 const BatchUpdate& update,
                                 std::uint32_t msg_id, RekeyPayload& out,
                                 const ShardPlan& plan,
                                 rekey::TaskRunner& runner,
                                 ShardBatchStats* stats = nullptr);

// The same payload on one shard with an inline runner.
void generate_rekey_payload_into(const KeyTree& tree,
                                 const BatchUpdate& update,
                                 std::uint32_t msg_id, RekeyPayload& out);
RekeyPayload generate_rekey_payload(const KeyTree& tree,
                                    const BatchUpdate& update,
                                    std::uint32_t msg_id);

}  // namespace rekey::tree
