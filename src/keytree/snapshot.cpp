#include "keytree/snapshot.h"

#include <algorithm>
#include <utility>

#include "common/byte_cursor.h"
#include "common/ensure.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace rekey::tree {

namespace {

constexpr std::uint32_t kTreeMagic = 0x524B5453;  // "RKTS"
// Tree format v2: per-shard node sections + the keygen counter. v1 (one
// node list, no counter) is no longer read: a tree restored from it
// re-drew keys from counter 0.
constexpr std::uint8_t kTreeVersion = 2;

constexpr std::size_t kDigestSize = crypto::Sha256::kDigestSize;
// magic, version, degree, shards, cut level, keygen counter.
constexpr std::size_t kShardedHeaderSize = 4 + 1 + 1 + 4 + 4 + 8;
// section index, node count.
constexpr std::size_t kSectionHeaderSize = 4 + 4;
// id, kind, member (0 for a k-node), key.
constexpr std::size_t kNodeRecordSize = 8 + 1 + 4 + crypto::SymmetricKey::kSize;

// Writes the record of every node in [lo, hi), ascending; returns how
// many it wrote.
std::uint32_t put_nodes(ByteCursor& w, const KeyTree& tree, NodeId lo,
                        NodeId hi) {
  std::uint32_t count = 0;
  tree.for_each_node_in(lo, hi, [&](NodeId id, const Node& n) {
    w.put_u64(id);
    w.put_u8(static_cast<std::uint8_t>(n.kind));
    w.put_u32(n.kind == NodeKind::UNode ? n.member : 0);
    w.put_bytes(n.key.bytes);
    ++count;
  });
  return count;
}

// Reads one node record through a view of its bytes, so nothing is
// allocated per node. Throws EnsureError on truncation or an unknown kind.
std::pair<NodeId, Node> get_node(ByteReader& r) {
  const std::uint8_t* p = r.get_span(kNodeRecordSize).data();
  const auto be = [p](std::size_t at, std::size_t width) {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) v = v << 8 | p[at + i];
    return v;
  };
  REKEY_ENSURE_MSG(p[8] <= static_cast<std::uint8_t>(NodeKind::UNode),
                   "unknown node kind");
  Node n;
  n.kind = static_cast<NodeKind>(p[8]);
  n.member = static_cast<MemberId>(be(9, 4));
  std::copy_n(p + 13, crypto::SymmetricKey::kSize, n.key.bytes.begin());
  return {be(0, 8), n};
}

// Every body ends exactly where its sizing said the trailer begins.
void seal_at(std::span<std::uint8_t> blob, const ByteCursor& w) {
  REKEY_ENSURE_MSG(w.pos() == blob.data() + blob.size() - kDigestSize,
                   "snapshot body does not match its computed size");
  snapshot_seal(blob);
}

}  // namespace

void snapshot_seal(std::span<std::uint8_t> blob) {
  REKEY_ENSURE(blob.size() >= kDigestSize);
  const std::size_t body_len = blob.size() - kDigestSize;
  const auto digest = crypto::Sha256::hash(blob.first(body_len));
  std::copy(digest.begin(), digest.end(), blob.begin() + body_len);
}

std::optional<std::span<const std::uint8_t>> snapshot_open(const Bytes& blob) {
  if (blob.size() < kDigestSize) return std::nullopt;
  const std::size_t body_len = blob.size() - kDigestSize;
  const std::span<const std::uint8_t> body(blob.data(), body_len);
  const auto digest = crypto::Sha256::hash(body);
  if (!crypto::tags_equal(digest,
                          std::span(blob.data() + body_len, kDigestSize)))
    return std::nullopt;
  return body;
}

std::size_t sharded_tree_size(const KeyTree& tree, const ShardPlan& plan) {
  return kShardedHeaderSize + (plan.shards + 1) * kSectionHeaderSize +
         tree.num_nodes() * kNodeRecordSize + kDigestSize;
}

// A replicated primary writes every node through here before each
// batch, so it starts on a cache line of its own: where the linker
// happens to place it cannot move the snapshot's timing.
[[gnu::aligned(64)]] void write_sharded_tree(const KeyTree& tree,
                                             const ShardPlan& plan,
                                             std::span<std::uint8_t> out) {
  REKEY_ENSURE_MSG(tree.degree() == plan.degree,
                   "shard plan degree does not match the tree");
  REKEY_ENSURE_MSG(out.size() == sharded_tree_size(tree, plan),
                   "v2 snapshot buffer has the wrong size");
  const unsigned S = plan.shards;
  ByteCursor w(out.data());
  w.put_u32(kTreeMagic);
  w.put_u8(kTreeVersion);
  w.put_u8(static_cast<std::uint8_t>(tree.degree()));
  w.put_u32(S);
  w.put_u32(plan.cut_level);
  w.put_u64(tree.key_generator().counter());
  // Sections [0, S) hold each shard's subtree nodes, section S the
  // aggregator's top-of-tree nodes, each in ascending id order. Shard s
  // owns the cut roots r with r * S / cut_roots == s, i.e. the run
  // [ceil(s * C / S), ceil((s + 1) * C / S)) with C = cut_roots; at a
  // level `depth` below the cut their descendants are one contiguous id
  // range, d^depth ids per root. So a shard's section is one range per
  // level, written straight from the arena.
  const unsigned height = tree.height();
  const std::uint64_t C = plan.cut_roots;
  std::uint32_t written = 0;
  for (unsigned s = 0; s <= S; ++s) {
    w.put_u32(s);
    std::uint8_t* const count_at = w.pos();
    w.put_u32(0);  // patched once the section is written
    std::uint32_t count = 0;
    if (s == S) {
      count = put_nodes(w, tree, 0, plan.first_cut_id);
    } else {
      const std::uint64_t r_lo = (s * C + S - 1) / S;
      const std::uint64_t r_hi = ((s + 1) * C + S - 1) / S;
      NodeId first = plan.first_cut_id;  // first id of the level
      std::uint64_t width = 1;           // ids per cut root at the level
      for (unsigned level = plan.cut_level; level <= height; ++level) {
        count += put_nodes(w, tree, first + r_lo * width,
                           first + r_hi * width);
        first = first * plan.degree + 1;
        width *= plan.degree;
      }
    }
    ByteCursor(count_at).put_u32(count);
    written += count;
  }
  REKEY_ENSURE_MSG(written == tree.num_nodes(),
                   "v2 snapshot sections do not cover the tree");
  seal_at(out, w);
}

Bytes snapshot_sharded_tree(const KeyTree& tree, const ShardPlan& plan) {
  Bytes blob(sharded_tree_size(tree, plan));
  write_sharded_tree(tree, plan, blob);
  return blob;
}

std::optional<KeyTree> restore_sharded_tree(const Bytes& blob,
                                            std::uint64_t key_seed,
                                            ShardPlan* plan_out) {
  const auto body = snapshot_open(blob);
  if (!body) return std::nullopt;
  try {
    ByteReader r(*body);
    if (r.get_u32() != kTreeMagic) return std::nullopt;
    if (r.get_u8() != kTreeVersion) return std::nullopt;
    const unsigned degree = r.get_u8();
    const std::uint32_t shards = r.get_u32();
    const std::uint32_t cut_level = r.get_u32();
    const std::uint64_t counter = r.get_u64();
    if (degree < 2 || shards < 1 || shards > 256 ||
        (shards & (shards - 1)) != 0)
      return std::nullopt;
    const ShardPlan plan = ShardPlan::make(degree, shards);
    if (plan.cut_level != cut_level) return std::nullopt;

    // Records are fixed-size, so the body length gives the node count the
    // arena is sized for; section counts that disagree with it fail the
    // read below (truncation or trailing bytes).
    const std::size_t headers = (shards + 1) * kSectionHeaderSize;
    const std::size_t records =
        r.remaining() > headers ? (r.remaining() - headers) / kNodeRecordSize
                                : 0;
    KeyTree tree =
        KeyTree::from_records(degree, key_seed, records, [&](auto&& put) {
          for (std::uint32_t s = 0; s <= shards; ++s) {
            REKEY_ENSURE_MSG(r.get_u32() == s, "v2 section out of order");
            const std::uint32_t count = r.get_u32();
            const unsigned owner = s == shards ? ShardPlan::kAggregator : s;
            for (std::uint32_t i = 0; i < count; ++i) {
              const auto [id, n] = get_node(r);
              // A node filed under the wrong shard (or a below-cut node in
              // the aggregator section) means the shard boundary is
              // corrupt.
              REKEY_ENSURE_MSG(plan.shard_of(id) == owner,
                               "node in another shard's section");
              put(id, n);
            }
          }
          REKEY_ENSURE_MSG(r.remaining() == 0, "bytes after the v2 sections");
        });
    // Resume the draw stream exactly where the snapshotted server left
    // it: the next batch's keys match an uninterrupted run bit for bit.
    tree.key_generator().set_counter(counter);
    if (plan_out != nullptr) *plan_out = plan;
    return tree;
  } catch (const EnsureError&) {
    return std::nullopt;
  }
}

}  // namespace rekey::tree
