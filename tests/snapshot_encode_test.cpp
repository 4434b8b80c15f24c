// Differential and allocation tests for the one-pass snapshot encoders
// (keytree/snapshot.h, wire/server_snapshot.h, chunk_snapshot).
//
// The oracle is the straightforward encoder the formats were first
// written with: group every node by ShardPlan::shard_of into per-section
// vectors, append each field through a ByteWriter, append the digest,
// copy the tree blob into the server blob, copy each chunk into its own
// frame. It is slow (a node copy, a lookup walk and several reallocations
// per field) but obviously right, so the production encoder must
// reproduce its bytes exactly, on every degree, size, shard count and
// arena layout.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "keytree/marking.h"
#include "keytree/shard.h"
#include "keytree/snapshot.h"
#include "wire/control.h"
#include "wire/server_snapshot.h"

// Global allocation counter for the allocation bound.
namespace {
std::atomic<std::size_t> g_allocs{0};
}

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// These pair malloc with free. GCC does not see that through the inlined
// operator calls and would warn of a new/free mismatch.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace rekey {
namespace {

using tree::KeyTree;
using tree::MemberId;
using tree::Node;
using tree::NodeId;
using tree::NodeKind;
using tree::ShardPlan;

// ---------------------------------------------------------------------
// The oracle encoders.

void oracle_seal(Bytes& blob) {
  const auto digest = crypto::Sha256::hash(blob);
  blob.insert(blob.end(), digest.begin(), digest.end());
}

void oracle_node(ByteWriter& w, NodeId id, const Node& n) {
  w.put_u64(id);
  w.put_u8(static_cast<std::uint8_t>(n.kind));
  w.put_u32(n.kind == NodeKind::UNode ? n.member : 0);
  w.put_bytes(n.key.bytes);
}

Bytes oracle_sharded_tree(const KeyTree& tree, const ShardPlan& plan) {
  const unsigned S = plan.shards;
  std::vector<std::vector<std::pair<NodeId, Node>>> sections(S + 1);
  tree.for_each_node([&](NodeId id, const Node& n) {
    const unsigned s = plan.shard_of(id);
    sections[s == ShardPlan::kAggregator ? S : s].emplace_back(id, n);
  });
  ByteWriter w;
  w.put_u32(0x524B5453);
  w.put_u8(2);
  w.put_u8(static_cast<std::uint8_t>(tree.degree()));
  w.put_u32(S);
  w.put_u32(plan.cut_level);
  w.put_u64(tree.key_generator().counter());
  for (unsigned s = 0; s <= S; ++s) {
    w.put_u32(s);
    w.put_u32(static_cast<std::uint32_t>(sections[s].size()));
    for (const auto& [id, n] : sections[s]) oracle_node(w, id, n);
  }
  Bytes blob = std::move(w).take();
  oracle_seal(blob);
  return blob;
}

Bytes oracle_server(const wire::ServerSnapshot& snap) {
  ByteWriter w;
  w.put_u32(0x524B5353);
  w.put_u8(3);
  w.put_u32(snap.epoch);
  w.put_u32(snap.next_batch);
  w.put_u8(snap.session_version);
  w.put_u8(static_cast<std::uint8_t>(snap.degree));
  w.put_u32(snap.clients);
  w.put_u32(snap.churn_pool);
  w.put_u32(snap.batches);
  w.put_u32(snap.next_member);
  w.put_u32(static_cast<std::uint32_t>(snap.churn_members.size()));
  for (const MemberId m : snap.churn_members) w.put_u32(m);
  w.put_u32(static_cast<std::uint32_t>(snap.endpoints.size()));
  for (const wire::SnapshotEndpoint& e : snap.endpoints) {
    w.put_u64(e.ep_id);
    w.put_u32(e.first_uid);
    w.put_u32(e.count);
    w.put_u8(e.max_version);
    w.put_u8(e.dead ? 1 : 0);
  }
  w.put_u32(static_cast<std::uint32_t>(snap.rho.proactive_parities));
  w.put_u32(static_cast<std::uint32_t>(snap.rho.num_nack));
  for (const std::uint64_t s : snap.rho.rng) w.put_u64(s);
  w.put_u64(snap.tree_blob.size());
  w.put_bytes(snap.tree_blob);
  Bytes blob = std::move(w).take();
  oracle_seal(blob);
  return blob;
}

// Every SnapChunk frame of `blob`, serialized.
std::vector<Bytes> oracle_frames(std::uint32_t seq, const Bytes& blob,
                                 std::size_t max_payload) {
  const std::size_t chunk = std::min<std::size_t>(max_payload - 15, 0xFFFF);
  const std::size_t nparts =
      blob.empty() ? 1 : (blob.size() + chunk - 1) / chunk;
  std::vector<Bytes> out;
  for (std::size_t i = 0; i < nparts; ++i) {
    const std::size_t begin = i * chunk;
    const std::size_t end = std::min(blob.size(), begin + chunk);
    ByteWriter w;
    w.put_u8(static_cast<std::uint8_t>(wire::ControlOp::SnapChunk));
    w.put_u32(seq);
    w.put_u32(static_cast<std::uint32_t>(i));
    w.put_u32(static_cast<std::uint32_t>(nparts));
    w.put_u16(static_cast<std::uint16_t>(end - begin));
    w.put_bytes(std::span(blob).subspan(begin, end - begin));
    out.push_back(std::move(w).take());
  }
  return out;
}

// The in-place server encoder, into a fresh buffer.
Bytes server_in_place(const wire::ServerSnapshot& s, const KeyTree& t,
                      const ShardPlan& plan) {
  Bytes blob;
  wire::snapshot_server_into(s, t, plan, blob);
  return blob;
}

// ---------------------------------------------------------------------
// Trees.

// `members` populated, then `batches` churn batches of joins and leaves.
KeyTree churned(unsigned degree, std::uint32_t members, unsigned batches,
                std::uint64_t seed) {
  KeyTree t(degree, seed);
  t.populate(members);
  MemberId next = members;
  std::vector<MemberId> live;
  for (MemberId m = 0; m < members; ++m) live.push_back(m);
  for (unsigned b = 0; b < batches; ++b) {
    std::vector<MemberId> joins;
    std::vector<MemberId> leaves;
    const std::uint32_t n = 1 + members / 9;
    for (std::uint32_t i = 0; i < n; ++i) joins.push_back(next++);
    for (std::uint32_t i = 0; i < n / 2 + b && !live.empty(); ++i) {
      const std::size_t at = (i * 7919 + b * 31) % live.size();
      leaves.push_back(live[at]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    tree::Marker(t).run(joins, leaves);
    live.insert(live.end(), joins.begin(), joins.end());
  }
  return t;
}

// A tall degree-2 chain: ~25 nodes, ids out to 2^21, so the deep ids
// live in the arena's overflow map while the top stays dense.
KeyTree overflow_tree() {
  crypto::KeyGenerator gen(7);
  std::map<NodeId, Node> nodes;
  NodeId id = 0;
  for (unsigned lvl = 0; lvl <= 20; ++lvl) {
    Node k;
    k.kind = NodeKind::KNode;
    k.key = gen.next();
    nodes.emplace(id, k);
    if (lvl < 20) id = tree::child_of(id, 0, 2);
  }
  for (unsigned j = 0; j < 2; ++j) {
    Node u;
    u.kind = NodeKind::UNode;
    u.key = gen.next();
    u.member = 100 + j;
    nodes.emplace(tree::child_of(id, j, 2), u);
  }
  return KeyTree::from_nodes(2, 11, nodes);
}

std::uint32_t power(unsigned d, unsigned k) {
  std::uint32_t p = 1;
  for (unsigned i = 0; i < k; ++i) p *= d;
  return p;
}

constexpr unsigned kShardCounts[] = {1, 2, 4, 8, 64};

void expect_tree_encoders_match(const KeyTree& t, const std::string& what) {
  for (const unsigned S : kShardCounts) {
    const ShardPlan plan = ShardPlan::make(t.degree(), S);
    const Bytes blob = tree::snapshot_sharded_tree(t, plan);
    ASSERT_EQ(blob, oracle_sharded_tree(t, plan)) << what << " S=" << S;
    EXPECT_EQ(blob.size(), tree::sharded_tree_size(t, plan));
  }
}

wire::ServerSnapshot sample_server(std::uint32_t clients) {
  wire::ServerSnapshot s;
  s.epoch = 4;
  s.next_batch = 2;
  s.session_version = wire::kWireV1;
  s.degree = 3;
  s.clients = clients;
  s.churn_pool = 40;
  s.batches = 6;
  s.next_member = clients + 77;
  s.churn_members = {clients + 1, clients + 5, clients + 76};
  for (std::uint32_t e = 0; e < 5; ++e)
    s.endpoints.push_back(wire::SnapshotEndpoint{
        1000 + e, e * (clients / 5), clients / 5, wire::kWireV2, e == 3});
  s.rho.proactive_parities = 3;
  s.rho.num_nack = 1;
  s.rho.rng = {11, 22, 33, 44};
  return s;
}

// ---------------------------------------------------------------------

TEST(SnapshotEncode, TreeBlobsMatchTheOracleAcrossDegreesSizesAndShards) {
  for (const unsigned d : {2u, 3u, 4u, 8u}) {
    // On a power of d (one full level), one either side of it, and an
    // odd size; each fresh and after churn.
    const std::uint32_t full = power(d, d == 2 ? 10 : d == 8 ? 4 : 6);
    for (const std::uint32_t n : {full, full - 1, full + 1, 3 * full / 5}) {
      for (const unsigned batches : {0u, 3u}) {
        const KeyTree t = churned(d, n, batches, 0xC0DE + d + n);
        expect_tree_encoders_match(t, "d=" + std::to_string(d) +
                                          " n=" + std::to_string(n) +
                                          " batches=" +
                                          std::to_string(batches));
      }
    }
  }
}

TEST(SnapshotEncode, EdgeTreesMatchTheOracle) {
  for (const unsigned d : {2u, 3u, 4u, 8u}) {
    expect_tree_encoders_match(KeyTree(d, 5), "empty d=" + std::to_string(d));
    expect_tree_encoders_match(churned(d, 1, 0, 6),
                               "one member d=" + std::to_string(d));
    expect_tree_encoders_match(churned(d, 2, 2, 7),
                               "tiny churned d=" + std::to_string(d));
  }
  const KeyTree deep = overflow_tree();
  ASSERT_LT(deep.dense_capacity(), NodeId{1} << 21);  // deep ids overflow
  expect_tree_encoders_match(deep, "overflow");
}

TEST(SnapshotEncode, ServerBlobsMatchTheOracleCopiedOrWrittenInPlace) {
  for (const unsigned S : kShardCounts) {
    const KeyTree t = churned(3, 1500, 2, 0xBEEF + S);
    const ShardPlan plan = ShardPlan::make(3, S);
    wire::ServerSnapshot s = sample_server(1400);
    const Bytes in_place = server_in_place(s, t, plan);
    s.tree_blob = oracle_sharded_tree(t, plan);
    const Bytes expected = oracle_server(s);
    EXPECT_EQ(in_place, expected) << "S=" << S;
    EXPECT_EQ(wire::snapshot_server(s), expected) << "S=" << S;
  }
  // No churn list, no endpoints, an empty tree.
  wire::ServerSnapshot bare;
  bare.clients = 1;
  const KeyTree empty(4, 1);
  const ShardPlan one = ShardPlan::make(4, 1);
  const Bytes in_place = server_in_place(bare, empty, one);
  bare.tree_blob = oracle_sharded_tree(empty, one);
  EXPECT_EQ(in_place, oracle_server(bare));
}

TEST(SnapshotEncode, ReusedServerBufferHoldsTheSameBytes) {
  // The primary writes every batch's snapshot into the buffer it kept
  // from the last one: a write that fits allocates nothing, and no stale
  // byte of a longer earlier snapshot survives.
  const KeyTree large = churned(4, 9000, 1, 6);
  const KeyTree small = churned(4, 3000, 2, 5);
  const ShardPlan plan = ShardPlan::make(4, 1);
  const wire::ServerSnapshot s = sample_server(900);
  Bytes buf;
  wire::snapshot_server_into(s, large, plan, buf);
  EXPECT_EQ(buf, server_in_place(s, large, plan));
  std::size_t before = g_allocs.load();
  wire::snapshot_server_into(s, small, plan, buf);
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(buf, server_in_place(s, small, plan));
  before = g_allocs.load();
  wire::snapshot_server_into(s, large, plan, buf);
  EXPECT_EQ(g_allocs.load() - before, 0u);
  EXPECT_EQ(buf, server_in_place(s, large, plan));
}

TEST(SnapshotEncode, ChunkFramesMatchTheOracle) {
  const KeyTree t = churned(4, 300, 1, 21);
  const Bytes blob = tree::snapshot_sharded_tree(t, ShardPlan::make(4, 2));
  const Bytes empty;
  const Bytes small(40, 0x5A);
  for (const Bytes* b : {&blob, &empty, &small}) {
    for (const std::size_t max_payload : {16ul, 17ul, 100ul, 1471ul}) {
      const std::vector<Bytes> expected = oracle_frames(9, *b, max_payload);
      const auto chunks = wire::chunk_snapshot(9, *b, max_payload);
      ASSERT_EQ(chunks.size(), expected.size()) << max_payload;
      for (std::size_t i = 0; i < chunks.size(); ++i) {
        const auto frame = wire::serialize(chunks[i]);
        ASSERT_TRUE(frame.has_value());
        ASSERT_EQ(*frame, expected[i]) << max_payload << " part " << i;
        const auto parsed = wire::parse_snap_chunk(*frame);
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(parsed->part, i);
        EXPECT_TRUE(std::ranges::equal(parsed->bytes, chunks[i].bytes));
      }
    }
  }
}

TEST(SnapshotEncode, AllocatesOneBlobNotOnePerNode) {
  const KeyTree t = churned(4, 20000, 2, 99);
  const ShardPlan plan = ShardPlan::make(4, 8);

  std::size_t before = g_allocs.load();
  const Bytes oracle = oracle_sharded_tree(t, plan);
  const std::size_t oracle_allocs = g_allocs.load() - before;
  EXPECT_GT(oracle_allocs, 40u);  // the counter sees the oracle's growth

  before = g_allocs.load();
  const Bytes tree_blob = tree::snapshot_sharded_tree(t, plan);
  EXPECT_EQ(g_allocs.load() - before, 1u);
  EXPECT_EQ(tree_blob, oracle);

  const wire::ServerSnapshot s = sample_server(900);
  before = g_allocs.load();
  const Bytes blob = server_in_place(s, t, plan);
  EXPECT_EQ(g_allocs.load() - before, 1u);

  before = g_allocs.load();
  const auto chunks = wire::chunk_snapshot(1, blob, 1471);
  EXPECT_EQ(g_allocs.load() - before, 1u);
  EXPECT_GT(chunks.size(), 100u);
}

}  // namespace
}  // namespace rekey
