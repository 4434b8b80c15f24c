// Differential and allocation tests for the tree snapshot decoder
// (keytree/snapshot.h), which writes each record straight into the tree
// arena.
//
// The oracle is the decoder the format was first read with: parse every
// record into a std::map<NodeId, Node>, test each record's owner with
// ShardPlan::shard_of, rebuild through KeyTree::from_nodes and finish
// with check_sharded_tree. It is slow (a map node and a key copy per
// record, a walk to the cut per record, the invariants twice) but
// obviously right, so the production decoder must accept and reject
// exactly the blobs it does and rebuild the same trees, on every degree,
// shard count and arena layout, and on hostile blobs too. Both rebuild
// through KeyTree::from_records, so each hostile edit is also held to the
// verdict the format gives it: a defect in that shared step cannot pass
// by making both decoders agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <map>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/ensure.h"
#include "common/rng.h"
#include "keytree/marking.h"
#include "keytree/shard.h"
#include "keytree/snapshot.h"
#include "support/oracles.h"

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

namespace rekey::tree {
namespace {

constexpr std::uint32_t kTreeMagic = 0x524B5453;

// ---------------------------------------------------------------------
// The oracle decoder.

Node oracle_node(ByteReader& r, bool& ok) {
  Node n;
  n.kind = static_cast<NodeKind>(r.get_u8());
  ok = n.kind == NodeKind::KNode || n.kind == NodeKind::UNode;
  n.member = r.get_u32();
  const Bytes key = r.get_bytes(crypto::SymmetricKey::kSize);
  std::copy(key.begin(), key.end(), n.key.bytes.begin());
  return n;
}

std::optional<KeyTree> oracle_restore_sharded(const Bytes& blob,
                                              std::uint64_t key_seed,
                                              ShardPlan* plan_out) {
  const auto body = snapshot_open(blob);
  if (!body) return std::nullopt;
  try {
    ByteReader r(*body);
    if (r.get_u32() != kTreeMagic) return std::nullopt;
    if (r.get_u8() != 2) return std::nullopt;
    const unsigned degree = r.get_u8();
    const std::uint32_t shards = r.get_u32();
    const std::uint32_t cut_level = r.get_u32();
    const std::uint64_t counter = r.get_u64();
    if (degree < 2 || shards < 1 || shards > 256 ||
        (shards & (shards - 1)) != 0)
      return std::nullopt;
    const ShardPlan plan = ShardPlan::make(degree, shards);
    if (plan.cut_level != cut_level) return std::nullopt;
    std::map<NodeId, Node> nodes;
    for (std::uint32_t s = 0; s <= shards; ++s) {
      if (r.get_u32() != s) return std::nullopt;
      const std::uint32_t count = r.get_u32();
      for (std::uint32_t i = 0; i < count; ++i) {
        const NodeId id = r.get_u64();
        const unsigned own = plan.shard_of(id);
        if (s == shards ? own != ShardPlan::kAggregator : own != s)
          return std::nullopt;
        bool ok = false;
        const Node n = oracle_node(r, ok);
        if (!ok || !nodes.emplace(id, n).second) return std::nullopt;
      }
    }
    if (r.remaining() != 0) return std::nullopt;
    KeyTree tree = KeyTree::from_nodes(degree, key_seed, nodes);
    tree.key_generator().set_counter(counter);
    test::check_sharded_tree(tree, plan);
    if (plan_out != nullptr) *plan_out = plan;
    return tree;
  } catch (const EnsureError&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------
// Comparison.

void expect_same_tree(const KeyTree& got, const KeyTree& want,
                      const std::string& what) {
  ASSERT_EQ(got.degree(), want.degree()) << what;
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << what;
  EXPECT_EQ(got.num_users(), want.num_users()) << what;
  EXPECT_EQ(got.key_generator().counter(), want.key_generator().counter())
      << what;
  const std::map<NodeId, Node> a = test::nodes(got);
  const std::map<NodeId, Node> b = test::nodes(want);
  ASSERT_EQ(a.size(), b.size()) << what;
  auto ib = b.begin();
  for (const auto& [id, n] : a) {
    ASSERT_EQ(id, ib->first) << what;
    ASSERT_EQ(n.kind, ib->second.kind) << what << " node " << id;
    ASSERT_EQ(n.key, ib->second.key) << what << " node " << id;
    if (n.kind == NodeKind::UNode) {
      ASSERT_EQ(n.member, ib->second.member) << what << " node " << id;
      ASSERT_EQ(got.slot_of(n.member), want.slot_of(n.member)) << what;
      ASSERT_EQ(got.slot_of(n.member), id) << what;
    }
    ++ib;
  }
}

// Both decoders on one v2 blob: the same verdict, and on acceptance the
// same tree and plan. Returns the production decoder's verdict.
bool expect_decoders_agree(const Bytes& blob, const std::string& what) {
  ShardPlan got_plan, want_plan;
  const auto got = restore_sharded_tree(blob, 77, &got_plan);
  const auto want = oracle_restore_sharded(blob, 77, &want_plan);
  EXPECT_EQ(got.has_value(), want.has_value()) << what;
  if (!got || !want) return got.has_value();
  expect_same_tree(*got, *want, what);
  // The same arena layout: which ids are dense and which overflow.
  EXPECT_EQ(got->dense_capacity(), want->dense_capacity()) << what;
  EXPECT_EQ(got_plan.shards, want_plan.shards) << what;
  EXPECT_EQ(got_plan.cut_level, want_plan.cut_level) << what;
  EXPECT_EQ(got_plan.first_cut_id, want_plan.first_cut_id) << what;
  return true;
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
    const std::uint32_t n = 1 + members / 7;
    for (std::uint32_t i = 0; i < n + b; ++i) joins.push_back(next++);
    for (std::uint32_t i = 0; i < n / 2 + 3 * b && live.size() > 1; ++i) {
      const std::size_t at = (i * 7919 + b * 31) % live.size();
      leaves.push_back(live[at]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
    }
    Marker(t).run(joins, leaves);
    live.insert(live.end(), joins.begin(), joins.end());
  }
  return t;
}

// A tall degree-2 chain whose deepest ids lie far past the dense range.
KeyTree overflow_tree(unsigned depth) {
  crypto::KeyGenerator gen(7);
  std::map<NodeId, Node> nodes;
  NodeId id = 0;
  for (unsigned lvl = 0; lvl <= depth; ++lvl) {
    Node k;
    k.kind = NodeKind::KNode;
    k.key = gen.next();
    nodes.emplace(id, k);
    if (lvl < depth) id = child_of(id, 0, 2);
  }
  for (unsigned j = 0; j < 2; ++j) {
    Node u;
    u.kind = NodeKind::UNode;
    u.key = gen.next();
    u.member = 100 + j;
    nodes.emplace(child_of(id, j, 2), u);
  }
  return KeyTree::from_nodes(2, 11, nodes);
}

constexpr unsigned kShardCounts[] = {1, 2, 8, 64};

// ---------------------------------------------------------------------
// A v2 blob taken apart into editable records, and put back together.

struct Record {
  NodeId id = 0;
  std::uint8_t kind = 0;
  MemberId member = 0;
  crypto::SymmetricKey key;
};

struct Section {
  std::uint32_t index = 0;
  std::uint32_t count = 0;  // as written; build() keeps it unless told
  std::vector<Record> records;
};

struct V2 {
  std::uint8_t degree = 0;
  std::uint32_t shards = 0, cut_level = 0;
  std::uint64_t counter = 0;
  std::vector<Section> sections;
};

V2 parse(const Bytes& blob) {
  const auto body = snapshot_open(blob);
  REKEY_ENSURE(body.has_value());
  ByteReader r(*body);
  V2 v;
  REKEY_ENSURE(r.get_u32() == kTreeMagic && r.get_u8() == 2);
  v.degree = r.get_u8();
  v.shards = r.get_u32();
  v.cut_level = r.get_u32();
  v.counter = r.get_u64();
  for (std::uint32_t s = 0; s <= v.shards; ++s) {
    Section sec;
    sec.index = r.get_u32();
    sec.count = r.get_u32();
    for (std::uint32_t i = 0; i < sec.count; ++i) {
      Record rec;
      rec.id = r.get_u64();
      rec.kind = r.get_u8();
      rec.member = r.get_u32();
      const Bytes key = r.get_bytes(crypto::SymmetricKey::kSize);
      std::copy(key.begin(), key.end(), rec.key.bytes.begin());
      sec.records.push_back(rec);
    }
    v.sections.push_back(std::move(sec));
  }
  REKEY_ENSURE(r.remaining() == 0);
  return v;
}

// Serializes and seals `v`; each section's count is its record count
// unless `keep_counts` writes the (edited) count field as it stands.
Bytes build(const V2& v, bool keep_counts = false) {
  ByteWriter w;
  w.put_u32(kTreeMagic);
  w.put_u8(2);
  w.put_u8(v.degree);
  w.put_u32(v.shards);
  w.put_u32(v.cut_level);
  w.put_u64(v.counter);
  for (const Section& sec : v.sections) {
    w.put_u32(sec.index);
    w.put_u32(keep_counts ? sec.count
                          : static_cast<std::uint32_t>(sec.records.size()));
    for (const Record& rec : sec.records) {
      w.put_u64(rec.id);
      w.put_u8(rec.kind);
      w.put_u32(rec.member);
      w.put_bytes(rec.key.bytes);
    }
  }
  Bytes blob = std::move(w).take();
  blob.resize(blob.size() + crypto::Sha256::kDigestSize);
  snapshot_seal(blob);
  return blob;
}

// The first section with a record, or nullptr.
Section* first_nonempty(V2& v) {
  for (Section& sec : v.sections)
    if (!sec.records.empty()) return &sec;
  return nullptr;
}

Record* first_unode(Section& sec) {
  for (Record& rec : sec.records)
    if (rec.kind == static_cast<std::uint8_t>(NodeKind::UNode)) return &rec;
  return nullptr;
}

// Every hostile edit of one valid blob, each checked against the oracle
// and against its verdict: only reordered records, members on k-nodes and
// another counter leave a valid blob. The trees given here hold at least
// 2 u-nodes, and the first section holds the shallowest of its nodes
// first, a k-node with children.
constexpr bool kAccept = true, kReject = false;

void run_hostile_edits(const Bytes& valid, std::uint64_t seed,
                       const std::string& what) {
  Rng rng(seed);
  const auto check = [&](const Bytes& blob, const std::string& edit,
                         bool verdict) {
    EXPECT_EQ(expect_decoders_agree(blob, what + " " + edit), verdict)
        << what << " " << edit;
  };
  const V2 base = parse(valid);

  {  // Records shuffled within every section: still a valid blob.
    V2 v = base;
    for (Section& sec : v.sections)
      for (std::size_t i = sec.records.size(); i > 1; --i)
        std::swap(sec.records[i - 1],
                  sec.records[static_cast<std::size_t>(rng.next_in(0, i - 1))]);
    check(build(v), "shuffled", kAccept);
  }
  {  // Every section reversed.
    V2 v = base;
    for (Section& sec : v.sections)
      std::reverse(sec.records.begin(), sec.records.end());
    check(build(v), "reversed", kAccept);
  }
  {  // A duplicate id inside a section.
    V2 v = base;
    if (Section* sec = first_nonempty(v)) {
      sec->records.push_back(sec->records.front());
      check(build(v), "duplicate id", kReject);
    }
  }
  {  // A duplicate id across the first and last non-empty sections.
    V2 v = base;
    Section* first = first_nonempty(v);
    Section* last = nullptr;
    for (Section& sec : v.sections)
      if (!sec.records.empty()) last = &sec;
    if (first != nullptr && last != first) {
      last->records.push_back(first->records.back());
      check(build(v), "duplicate id across sections", kReject);
    }
  }
  // Wrong section indices: one off, and two sections swapped.
  for (std::size_t s = 0; s < base.sections.size(); ++s) {
    V2 v = base;
    v.sections[s].index += 1;
    check(build(v), "index+1 at section " + std::to_string(s), kReject);
  }
  if (base.sections.size() >= 3) {
    V2 v = base;
    std::swap(v.sections[0].index, v.sections[1].index);
    check(build(v), "indices swapped", kReject);
    V2 w = base;
    std::swap(w.sections[0].records, w.sections[1].records);
    check(build(w), "contents swapped", kReject);
  }
  {  // A record moved to the next section, and into the aggregator's.
    V2 v = base;
    Section* sec = first_nonempty(v);
    if (sec != nullptr && sec != &v.sections.back()) {
      Section& next = *(sec + 1);
      next.records.insert(next.records.begin(), sec->records.back());
      sec->records.pop_back();
      check(build(v), "record moved to the next section", kReject);
    }
    V2 w = base;
    sec = first_nonempty(w);
    if (sec != nullptr && sec != &w.sections.back()) {
      w.sections.back().records.push_back(sec->records.back());
      sec->records.pop_back();
      check(build(w), "record moved to the aggregator", kReject);
    }
  }
  // Wrong kinds: an unknown kind, and a u-node read as a k-node.
  for (const std::uint8_t kind : {std::uint8_t{2}, std::uint8_t{255}}) {
    V2 v = base;
    if (Section* sec = first_nonempty(v)) {
      sec->records.back().kind = kind;
      check(build(v), "kind " + std::to_string(kind), kReject);
    }
  }
  {
    V2 v = base;
    Section* sec = first_nonempty(v);
    Record* u = sec != nullptr ? first_unode(*sec) : nullptr;
    if (u != nullptr) {
      u->kind = static_cast<std::uint8_t>(NodeKind::KNode);
      check(build(v), "u-node as k-node", kReject);
    }
  }
  {  // A member repeated: the first u-node's, given to the last one
     // (in another section whenever the tree spans two).
    V2 v = base;
    std::vector<Record*> unodes;
    for (Section& sec : v.sections)
      for (Record& rec : sec.records)
        if (rec.kind == static_cast<std::uint8_t>(NodeKind::UNode))
          unodes.push_back(&rec);
    if (unodes.size() >= 2) {
      unodes.back()->member = unodes.front()->member;
      check(build(v), "member repeated", kReject);
    }
  }
  {  // A k-node record carrying a member: ignored by both.
    V2 v = base;
    for (Section& sec : v.sections)
      for (Record& rec : sec.records)
        if (rec.kind == static_cast<std::uint8_t>(NodeKind::KNode))
          rec.member = 0xABCD;
    check(build(v), "k-node members", kAccept);
  }
  {  // One record dropped, and an orphan id far below the tree added.
    V2 v = base;
    if (Section* sec = first_nonempty(v)) {
      sec->records.erase(sec->records.begin());
      check(build(v), "record dropped", kReject);
    }
    V2 w = base;
    Record orphan;
    orphan.id = NodeId{1} << 45;
    orphan.kind = static_cast<std::uint8_t>(NodeKind::UNode);
    orphan.member = 0xFFFFFF;
    w.sections.front().records.push_back(orphan);
    check(build(w), "orphan 2^45", kReject);
  }
  {  // Counts that disagree with the records: truncation, trailing bytes.
    V2 v = base;
    v.sections.front().count = static_cast<std::uint32_t>(
        v.sections.front().records.size() + 1);
    check(build(v, true), "count+1", kReject);
    if (!v.sections.back().records.empty()) {
      V2 w = base;
      w.sections.back().count -= 1;
      check(build(w, true), "count-1", kReject);
    }
  }
  {  // Another counter: accepted, resumed from the new value.
    V2 v = base;
    v.counter += 12345;
    check(build(v), "counter", kAccept);
  }
  {  // A header that disagrees with the plan.
    V2 v = base;
    v.cut_level += 1;
    check(build(v), "cut level", kReject);
    V2 w = base;
    w.shards = 3;
    check(build(w), "3 shards", kReject);
  }
}

// ---------------------------------------------------------------------

TEST(SnapshotRestore, ChurnedTreesMatchTheOracleAcrossDegreesAndShards) {
  for (const unsigned d : {2u, 3u, 4u, 8u}) {
    for (const std::uint32_t n : {700u, 2000u}) {
      const KeyTree t = churned(d, n, 3, 0xD1FF + d + n);
      for (const unsigned S : kShardCounts) {
        const std::string what = "d=" + std::to_string(d) +
                                  " n=" + std::to_string(n) +
                                  " S=" + std::to_string(S);
        const Bytes blob = snapshot_sharded_tree(t, ShardPlan::make(d, S));
        ASSERT_TRUE(expect_decoders_agree(blob, what));
        const auto restored = restore_sharded_tree(blob, 77);
        expect_same_tree(*restored, t, what + " vs the original");
      }
    }
  }
}

TEST(SnapshotRestore, EdgeTreesMatchTheOracle) {
  for (const unsigned d : {2u, 3u, 4u, 8u}) {
    for (const unsigned S : kShardCounts) {
      const ShardPlan plan = ShardPlan::make(d, S);
      const std::string what =
          " d=" + std::to_string(d) + " S=" + std::to_string(S);
      EXPECT_TRUE(expect_decoders_agree(
          snapshot_sharded_tree(KeyTree(d, 5), plan), "empty" + what));
      EXPECT_TRUE(expect_decoders_agree(
          snapshot_sharded_tree(churned(d, 1, 0, 6), plan),
          "one member" + what));
    }
  }
  const KeyTree deep = overflow_tree(20);
  ASSERT_LT(deep.dense_capacity(), NodeId{1} << 21);  // deep ids overflow
  for (const unsigned S : kShardCounts) {
    const Bytes blob = snapshot_sharded_tree(deep, ShardPlan::make(2, S));
    ASSERT_TRUE(expect_decoders_agree(blob, "overflow S=" +
                                                std::to_string(S)));
    expect_same_tree(*restore_sharded_tree(blob, 77), deep, "overflow");
  }
}

TEST(SnapshotRestore, HostileBlobsGetTheOraclesVerdict) {
  for (const unsigned d : {2u, 3u, 4u, 8u}) {
    const KeyTree t = churned(d, 300, 2, 0xBAD + d);
    for (const unsigned S : kShardCounts) {
      const Bytes blob = snapshot_sharded_tree(t, ShardPlan::make(d, S));
      run_hostile_edits(blob, 0x5EED + d * 100 + S,
                        "d=" + std::to_string(d) + " S=" + std::to_string(S));
    }
  }
  for (const unsigned S : kShardCounts)
    run_hostile_edits(
        snapshot_sharded_tree(overflow_tree(20), ShardPlan::make(2, S)), S,
        "overflow S=" + std::to_string(S));
}

TEST(SnapshotRestore, AllocationsDoNotGrowWithTheNodeCount) {
  const ShardPlan plan = ShardPlan::make(4, 8);
  const Bytes small = snapshot_sharded_tree(churned(4, 2000, 2, 1), plan);
  const Bytes large = snapshot_sharded_tree(churned(4, 40000, 2, 1), plan);

  std::size_t before = g_allocs.load();
  ASSERT_TRUE(oracle_restore_sharded(large, 1, nullptr).has_value());
  const std::size_t oracle_allocs = g_allocs.load() - before;
  EXPECT_GT(oracle_allocs, 40000u);  // the counter sees the oracle's map

  before = g_allocs.load();
  ASSERT_TRUE(restore_sharded_tree(small, 1).has_value());
  const std::size_t small_allocs = g_allocs.load() - before;
  before = g_allocs.load();
  ASSERT_TRUE(restore_sharded_tree(large, 1).has_value());
  const std::size_t large_allocs = g_allocs.load() - before;
  EXPECT_EQ(large_allocs, small_allocs);
  EXPECT_LE(large_allocs, 8u);
}

}  // namespace
}  // namespace rekey::tree
