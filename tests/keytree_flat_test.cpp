// Flat-arena KeyTree specifics: the dense/overflow split, snapshot and
// from_nodes round-trips that cross it, growth at batch boundaries, the
// resident memory of the lazily committed arena, copies, and the
// allocation-free hot-path accessors. Complements keytree_test.cpp
// (behavioral API) and keytree_differential_test.cpp (old-vs-new).
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/ensure.h"
#include "common/rng.h"
#include "keytree/ids.h"
#include "keytree/keytree.h"
#include "keytree/marking.h"
#include "keytree/rekey_subtree.h"
#include "keytree/snapshot.h"
#include "support/oracles.h"

// Global allocation counter for the no-allocation assertions. Counting
// operator new is enough: the accessors under test only ever allocate
// through std::vector. The replacements stay out of line: inlined, they
// would show the optimizer std::free applied to a pointer from operator
// new, which it flags as a mismatched deallocation.
namespace {
std::atomic<std::size_t> g_allocs{0};
}

[[gnu::noinline]] void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace rekey::tree {
namespace {

void expect_same_nodes(const std::map<NodeId, Node>& a,
                       const std::map<NodeId, Node>& b) {
  ASSERT_EQ(a.size(), b.size());
  auto ib = b.begin();
  for (const auto& [id, n] : a) {
    ASSERT_EQ(id, ib->first);
    EXPECT_EQ(n.kind, ib->second.kind) << "node " << id;
    EXPECT_EQ(n.key, ib->second.key) << "node " << id;
    if (n.kind == NodeKind::UNode) {
      EXPECT_EQ(n.member, ib->second.member) << "node " << id;
    }
    ++ib;
  }
}

// A tall degree-2 chain whose deepest nodes sit far past any reasonable
// dense capacity: k-nodes at 0, 1, 3, ..., 2^depth - 1 (each left child),
// with the two u-nodes under the deepest k-node. Satisfies I1-I4 (every
// k-node has a u-descendant through the chain; max k-node id < min u-node
// id; u-nodes lie in (nk, 2*nk + 2]). With only depth+3 nodes, rebalance
// keeps the dense arrays small, so the deep ids must live in overflow.
std::map<NodeId, Node> chain_tree_nodes(unsigned depth) {
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
  return nodes;
}

TEST(KeyTreeFlat, FromNodesPlacesDeepIdsInOverflow) {
  // depth 20 => deepest u-node id ~ 2^21, while ~23 nodes keep the dense
  // capacity at its 256 floor.
  const std::map<NodeId, Node> nodes = chain_tree_nodes(20);
  const KeyTree t = KeyTree::from_nodes(2, 11, nodes);
  t.check_invariants();
  EXPECT_EQ(t.num_nodes(), nodes.size());
  EXPECT_EQ(t.num_users(), 2u);
  EXPECT_LT(t.dense_capacity(), (NodeId{1} << 21));
  // Overflow ids iterate in order too.
  expect_same_nodes(test::nodes(t), nodes);
  // Point lookups cross the dense/overflow boundary transparently.
  const NodeId deep_u = nodes.rbegin()->first;
  EXPECT_TRUE(t.contains(deep_u));
  EXPECT_EQ(t.node(deep_u).member, 101u);
  EXPECT_EQ(t.slot_of(101), deep_u);
  EXPECT_EQ(t.max_knode_id().value(), (NodeId{1} << 20) - 1);
}

TEST(KeyTreeFlat, SnapshotRoundTripWithOverflowNodes) {
  const KeyTree t = KeyTree::from_nodes(2, 11, chain_tree_nodes(18));
  const Bytes blob = snapshot_sharded_tree(t, ShardPlan::make(2, 1));
  const auto restored = restore_sharded_tree(blob, 99);
  ASSERT_TRUE(restored.has_value());
  restored->check_invariants();
  expect_same_nodes(test::nodes(*restored), test::nodes(t));
  EXPECT_EQ(restored->degree(), t.degree());
  EXPECT_EQ(restored->group_key(), t.group_key());
}

TEST(KeyTreeFlat, SnapshotRoundTripAcrossDegrees) {
  for (const unsigned d : {2u, 4u, 8u}) {
    KeyTree t(d, 5 + d);
    t.populate(137);
    const auto restored = restore_sharded_tree(
        snapshot_sharded_tree(t, ShardPlan::make(d, 1)), 1);
    ASSERT_TRUE(restored.has_value()) << "degree " << d;
    restored->check_invariants();
    expect_same_nodes(test::nodes(*restored), test::nodes(t));
  }
}

TEST(KeyTreeFlat, FromNodesRoundTripAcrossDegrees) {
  for (const unsigned d : {2u, 4u, 8u}) {
    KeyTree t(d, 21);
    t.populate(200, /*first_member=*/1000);
    const KeyTree u = KeyTree::from_nodes(d, 22, test::nodes(t));
    u.check_invariants();
    expect_same_nodes(test::nodes(u), test::nodes(t));
    EXPECT_EQ(u.slot_of(1100), t.slot_of(1100)) << "degree " << d;
  }
}

TEST(KeyTreeFlat, DenseArenaGrowsWithBatchesAndMigratesOverflow) {
  KeyTree t(4, 3);
  t.populate(16);
  const std::size_t cap0 = t.dense_capacity();
  Marker m(t);
  std::vector<MemberId> joins;
  for (MemberId i = 16; i < 16 + 2000; ++i) joins.push_back(i);
  m.run(joins, {});
  t.check_invariants();
  EXPECT_EQ(t.num_users(), 2016u);
  // Rebalance at the batch boundary re-covers the grown tree densely.
  EXPECT_GT(t.dense_capacity(), cap0);
  EXPECT_GE(t.dense_capacity(), t.num_nodes());
  EXPECT_GT(t.arena_bytes(), 0u);
}

TEST(KeyTreeFlat, ChurnKeepsInvariantsAcrossDegrees) {
  for (const unsigned d : {2u, 4u, 8u}) {
    Rng rng(0xF1A7 + d);
    KeyTree t(d, d);
    t.populate(64);
    Marker m(t);
    MemberId next = 64;
    std::vector<MemberId> members;
    for (MemberId i = 0; i < 64; ++i) members.push_back(i);
    for (int batch = 0; batch < 30; ++batch) {
      const std::size_t L =
          static_cast<std::size_t>(rng.next_in(0, members.size() / 3));
      const std::size_t J = static_cast<std::size_t>(rng.next_in(0, 40));
      std::vector<MemberId> joins, leaves;
      for (const auto pick :
           rng.sample_without_replacement(members.size(), L))
        leaves.push_back(members[pick]);
      for (std::size_t i = 0; i < J; ++i) joins.push_back(next++);
      const BatchUpdate upd = m.run(joins, leaves);
      t.check_invariants();
      // The payload derives from a consistent changed set.
      const RekeyPayload p = generate_rekey_payload(t, upd, batch + 1);
      for (const auto& e : p.encryptions) EXPECT_TRUE(t.contains(e.enc_id));
      std::set<MemberId> gone(leaves.begin(), leaves.end());
      std::vector<MemberId> rest;
      for (const MemberId x : members)
        if (!gone.count(x)) rest.push_back(x);
      rest.insert(rest.end(), joins.begin(), joins.end());
      members = std::move(rest);
      ASSERT_EQ(t.num_users(), members.size()) << "degree " << d;
    }
  }
}

TEST(KeyTreeFlat, HotPathAccessorsDoNotAllocateAfterWarmup) {
  KeyTree t(4, 9);
  t.populate(4096);

  std::vector<std::pair<NodeId, crypto::SymmetricKey>> keys;
  std::vector<NodeId> slots;
  // Warm up the scratch capacity once.
  t.user_slots_into(slots);
  t.keys_for_slot_into(slots.front(), keys);

  const std::size_t before = g_allocs.load();
  for (int i = 0; i < 100; ++i) {
    t.user_slots_into(slots);
    t.keys_for_slot_into(slots[static_cast<std::size_t>(i) % slots.size()],
                         keys);
  }
  std::size_t count = 0;
  t.for_each_user_slot([&](NodeId) { ++count; });
  EXPECT_EQ(count, 4096u);
  EXPECT_EQ(g_allocs.load(), before)
      << "hot-path accessors allocated on a warmed-up dense tree";
}

// Resident bytes of this process.
double resident_mib() {
  std::ifstream statm("/proc/self/statm");
  double pages = 0, resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

TEST(KeyTreeFlat, ArenaCommitsOnlyTheIdsItWrites) {
  // A 2^18 + 512-member tree at d = 4 reserves 2.8 M dense ids (56 MiB at
  // 21 B each), but populate writes only its 350 k nodes, whose ids end at
  // 612 k. Those pages plus the 6.5 MiB member map come to about 14 MiB
  // resident; a value-initialized arena commits 63 MiB.
  KeyTree t(4, 1);
  const double before = resident_mib();
  t.populate((1u << 18) + 512);
  const double grown = resident_mib() - before;
  EXPECT_EQ(t.dense_capacity(), 2801704u);
  EXPECT_LT(grown, 24.0) << "populate committed " << grown << " MiB";
}

TEST(KeyTreeFlat, DenseCapacityFollowsTheSizingPolicy) {
  // dense_capacity() after populate(n) and after each of three churn
  // batches (1 + n/3 joins, a quarter as many leaves): it decides which
  // ids are dense and which overflow, so the arena's storage must leave
  // it exactly where the sizing policy put it. These are the values of
  // the value-initialized arena the zero-page one replaced.
  struct Case {
    unsigned d;
    std::size_t n;
    std::size_t caps[4];
  };
  const Case cases[] = {
      {2, 1, {256, 256, 256, 256}},
      {2, 100, {808, 1004, 1212, 1420}},
      {2, 5000, {40020, 50024, 60012, 70020}},
      {2, 30000, {240016, 300004, 360012, 420020}},
      {3, 1, {256, 256, 256, 256}},
      {3, 100, {918, 1146, 1368, 1602}},
      {3, 5000, {45018, 56256, 67518, 78774}},
      {3, 30000, {270030, 337542, 405018, 472524}},
      {4, 1, {256, 256, 256, 256}},
      {4, 100, {1080, 1352, 1624, 1896}},
      {4, 5000, {53360, 66704, 80032, 93368}},
      {4, 30000, {320024, 400032, 480024, 560032}},
      {8, 1, {256, 256, 256, 256}},
      {8, 100, {1856, 2320, 2784, 3264}},
      {8, 5000, {91472, 114336, 137200, 160064}},
      {8, 30000, {548592, 685744, 822896, 960064}},
  };
  for (const Case& c : cases) {
    KeyTree t(c.d, 3);
    t.populate(c.n);
    EXPECT_EQ(t.dense_capacity(), c.caps[0]) << c.d << " " << c.n;
    std::vector<MemberId> live;
    for (MemberId m = 0; m < c.n; ++m) live.push_back(m);
    MemberId next = static_cast<MemberId>(c.n);
    for (unsigned b = 0; b < 3; ++b) {
      std::vector<MemberId> joins, leaves;
      const std::size_t k = 1 + c.n / 3;
      for (std::size_t i = 0; i < k; ++i) joins.push_back(next++);
      for (std::size_t i = 0; i < k / 4 && live.size() > 1; ++i) {
        const std::size_t at = (i * 7919 + b * 31) % live.size();
        leaves.push_back(live[at]);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(at));
      }
      Marker(t).run(joins, leaves);
      live.insert(live.end(), joins.begin(), joins.end());
      EXPECT_EQ(t.dense_capacity(), c.caps[b + 1])
          << c.d << " " << c.n << " batch " << b;
    }
    // The Marker's bootstrap builds populate's tree, sized the same way.
    if (c.n <= 5000) {
      KeyTree boot(c.d, 3);
      std::vector<MemberId> joins;
      for (MemberId m = 0; m < c.n; ++m) joins.push_back(m);
      Marker(boot).run(joins, {});
      EXPECT_EQ(boot.dense_capacity(), c.caps[0]) << c.d << " " << c.n;
    }
  }
}

TEST(KeyTreeFlat, CopiesAreEqualAndIndependent) {
  KeyTree t = KeyTree::from_nodes(2, 11, chain_tree_nodes(18));
  Marker(t).run(std::vector<MemberId>{7, 8, 9}, std::vector<MemberId>{100});
  KeyTree grown(3, 4);
  grown.populate(900);
  // Leaves free slots whose stale key bytes a copy does not carry.
  Marker(grown).run(std::vector<MemberId>{2000, 2001},
                    std::vector<MemberId>{1, 2, 3, 500, 899});
  for (KeyTree* original : {&t, &grown}) {
    const KeyTree copy(*original);
    KeyTree assigned(4, 1);
    assigned.populate(40);
    assigned = *original;
    for (const KeyTree* c : {&copy, static_cast<const KeyTree*>(&assigned)}) {
      c->check_invariants();
      expect_same_nodes(test::nodes(*c), test::nodes(*original));
      EXPECT_EQ(c->dense_capacity(), original->dense_capacity());
      EXPECT_EQ(c->group_key(), original->group_key());
      for (const NodeId slot : original->user_slots()) {
        const MemberId m = original->node(slot).member;
        EXPECT_EQ(c->slot_of(m), slot);
      }
    }
    // A batch on the original leaves the copies as they were.
    const std::map<NodeId, Node> before = test::nodes(copy);
    Marker(*original).run(std::vector<MemberId>{5000, 5001, 5002},
                          std::vector<MemberId>{});
    expect_same_nodes(test::nodes(copy), before);
    expect_same_nodes(test::nodes(assigned), before);
  }
}

TEST(KeyTreeFlat, KeyOfMatchesNodeCopy) {
  KeyTree t(4, 13);
  t.populate(50);
  t.for_each_node([&](NodeId id, const Node& n) {
    EXPECT_EQ(t.key_of(id), n.key);
  });
  EXPECT_THROW(t.key_of(999999), EnsureError);
}

}  // namespace
}  // namespace rekey::tree
