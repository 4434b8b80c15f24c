// Sharded key-tree tests: the ShardPlan ownership arithmetic, the
// deterministic merge and its partition checks, task-completion-order
// independence (via TaskRunner's adversarial permutation hook), sharded
// snapshot round-trips (mid-epoch, counter-exact, across the dense/
// overflow arena boundary), and the corrupted-shard-boundary regression.
// The pipeline's equivalence to the legacy reference at every shard count
// lives in keytree_differential_test.cpp.
#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/ensure.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "keytree/ids.h"
#include "keytree/keytree.h"
#include "keytree/marking.h"
#include "keytree/rekey_subtree.h"
#include "keytree/shard.h"
#include "keytree/snapshot.h"
#include "packet/assign.h"
#include "support/oracles.h"

namespace rekey::tree {
namespace {

// ---------------------------------------------------------------------------
// ShardPlan arithmetic
// ---------------------------------------------------------------------------

TEST(ShardPlan, SingleShardOwnsEverything) {
  const ShardPlan p = ShardPlan::make(4, 1);
  EXPECT_EQ(p.cut_level, 0u);
  EXPECT_EQ(p.first_cut_id, 0u);
  EXPECT_EQ(p.cut_roots, 1u);
  EXPECT_EQ(p.shard_of(kRootId), 0u);
  EXPECT_EQ(p.shard_of(123456), 0u);
  EXPECT_EQ(p.task_count(), 2u);
}

TEST(ShardPlan, CutLevelIsSmallestCovering) {
  EXPECT_EQ(ShardPlan::make(4, 2).cut_level, 1u);
  EXPECT_EQ(ShardPlan::make(4, 4).cut_level, 1u);
  EXPECT_EQ(ShardPlan::make(4, 8).cut_level, 2u);
  EXPECT_EQ(ShardPlan::make(4, 16).cut_level, 2u);
  EXPECT_EQ(ShardPlan::make(4, 32).cut_level, 3u);
  EXPECT_EQ(ShardPlan::make(2, 8).cut_level, 3u);
  EXPECT_EQ(ShardPlan::make(8, 64).cut_level, 2u);
  EXPECT_EQ(ShardPlan::make(8, 256).cut_level, 3u);
  // Each shard owns at least one cut subtree.
  for (const unsigned d : {2u, 4u, 8u})
    for (unsigned s = 1; s <= 256; s *= 2)
      EXPECT_GE(ShardPlan::make(d, s).cut_roots, s) << d << "/" << s;
}

TEST(ShardPlan, AggregatorAboveCutContiguousBlocksBelow) {
  // degree 4, 4 shards: cut at level 1, roots 1..4 map one-to-one.
  const ShardPlan p4 = ShardPlan::make(4, 4);
  EXPECT_EQ(p4.first_cut_id, 1u);
  EXPECT_EQ(p4.shard_of(kRootId), ShardPlan::kAggregator);
  for (unsigned r = 0; r < 4; ++r) EXPECT_EQ(p4.shard_of(1 + r), r);

  // degree 4, 2 shards: 4 cut roots split into two contiguous blocks.
  const ShardPlan p2 = ShardPlan::make(4, 2);
  EXPECT_EQ(p2.shard_of(1), 0u);
  EXPECT_EQ(p2.shard_of(2), 0u);
  EXPECT_EQ(p2.shard_of(3), 1u);
  EXPECT_EQ(p2.shard_of(4), 1u);

  // degree 4, 8 shards: cut at level 2 (16 roots), ids 1..4 are
  // aggregator-owned along with the root.
  const ShardPlan p8 = ShardPlan::make(4, 8);
  EXPECT_EQ(p8.cut_level, 2u);
  for (NodeId id = 0; id < p8.first_cut_id; ++id)
    EXPECT_EQ(p8.shard_of(id), ShardPlan::kAggregator) << "id " << id;
  // Block ownership over the cut roots is monotone non-decreasing and
  // covers every shard.
  unsigned prev = 0;
  std::vector<bool> seen(8, false);
  for (std::uint64_t r = 0; r < p8.cut_roots; ++r) {
    const unsigned s = p8.shard_of(p8.first_cut_id + r);
    ASSERT_LT(s, 8u);
    EXPECT_GE(s, prev);
    prev = s;
    seen[s] = true;
  }
  for (unsigned s = 0; s < 8; ++s) EXPECT_TRUE(seen[s]) << "shard " << s;
}

TEST(ShardPlan, DescendantsInheritTheCutAncestorsShard) {
  for (const unsigned d : {2u, 4u, 8u}) {
    const ShardPlan p = ShardPlan::make(d, 8);
    Rng rng(0x5A11 + d);
    for (int i = 0; i < 2000; ++i) {
      const NodeId id = rng.next_in(p.first_cut_id, 4'000'000);
      NodeId a = id;
      while (level_of(a, d) > p.cut_level) a = parent_of(a, d);
      EXPECT_EQ(p.shard_of(id), p.shard_of(a)) << "id " << id;
      // Children stay with their parent's shard below the cut.
      EXPECT_EQ(p.shard_of(child_of(id, 0, d)), p.shard_of(id));
    }
  }
}

TEST(ShardPlan, RejectsBadParameters) {
  EXPECT_THROW(ShardPlan::make(4, 0), EnsureError);
  EXPECT_THROW(ShardPlan::make(4, 3), EnsureError);
  EXPECT_THROW(ShardPlan::make(4, 6), EnsureError);
  EXPECT_THROW(ShardPlan::make(4, 512), EnsureError);
  EXPECT_THROW(ShardPlan::make(1, 2), EnsureError);
}

// ---------------------------------------------------------------------------
// Deterministic merge and partition checks
// ---------------------------------------------------------------------------

TEST(MergeDisjointSorted, MatchesGlobalSortAcrossPartitions) {
  Rng rng(0x4E12);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.next_in(0, 500));
    std::vector<NodeId> all;
    NodeId next = 0;
    for (std::size_t i = 0; i < n; ++i)
      all.push_back(next += 1 + rng.next_in(0, 9));
    const std::size_t parts_n = 1 + static_cast<std::size_t>(rng.next_in(0, 8));
    std::vector<std::vector<NodeId>> parts(parts_n);
    for (const NodeId id : all)
      parts[static_cast<std::size_t>(rng.next_in(0, parts_n - 1))]
          .push_back(id);
    // Empty parts anywhere (an idle shard, the one-shard aggregator) are
    // one more input.
    const std::size_t empties = static_cast<std::size_t>(rng.next_in(0, 3));
    for (std::size_t e = 0; e < empties; ++e)
      parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(
                                       rng.next_in(0, parts.size())),
                   std::vector<NodeId>{});
    EXPECT_EQ(merge_disjoint_sorted(std::move(parts)), all) << trial;
  }
  EXPECT_TRUE(merge_disjoint_sorted({}).empty());
  EXPECT_TRUE(merge_disjoint_sorted({{}, {}, {}}).empty());
  EXPECT_EQ(merge_disjoint_sorted({{7, 9}}), (std::vector<NodeId>{7, 9}));
  EXPECT_EQ(merge_disjoint_sorted({{}, {7, 9}}), (std::vector<NodeId>{7, 9}));
  EXPECT_EQ(merge_disjoint_sorted({{}, {2, 8}, {}, {5}, {}}),
            (std::vector<NodeId>{2, 5, 8}));
}

TEST(CheckShardPartition, AcceptsAValidPartition) {
  const ShardPlan p = ShardPlan::make(4, 4);
  std::vector<std::vector<NodeId>> sets(4);
  for (unsigned s = 0; s < 4; ++s) {
    const NodeId root = 1 + s;
    sets[s] = {root, child_of(root, 0, 4), child_of(root, 3, 4)};
    std::sort(sets[s].begin(), sets[s].end());
  }
  const std::vector<NodeId> agg = {kRootId};
  EXPECT_NO_THROW(check_shard_partition(p, sets, agg));
}

TEST(CheckShardPartition, RejectsCrossShardLeakage) {
  const ShardPlan p = ShardPlan::make(4, 4);
  std::vector<std::vector<NodeId>> sets(4);
  sets[0] = {2};  // cut root 2 belongs to shard 1
  EXPECT_THROW(check_shard_partition(p, sets, {}), EnsureError);
}

TEST(CheckShardPartition, RejectsBelowCutIdInAggregator) {
  const ShardPlan p = ShardPlan::make(4, 4);
  const std::vector<std::vector<NodeId>> sets(4);
  // Aggregator may only hold ids strictly above the cut (id < 1 here).
  EXPECT_THROW(check_shard_partition(p, sets, {1}), EnsureError);
}

TEST(CheckShardPartition, RejectsUnsortedOrDuplicateSets) {
  const ShardPlan p = ShardPlan::make(4, 4);
  std::vector<std::vector<NodeId>> sets(4);
  sets[1] = {child_of(2, 1, 4), 2};  // both shard 1, but out of order
  EXPECT_THROW(check_shard_partition(p, sets, {}), EnsureError);
  sets[1] = {2, 2};
  EXPECT_THROW(check_shard_partition(p, sets, {}), EnsureError);
  sets[1].clear();
  EXPECT_THROW(check_shard_partition(p, sets, {kRootId, kRootId}),
               EnsureError);
  // Wrong number of shard sets.
  const std::vector<std::vector<NodeId>> three(3);
  EXPECT_THROW(check_shard_partition(p, three, {}), EnsureError);
}

TEST(CheckEncIdDisjointness, PassesRealPayloadsAndCatchesDuplicates) {
  Rng rng(0xE4C);
  KeyTree t(4, rng.next_u64());
  t.populate(256);
  std::vector<MemberId> leaves;
  for (const auto pick : rng.sample_without_replacement(256, 48))
    leaves.push_back(static_cast<MemberId>(pick));
  Marker m(t);
  const BatchUpdate upd = m.run({}, leaves);
  RekeyPayload payload;
  generate_rekey_payload_into(t, upd, 1, payload);
  const ShardPlan plan = ShardPlan::make(4, 8);
  ASSERT_FALSE(payload.encryptions.empty());
  EXPECT_NO_THROW(test::check_enc_id_disjointness(payload, plan));

  // Two encryptions under one id would collide on the wire (the (msg_id,
  // enc_id) nonce and the per-user entry lookup both assume uniqueness).
  payload.encryptions.back().enc_id = payload.encryptions.front().enc_id;
  EXPECT_THROW(test::check_enc_id_disjointness(payload, plan), EnsureError);
}

// ---------------------------------------------------------------------------
// Task-completion-order independence. TaskRunner's permutation hook runs
// the per-shard tasks inline in a seeded adversarial shuffle; because the
// merge is deterministic and every task owns its output slots, every
// completion order must yield byte-identical payloads and packet flushes.
// ---------------------------------------------------------------------------

struct BatchArtifacts {
  std::map<NodeId, Node> nodes;
  std::uint64_t counter = 0;
  std::vector<Bytes> packet_wires;  // serialized ENC packets, flush order
  std::vector<Encryption> encryptions;
};

// Replays a fixed churn script through the pipeline on `plan` under
// `runner`, recording every batch's tree bytes, draw counter, encryption
// sequence, and serialized packet flush.
std::vector<BatchArtifacts> replay_sharded(const ShardPlan& plan,
                                           rekey::TaskRunner& runner,
                                           std::uint64_t seed) {
  Rng rng(seed);
  KeyTree t(plan.degree, seed);
  Marker marker(t);
  MemberId next_member = 0;
  std::vector<MemberId> population;
  std::vector<BatchArtifacts> out;
  RekeyPayload payload;

  for (int batch = 0; batch < 12; ++batch) {
    std::vector<MemberId> joins, leaves;
    if (batch == 0) {
      for (int i = 0; i < 200; ++i) joins.push_back(next_member++);
    } else {
      const std::size_t n = population.size();
      const std::size_t L =
          static_cast<std::size_t>(rng.next_in(0, n / 3));
      const std::size_t J = static_cast<std::size_t>(rng.next_in(0, 60));
      for (const auto pick : rng.sample_without_replacement(n, L))
        leaves.push_back(population[pick]);
      for (std::size_t i = 0; i < J; ++i) joins.push_back(next_member++);
    }

    ShardBatchStats stats;  // non-null => check_shard_partition runs too
    const BatchUpdate upd = marker.run(joins, leaves, plan, runner, &stats);
    generate_rekey_payload_into(t, upd, batch + 1, payload, plan, runner);
    const packet::Assignment asn = packet::assign_keys(payload, 1027);

    BatchArtifacts a;
    a.nodes = test::nodes(t);
    a.counter = t.key_generator().counter();
    a.encryptions = payload.encryptions;
    for (const packet::EncPacket& pkt : asn.packets)
      a.packet_wires.push_back(pkt.serialize(1027));
    out.push_back(std::move(a));

    std::set<MemberId> gone(leaves.begin(), leaves.end());
    std::vector<MemberId> next;
    for (const MemberId m : population)
      if (!gone.count(m)) next.push_back(m);
    next.insert(next.end(), joins.begin(), joins.end());
    population = std::move(next);
  }
  return out;
}

void expect_artifacts_equal(const std::vector<BatchArtifacts>& a,
                            const std::vector<BatchArtifacts>& b,
                            std::uint64_t pseed) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].counter, b[i].counter)
        << "draw counter, batch " << i << ", permutation seed " << pseed;
    ASSERT_EQ(a[i].nodes.size(), b[i].nodes.size())
        << "batch " << i << ", permutation seed " << pseed;
    auto ib = b[i].nodes.begin();
    for (const auto& [id, n] : a[i].nodes) {
      ASSERT_EQ(id, ib->first) << "batch " << i << ", seed " << pseed;
      ASSERT_EQ(n.kind, ib->second.kind) << "node " << id;
      ASSERT_EQ(n.key, ib->second.key)
          << "key of node " << id << ", batch " << i << ", seed " << pseed;
      ++ib;
    }
    ASSERT_EQ(a[i].encryptions.size(), b[i].encryptions.size())
        << "batch " << i << ", seed " << pseed;
    for (std::size_t e = 0; e < a[i].encryptions.size(); ++e) {
      ASSERT_EQ(a[i].encryptions[e].enc_id, b[i].encryptions[e].enc_id)
          << "batch " << i << ", position " << e << ", seed " << pseed;
      ASSERT_EQ(a[i].encryptions[e].payload, b[i].encryptions[e].payload)
          << "batch " << i << ", position " << e << ", seed " << pseed;
    }
    ASSERT_EQ(a[i].packet_wires, b[i].packet_wires)
        << "packet flush bytes, batch " << i << ", permutation seed "
        << pseed;
  }
}

TEST(ShardedPermutation, AdversarialTaskOrderIsByteIdentical) {
  const ShardPlan plan = ShardPlan::make(4, 8);
  rekey::TaskRunner inline_runner(nullptr);
  const auto reference = replay_sharded(plan, inline_runner, 0x9E41);

  for (const std::uint64_t pseed : {1ull, 2ull, 0xDEADull, 0xBEEFull}) {
    rekey::TaskRunner permuted(nullptr);
    permuted.set_permutation_seed(pseed);
    const auto got = replay_sharded(plan, permuted, 0x9E41);
    expect_artifacts_equal(reference, got, pseed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(ShardedPermutation, OrderIndependenceAcrossShardCounts) {
  for (const unsigned shards : {2u, 4u}) {
    const ShardPlan plan = ShardPlan::make(4, shards);
    rekey::TaskRunner inline_runner(nullptr);
    const auto reference = replay_sharded(plan, inline_runner, 0x9E42);
    rekey::TaskRunner permuted(nullptr);
    permuted.set_permutation_seed(0xA5A5);
    expect_artifacts_equal(reference, replay_sharded(plan, permuted, 0x9E42),
                           0xA5A5);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// UKA over the payload of eight shards on a pool against the plain call's,
// beyond the differential's shapes.
// ---------------------------------------------------------------------------

TEST(ShardedAssign, MatchesSerialAcrossPacketSizes) {
  Rng rng(0xA551);
  KeyTree t(4, rng.next_u64());
  t.populate(1024);
  std::vector<MemberId> leaves;
  for (const auto pick : rng.sample_without_replacement(1024, 256))
    leaves.push_back(static_cast<MemberId>(pick));
  std::vector<MemberId> joins;
  for (int j = 0; j < 64; ++j) joins.push_back(1024 + j);
  Marker m(t);
  const BatchUpdate upd = m.run(joins, leaves);

  const ShardPlan plan = ShardPlan::make(4, 8);
  rekey::ThreadPool pool(8);
  rekey::TaskRunner runner(&pool);
  RekeyPayload plain_payload, sharded_payload;
  generate_rekey_payload_into(t, upd, 3, plain_payload);
  generate_rekey_payload_into(t, upd, 3, sharded_payload, plan, runner);
  for (const std::size_t size : {200u, 500u, 1027u}) {
    const packet::Assignment plain = packet::assign_keys(plain_payload, size);
    const packet::Assignment sharded =
        packet::assign_keys(sharded_payload, size);
    ASSERT_EQ(plain.packets.size(), sharded.packets.size()) << size;
    for (std::size_t p = 0; p < plain.packets.size(); ++p)
      ASSERT_EQ(plain.packets[p].serialize(size),
                sharded.packets[p].serialize(size))
          << "packet " << p << " at size " << size;
    EXPECT_EQ(plain.total_entries, sharded.total_entries);
    EXPECT_EQ(plain.unique_encryptions, sharded.unique_encryptions);
  }

  // An empty batch on eight shards assigns no packets.
  const BatchUpdate none = m.run({}, {});
  generate_rekey_payload_into(t, none, 4, sharded_payload, plan, runner);
  EXPECT_TRUE(packet::assign_keys(sharded_payload, 1027).packets.empty());
}

// ---------------------------------------------------------------------------
// Sharded snapshots: mid-epoch round-trip, counter-exact resume, the
// dense/overflow arena boundary, and the corrupted-boundary regression.
// ---------------------------------------------------------------------------

// Runs `batches` batches on `t` under `plan`, returning the last payload's
// encryption bytes (the probe the resume tests compare).
std::vector<Encryption> run_batches(KeyTree& t, const ShardPlan& plan,
                                    rekey::TaskRunner& runner,
                                    MemberId& next_member, int batches,
                                    std::uint32_t first_msg) {
  Marker marker(t);
  RekeyPayload payload;
  for (int b = 0; b < batches; ++b) {
    std::vector<MemberId> joins, leaves;
    if (t.empty()) {
      for (int i = 0; i < 128; ++i) joins.push_back(next_member++);
    } else {
      const std::vector<NodeId> slots = t.user_slots();
      for (std::size_t i = 0; i < slots.size(); i += 7)
        leaves.push_back(t.node(slots[i]).member);
      for (std::size_t i = 0; i < 11; ++i) joins.push_back(next_member++);
    }
    const BatchUpdate upd = marker.run(joins, leaves, plan, runner);
    generate_rekey_payload_into(t, upd, first_msg + b, payload, plan, runner);
  }
  return payload.encryptions;
}

TEST(ShardedSnapshot, MidEpochRoundTripResumesTheExactDrawStream) {
  const std::uint64_t seed = 0x54A9;
  const ShardPlan plan = ShardPlan::make(4, 8);
  rekey::TaskRunner runner(nullptr);

  KeyTree t(4, seed);
  MemberId next_member = 0;
  run_batches(t, plan, runner, next_member, 3, 1);
  EXPECT_GT(t.key_generator().counter(), 0u);  // genuinely mid-epoch

  const Bytes blob = snapshot_sharded_tree(t, plan);
  ShardPlan plan_out = ShardPlan::make(2, 1);
  auto restored = restore_sharded_tree(blob, seed, &plan_out);
  ASSERT_TRUE(restored.has_value());
  restored->check_invariants();
  EXPECT_EQ(plan_out.degree, plan.degree);
  EXPECT_EQ(plan_out.shards, plan.shards);
  EXPECT_EQ(plan_out.cut_level, plan.cut_level);
  EXPECT_EQ(restored->key_generator().counter(), t.key_generator().counter());
  {
    const std::map<NodeId, Node> a = test::nodes(t);
    const std::map<NodeId, Node> b = test::nodes(*restored);
    ASSERT_EQ(a.size(), b.size());
    auto ib = b.begin();
    for (const auto& [id, n] : a) {
      ASSERT_EQ(id, ib->first);
      ASSERT_EQ(n.kind, ib->second.kind) << "node " << id;
      ASSERT_EQ(n.key, ib->second.key) << "node " << id;
      ++ib;
    }
  }

  // The next batch on the restored tree must be bit-identical to the
  // uninterrupted continuation — same members join, same keys drawn.
  MemberId next_restored = next_member;
  const auto cont = run_batches(t, plan, runner, next_member, 2, 10);
  const auto resumed =
      run_batches(*restored, plan, runner, next_restored, 2, 10);
  ASSERT_EQ(cont.size(), resumed.size());
  for (std::size_t i = 0; i < cont.size(); ++i) {
    ASSERT_EQ(cont[i].enc_id, resumed[i].enc_id) << "position " << i;
    ASSERT_EQ(cont[i].payload, resumed[i].payload) << "position " << i;
  }
}

TEST(ShardedSnapshot, SerialPipelineAlsoResumesExactly) {
  // A v2 snapshot taken on two shards resumes under the plain calls (one
  // shard, inline) too: the counter does not depend on the plan.
  const std::uint64_t seed = 0x54AA;
  const ShardPlan plan = ShardPlan::make(4, 2);
  rekey::TaskRunner runner(nullptr);
  KeyTree t(4, seed);
  MemberId next_member = 0;
  run_batches(t, plan, runner, next_member, 2, 1);

  const Bytes blob = snapshot_sharded_tree(t, plan);
  auto restored = restore_sharded_tree(blob, seed);
  ASSERT_TRUE(restored.has_value());

  std::vector<MemberId> joins{next_member, next_member + 1};
  const MemberId leave = t.node(t.user_slots()[3]).member;
  Marker ma(t), mb(*restored);
  const BatchUpdate ua = ma.run(joins, std::vector<MemberId>{leave});
  const BatchUpdate ub = mb.run(joins, std::vector<MemberId>{leave});
  EXPECT_TRUE(ua.changed_knodes == ub.changed_knodes);
  const RekeyPayload pa = generate_rekey_payload(t, ua, 9);
  const RekeyPayload pb = generate_rekey_payload(*restored, ub, 9);
  ASSERT_EQ(pa.encryptions.size(), pb.encryptions.size());
  for (std::size_t i = 0; i < pa.encryptions.size(); ++i)
    ASSERT_EQ(pa.encryptions[i].payload, pb.encryptions[i].payload)
        << "position " << i;
}

// A tall degree-2 chain (keytree_flat_test technique): ~25 nodes total
// but ids out to 2^21, so each shard's deepest nodes live in the arena's
// overflow map while the top stays dense. The sharded snapshot must
// round-trip across that boundary inside every section.
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

TEST(ShardedSnapshot, RoundTripAcrossDenseOverflowBoundary) {
  const KeyTree t = KeyTree::from_nodes(2, 11, chain_tree_nodes(20));
  ASSERT_LT(t.dense_capacity(), NodeId{1} << 21);  // deep ids overflow
  const ShardPlan plan = ShardPlan::make(2, 8);
  const Bytes blob = snapshot_sharded_tree(t, plan);
  const auto restored = restore_sharded_tree(blob, 99);
  ASSERT_TRUE(restored.has_value());
  restored->check_invariants();
  const std::map<NodeId, Node> a = test::nodes(t);
  const std::map<NodeId, Node> b = test::nodes(*restored);
  ASSERT_EQ(a.size(), b.size());
  auto ib = b.begin();
  for (const auto& [id, n] : a) {
    ASSERT_EQ(id, ib->first);
    ASSERT_EQ(n.kind, ib->second.kind) << "node " << id;
    ASSERT_EQ(n.key, ib->second.key) << "node " << id;
    ++ib;
  }
  EXPECT_EQ(restored->slot_of(101), t.slot_of(101));
}

// ---------------------------------------------------------------------------
// Corrupted shard boundaries
// ---------------------------------------------------------------------------

// One serialized node record in a v2 section: id u64, kind u8, member
// u32, key bytes.
constexpr std::size_t kNodeRecordSize = 8 + 1 + 4 + 16;

// Re-files one node record from its owning shard section into the next
// section and re-seals the digest. The result passes every bytewise check
// (magic, version, digest, counts) — only the section-ownership
// validation can catch it.
Bytes forge_wrong_section(const Bytes& blob) {
  const Bytes body(blob.begin(),
                   blob.end() - static_cast<std::ptrdiff_t>(
                                    crypto::Sha256::kDigestSize));
  ByteReader r(body);
  ByteWriter w;
  w.put_u32(r.get_u32());               // magic
  w.put_u8(r.get_u8());                 // version
  w.put_u8(r.get_u8());                 // degree
  const std::uint32_t shards = r.get_u32();
  w.put_u32(shards);
  w.put_u32(r.get_u32());               // cut level
  w.put_u64(r.get_u64());               // counter

  std::vector<std::vector<Bytes>> sections(shards + 1);
  for (std::uint32_t s = 0; s <= shards; ++s) {
    r.get_u32();  // section id (re-derived below)
    const std::uint32_t count = r.get_u32();
    for (std::uint32_t i = 0; i < count; ++i)
      sections[s].push_back(r.get_bytes(kNodeRecordSize));
  }
  // Move the first record of the first non-empty *shard* section into the
  // following section.
  std::size_t donor = 0;
  while (donor < shards && sections[donor].empty()) ++donor;
  REKEY_ENSURE_MSG(donor < shards, "no shard section to corrupt");
  sections[donor + 1].insert(sections[donor + 1].begin(),
                             sections[donor].front());
  sections[donor].erase(sections[donor].begin());

  for (std::uint32_t s = 0; s <= shards; ++s) {
    w.put_u32(s);
    w.put_u32(static_cast<std::uint32_t>(sections[s].size()));
    for (const Bytes& rec : sections[s]) w.put_bytes(rec);
  }
  Bytes out = std::move(w).take();
  const auto digest = crypto::Sha256::hash(out);
  out.insert(out.end(), digest.begin(), digest.end());
  return out;
}

TEST(ShardedSnapshot, CorruptedShardBoundaryIsCaught) {
  KeyTree t(4, 0xC0);
  t.populate(256);
  const ShardPlan plan = ShardPlan::make(4, 4);
  const Bytes blob = snapshot_sharded_tree(t, plan);
  ASSERT_TRUE(restore_sharded_tree(blob, 0xC0).has_value());

  const Bytes forged = forge_wrong_section(blob);
  // Digest is valid by construction; ownership validation must refuse.
  EXPECT_FALSE(restore_sharded_tree(forged, 0xC0).has_value());
}

TEST(ShardedSnapshot, BitCorruptionAndTruncationDetected) {
  KeyTree t(4, 0xC1);
  t.populate(128);
  const ShardPlan plan = ShardPlan::make(4, 8);
  const Bytes blob = snapshot_sharded_tree(t, plan);
  for (const std::size_t pos :
       {std::size_t{0}, std::size_t{5}, blob.size() / 2, blob.size() - 1}) {
    Bytes bad = blob;
    bad[pos] ^= 0x01;
    EXPECT_FALSE(restore_sharded_tree(bad, 0xC1).has_value()) << "pos " << pos;
  }
  for (const std::size_t len :
       {std::size_t{0}, std::size_t{16}, blob.size() - 1}) {
    const Bytes cut(blob.begin(), blob.begin() + len);
    EXPECT_FALSE(restore_sharded_tree(cut, 0xC1).has_value()) << "len " << len;
  }
}

TEST(CheckShardedTree, AcceptsLiveTreesAndRejectsDegreeMismatch) {
  KeyTree t(4, 3);
  t.populate(200);
  test::check_sharded_tree(t, ShardPlan::make(4, 8));   // must not throw
  test::check_sharded_tree(t, ShardPlan::make(4, 1));   // degenerate plan too
  EXPECT_THROW(test::check_sharded_tree(t, ShardPlan::make(2, 8)),
               EnsureError);
}

}  // namespace
}  // namespace rekey::tree
