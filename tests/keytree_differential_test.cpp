// Differential test: the flat arena-backed KeyTree + batched payload
// pipeline against an embedded copy of the original map/set-based
// implementation. Both draw from the same deterministic KeyGenerator, so
// any divergence — in tree structure, key material, changed sets, labels,
// user needs, the exact encryption sequence, or the ENC and USR packets —
// is a hard failure, byte for byte. This is the refactor's safety net: the
// rewrite must be observationally identical, not just "equivalent".
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "crypto/keys.h"
#include "keytree/ids.h"
#include "keytree/keytree.h"
#include "keytree/marking.h"
#include "keytree/rekey_subtree.h"
#include "keytree/shard.h"
#include "packet/assign.h"
#include "support/oracles.h"
#include "transport/server.h"

namespace rekey::tree {
namespace {

// ---------------------------------------------------------------------------
// Legacy reference implementation (the pre-arena KeyTree/Marker/payload,
// verbatim modulo namespacing). Kept map/set-based on purpose: slow and
// obviously correct.
// ---------------------------------------------------------------------------
namespace legacy {

struct LegacyUpdate {
  std::set<NodeId> changed_knodes;
  std::map<MemberId, NodeId> joined;
  std::map<MemberId, NodeId> departed;
  std::map<NodeId, NodeId> moved;
  NodeId max_kid = 0;
};

class LegacyTree {
 public:
  LegacyTree(unsigned degree, std::uint64_t key_seed)
      : degree_(degree), keygen_(key_seed) {}

  unsigned degree() const { return degree_; }
  bool empty() const { return nodes_.empty(); }
  bool contains(NodeId id) const { return nodes_.count(id) != 0; }
  const Node& node(NodeId id) const { return nodes_.at(id); }
  bool has_member(MemberId m) const { return slot_of_member_.count(m) != 0; }
  std::uint64_t counter() const { return keygen_.counter(); }
  NodeId slot_of(MemberId m) const { return slot_of_member_.at(m); }
  const std::map<NodeId, Node>& nodes() const { return nodes_; }

  std::optional<NodeId> max_knode_id() const {
    if (knode_ids_.empty()) return std::nullopt;
    return *knode_ids_.rbegin();
  }

  std::vector<NodeId> user_slots() const {
    return {unode_ids_.begin(), unode_ids_.end()};
  }

  // --- the original Marker, folded into the tree for brevity -------------

  NodeId place_user(MemberId m, NodeId slot) {
    Node u;
    u.kind = NodeKind::UNode;
    u.key = keygen_.next();
    u.member = m;
    nodes_.emplace(slot, u);
    unode_ids_.insert(slot);
    slot_of_member_.emplace(m, slot);
    return slot;
  }

  void remove_user_slot(NodeId slot) {
    const auto it = nodes_.find(slot);
    slot_of_member_.erase(it->second.member);
    unode_ids_.erase(slot);
    nodes_.erase(it);
  }

  void prune_upwards(NodeId from_parent) {
    NodeId id = from_parent;
    while (true) {
      const auto it = nodes_.find(id);
      if (it == nodes_.end() || it->second.kind != NodeKind::KNode) return;
      bool has_child = false;
      for (unsigned j = 0; j < degree_ && !has_child; ++j)
        has_child = nodes_.count(child_of(id, j, degree_)) != 0;
      if (has_child) return;
      knode_ids_.erase(id);
      nodes_.erase(it);
      if (id == kRootId) return;
      id = parent_of(id, degree_);
    }
  }

  void create_ancestors(NodeId slot, LegacyUpdate& upd) {
    NodeId id = slot;
    while (id != kRootId) {
      id = parent_of(id, degree_);
      if (nodes_.count(id)) return;
      Node k;
      k.kind = NodeKind::KNode;
      k.key = keygen_.next();
      nodes_.emplace(id, k);
      knode_ids_.insert(id);
      upd.changed_knodes.insert(id);
    }
  }

  void split_first_user(LegacyUpdate& upd, std::vector<NodeId>& free_slots) {
    const auto nk = max_knode_id();
    const NodeId s = *nk + 1;
    const auto it = nodes_.find(s);
    const Node user = it->second;
    const NodeId dest = child_of(s, 0, degree_);
    unode_ids_.erase(s);
    nodes_.erase(it);
    nodes_.emplace(dest, user);
    unode_ids_.insert(dest);
    slot_of_member_[user.member] = dest;

    Node k;
    k.kind = NodeKind::KNode;
    k.key = keygen_.next();
    nodes_.emplace(s, k);
    knode_ids_.insert(s);
    upd.changed_knodes.insert(s);
    upd.moved[s] = dest;
    const auto jit = upd.joined.find(user.member);
    if (jit != upd.joined.end()) jit->second = dest;

    for (unsigned j = degree_ - 1; j >= 1; --j)
      free_slots.push_back(child_of(s, j, degree_));
  }

  LegacyUpdate run(std::span<const MemberId> joins,
                   std::span<const MemberId> leaves) {
    LegacyUpdate upd;
    if (empty()) {
      if (joins.empty()) return upd;
      unsigned height = 1;
      std::size_t capacity = degree_;
      while (capacity < joins.size()) {
        capacity *= degree_;
        ++height;
      }
      const NodeId first_leaf = first_id_at_level(height, degree_);
      for (std::size_t i = 0; i < joins.size(); ++i) {
        const NodeId slot = first_leaf + i;
        place_user(joins[i], slot);
        create_ancestors(slot, upd);
        upd.joined.emplace(joins[i], slot);
      }
      upd.max_kid = max_knode_id().value_or(0);
      return upd;
    }

    const std::size_t J = joins.size();
    const std::size_t L = leaves.size();

    std::vector<NodeId> departed;
    for (const MemberId m : leaves) {
      const NodeId slot = slot_of(m);
      departed.push_back(slot);
      upd.departed.emplace(m, slot);
    }
    std::sort(departed.begin(), departed.end());

    std::vector<NodeId> changed_slots;
    const std::size_t replaced = std::min(J, L);
    for (std::size_t i = 0; i < replaced; ++i) {
      const NodeId slot = departed[i];
      remove_user_slot(slot);
      place_user(joins[i], slot);
      upd.joined.emplace(joins[i], slot);
      changed_slots.push_back(slot);
    }

    if (J < L) {
      for (std::size_t i = J; i < L; ++i) {
        const NodeId slot = departed[i];
        remove_user_slot(slot);
        changed_slots.push_back(slot);
        if (slot != kRootId) prune_upwards(parent_of(slot, degree_));
      }
    } else if (J > L) {
      std::vector<NodeId> free_slots;
      {
        const auto nk = max_knode_id();
        const NodeId lo = *nk + 1;
        const NodeId hi = *nk * degree_ + degree_;
        std::vector<NodeId> ascending;
        NodeId next = lo;
        for (auto it = unode_ids_.lower_bound(lo);
             it != unode_ids_.end() && *it <= hi; ++it) {
          for (NodeId id = next; id < *it; ++id) ascending.push_back(id);
          next = *it + 1;
        }
        for (NodeId id = next; id <= hi; ++id) ascending.push_back(id);
        free_slots.assign(ascending.rbegin(), ascending.rend());
      }
      for (std::size_t i = L; i < J; ++i) {
        if (free_slots.empty()) split_first_user(upd, free_slots);
        const NodeId slot = free_slots.back();
        free_slots.pop_back();
        place_user(joins[i], slot);
        create_ancestors(slot, upd);
        upd.joined.emplace(joins[i], slot);
        changed_slots.push_back(slot);
      }
    }

    for (const auto& [old_slot, new_slot] : upd.moved)
      changed_slots.push_back(new_slot);

    for (const NodeId slot : changed_slots) {
      NodeId id = slot;
      while (id != kRootId) {
        id = parent_of(id, degree_);
        const auto it = nodes_.find(id);
        if (it != nodes_.end() && it->second.kind == NodeKind::KNode)
          upd.changed_knodes.insert(id);
      }
    }
    for (const NodeId x : upd.changed_knodes)
      nodes_.at(x).key = keygen_.next();

    upd.max_kid = max_knode_id().value_or(0);
    return upd;
  }

 private:
  unsigned degree_;
  crypto::KeyGenerator keygen_;
  std::map<NodeId, Node> nodes_;
  std::set<NodeId> knode_ids_;
  std::set<NodeId> unode_ids_;
  std::map<MemberId, NodeId> slot_of_member_;
};

struct LegacyPayload {
  std::vector<Encryption> encryptions;
  std::map<NodeId, std::vector<std::uint32_t>> user_needs;
  std::map<NodeId, Label> labels;
  NodeId max_kid = 0;
};

LegacyPayload generate_payload(const LegacyTree& tree,
                               const LegacyUpdate& update,
                               std::uint32_t msg_id) {
  LegacyPayload out;
  out.max_kid = update.max_kid;
  const unsigned d = tree.degree();

  for (const NodeId x : update.changed_knodes) out.labels[x] = Label::Join;
  auto taint = [&](NodeId slot) {
    NodeId id = slot;
    while (id != kRootId) {
      id = parent_of(id, d);
      const auto it = out.labels.find(id);
      if (it != out.labels.end()) it->second = Label::Replace;
    }
  };
  for (const auto& [member, slot] : update.departed) taint(slot);
  for (const auto& [old_slot, new_slot] : update.moved) {
    taint(old_slot);
    const auto it = out.labels.find(old_slot);
    if (it != out.labels.end()) it->second = Label::Replace;
  }

  std::vector<NodeId> order(update.changed_knodes.begin(),
                            update.changed_knodes.end());
  std::sort(order.begin(), order.end(), std::greater<NodeId>());

  std::map<NodeId, std::uint32_t> index_of_enc;
  for (const NodeId x : order) {
    const crypto::SymmetricKey& new_key = tree.node(x).key;
    for (unsigned j = 0; j < d; ++j) {
      const NodeId c = child_of(x, j, d);
      if (!tree.contains(c)) continue;
      Encryption e;
      e.enc_id = c;
      e.target_id = x;
      e.payload = crypto::encrypt_key(tree.node(c).key, new_key, msg_id, c);
      index_of_enc.emplace(
          c, static_cast<std::uint32_t>(out.encryptions.size()));
      out.encryptions.push_back(e);
    }
  }

  for (const NodeId slot : tree.user_slots()) {
    std::vector<std::uint32_t> needs;
    for (NodeId c = slot; c != kRootId; c = parent_of(c, d)) {
      if (update.changed_knodes.count(parent_of(c, d)))
        needs.push_back(index_of_enc.at(c));
    }
    if (!needs.empty()) out.user_needs.emplace(slot, std::move(needs));
  }
  return out;
}

// The per-user greedy UKA packer: users in id order, a packet closes
// before the first user whose new entries would overflow it. Fed the
// legacy per-user needs, it is the oracle for the run-packed assign_keys.
packet::Assignment assign_keys(const LegacyPayload& payload,
                               std::uint32_t msg_id, std::size_t packet_size,
                               bool wide) {
  const std::size_t capacity = packet::max_entries(packet_size, wide);
  packet::Assignment out;
  out.unique_encryptions = payload.encryptions.size();

  packet::EncPacket current;
  std::vector<std::uint32_t> in_packet;
  std::vector<std::uint32_t> last_pkt(payload.encryptions.size(),
                                      ~std::uint32_t{0});
  std::uint32_t pkt_seq = 0;
  bool open = false;
  const auto reset = [&] {
    current = packet::EncPacket{};
    current.msg_id = static_cast<std::uint8_t>(msg_id % 64);
    current.max_kid = static_cast<std::uint32_t>(payload.max_kid);
  };
  const auto flush = [&] {
    std::sort(in_packet.begin(), in_packet.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return payload.encryptions[a].enc_id >
                       payload.encryptions[b].enc_id;
              });
    for (const std::uint32_t idx : in_packet)
      current.entries.push_back(
          packet::to_wire_entry(payload.encryptions[idx]));
    out.total_entries += current.entries.size();
    out.packets.push_back(std::move(current));
    reset();
    in_packet.clear();
    ++pkt_seq;
    open = false;
  };

  reset();
  for (const auto& [user, needs] : payload.user_needs) {
    REKEY_ENSURE(needs.size() <= capacity);
    std::size_t added = 0;
    for (const std::uint32_t idx : needs)
      if (last_pkt[idx] != pkt_seq) ++added;
    if (open && in_packet.size() + added > capacity) flush();
    if (!open) {
      current.frm_id = static_cast<std::uint32_t>(user);
      open = true;
    }
    for (const std::uint32_t idx : needs) {
      if (last_pkt[idx] != pkt_seq) {
        last_pkt[idx] = pkt_seq;
        in_packet.push_back(idx);
      }
    }
    current.to_id = static_cast<std::uint32_t>(user);
  }
  if (open) flush();
  return out;
}

}  // namespace legacy

// ---------------------------------------------------------------------------
// Comparison helpers
// ---------------------------------------------------------------------------

void expect_trees_equal(const KeyTree& flat, const legacy::LegacyTree& ref,
                        int batch) {
  EXPECT_EQ(flat.key_generator().counter(), ref.counter())
      << "draw-stream counter diverged at batch " << batch;
  const std::map<NodeId, Node> a = test::nodes(flat);
  const std::map<NodeId, Node>& b = ref.nodes();
  ASSERT_EQ(a.size(), b.size()) << "node count diverged at batch " << batch;
  auto ia = a.begin();
  for (auto ib = b.begin(); ib != b.end(); ++ia, ++ib) {
    ASSERT_EQ(ia->first, ib->first) << "node id diverged at batch " << batch;
    ASSERT_EQ(ia->second.kind, ib->second.kind)
        << "kind of node " << ia->first << " diverged at batch " << batch;
    ASSERT_EQ(ia->second.key, ib->second.key)
        << "key of node " << ia->first << " diverged at batch " << batch;
    if (ia->second.kind == NodeKind::UNode) {
      ASSERT_EQ(ia->second.member, ib->second.member)
          << "member at node " << ia->first << " diverged at batch " << batch;
    }
  }
}

void expect_updates_equal(const BatchUpdate& a, const legacy::LegacyUpdate& b,
                          int batch) {
  EXPECT_TRUE(a.changed_knodes == b.changed_knodes)
      << "changed_knodes diverged at batch " << batch;
  EXPECT_EQ(a.joined, b.joined) << "joined diverged at batch " << batch;
  EXPECT_EQ(a.departed, b.departed) << "departed diverged at batch " << batch;
  EXPECT_EQ(a.moved, b.moved) << "moved diverged at batch " << batch;
  EXPECT_EQ(a.max_kid, b.max_kid) << "max_kid diverged at batch " << batch;
}

void expect_payloads_equal(const RekeyPayload& a,
                           const legacy::LegacyPayload& b,
                           const std::vector<NodeId>& users, int batch) {
  ASSERT_EQ(a.encryptions.size(), b.encryptions.size())
      << "encryption count diverged at batch " << batch;
  for (std::size_t i = 0; i < a.encryptions.size(); ++i) {
    ASSERT_EQ(a.encryptions[i].enc_id, b.encryptions[i].enc_id)
        << "enc_id at position " << i << ", batch " << batch;
    ASSERT_EQ(a.encryptions[i].target_id, b.encryptions[i].target_id)
        << "target_id at position " << i << ", batch " << batch;
    ASSERT_EQ(a.encryptions[i].payload, b.encryptions[i].payload)
        << "ciphertext at position " << i << ", batch " << batch;
  }
  EXPECT_EQ(a.max_kid, b.max_kid);

  // Every user's needs resolve through the run table exactly as the
  // legacy per-user map stores them, and every run end is a user.
  for (const NodeId slot : users) {
    const auto got = a.user_needs.needs_of(slot);
    const auto it = b.user_needs.find(slot);
    ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()),
              it == b.user_needs.end() ? std::vector<std::uint32_t>{}
                                       : it->second)
        << "needs of slot " << slot << ", batch " << batch;
  }
  for (const UserNeeds::Run& run : a.user_needs.runs()) {
    ASSERT_TRUE(b.user_needs.count(run.first) && b.user_needs.count(run.last))
        << "run [" << run.first << ", " << run.last << "], batch " << batch;
  }
  // Ids no run covers: k-nodes and ids past the last user.
  if (!a.user_needs.empty()) {
    EXPECT_TRUE(a.user_needs.needs_of(a.max_kid).empty()) << "batch " << batch;
    EXPECT_TRUE(
        a.user_needs.needs_of(a.user_needs.runs().back().last + 1).empty())
        << "batch " << batch;
  }
  // Storage is O(encryptions), not O(users): at most two runs (one per
  // user level) per frontier node, and one frontier node per encryption.
  ASSERT_LE(a.user_needs.runs().size(), 2 * a.user_needs.frontiers())
      << "batch " << batch;
  ASSERT_LE(a.user_needs.frontiers(), a.encryptions.size())
      << "batch " << batch;

  ASSERT_EQ(a.labels.size(), b.labels.size())
      << "label count diverged at batch " << batch;
  auto lb = b.labels.begin();
  for (const auto& [id, label] : a.labels) {
    ASSERT_EQ(id, lb->first) << "label id order, batch " << batch;
    ASSERT_EQ(label, lb->second) << "label of " << id << ", batch " << batch;
    ++lb;
  }
}

void expect_assignments_equal(const packet::Assignment& a,
                              const packet::Assignment& b, int batch) {
  ASSERT_EQ(a.packets.size(), b.packets.size())
      << "packet count diverged at batch " << batch;
  for (std::size_t p = 0; p < a.packets.size(); ++p) {
    const packet::EncPacket& pa = a.packets[p];
    const packet::EncPacket& pb = b.packets[p];
    ASSERT_EQ(pa.msg_id, pb.msg_id) << "packet " << p << ", batch " << batch;
    ASSERT_EQ(pa.max_kid, pb.max_kid) << "packet " << p << ", batch " << batch;
    ASSERT_EQ(pa.frm_id, pb.frm_id) << "packet " << p << ", batch " << batch;
    ASSERT_EQ(pa.to_id, pb.to_id) << "packet " << p << ", batch " << batch;
    ASSERT_TRUE(pa.entries == pb.entries)
        << "entries of packet " << p << " diverged at batch " << batch;
  }
  EXPECT_EQ(a.total_entries, b.total_entries) << "batch " << batch;
  EXPECT_EQ(a.unique_encryptions, b.unique_encryptions) << "batch " << batch;
}

// Packet oracle: the run-packed assign_keys emits exactly the legacy
// per-user packer's ENC packets, and usr_for carries exactly each user's
// legacy needs. Capacities: the tightest a tree of this height allows (a
// packet closes at nearly every run), and 1027-byte packets with narrow
// and wide headers.
void expect_packets_match_oracle(const RekeyPayload& payload,
                                 const legacy::LegacyPayload& ref,
                                 std::uint32_t msg_id, unsigned height,
                                 int batch) {
  const std::size_t tight =
      packet::kEncHeaderSize + std::max(1u, height) * packet::kEntrySize;
  const std::pair<std::size_t, bool> shapes[] = {
      {tight, false}, {1027, false}, {1027, true}};
  for (const auto& [size, wide] : shapes) {
    const packet::Assignment want =
        legacy::assign_keys(ref, msg_id, size, wide);
    expect_assignments_equal(packet::assign_keys(payload, size, wide), want,
                             batch);
    if (::testing::Test::HasFatalFailure()) return;
  }
  if (payload.encryptions.empty()) return;
  transport::ProtocolConfig cfg;
  cfg.wide_slots = true;  // ids may outgrow the narrow header
  const transport::ServerTransport server(
      cfg, payload,
      packet::assign_keys(payload, cfg.packet_size, cfg.wide_slots),
      0, static_cast<std::uint8_t>(msg_id % 64));
  for (const auto& [slot, needs] : ref.user_needs) {
    const packet::UsrPacket usr =
        server.usr_for(static_cast<std::uint32_t>(slot));
    ASSERT_EQ(usr.entries.size(), needs.size())
        << "USR of slot " << slot << ", batch " << batch;
    for (std::size_t i = 0; i < needs.size(); ++i)
      ASSERT_EQ(usr.entries[i],
                packet::to_wire_entry(ref.encryptions[needs[i]]))
          << "USR entry " << i << " of slot " << slot << ", batch " << batch;
  }
}

// One scripted churn sequence: bootstrap join, then `batches` random
// J/L mixes (including J=0, L=0, J=L, and heavy-join batches that force
// splits). Applied in lockstep to both implementations. Each batch's
// payload is generated twice, by the plain call (one shard, inline) and
// on four shards whose tasks run on `pool` (inline when null); both must
// match the legacy payload and packets.
void run_differential(unsigned degree, std::uint64_t seed, int batches,
                      std::size_t initial, rekey::ThreadPool* pool) {
  Rng rng(seed);
  KeyTree flat(degree, seed);
  legacy::LegacyTree ref(degree, seed);
  Marker marker(flat);

  MemberId next_member = 0;
  std::vector<MemberId> population;

  RekeyPayload flat_payload;  // reused across batches, as the service does
  RekeyPayload sharded_payload;
  const ShardPlan plan = ShardPlan::make(degree, 4);
  rekey::TaskRunner runner(pool);
  for (int batch = 0; batch < batches; ++batch) {
    std::vector<MemberId> joins, leaves;
    if (batch == 0) {
      for (std::size_t i = 0; i < initial; ++i) joins.push_back(next_member++);
    } else {
      // Mix regimes: 0=churn J==L, 1=leave-heavy, 2=join-heavy (splits).
      const std::uint64_t regime = rng.next_in(0, 2);
      const std::size_t n = population.size();
      std::size_t J = 0, L = 0;
      if (regime == 0) {
        J = L = static_cast<std::size_t>(rng.next_in(0, n / 4));
      } else if (regime == 1) {
        L = static_cast<std::size_t>(rng.next_in(1, 1 + n / 2));
        J = static_cast<std::size_t>(rng.next_in(0, L));
      } else {
        J = static_cast<std::size_t>(rng.next_in(1, 1 + n / 2));
        L = static_cast<std::size_t>(rng.next_in(0, std::min(J, n / 4)));
      }
      L = std::min(L, n);
      for (const auto pick : rng.sample_without_replacement(n, L))
        leaves.push_back(population[pick]);
      for (std::size_t i = 0; i < J; ++i) joins.push_back(next_member++);
    }

    const BatchUpdate upd = marker.run(joins, leaves);
    const legacy::LegacyUpdate ref_upd = ref.run(joins, leaves);
    expect_updates_equal(upd, ref_upd, batch);
    expect_trees_equal(flat, ref, batch);
    if (::testing::Test::HasFatalFailure()) return;
    flat.check_invariants();

    const auto msg_id = static_cast<std::uint32_t>(batch + 1);
    const legacy::LegacyPayload ref_payload =
        legacy::generate_payload(ref, ref_upd, msg_id);
    generate_rekey_payload_into(flat, upd, msg_id, flat_payload);
    generate_rekey_payload_into(flat, upd, msg_id, sharded_payload, plan,
                                runner);
    for (const RekeyPayload* payload : {&flat_payload, &sharded_payload}) {
      expect_payloads_equal(*payload, ref_payload, ref.user_slots(), batch);
      if (::testing::Test::HasFatalFailure()) return;
      expect_packets_match_oracle(*payload, ref_payload, msg_id,
                                  flat.height(), batch);
      if (::testing::Test::HasFatalFailure()) return;
    }

    // Update the scripted population for the next round.
    std::set<MemberId> gone(leaves.begin(), leaves.end());
    std::vector<MemberId> next;
    for (const MemberId m : population)
      if (!gone.count(m)) next.push_back(m);
    next.insert(next.end(), joins.begin(), joins.end());
    population = std::move(next);
    ASSERT_EQ(flat.num_users(), population.size());
  }
}

// ---------------------------------------------------------------------------
// Tests: 200 seeded batches total across degrees, shard tasks inline.
// ---------------------------------------------------------------------------

TEST(KeyTreeDifferential, Degree4SerialChurn) {
  run_differential(/*degree=*/4, /*seed=*/0xD1FF01, /*batches=*/100,
                   /*initial=*/64, /*pool=*/nullptr);
}

TEST(KeyTreeDifferential, Degree2SerialChurn) {
  run_differential(2, 0xD1FF02, 50, 33, nullptr);
}

TEST(KeyTreeDifferential, Degree8SerialChurn) {
  run_differential(8, 0xD1FF08, 50, 100, nullptr);
}

TEST(KeyTreeDifferential, SmallGroupsAndFullDepartures) {
  // Tiny populations exercise root-adjacent splits and total-leave +
  // re-bootstrap paths.
  run_differential(4, 0xD1FF10, 40, 2, nullptr);
  run_differential(2, 0xD1FF11, 40, 1, nullptr);
}

// The generator's shard tasks on a thread pool must be bit-identical to
// the inline run; run the same scripted sequences with a pool.
// REKEY_THREADS (when set, e.g. 8 in CI) sizes the first test's pool; at
// 1 the pool runs inline and this repeats the inline test.
TEST(KeyTreeDifferential, ParallelPayloadMatchesLegacy) {
  rekey::ThreadPool pool(0);
  run_differential(4, 0xD1FF01, 100, 64, &pool);
}

TEST(KeyTreeDifferential, ParallelPayloadEightWorkers) {
  rekey::ThreadPool pool(8);
  run_differential(4, 0xD1FF20, 60, 300, &pool);
  run_differential(8, 0xD1FF21, 30, 200, &pool);
}

// ---------------------------------------------------------------------------
// Shard-count differential: the same scripted churn drives the pipeline
// (Marker::run -> generate_rekey_payload_into -> assign_keys) at a given
// shard and thread count, and the legacy tree beside it. The determinism
// contract says sharding changes who computes what, never what is
// computed: every artifact — tree nodes and key material, the draw-stream
// counter, the batch update, payload bytes, and the assigned packets —
// must match the legacy reference exactly for every shard count and
// thread count.
// ---------------------------------------------------------------------------

// What each non-bootstrap batch of the script should look like.
enum class ShardScript {
  Mixed,             // run_differential's three churn regimes
  SingleShardDirty,  // J == L leaves confined to one randomly chosen shard
};

void run_sharded_differential(unsigned degree, std::uint64_t seed,
                              int batches, std::size_t initial,
                              unsigned shards, unsigned pool_threads,
                              ShardScript script = ShardScript::Mixed) {
  Rng rng(seed);
  legacy::LegacyTree ref(degree, seed);
  KeyTree sharded_tree(degree, seed);
  Marker sharded_marker(sharded_tree);
  const ShardPlan plan = ShardPlan::make(degree, shards);
  std::unique_ptr<rekey::ThreadPool> pool;
  if (pool_threads != 1)
    pool = std::make_unique<rekey::ThreadPool>(pool_threads);
  rekey::TaskRunner runner(pool.get());

  MemberId next_member = 0;
  std::vector<MemberId> population;
  RekeyPayload sharded_payload;

  for (int batch = 0; batch < batches; ++batch) {
    std::vector<MemberId> joins, leaves;
    unsigned dirty_shard = ShardPlan::kAggregator;
    if (batch == 0) {
      for (std::size_t i = 0; i < initial; ++i) joins.push_back(next_member++);
    } else if (script == ShardScript::SingleShardDirty &&
               !population.empty()) {
      // Leaves confined to one cut subtree's shard, replaced in place
      // (J == L reuses the departed slots), so every below-cut changed
      // k-node belongs to that single shard.
      dirty_shard = static_cast<unsigned>(rng.next_in(0, plan.shards - 1));
      std::vector<MemberId> in_target;
      for (const MemberId m : population)
        if (plan.shard_of(sharded_tree.slot_of(m)) == dirty_shard)
          in_target.push_back(m);
      const std::size_t L = in_target.empty()
                                ? 0
                                : static_cast<std::size_t>(rng.next_in(
                                      1, in_target.size()));
      for (const auto pick :
           rng.sample_without_replacement(in_target.size(), L))
        leaves.push_back(in_target[pick]);
      for (std::size_t i = 0; i < L; ++i) joins.push_back(next_member++);
    } else {
      const std::uint64_t regime = rng.next_in(0, 2);
      const std::size_t n = population.size();
      std::size_t J = 0, L = 0;
      if (regime == 0) {
        J = L = static_cast<std::size_t>(rng.next_in(0, n / 4));
      } else if (regime == 1) {
        L = static_cast<std::size_t>(rng.next_in(1, 1 + n / 2));
        J = static_cast<std::size_t>(rng.next_in(0, L));
      } else {
        J = static_cast<std::size_t>(rng.next_in(1, 1 + n / 2));
        L = static_cast<std::size_t>(rng.next_in(0, std::min(J, n / 4)));
      }
      L = std::min(L, n);
      for (const auto pick : rng.sample_without_replacement(n, L))
        leaves.push_back(population[pick]);
      for (std::size_t i = 0; i < J; ++i) joins.push_back(next_member++);
    }

    const legacy::LegacyUpdate ref_upd = ref.run(joins, leaves);
    ShardBatchStats mark_stats;
    const BatchUpdate upd_b =
        sharded_marker.run(joins, leaves, plan, runner, &mark_stats);
    expect_updates_equal(upd_b, ref_upd, batch);
    expect_trees_equal(sharded_tree, ref, batch);
    if (::testing::Test::HasFatalFailure()) return;
    test::check_sharded_tree(sharded_tree, plan);

    // The per-shard stats partition the changed set exactly.
    std::size_t changed_total = mark_stats.aggregator_changed;
    for (const std::size_t c : mark_stats.shard_changed) changed_total += c;
    ASSERT_EQ(changed_total, upd_b.changed_knodes.size())
        << "shard stats do not partition the changed set at batch " << batch;
    if (dirty_shard != ShardPlan::kAggregator) {
      for (unsigned s = 0; s < plan.shards; ++s) {
        if (s == dirty_shard) continue;
        EXPECT_EQ(mark_stats.shard_changed[s], 0u)
            << "single-shard-dirty batch " << batch << " touched shard " << s;
      }
    }

    const auto msg_id = static_cast<std::uint32_t>(batch + 1);
    const legacy::LegacyPayload ref_payload =
        legacy::generate_payload(ref, ref_upd, msg_id);
    ShardBatchStats pay_stats;
    generate_rekey_payload_into(sharded_tree, upd_b, msg_id, sharded_payload,
                                plan, runner, &pay_stats);
    expect_payloads_equal(sharded_payload, ref_payload, ref.user_slots(),
                          batch);
    if (::testing::Test::HasFatalFailure()) return;
    test::check_enc_id_disjointness(sharded_payload, plan);
    std::size_t enc_total = 0;
    for (const std::size_t c : pay_stats.shard_encryptions) enc_total += c;
    ASSERT_EQ(enc_total, sharded_payload.encryptions.size())
        << "shard stats do not partition the encryptions at batch " << batch;

    expect_assignments_equal(
        packet::assign_keys(sharded_payload, 1027),
        legacy::assign_keys(ref_payload, msg_id, 1027, false), batch);
    if (::testing::Test::HasFatalFailure()) return;

    std::set<MemberId> gone(leaves.begin(), leaves.end());
    std::vector<MemberId> next;
    for (const MemberId m : population)
      if (!gone.count(m)) next.push_back(m);
    next.insert(next.end(), joins.begin(), joins.end());
    population = std::move(next);
    ASSERT_EQ(sharded_tree.num_users(), population.size());
  }
}

// The acceptance matrix: shards {1,2,4,8} x worker threads {1,8}. A pool
// of 8 with fewer shards also exercises partially idle task slots.
TEST(ShardedDifferential, ShardByThreadMatrix) {
  for (const unsigned shards : {1u, 2u, 4u, 8u}) {
    for (const unsigned threads : {1u, 8u}) {
      run_sharded_differential(/*degree=*/4,
                               /*seed=*/0x5AD0 + shards * 16 + threads,
                               /*batches=*/20, /*initial=*/128, shards,
                               threads);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ShardedDifferential, SingleShardDirtyBatches) {
  run_sharded_differential(4, 0x5AD100, 30, 256, 4, 1,
                           ShardScript::SingleShardDirty);
  run_sharded_differential(4, 0x5AD101, 30, 256, 8, 8,
                           ShardScript::SingleShardDirty);
}

// Tiny trees under a deep cut: most (or all) slots live at or above the
// cut level, so the aggregator owns nearly everything and batches
// straddle the cut constantly. Also covers total-leave + re-bootstrap
// on many shards.
TEST(ShardedDifferential, AggregatorCutStraddlingSmallTrees) {
  run_sharded_differential(4, 0x5AD200, 30, 4, 8, 1);
  run_sharded_differential(2, 0x5AD201, 30, 3, 8, 8);
  run_sharded_differential(8, 0x5AD202, 25, 12, 64, 8);
}

TEST(ShardedDifferential, OtherDegrees) {
  run_sharded_differential(2, 0x5AD300, 25, 64, 4, 8);
  run_sharded_differential(8, 0x5AD301, 25, 200, 4, 8);
}

}  // namespace
}  // namespace rekey::tree
