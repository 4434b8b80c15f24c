// Replication tests: the full-server snapshot format (v3), the
// primary/standby daemon pair, and the failover acceptance contract.
//
// The determinism claim under test: because snapshots sit at batch
// boundaries and every daemon death point is a protocol-clock step, a
// promoted standby's replay of the interrupted batch is a pure function
// of (snapshot, config) — so two runs of the same blackout scenario, or
// a serial and a sharded pipeline over the same scenario, must agree on
// every protocol counter. Wall-clock-dependent counters (control-frame
// retransmits, cached-report resends) are explicitly excluded from the
// comparison; everything the protocol itself decides is included.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string_view>
#include <thread>
#include <utility>

#include "keytree/shard.h"
#include "keytree/snapshot.h"
#include "support/oracles.h"
#include "support/receive_tap.h"
#include "wire/daemon.h"
#include "wire/fleet.h"
#include "wire/loopback.h"
#include "wire/server_snapshot.h"

namespace rekey::wire {
namespace {

tree::KeyTree churned_tree(std::uint32_t members, std::uint64_t seed) {
  tree::KeyTree t(4, seed);
  t.populate(members);
  tree::Marker m(t);
  m.run(std::vector<tree::MemberId>{members, members + 1},
        std::vector<tree::MemberId>{3});
  return t;
}

// A fully-populated snapshot whose every field is distinguishable from
// its default, so the round-trip comparison cannot pass by accident.
ServerSnapshot sample_snapshot(std::uint32_t clients, std::uint32_t pool) {
  ServerSnapshot s;
  s.epoch = 5;
  s.next_batch = 3;
  s.session_version = kWireV2;
  s.degree = 4;
  s.clients = clients;
  s.churn_pool = pool;
  s.batches = 8;
  s.next_member = clients + pool + 10;
  s.churn_members = {clients, clients + 2, s.next_member - 1};
  s.endpoints.push_back(
      SnapshotEndpoint{111, 0, clients / 2, kWireV1, false});
  s.endpoints.push_back(
      SnapshotEndpoint{222, clients / 2, clients - clients / 2, kWireV2, true});
  s.rho.proactive_parities = 7;
  s.rho.num_nack = 3;
  s.rho.rng = {0x1111, 0x2222, 0x3333, 0x4444};
  s.tree_blob = tree::snapshot_sharded_tree(
      churned_tree(s.next_member - 2, 17), tree::ShardPlan::make(4, 2));
  return s;
}

TEST(ServerSnapshotV3, RoundtripPreservesEverything) {
  const ServerSnapshot s = sample_snapshot(64, 32);
  const Bytes blob = snapshot_server(s);
  const auto r = restore_server(blob);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->epoch, s.epoch);
  EXPECT_EQ(r->next_batch, s.next_batch);
  EXPECT_EQ(r->session_version, s.session_version);
  EXPECT_EQ(r->degree, s.degree);
  EXPECT_EQ(r->clients, s.clients);
  EXPECT_EQ(r->churn_pool, s.churn_pool);
  EXPECT_EQ(r->batches, s.batches);
  EXPECT_EQ(r->next_member, s.next_member);
  EXPECT_EQ(r->churn_members, s.churn_members);
  ASSERT_EQ(r->endpoints.size(), s.endpoints.size());
  for (std::size_t i = 0; i < s.endpoints.size(); ++i) {
    EXPECT_EQ(r->endpoints[i].ep_id, s.endpoints[i].ep_id);
    EXPECT_EQ(r->endpoints[i].first_uid, s.endpoints[i].first_uid);
    EXPECT_EQ(r->endpoints[i].count, s.endpoints[i].count);
    EXPECT_EQ(r->endpoints[i].max_version, s.endpoints[i].max_version);
    EXPECT_EQ(r->endpoints[i].dead, s.endpoints[i].dead);
  }
  EXPECT_EQ(r->rho.proactive_parities, s.rho.proactive_parities);
  EXPECT_EQ(r->rho.num_nack, s.rho.num_nack);
  EXPECT_EQ(r->rho.rng, s.rho.rng);
  EXPECT_EQ(r->tree_blob, s.tree_blob);
  // The embedded tree blob restores to the key material it was cut from.
  const auto tree = tree::restore_sharded_tree(r->tree_blob, 17);
  ASSERT_TRUE(tree.has_value());
  EXPECT_EQ(tree->group_key(), churned_tree(s.next_member - 2, 17).group_key());
}

// Every structural validation in restore_server, exercised one field at a
// time. snapshot_server seals whatever it is given, so each mutant
// arrives with a *valid* SHA-256 trailer — what must reject it is the
// structural check itself, not the seal.
TEST(ServerSnapshotV3, StructuralRefusals) {
  const auto rejects = [](const char* what, auto mutate) {
    ServerSnapshot s = sample_snapshot(64, 32);
    mutate(s);
    EXPECT_FALSE(restore_server(snapshot_server(s)).has_value()) << what;
  };
  rejects("zero clients", [](ServerSnapshot& s) { s.clients = 0; });
  rejects("degree below 2", [](ServerSnapshot& s) { s.degree = 1; });
  rejects("session version 0",
          [](ServerSnapshot& s) { s.session_version = 0; });
  rejects("session version above max",
          [](ServerSnapshot& s) { s.session_version = kMaxWireVersion + 1; });
  rejects("next_batch past batches",
          [](ServerSnapshot& s) { s.next_batch = s.batches + 1; });
  rejects("next_member below fleet + pool", [](ServerSnapshot& s) {
    s.next_member = s.clients + s.churn_pool - 1;
    s.churn_members.clear();  // keep the member-range check out of the way
  });
  rejects("churn member inside the fleet",
          [](ServerSnapshot& s) { s.churn_members[0] = s.clients - 1; });
  rejects("churn member past next_member",
          [](ServerSnapshot& s) { s.churn_members[0] = s.next_member; });
  rejects("more churn members than the pool", [](ServerSnapshot& s) {
    s.churn_members.clear();
    for (std::uint32_t i = 0; i <= s.churn_pool; ++i)
      s.churn_members.push_back(s.clients + i);
  });
  rejects("endpoint with zero uids",
          [](ServerSnapshot& s) { s.endpoints[0].count = 0; });
  rejects("endpoint first_uid out of range",
          [](ServerSnapshot& s) { s.endpoints[0].first_uid = s.clients; });
  rejects("endpoint range past clients",
          [](ServerSnapshot& s) { s.endpoints[1].count += 1; });
  rejects("duplicate endpoint id", [](ServerSnapshot& s) {
    s.endpoints[1].ep_id = s.endpoints[0].ep_id;
  });
  rejects("more endpoints than clients", [](ServerSnapshot& s) {
    s.endpoints.clear();
    for (std::uint32_t i = 0; i <= s.clients; ++i)
      s.endpoints.push_back(
          SnapshotEndpoint{1000 + i, i % s.clients, 1, kWireV1, false});
  });
  rejects("endpoint version 0",
          [](ServerSnapshot& s) { s.endpoints[0].max_version = 0; });
  rejects("endpoint version above max", [](ServerSnapshot& s) {
    s.endpoints[0].max_version = kMaxWireVersion + 1;
  });
  rejects("negative proactive parities",
          [](ServerSnapshot& s) { s.rho.proactive_parities = -1; });
  rejects("negative num_nack",
          [](ServerSnapshot& s) { s.rho.num_nack = -1; });
}

TEST(ServerSnapshotV3, CrossFamilyBlobsRejected) {
  // A v2 (tree-only) blob is sealed with the same trailer but the wrong
  // magic for restore_server — and vice versa.
  const tree::KeyTree t = churned_tree(32, 5);
  const Bytes v2 = tree::snapshot_sharded_tree(t, tree::ShardPlan::make(4, 2));
  EXPECT_FALSE(restore_server(v2).has_value());
  const Bytes v3 = snapshot_server(sample_snapshot(16, 8));
  EXPECT_FALSE(tree::restore_sharded_tree(v3, 1).has_value());
}

// Exhaustive malformed-input sweeps, mirroring the tree sweeps in
// snapshot_test.cpp: a v3 blob cut at ANY byte or flipped in ANY single
// bit restores to a clean nullopt — never an abort or a half-restored
// server. Small session shape keeps the quadratic sweep fast.
TEST(ServerSnapshotV3, TruncationAtEveryByteRejected) {
  const Bytes blob = snapshot_server(sample_snapshot(16, 8));
  for (std::size_t len = 0; len < blob.size(); ++len) {
    const Bytes cut(blob.begin(), blob.begin() + len);
    ASSERT_FALSE(restore_server(cut).has_value()) << "len " << len;
  }
}

TEST(ServerSnapshotV3, SingleBitFlipAtEveryPositionRejected) {
  const Bytes blob = snapshot_server(sample_snapshot(16, 8));
  for (std::size_t pos = 0; pos < blob.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = blob;
      bad[pos] ^= static_cast<std::uint8_t>(1u << bit);
      ASSERT_FALSE(restore_server(bad).has_value())
          << "pos " << pos << " bit " << bit;
    }
  }
}

// ---------------------------------------------------------------------
// Primary/standby pair over the in-process loopback hub.

struct PairResult {
  DaemonStats primary;
  DaemonStats standby;
  std::vector<FleetStats> fleets;
  Endpoint primary_ep;
  Endpoint standby_ep;
  // The data frames and BatchStarts fleet 0 received, in arrival order.
  std::vector<Datagram> received;
};

struct PairParams {
  std::uint32_t clients = 64;
  unsigned endpoints = 2;
  std::uint32_t batches = 3;
  std::uint32_t churn = 16;
  // Blackout window for the primary's protocol clock; {0, 0} = none.
  double onset_ms = 0.0;
  double end_ms = 0.0;
  unsigned shards = 1;
  unsigned workers = 1;
  // Fins from the primary to the standby that are lost on the wire.
  int lost_standby_fins = 0;
};

// The primary's side of the hub, losing the first `losses` Fins it sends
// to `standby`.
class FinLossWire : public WireTransport {
 public:
  FinLossWire(WireTransport& inner, Endpoint standby, int losses)
      : inner_(inner), standby_(standby), losses_(losses) {}

  bool send(Endpoint to, std::uint8_t channel,
            std::span<const std::uint8_t> payload) override {
    if (losses_ > 0 && to == standby_ && channel == kChanControl &&
        peek_op(payload) == ControlOp::Fin) {
      --losses_;
      return true;  // sent, and lost
    }
    return inner_.send(to, channel, payload);
  }
  std::size_t send_frames(Endpoint to, std::uint8_t channel,
                          std::span<const Bytes* const> frames) override {
    return inner_.send_frames(to, channel, frames);
  }
  std::size_t receive(std::vector<Datagram>& out, int timeout_ms) override {
    return inner_.receive(out, timeout_ms);
  }
  std::size_t max_payload() const override { return inner_.max_payload(); }

 private:
  WireTransport& inner_;
  Endpoint standby_;
  int losses_;
};

PairResult run_pair(const PairParams& p) {
  LoopbackHub hub;
  auto primary_wire = hub.attach();
  auto standby_wire = hub.attach();
  FinLossWire primary_out(*primary_wire, standby_wire->endpoint(),
                          p.lost_standby_fins);

  DaemonConfig dc;
  dc.clients = p.clients;
  dc.churn_pool = std::max<std::uint32_t>(64, 2 * p.churn);
  dc.batches = p.batches;
  dc.churn_joins = p.churn;
  dc.churn_leaves = p.churn;
  dc.retry_ms = 10;
  dc.round_wait_ms = 20000;
  dc.elect_timeout_ms = 250;
  dc.shards = p.shards;
  dc.worker_threads = p.workers;

  DaemonConfig pc = dc;
  pc.peer = standby_wire->endpoint();
  if (p.end_ms > p.onset_ms)
    pc.fault.blackouts.push_back({p.onset_ms, p.end_ms});

  DaemonConfig stc = dc;
  stc.peer = primary_wire->endpoint();
  stc.standby = true;

  KeyServerDaemon primary(primary_out, pc);
  KeyServerDaemon standby(*standby_wire, stc);

  PairResult r;
  r.fleets.resize(p.endpoints);
  r.primary_ep = primary_wire->endpoint();
  r.standby_ep = standby_wire->endpoint();
  std::thread primary_thread([&] { r.primary = primary.run(); });
  std::thread standby_thread([&] { r.standby = standby.run(); });

  std::vector<std::thread> fleet_threads;
  const std::uint32_t per = p.clients / p.endpoints;
  for (unsigned t = 0; t < p.endpoints; ++t) {
    fleet_threads.emplace_back([&, t] {
      auto wire = hub.attach();
      FleetConfig fc;
      fc.first_uid = t * per;
      fc.count = (t + 1 == p.endpoints) ? p.clients - t * per : per;
      fc.retry_ms = 10;
      fc.idle_timeout_ms = 20000;
      fc.failover.push_back(standby_wire->endpoint());
      test::ReceiveTap tap(*wire);
      ClientFleet fleet(tap, primary_wire->endpoint(), fc);
      r.fleets[t] = fleet.run();
      if (t == 0) r.received = std::move(tap.received);
    });
  }
  for (auto& t : fleet_threads) t.join();
  primary_thread.join();
  standby_thread.join();
  return r;
}

// The stats that retransmit timing decides: how many control frames,
// report parts, snapshot chunks and Resubs it took to get each lockstep
// step across. (recovery_ms, wall time itself, is not in the lists.)
bool timing_dependent(std::string_view field) {
  static constexpr std::string_view kTiming[] = {
      "control_frames", "control_retransmits", "reports",
      "snapshot_chunks", "reports_sent",       "resubs_sent"};
  return std::find(std::begin(kTiming), std::end(kTiming), field) !=
         std::end(kTiming);
}

// The deterministic projection of a stats record: every listed field
// but the timing-dependent ones, so everything the protocol decides and
// nothing wall time decides. Byte-comparing these strings is the
// acceptance criterion's "stats byte-compare excluding timing fields".
template <class Stats>
std::string det(const Stats& s) {
  std::ostringstream o;
  for_each_field(s, [&](const char* name, const auto& v) {
    if (!timing_dependent(name)) o << name << '=' << v << ' ';
  });
  return o.str();
}

std::string det(const std::vector<FleetStats>& fleets) {
  std::string out;
  for (const FleetStats& s : fleets) out += det(s) + "| ";
  return out;
}

TEST(Replica, HealthyPrimaryRetiresStandby) {
  PairParams p;
  const PairResult r = run_pair(p);
  EXPECT_TRUE(r.primary.completed);
  EXPECT_FALSE(r.primary.died);
  EXPECT_EQ(r.primary.epoch, 0u);
  EXPECT_EQ(r.primary.batches_run, p.batches);
  EXPECT_EQ(r.primary.snapshots_sent, p.batches);
  EXPECT_EQ(r.primary.recovered, p.clients * p.batches);
  // The standby ingested every snapshot, never promoted, and was retired
  // cleanly by the primary's Fin.
  EXPECT_TRUE(r.standby.completed);
  EXPECT_FALSE(r.standby.promoted);
  EXPECT_EQ(r.standby.batches_run, 0u);
  EXPECT_EQ(r.standby.snapshots_restored, p.batches);
  for (const FleetStats& fs : r.fleets) {
    EXPECT_TRUE(fs.finished);
    EXPECT_EQ(fs.recovered, fs.clients * p.batches);
    EXPECT_EQ(fs.epoch, 0u);
    EXPECT_EQ(fs.failovers, 0u);
  }
}

TEST(Replica, StandbyThatLosesFinsIsStillRetired) {
  // The primary resends its Fin to the standby until the standby acks
  // it. With the first three lost, the standby still retires cleanly
  // instead of promoting itself once the primary falls silent.
  PairParams p;
  p.lost_standby_fins = 3;
  const PairResult r = run_pair(p);
  EXPECT_TRUE(r.primary.completed);
  EXPECT_TRUE(r.standby.completed);
  EXPECT_FALSE(r.standby.promoted);
  EXPECT_EQ(r.standby.batches_run, 0u);
  EXPECT_EQ(r.standby.snapshots_restored, p.batches);
}

TEST(Replica, StandbyAloneGivesUp) {
  // A standby whose primary dies before ever replicating has nothing to
  // serve: it must give up (completed = false) instead of promoting onto
  // an empty state or spinning forever.
  LoopbackHub hub;
  auto standby_wire = hub.attach();
  auto ghost = hub.attach();  // never speaks
  DaemonConfig stc;
  stc.clients = 16;
  stc.standby = true;
  stc.peer = ghost->endpoint();
  stc.elect_timeout_ms = 100;
  stc.round_wait_ms = 150;
  KeyServerDaemon standby(*standby_wire, stc);
  const DaemonStats s = standby.run();
  EXPECT_FALSE(s.completed);
  EXPECT_FALSE(s.promoted);
  EXPECT_FALSE(s.died);
  EXPECT_EQ(s.batches_run, 0u);
  EXPECT_EQ(s.snapshots_restored, 0u);
}

// A ghost primary ships `s` (sealed, and matching the standby's config
// field for field) and then goes silent, so the standby's only way to
// serve is to promote from it.
DaemonStats standby_after_ghost_snapshot(const ServerSnapshot& s) {
  LoopbackHub hub;
  auto standby_wire = hub.attach();
  auto ghost = hub.attach();
  DaemonConfig stc;
  stc.degree = s.degree;
  stc.clients = s.clients;
  stc.churn_pool = s.churn_pool;
  stc.batches = s.batches;
  stc.standby = true;
  stc.peer = ghost->endpoint();
  stc.retry_ms = 10;
  stc.elect_timeout_ms = 100;
  stc.round_wait_ms = 150;
  KeyServerDaemon standby(*standby_wire, stc);
  const Bytes blob = snapshot_server(s);
  for (const SnapChunkFrame& c :
       chunk_snapshot(s.next_batch, blob, ghost->max_payload()))
    ghost->send(standby_wire->endpoint(), kChanControl, *serialize(c));
  return standby.run();
}

TEST(Replica, StandbyRefusesSnapshotWithUnrestorableRho) {
  // The tree is valid, but 250 proactive parities is above the cap of
  // 236 at k = 10. The standby must not ack what it cannot promote from.
  ServerSnapshot s = sample_snapshot(64, 32);
  s.rho.proactive_parities = 250;
  const DaemonStats st = standby_after_ghost_snapshot(s);
  EXPECT_EQ(st.snapshots_restored, 0u);
  EXPECT_FALSE(st.promoted);
  EXPECT_FALSE(st.completed);
  EXPECT_EQ(st.batches_run, 0u);
}

TEST(Replica, StandbyStandsDownOnUnrestorableTree) {
  // Sealed garbage where the tree blob goes: the outer snapshot checks
  // out, so the standby acks it, but promote() finds no tree to serve.
  ServerSnapshot s = sample_snapshot(64, 32);
  s.tree_blob.assign(64, 0xA5);
  tree::snapshot_seal(s.tree_blob);
  const DaemonStats st = standby_after_ghost_snapshot(s);
  EXPECT_EQ(st.snapshots_restored, 1u);
  EXPECT_FALSE(st.promoted);
  EXPECT_FALSE(st.completed);
  EXPECT_EQ(st.batches_run, 0u);
}

TEST(Replica, StandbyStandsDownOnGhostChurnMember) {
  // The tree restores and has the configured degree, but churn_members
  // names a uid the tree does not hold: sample_snapshot's tree holds
  // every id up to next_member - 1 except 3, and the ghost lies above
  // them. Promoting would have the first replayed batch leave a member
  // the tree does not hold, so the standby stands down instead.
  ServerSnapshot s = sample_snapshot(64, 32);
  const tree::MemberId top = s.next_member - 1;  // the tree's highest member
  s.next_member += 8;
  s.churn_members.push_back(top + 4);
  const DaemonStats st = standby_after_ghost_snapshot(s);
  EXPECT_EQ(st.snapshots_restored, 1u);
  EXPECT_FALSE(st.promoted);
  EXPECT_FALSE(st.completed);
  EXPECT_EQ(st.batches_run, 0u);
}

TEST(Replica, MidBatchBlackoutFailsOver) {
  // Blackout at protocol clock 500: batch 1's pre-burst step (batch 0
  // consumed 100..300, batch 1's boundary is 400). The primary dies with
  // batch 1's BatchStart already on the wire; the standby replays batch
  // 1 from its snapshot and runs batch 2.
  PairParams p;
  p.onset_ms = 495.0;
  p.end_ms = 505.0;
  const PairResult r = run_pair(p);
  EXPECT_TRUE(r.primary.died);
  EXPECT_DOUBLE_EQ(r.primary.died_at_ms, 500.0);
  EXPECT_EQ(r.primary.batches_run, 1u);
  EXPECT_FALSE(r.primary.completed);
  EXPECT_TRUE(r.standby.promoted);
  EXPECT_TRUE(r.standby.completed);
  EXPECT_EQ(r.standby.epoch, 1u);
  EXPECT_EQ(r.standby.batches_run, 2u);
  EXPECT_EQ(r.standby.resubs, p.endpoints);
  std::uint64_t recovered = 0;
  for (const FleetStats& fs : r.fleets) {
    EXPECT_TRUE(fs.finished);
    EXPECT_EQ(fs.unrecovered, 0u);
    EXPECT_EQ(fs.epoch, 1u);
    EXPECT_EQ(fs.failovers, 1u);
    recovered += fs.recovered;
  }
  // Recoveries are finalized at BatchDone, so the replayed batch counts
  // exactly once: every client recovers every batch.
  EXPECT_EQ(recovered, std::uint64_t{p.clients} * p.batches);
}

TEST(Replica, ReplayedBatchKeepsItsCiphertexts) {
  // Blackout at protocol clock 600: batch 1's pre-BatchDone step, after
  // its one multicast round went out. The standby replays batch 1 from
  // the top under the same batch number, so it must send the very
  // ciphertexts the primary sent: the cipher's nonce is (batch number,
  // enc id), and a replay that encrypted another plaintext under one
  // would reuse its keystream.
  PairParams p;
  p.onset_ms = 595.0;
  p.end_ms = 605.0;
  const PairResult r = run_pair(p);
  ASSERT_TRUE(r.primary.died);
  EXPECT_DOUBLE_EQ(r.primary.died_at_ms, 600.0);
  EXPECT_EQ(r.primary.batches_run, 1u);
  ASSERT_TRUE(r.standby.promoted);
  EXPECT_TRUE(r.standby.completed);
  EXPECT_EQ(r.standby.batches_run, 2u);

  const auto primary = test::enc_ciphertexts(r.received, r.primary_ep);
  const auto standby = test::enc_ciphertexts(r.received, r.standby_ep);
  EXPECT_FALSE(primary.contains(2));
  EXPECT_FALSE(standby.contains(0));
  ASSERT_TRUE(primary.contains(1));
  ASSERT_TRUE(standby.contains(1));
  const auto& sent = primary.at(1);
  const auto& replayed = standby.at(1);
  EXPECT_FALSE(sent.empty());
  EXPECT_EQ(sent.size(), replayed.size());
  for (const auto& [id, c] : sent) {
    const auto it = replayed.find(id);
    ASSERT_NE(it, replayed.end()) << "enc id " << id << " not replayed";
    EXPECT_EQ(test::to_hex(it->second), test::to_hex(c)) << "enc id " << id;
  }
}

TEST(Replica, FailoverReplaySerialVsShardedDifferential) {
  // The sharded pipeline contract extends across failover: a serial pair
  // and a sharded/threaded pair running the same blackout scenario agree
  // on every protocol counter, because the snapshot carries the keygen
  // counter and the v2 pipeline is bit-identical to the serial one.
  PairParams serial;
  serial.onset_ms = 495.0;
  serial.end_ms = 505.0;
  PairParams sharded = serial;
  sharded.shards = 8;
  sharded.workers = 4;
  const PairResult a = run_pair(serial);
  const PairResult b = run_pair(sharded);
  EXPECT_EQ(det(a.primary), det(b.primary));
  EXPECT_EQ(det(a.standby), det(b.standby));
  EXPECT_EQ(det(a.fleets), det(b.fleets));
  EXPECT_TRUE(a.standby.promoted);
  EXPECT_TRUE(a.standby.completed);
}

// The tier-1 acceptance run: a 2^15-client group over the loopback hub,
// blackout mid-batch, threaded server pipeline. Runs the scenario twice
// and byte-compares the deterministic stats projection — the replay
// must be a pure function of (fault plan, seed), never of socket timing.
TEST(Replica, AcceptanceLargeGroupFailoverIsDeterministic) {
  PairParams p;
  p.clients = 1u << 15;
  p.endpoints = 8;
  p.batches = 3;
  p.churn = 256;
  p.onset_ms = 495.0;
  p.end_ms = 505.0;
  p.shards = 8;
  p.workers = 8;
  const PairResult a = run_pair(p);
  EXPECT_TRUE(a.primary.died);
  EXPECT_DOUBLE_EQ(a.primary.died_at_ms, 500.0);
  EXPECT_TRUE(a.standby.promoted);
  EXPECT_TRUE(a.standby.completed);
  EXPECT_EQ(a.standby.epoch, 1u);
  std::uint64_t recovered = 0;
  for (const FleetStats& fs : a.fleets) {
    EXPECT_TRUE(fs.finished);
    EXPECT_EQ(fs.unrecovered, 0u);
    EXPECT_EQ(fs.epoch, 1u);
    recovered += fs.recovered;
  }
  EXPECT_EQ(recovered, std::uint64_t{p.clients} * p.batches);

  const PairResult b = run_pair(p);
  EXPECT_EQ(det(a.primary), det(b.primary));
  EXPECT_EQ(det(a.standby), det(b.standby));
  EXPECT_EQ(det(a.fleets), det(b.fleets));
}

}  // namespace
}  // namespace rekey::wire
