// End-to-end wire protocol tests over the in-process loopback hub:
// KeyServerDaemon and ClientFleet threads exchanging real datagrams with
// deterministic client-side loss shaping. These cover the full session
// lifecycle — subscription, slot maps, lockstep rounds, NACK-driven
// reactive parities, the unicast USR phase with fragmentation, id
// evolution across batches, and the Fin handshake — without sockets, so
// they run anywhere and never flake on kernel buffers.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ensure.h"
#include "common/obs.h"
#include "wire/daemon.h"
#include "wire/fleet.h"
#include "wire/loopback.h"

namespace rekey::wire {
namespace {

struct RunResult {
  DaemonStats daemon;
  std::vector<FleetStats> fleets;
  // Per fleet: every control payload it sent, in order.
  std::vector<std::vector<Bytes>> fleet_control;
};

// Passes everything through and records the control payloads sent.
class TapWire : public WireTransport {
 public:
  TapWire(WireTransport& inner, std::vector<Bytes>& control)
      : inner_(inner), control_(control) {}
  bool send(Endpoint to, std::uint8_t channel,
            std::span<const std::uint8_t> payload) override {
    if (channel == kChanControl)
      control_.emplace_back(payload.begin(), payload.end());
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
  std::vector<Bytes>& control_;
};

RunResult run_session(LoopbackHub& hub, DaemonConfig dc,
                      const std::vector<FleetConfig>& fleet_configs) {
  auto daemon_wire = hub.attach();
  KeyServerDaemon daemon(*daemon_wire, dc);
  RunResult r;
  r.fleets.resize(fleet_configs.size());
  r.fleet_control.resize(fleet_configs.size());
  std::thread daemon_thread([&] { r.daemon = daemon.run(); });
  std::vector<std::thread> fleet_threads;
  for (std::size_t i = 0; i < fleet_configs.size(); ++i) {
    fleet_threads.emplace_back([&, i] {
      auto wire = hub.attach();
      TapWire tap(*wire, r.fleet_control[i]);
      ClientFleet fleet(tap, daemon_wire->endpoint(), fleet_configs[i]);
      r.fleets[i] = fleet.run();
    });
  }
  for (auto& t : fleet_threads) t.join();
  daemon_thread.join();
  return r;
}

DaemonConfig base_daemon(std::uint32_t clients) {
  DaemonConfig dc;
  dc.clients = clients;
  dc.churn_pool = 64;
  dc.churn_joins = 16;
  dc.churn_leaves = 16;
  dc.retry_ms = 10;
  dc.round_wait_ms = 10000;
  return dc;
}

FleetConfig fleet_slice(std::uint32_t first, std::uint32_t count) {
  FleetConfig fc;
  fc.first_uid = first;
  fc.count = count;
  fc.retry_ms = 10;
  fc.idle_timeout_ms = 15000;
  return fc;
}

TEST(WireLoopback, ZeroLossDeliversInOneRound) {
  LoopbackHub hub;
  auto r = run_session(hub, base_daemon(64),
                       {fleet_slice(0, 32), fleet_slice(32, 32)});
  EXPECT_EQ(r.daemon.batches_run, 1u);
  EXPECT_EQ(r.daemon.rounds, 1u);  // nothing lost, nobody NACKs
  EXPECT_EQ(r.daemon.recovered, 64u);
  EXPECT_EQ(r.daemon.via_usr, 0u);
  EXPECT_EQ(r.daemon.gave_up, 0u);
  EXPECT_EQ(r.daemon.unicast_waves, 0u);
  EXPECT_EQ(r.daemon.endpoints, 2u);
  for (const FleetStats& fs : r.fleets) {
    EXPECT_TRUE(fs.finished);
    EXPECT_EQ(fs.recovered, fs.clients);
    EXPECT_EQ(fs.unrecovered, 0u);
  }
}

TEST(WireLoopback, LossyRecoveryViaNacksAndParities) {
  // Small packets force several FEC blocks with little duplication, so
  // shaped loss produces real NACK traffic and reactive parities.
  LoopbackHub hub;
  DaemonConfig dc = base_daemon(128);
  dc.batches = 2;
  dc.churn_pool = 128;
  dc.churn_joins = 64;
  dc.churn_leaves = 64;
  dc.protocol.packet_size = 300;
  auto fc = fleet_slice(0, 128);
  fc.shaping.down_loss = 0.25;
  fc.shaping.seed = 42;
  auto r = run_session(hub, dc, {fc});
  EXPECT_EQ(r.daemon.batches_run, 2u);
  EXPECT_GT(r.daemon.rounds, 2u) << "loss should force extra rounds";
  EXPECT_GT(r.daemon.nack_users, 0u);
  EXPECT_GT(r.daemon.reactive_parities, 0u);
  EXPECT_EQ(r.daemon.recovered, 256u);
  EXPECT_EQ(r.daemon.gave_up, 0u);
  EXPECT_TRUE(r.fleets[0].finished);
  EXPECT_EQ(r.fleets[0].unrecovered, 0u);
  EXPECT_GT(r.fleets[0].shaped_off, 0u);
}

TEST(WireLoopback, LossyRunsAreDeterministic) {
  const auto run_once = [] {
    LoopbackHub hub;
    DaemonConfig dc = base_daemon(96);
    dc.batches = 2;
    dc.protocol.packet_size = 300;
    auto fc = fleet_slice(0, 96);
    fc.shaping.down_loss = 0.3;
    fc.shaping.seed = 1234;
    return run_session(hub, dc, {fc});
  };
  const auto a = run_once();
  const auto b = run_once();
  // Socket timing varies between runs; the protocol counters must not.
  EXPECT_EQ(a.daemon.rounds, b.daemon.rounds);
  EXPECT_EQ(a.daemon.reactive_parities, b.daemon.reactive_parities);
  EXPECT_EQ(a.daemon.nack_users, b.daemon.nack_users);
  EXPECT_EQ(a.daemon.usr_frags, b.daemon.usr_frags);
  EXPECT_EQ(a.daemon.recovered, b.daemon.recovered);
  EXPECT_EQ(a.fleets[0].shaped_off, b.fleets[0].shaped_off);
  EXPECT_EQ(a.fleets[0].nacks_suppressed, b.fleets[0].nacks_suppressed);
}

TEST(WireLoopback, MultiBatchIdEvolutionSurvives) {
  // Five churn batches: every client's id moves per Theorem 4.2 after
  // each batch. If the client-side derivation diverged from the server's
  // tree, later batches would address the wrong ids and clients would
  // stop recovering from their ENC packets.
  LoopbackHub hub;
  DaemonConfig dc = base_daemon(64);
  dc.batches = 5;
  auto r = run_session(hub, dc, {fleet_slice(0, 64)});
  EXPECT_EQ(r.daemon.batches_run, 5u);
  EXPECT_EQ(r.daemon.recovered, 5u * 64u);
  EXPECT_EQ(r.daemon.gave_up, 0u);
  EXPECT_EQ(r.fleets[0].batches, 5u);
  EXPECT_TRUE(r.fleets[0].finished);
}

TEST(WireLoopback, UnicastPhaseServesStragglersWithFragmentation) {
  // One multicast round, then heavy per-client loss: stragglers must be
  // served by unicast USR packets. The tiny hub MTU forces every USR to
  // fragment, so this also proves the daemon never needs an over-MTU
  // datagram (the hub refuses oversize sends outright).
  LoopbackHub hub(150);
  DaemonConfig dc = base_daemon(48);
  dc.batches = 2;
  dc.max_multicast_rounds = 1;
  dc.protocol.packet_size = 120;
  auto fc = fleet_slice(0, 48);
  fc.shaping.down_loss = 0.5;
  fc.shaping.seed = 7;
  auto r = run_session(hub, dc, {fc});
  EXPECT_EQ(r.daemon.recovered, 96u);
  EXPECT_EQ(r.daemon.gave_up, 0u);
  EXPECT_GT(r.daemon.unicast_waves, 0u);
  EXPECT_GT(r.daemon.via_usr, 0u);
  // USR wires (5-byte header + 22-byte entries) cannot fit one 149-byte
  // payload whenever a straggler owes several keys; fragmentation must
  // have produced more frags than stragglers served.
  EXPECT_GT(r.daemon.usr_frags, r.daemon.via_usr);
  EXPECT_TRUE(r.fleets[0].finished);
  EXPECT_EQ(r.fleets[0].unrecovered, 0u);
}

TEST(WireLoopback, ReportsListExactlyTheUnrecoveredInUidOrder) {
  // The fleet walks a compacted list of its unrecovered clients. Under
  // loss, FEC decodes at round ends and USR recoveries between unicast
  // waves, every report must still list exactly its unrecovered count of
  // distinct clients, in ascending uid order across all of its parts. A
  // client whose NACK upstream shaping lost is listed too, with no
  // entries.
  for (const double up_loss : {0.0, 0.5}) {
    SCOPED_TRACE(::testing::Message() << "up_loss " << up_loss);
    LoopbackHub hub(150);  // small MTU: reports split into several parts
    DaemonConfig dc = base_daemon(48);
    dc.batches = 2;
    dc.max_multicast_rounds = 2;
    dc.protocol.packet_size = 120;
    auto fc = fleet_slice(0, 48);
    fc.shaping.down_loss = 0.5;
    fc.shaping.up_loss = up_loss;
    fc.shaping.seed = 7;
    auto r = run_session(hub, dc, {fc});
    ASSERT_EQ(r.daemon.recovered, 96u);
    ASSERT_GT(r.daemon.via_usr, 0u);

    // (batch, round, phase) -> parts by index; retransmits repeat a part.
    std::map<std::tuple<std::uint32_t, std::uint16_t, std::uint8_t>,
             std::map<std::uint32_t, ReportFrame>>
        reports;
    for (const Bytes& payload : r.fleet_control[0]) {
      if (peek_op(payload) != ControlOp::Report) continue;
      const auto f = parse_report(payload);
      ASSERT_TRUE(f.has_value());
      reports[{f->batch_seq, f->round, f->phase}][f->part] = *f;
    }
    std::size_t multi_part = 0;
    for (const auto& [step, parts] : reports) {
      ASSERT_EQ(parts.size(), parts.begin()->second.nparts);
      multi_part += parts.size() > 1;
      std::vector<std::uint32_t> uids;
      for (const auto& [part, f] : parts)
        for (const ReportUser& u : f.users) uids.push_back(u.uid);
      EXPECT_EQ(uids.size(), parts.begin()->second.unrecovered);
      EXPECT_TRUE(std::is_sorted(uids.begin(), uids.end()));
      EXPECT_EQ(std::adjacent_find(uids.begin(), uids.end()), uids.end());
    }
    EXPECT_GT(multi_part, 0u);
  }
}

TEST(WireLoopback, UpstreamLossDelaysButDoesNotLoseClients) {
  // Suppressed NACK reports starve the server of parity requests, but the
  // lockstep report still lists every unrecovered client, so every client
  // converges (possibly via more rounds or unicast). With every NACK lost
  // and a single multicast round, only the unicast phase can serve them.
  for (const auto& [up_loss, max_rounds] :
       {std::pair{0.5, 4}, std::pair{1.0, 1}}) {
    SCOPED_TRACE(::testing::Message() << "up_loss " << up_loss);
    LoopbackHub hub;
    DaemonConfig dc = base_daemon(96);
    dc.churn_pool = 128;
    dc.churn_joins = 64;  // enough traffic for multiple FEC blocks
    dc.churn_leaves = 64;
    dc.protocol.packet_size = 300;
    dc.max_multicast_rounds = max_rounds;
    auto fc = fleet_slice(0, 96);
    fc.shaping.down_loss = 0.25;
    fc.shaping.up_loss = up_loss;
    fc.shaping.seed = 99;
    auto r = run_session(hub, dc, {fc});
    EXPECT_EQ(r.daemon.recovered, 96u);
    EXPECT_EQ(r.daemon.gave_up, 0u);
    EXPECT_GT(r.fleets[0].nacks_suppressed, 0u);
    EXPECT_TRUE(r.fleets[0].finished);
    if (up_loss == 1.0) {
      EXPECT_GT(r.daemon.via_usr, 0u);
    }
  }
}

TEST(WireLoopback, NegotiationPicksV1ForSmallGroups) {
  // A v2-capable client against a small group: the server must keep the
  // session on v1 so the byte streams match a pre-wide-slot deployment.
  LoopbackHub hub;
  auto fc = fleet_slice(0, 64);
  ASSERT_EQ(fc.max_version, kWireV2);  // fleets advertise v2 by default
  auto r = run_session(hub, base_daemon(64), {fc});
  EXPECT_EQ(r.daemon.wire_version, 1u);
  EXPECT_EQ(r.fleets[0].wire_version, 1u);
  EXPECT_EQ(r.daemon.recovered, 64u);
  EXPECT_TRUE(r.fleets[0].finished);
}

TEST(WireLoopback, NegotiationForcedV2OnSmallGroup) {
  // Forcing v2 runs the whole stack wide — 16-byte ENC headers, u32 slot
  // maps, v2 reports — on a group small enough to verify cheaply.
  LoopbackHub hub;
  DaemonConfig dc = base_daemon(64);
  dc.wire_version = kWireV2;
  dc.batches = 2;
  auto r = run_session(hub, dc, {fleet_slice(0, 64)});
  EXPECT_EQ(r.daemon.wire_version, 2u);
  EXPECT_EQ(r.fleets[0].wire_version, 2u);
  EXPECT_EQ(r.daemon.recovered, 128u);
  EXPECT_EQ(r.daemon.gave_up, 0u);
  EXPECT_TRUE(r.fleets[0].finished);
  EXPECT_EQ(r.fleets[0].unrecovered, 0u);
}

TEST(WireLoopback, NegotiationRefusesLegacyClientOnWideSession) {
  // A v1-only client subscribing to a session that requires wide slots
  // gets no SubAck: it must time out cleanly, not mis-parse v2 frames.
  LoopbackHub hub;
  auto daemon_wire = hub.attach();
  DaemonConfig dc = base_daemon(32);
  dc.wire_version = kWireV2;
  KeyServerDaemon daemon(*daemon_wire, dc);
  DaemonStats ds;
  std::thread daemon_thread([&] { ds = daemon.run(); });
  auto fc = fleet_slice(0, 32);
  fc.max_version = kWireV1;  // legacy client
  fc.idle_timeout_ms = 500;
  auto fleet_wire = hub.attach();
  ClientFleet fleet(*fleet_wire, daemon_wire->endpoint(), fc);
  const FleetStats fs = fleet.run();
  daemon.request_stop();
  daemon_thread.join();
  EXPECT_FALSE(fs.finished);
  EXPECT_EQ(fs.recovered, 0u);
  EXPECT_EQ(ds.endpoints, 0u);
  EXPECT_GE(ds.endpoints_incompatible, 1u);
}

TEST(WireLoopback, WideSlotUnicastServesStragglers) {
  // The unicast USR path in a forced-wide session: 9-byte wide USR
  // headers, v2 fragmentation, and wide reassembly under heavy loss.
  LoopbackHub hub(150);
  DaemonConfig dc = base_daemon(48);
  dc.wire_version = kWireV2;
  dc.max_multicast_rounds = 1;
  dc.protocol.packet_size = 120;
  auto fc = fleet_slice(0, 48);
  fc.shaping.down_loss = 0.5;
  fc.shaping.seed = 7;
  auto r = run_session(hub, dc, {fc});
  EXPECT_EQ(r.daemon.wire_version, 2u);
  EXPECT_EQ(r.daemon.recovered, 48u);
  EXPECT_EQ(r.daemon.gave_up, 0u);
  EXPECT_GT(r.daemon.via_usr, 0u);
  EXPECT_GT(r.daemon.usr_frags, r.daemon.via_usr);
  EXPECT_TRUE(r.fleets[0].finished);
  EXPECT_EQ(r.fleets[0].unrecovered, 0u);
}

TEST(WireLoopback, WideSlotGroupAllClientsRecover) {
  // The tentpole acceptance test: a single wire group of N = 2^17
  // clients — slot ids far past the old u16 ceiling — auto-negotiates
  // v2, runs the sharded batch pipeline, and every client recovers.
  constexpr std::uint32_t kClients = 1u << 17;
  LoopbackHub hub;
  DaemonConfig dc = base_daemon(kClients);
  dc.shards = 16;
  dc.worker_threads = 4;
  dc.round_wait_ms = 60000;
  std::vector<FleetConfig> fleets;
  for (std::uint32_t i = 0; i < 8; ++i) {
    auto fc = fleet_slice(i * (kClients / 8), kClients / 8);
    fc.idle_timeout_ms = 60000;
    fleets.push_back(fc);
  }
  auto r = run_session(hub, dc, fleets);
  EXPECT_EQ(r.daemon.wire_version, 2u);
  EXPECT_EQ(r.daemon.endpoints, 8u);
  EXPECT_EQ(r.daemon.batches_run, 1u);
  EXPECT_EQ(r.daemon.recovered, kClients);
  EXPECT_EQ(r.daemon.gave_up, 0u);
  EXPECT_EQ(r.daemon.endpoints_dropped, 0u);
  std::uint64_t recovered = 0;
  for (const FleetStats& fs : r.fleets) {
    EXPECT_TRUE(fs.finished);
    EXPECT_EQ(fs.wire_version, 2u);
    EXPECT_EQ(fs.unrecovered, 0u);
    recovered += fs.recovered;
  }
  EXPECT_EQ(recovered, kClients);
}

TEST(WireLoopback, EndpointDeathMidUnicastLandsInDeadLedger) {
  // An endpoint that goes silent during the unicast phase: the daemon
  // must declare it dead after endpoint_dead_after missed wave
  // deadlines, stop serving its stragglers, and account its clients in
  // gave_up_dead — never hang the lockstep, never count them recovered.
  LoopbackHub hub;
  DaemonConfig dc = base_daemon(64);
  dc.max_multicast_rounds = 1;  // force the unicast phase for stragglers
  dc.protocol.packet_size = 120;
  dc.round_wait_ms = 600;  // 3 missed wave deadlines resolve quickly
  auto live = fleet_slice(0, 48);
  auto dying = fleet_slice(48, 16);
  dying.shaping.down_loss = 0.6;  // guarantees unicast stragglers
  dying.shaping.seed = 77;
  dying.die_at_wave = 0;  // silent from the first unicast wave on
  auto r = run_session(hub, dc, {live, dying});

  EXPECT_EQ(r.daemon.batches_run, 1u);
  EXPECT_GT(r.daemon.unicast_waves, 0u);
  EXPECT_EQ(r.daemon.endpoints_dropped, 1u);
  EXPECT_EQ(r.daemon.gave_up_dead, 16u);
  EXPECT_EQ(r.daemon.gave_up, 0u);  // nobody live was abandoned
  // The byte ledger: every client-batch the daemon ran to completion is
  // either recovered (DoneAck'ed), given up live, or given up dead.
  EXPECT_EQ(r.daemon.recovered + r.daemon.gave_up + r.daemon.gave_up_dead,
            64u * r.daemon.batches_run);
  EXPECT_TRUE(r.fleets[0].finished);
  EXPECT_EQ(r.fleets[0].recovered, 48u);
  EXPECT_FALSE(r.fleets[1].finished);  // died mid-wave, never saw Fin
}

TEST(WireLoopback, EndpointDeathAtBatchBoundaryKeepsLaterBatchesMoving) {
  // Death between batches: the endpoint never reports in the next batch,
  // eats three round deadlines, and is dropped; the remaining fleet
  // finishes every batch. Its clients land in gave_up_dead once per
  // remaining batch.
  LoopbackHub hub;
  DaemonConfig dc = base_daemon(64);
  dc.batches = 3;
  dc.round_wait_ms = 600;
  auto live = fleet_slice(0, 48);
  auto dying = fleet_slice(48, 16);
  dying.die_at_batch = 1;  // finalizes batch 0, silent from batch 1 on
  auto r = run_session(hub, dc, {live, dying});

  EXPECT_EQ(r.daemon.batches_run, 3u);
  EXPECT_EQ(r.daemon.endpoints_dropped, 1u);
  // Batch 0 counted all 64; batches 1 and 2 count the dead 16 each.
  EXPECT_EQ(r.daemon.gave_up_dead, 32u);
  EXPECT_EQ(r.daemon.recovered + r.daemon.gave_up + r.daemon.gave_up_dead,
            64u * 3u);
  EXPECT_TRUE(r.fleets[0].finished);
  EXPECT_EQ(r.fleets[0].recovered, 48u * 3u);
  EXPECT_FALSE(r.fleets[1].finished);
  EXPECT_EQ(r.fleets[1].recovered, 16u);  // batch 0 only
}

TEST(WireLoopback, SilentSubscriberIsDroppedAtSlotMapDeadline) {
  // An endpoint that subscribes and then never acks its slot map: the
  // daemon drops it at the slot-map deadline instead of ending the
  // session, runs every batch for the honest fleet, and ledgers the
  // silent endpoint's clients in gave_up_dead.
  LoopbackHub hub;
  auto daemon_wire = hub.attach();
  DaemonConfig dc = base_daemon(48);
  dc.batches = 2;
  dc.round_wait_ms = 1000;  // the slot-map deadline the silent one misses
  KeyServerDaemon daemon(*daemon_wire, dc);
  auto silent = hub.attach();
  ASSERT_TRUE(silent->send(daemon_wire->endpoint(), kChanControl,
                           serialize(SubFrame{32, 16, kWireV2})));
  DaemonStats ds;
  std::string error;
  std::thread daemon_thread([&] {
    try {
      ds = daemon.run();
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  auto fleet_wire = hub.attach();
  ClientFleet fleet(*fleet_wire, daemon_wire->endpoint(), fleet_slice(0, 32));
  const FleetStats fs = fleet.run();
  daemon_thread.join();

  ASSERT_EQ(error, "");
  EXPECT_TRUE(ds.completed);
  EXPECT_EQ(ds.batches_run, 2u);
  EXPECT_EQ(ds.endpoints, 2u);
  EXPECT_EQ(ds.endpoints_dropped, 1u);
  EXPECT_EQ(ds.gave_up_dead, 16u * 2u);
  EXPECT_EQ(ds.recovered + ds.gave_up + ds.gave_up_dead, 48u * 2u);
  EXPECT_TRUE(fs.finished);
  EXPECT_EQ(fs.recovered, 32u * 2u);
  EXPECT_EQ(fs.unrecovered, 0u);
}

// Passes everything through and counts the receive calls that cannot
// block (timeout 0).
class PollCountingWire : public WireTransport {
 public:
  explicit PollCountingWire(WireTransport& inner) : inner_(inner) {}
  bool send(Endpoint to, std::uint8_t channel,
            std::span<const std::uint8_t> payload) override {
    return inner_.send(to, channel, payload);
  }
  std::size_t send_frames(Endpoint to, std::uint8_t channel,
                          std::span<const Bytes* const> frames) override {
    return inner_.send_frames(to, channel, frames);
  }
  std::size_t receive(std::vector<Datagram>& out, int timeout_ms) override {
    ++receives;
    if (timeout_ms == 0) ++zero_timeout_receives;
    return inner_.receive(out, timeout_ms);
  }
  std::size_t max_payload() const override { return inner_.max_payload(); }

  std::uint64_t receives = 0;
  std::uint64_t zero_timeout_receives = 0;

 private:
  WireTransport& inner_;
};

TEST(WireLoopback, LockstepWaitNeverPollsWithZeroTimeout) {
  // A fleet that goes silent at its first batch makes the daemon wait out
  // a whole report deadline, re-marking every retry_ms. Each wait inside
  // a retry interval must block in receive(); a wait rounded down to 0 ms
  // would spin through the last millisecond of every interval.
  LoopbackHub hub;
  auto inner = hub.attach();
  PollCountingWire daemon_wire(*inner);
  DaemonConfig dc = base_daemon(32);
  dc.retry_ms = 10;
  dc.round_wait_ms = 200;
  dc.endpoint_dead_after = 1;
  KeyServerDaemon daemon(daemon_wire, dc);
  DaemonStats ds;
  std::thread daemon_thread([&] { ds = daemon.run(); });
  auto fc = fleet_slice(0, 32);
  fc.die_at_batch = 0;
  auto fleet_wire = hub.attach();
  ClientFleet fleet(*fleet_wire, inner->endpoint(), fc);
  fleet.run();
  daemon_thread.join();

  EXPECT_GT(daemon_wire.receives, 0u);
  EXPECT_EQ(daemon_wire.zero_timeout_receives, 0u);
  EXPECT_EQ(ds.endpoints_dropped, 1u);
  EXPECT_EQ(ds.gave_up_dead, fc.count);
}

TEST(WireLoopback, MaxRoundsAboveTheRoundCapIsRefusedAtStartup) {
  // The multicast loop ensures round <= max_rounds_cap, so a larger
  // max_multicast_rounds would abort a running session the first time a
  // member cannot recover. The constructor refuses it instead, and each
  // protocol field the lockstep would silently ignore too.
  LoopbackHub hub;
  auto wire = hub.attach();
  DaemonConfig dc = base_daemon(16);
  dc.max_multicast_rounds = dc.protocol.max_rounds_cap;
  EXPECT_NO_THROW(KeyServerDaemon(*wire, dc));
  dc.max_multicast_rounds = dc.protocol.max_rounds_cap + 1;
  EXPECT_THROW(KeyServerDaemon(*wire, dc), EnsureError);

  std::vector<DaemonConfig> ignored(5, base_daemon(16));
  ignored[0].protocol.max_multicast_rounds = 2;
  ignored[1].protocol.unicast_max_waves = 4;
  ignored[2].protocol.early_unicast_by_size = true;
  ignored[3].protocol.deadline_rounds = 2;
  ignored[4].protocol.adapt_num_nack = true;
  for (std::size_t i = 0; i < ignored.size(); ++i)
    EXPECT_THROW(KeyServerDaemon(*wire, ignored[i]), EnsureError) << i;
}

TEST(WireLoopback, BatchesAdvanceTheKeyServerMetrics) {
  // The daemon runs each batch through the batch engine, which records
  // the keyserver.* metrics: one count and one timing per batch run.
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t batches = reg.counter("keyserver.batches").value();
  const std::uint64_t encryptions =
      reg.counter("keyserver.encryptions").value();
  const std::size_t timed = reg.histogram("keyserver.batch_us").count();
  LoopbackHub hub;
  DaemonConfig dc = base_daemon(64);
  dc.batches = 3;
  const auto r =
      run_session(hub, dc, {fleet_slice(0, 32), fleet_slice(32, 32)});
  ASSERT_EQ(r.daemon.batches_run, 3u);
  EXPECT_EQ(reg.counter("keyserver.batches").value() - batches,
            r.daemon.batches_run);
  EXPECT_EQ(reg.histogram("keyserver.batch_us").count() - timed,
            r.daemon.batches_run);
  EXPECT_GT(reg.counter("keyserver.encryptions").value(), encryptions);
  EXPECT_GT(reg.gauge("keyserver.arena_bytes").value(), 0.0);
}

TEST(WireLoopback, ManyEndpointsPartitionTheFleet) {
  LoopbackHub hub;
  std::vector<FleetConfig> fleets;
  for (std::uint32_t i = 0; i < 8; ++i) fleets.push_back(fleet_slice(i * 16, 16));
  DaemonConfig dc = base_daemon(128);
  dc.batches = 2;
  auto r = run_session(hub, dc, fleets);
  EXPECT_EQ(r.daemon.endpoints, 8u);
  EXPECT_EQ(r.daemon.recovered, 256u);
  for (const FleetStats& fs : r.fleets) {
    EXPECT_TRUE(fs.finished);
    EXPECT_EQ(fs.unrecovered, 0u);
  }
}

// Three fleets, every listed field filled through the list with a value
// no other field or fleet shares (the middle fleet holds each maximum),
// must fold by each field's rule: counts add, batches, wire_version and
// epoch take the max, and the one flag holds only if every fleet's does.
// A field added to FleetStats and its list but not to the fold fails here.
// The next control payload of type `op` that `wire` receives, skipping
// anything else; nullopt after `timeout_ms` without one.
std::optional<Bytes> await_control(WireTransport& wire, ControlOp op,
                                   int timeout_ms = 5000) {
  std::vector<Datagram> in;
  for (int waited = 0; waited < timeout_ms; waited += 10) {
    in.clear();
    wire.receive(in, 10);
    for (const Datagram& d : in)
      if (d.channel == kChanControl && peek_op(d.payload) == op)
        return d.payload;
  }
  return std::nullopt;
}

TEST(WireLoopback, UsrFragmentsDoNotCompleteAcrossBatches) {
  // A scripted server leaves the fleet's one member holding half of its
  // batch-0 USR packet at BatchDone, then sends only the other half of
  // its batch-1 packet. Reassembly keys partial packets by uid alone and
  // the fleet keeps its member table across batches, so the leftover half
  // must be gone: the two halves would parse as one USR packet.
  LoopbackHub hub;
  auto server = hub.attach();
  auto fleet_wire = hub.attach();
  ClientFleet fleet(*fleet_wire, server->endpoint(), fleet_slice(0, 1));
  FleetStats fs;
  std::thread fleet_thread([&] { fs = fleet.run(); });

  packet::UsrPacket usr;
  usr.new_user_id = 21;
  usr.max_kid = 5;
  for (std::uint32_t id : {21u, 5u, 1u}) {
    packet::EncEntry e;
    e.enc_id = id;
    e.enc.tag = static_cast<std::uint16_t>(id);
    usr.entries.push_back(e);
  }
  const Bytes first = usr.serialize();
  usr.msg_id = 1;
  for (packet::EncEntry& e : usr.entries) e.enc.ciphertext[0] = 0xEE;
  const Bytes second = usr.serialize();
  const std::size_t half = first.size() / 2;
  const auto frag = [&](std::uint32_t batch, std::uint16_t i, const Bytes& w) {
    UsrFragFrame f;
    f.batch_seq = batch;
    f.frag = i;
    f.nfrags = 2;
    f.bytes.assign(w.begin() + (i == 0 ? 0 : half),
                   i == 0 ? w.begin() + half : w.end());
    return *serialize(f);
  };
  Bytes mixed(first.begin(), first.begin() + half);
  mixed.insert(mixed.end(), second.begin() + half, second.end());
  ASSERT_TRUE(packet::UsrPacket::parse(mixed).has_value());

  const Endpoint to = fleet_wire->endpoint();
  ASSERT_TRUE(await_control(*server, ControlOp::Sub));
  SubAckFrame ack;
  ack.group_size = 1;
  ack.expected_clients = 1;
  ack.packet_size = 1027;
  ack.batches = 2;
  server->send(to, kChanControl, serialize(ack));
  server->send(to, kChanControl, *serialize(SlotMapFrame{0, {5}}));
  ASSERT_TRUE(await_control(*server, ControlOp::SlotMapAck));
  for (std::uint32_t b = 0; b < 2; ++b) {
    server->send(to, kChanControl,
                 serialize(BatchStartFrame{b, static_cast<std::uint8_t>(b)}));
    server->send(to, kChanControl, b == 0 ? frag(0, 0, first)
                                          : frag(1, 1, second));
    server->send(to, kChanControl,
                 serialize(BatchDoneFrame{b, static_cast<std::uint8_t>(b)}));
    const auto done = await_control(*server, ControlOp::DoneAck);
    ASSERT_TRUE(done);
    const auto f = parse_done_ack(*done);
    ASSERT_TRUE(f);
    EXPECT_EQ(f->batch_seq, b);
    EXPECT_EQ(f->recovered, 0u) << "batch " << b;
    EXPECT_EQ(f->gave_up, 1u) << "batch " << b;
  }
  server->send(to, kChanControl, serialize(FinFrame{}));
  fleet_thread.join();
  EXPECT_TRUE(fs.finished);
  EXPECT_EQ(fs.batches, 2u);
  EXPECT_EQ(fs.recovered, 0u);
  EXPECT_EQ(fs.unrecovered, 2u);
}

TEST(FleetStatsFold, EveryListedFieldFollowsItsRule) {
  std::vector<FleetStats> fleets(3);
  const std::uint64_t offset[] = {1, 3, 2};
  for (std::size_t f = 0; f < fleets.size(); ++f) {
    std::uint64_t i = 0;
    for_each_field(fleets[f], [&](const char*, auto& v) {
      using T = std::remove_reference_t<decltype(v)>;
      ++i;
      if constexpr (std::is_same_v<T, bool>)
        v = true;
      else
        v = static_cast<T>(10 * i + offset[f]);
    });
    fleets[f].recovery_ms = {1.0 * f, 1.0 * f + 0.5};
  }

  const FleetStats sum = fold_fleets(fleets);
  const std::set<std::string_view> max_fields = {"batches", "wire_version",
                                                 "epoch"};
  std::uint64_t i = 0;
  for_each_field(sum, [&](const char* name, const auto& v) {
    using T = std::remove_cvref_t<decltype(v)>;
    ++i;
    if constexpr (std::is_same_v<T, bool>)
      EXPECT_TRUE(v) << name;
    else if (max_fields.count(name) != 0)
      EXPECT_EQ(v, 10 * i + 3) << name;
    else
      EXPECT_EQ(v, 30 * i + 6) << name;
  });
  EXPECT_EQ(sum.recovery_ms,
            (std::vector<double>{0.0, 0.5, 1.0, 1.5, 2.0, 2.5}));

  fleets[1].finished = false;
  EXPECT_FALSE(fold_fleets(fleets).finished);
  EXPECT_FALSE(fold_fleets({}).finished);
}

}  // namespace
}  // namespace rekey::wire
