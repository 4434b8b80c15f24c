// KeyServerDaemon — the batch-rekey key server over a real datagram
// transport (the wire counterpart of transport::RekeySession).
//
// The daemon's batch engine holds a persistent KeyTree whose members
// split into two populations:
//
//   * the fleet: uids [0, clients), one per remote virtual client, which
//     never leave — their slot ids evolve across batches exactly as the
//     protocol prescribes (Theorem 4.2), and the remote UserTransports
//     track them without any further server help after the initial
//     SlotMap;
//   * a churn pool of silent members that the daemon joins/leaves each
//     batch to generate real rekey traffic. They have no transport; the
//     multicast serves them but nobody reports for them.
//
// Per batch the daemon runs the same pipeline as GroupKeyService — the
// batch engine (core/batch_engine.h), then ServerTransport — and drives
// the rounds over the wire in lockstep:
//
//   1. data burst: every endpoint gets the round's ENC/PARITY frames
//      (ENC slot wires go to sendmmsg straight out of the transport's
//      arena via ServerTransport::for_each_round_wire — no copies);
//   2. RoundMark, re-sent on a timer until every live endpoint's final
//      Report (or the round deadline) arrives;
//   3. NACK feedback into accept_nack / RhoController, then the next
//      round's reactive parities — identical control law to the simnet.
//
// Every lockstep step — slot maps, round reports, DoneAcks, the Fin
// handshake, the snapshot ship and the failover Resub barrier — is one
// call to await_step: send once, re-send every retry_ms, and stop when
// every answer is in, at round_wait_ms, or on request_stop(). Its waits
// round up to whole milliseconds, so a step blocks in receive() until
// its retry timer fires instead of polling. Endpoints that miss a
// step's deadline are written off by drop_laggards.
//
// After max_multicast_rounds the unicast phase serves reported
// stragglers with (fragmented, duplicated) USR packets wave by wave.
// Data-plane loss needs no transport-level reliability — FEC and NACKs
// are the protocol's own answer; only control frames are retransmitted.
//
// Replication: two daemons form a primary/standby pair. The primary
// ships a sealed full-server snapshot to the standby before every batch,
// heartbeats between lockstep steps, and at the end retires the standby
// with a Fin it resends until acked; the standby promotes itself after
// elect_timeout_ms of silence and replays the interrupted batch under a
// higher fencing epoch. Because snapshots sit at batch
// boundaries and every daemon death point is a protocol-clock step, the
// standby's replay is bit-identical to the batch the primary would have
// run — the determinism contract the replica tests enforce.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/batch_engine.h"
#include "simnet/fault.h"
#include "transport/config.h"
#include "transport/server.h"
#include "wire/control.h"
#include "wire/server_snapshot.h"
#include "wire/wire.h"

namespace rekey::wire {

// Deterministic blackout death: the daemon keeps a protocol clock that
// advances kRoundQuantumMs per lockstep step (batch boundary, round
// burst, unicast wave, batch-done) and goes permanently dark at the
// first step whose clock lands inside a fault-plan blackout window.
// Death is a pure function of (fault, config) — never wall time — so a
// failover scenario replays bit-identically.
inline constexpr double kRoundQuantumMs = 100.0;

struct DaemonConfig {
  transport::ProtocolConfig protocol;
  unsigned degree = 4;
  std::uint64_t key_seed = 20010827;  // SIGCOMM'01

  std::uint32_t clients = 0;  // fleet size; uids [0, clients)
  // Silent members available for churn; batch churn rotates through them.
  std::uint32_t churn_pool = 64;
  std::uint32_t batches = 1;
  std::uint32_t churn_joins = 8;
  std::uint32_t churn_leaves = 8;

  // Lockstep timing: a round's report-collection deadline, and the
  // control-frame retransmit cadence within it.
  int round_wait_ms = 5000;
  int retry_ms = 50;
  // Rounds before switching to unicast (the wire path always switches —
  // a multicast-only daemon would wait forever for a dead client). The
  // lockstep honours none of `protocol`'s max_multicast_rounds,
  // unicast_max_waves, early_unicast_by_size (paper §7.1), deadline_rounds
  // or adapt_num_nack (§6.2), so the daemon refuses any of them set.
  int max_multicast_rounds = 8;
  // Unicast waves before the remaining stragglers are abandoned.
  int unicast_max_waves = 64;
  // Consecutive missed report deadlines before an endpoint is declared
  // dead and dropped from the lockstep.
  int endpoint_dead_after = 3;

  // The batch engine's shards and workers (core/batch_engine.h). The
  // output, and so the wire traffic, is bit-identical for every setting;
  // the defaults run one shard inline.
  unsigned shards = 1;          // power of two in [1, 256]
  unsigned worker_threads = 1;  // 0 picks default_thread_count()

  // Wire protocol version: 0 selects automatically (v2 when the group's
  // initial slot ids could outgrow the v1 u16 fields, v1 otherwise so all
  // legacy byte streams stay identical); kWireV1/kWireV2 force a version.
  // Forcing v1 on a group that needs wide slots is refused at startup.
  unsigned wire_version = 0;

  // --- Replication (two-replica failover) ---
  // Peer replica endpoint. A primary with a peer ships a sealed
  // full-server snapshot (wire/server_snapshot.h) to it before every
  // batch (ack-blocked, so the standby's state always sits at a known
  // batch boundary) and heartbeats every retry_ms between lockstep
  // steps. A standby (standby = true) ingests those snapshots and, once
  // the primary has been silent past elect_timeout_ms, promotes itself
  // with fencing epoch = snapshot epoch + 1, re-syncs the fleet via
  // Resub, and replays the interrupted batch from its opening BatchStart.
  std::optional<Endpoint> peer;
  bool standby = false;
  int elect_timeout_ms = 500;

  // Blackout windows on the protocol clock (kRoundQuantumMs above).
  simnet::FaultPlan fault;
};

struct DaemonStats {
  std::uint32_t endpoints = 0;
  std::uint32_t batches_run = 0;
  std::uint64_t enc_packets = 0;
  std::uint64_t slots = 0;
  std::uint64_t data_frames = 0;       // ENC+PARITY frames handed to the wire
  std::uint64_t data_bytes = 0;        // payload bytes of those frames
  std::uint64_t proactive_parities = 0;
  std::uint64_t reactive_parities = 0;
  std::uint64_t rounds = 0;            // multicast rounds across batches
  std::uint64_t unicast_waves = 0;
  std::uint64_t usr_frags = 0;
  std::uint64_t control_frames = 0;
  std::uint64_t control_retransmits = 0;
  std::uint64_t reports = 0;        // report parts processed
  std::uint64_t nack_users = 0;     // per-round per-user NACK arrivals
  std::uint64_t recovered = 0;      // client-batch recoveries (DoneAcks)
  std::uint64_t via_usr = 0;
  std::uint64_t gave_up = 0;
  std::uint64_t endpoints_dropped = 0;
  // Subscriptions refused because the client's advertised max version is
  // below what the session requires.
  std::uint64_t endpoints_incompatible = 0;
  std::uint32_t wire_version = 1;  // negotiated session version
  double rho_final = 1.0;

  // Replication & failover. Dead endpoints never DoneAck, so their
  // abandoned client-batches are ledgered here: recovered + gave_up +
  // gave_up_dead covers every client-batch the daemon ran to completion.
  std::uint64_t gave_up_dead = 0;
  std::uint64_t snapshots_sent = 0;      // primary: snapshots the standby acked
  std::uint64_t snapshot_chunks = 0;     // SnapChunk frames sent (incl. resends)
  std::uint64_t snapshots_restored = 0;  // standby: snapshots restored + acked
  std::uint64_t resubs = 0;              // Resub frames accepted at failover
  std::uint32_t epoch = 0;               // final fencing epoch
  bool promoted = false;     // this daemon was a standby that took over
  bool died = false;         // killed by the blackout schedule
  double died_at_ms = -1.0;  // protocol clock at death
  // Every batch this daemon was responsible for ran (for an un-promoted
  // standby: the primary finished cleanly and retired it with Fin).
  bool completed = false;
};

// The field list of DaemonStats: calls f(name, field) for every field, in
// the order rekeyd prints them.
template <class F>
void for_each_field(const DaemonStats& s, F&& f) {
  f("endpoints", s.endpoints);
  f("batches_run", s.batches_run);
  f("enc_packets", s.enc_packets);
  f("slots", s.slots);
  f("data_frames", s.data_frames);
  f("data_bytes", s.data_bytes);
  f("proactive_parities", s.proactive_parities);
  f("reactive_parities", s.reactive_parities);
  f("rounds", s.rounds);
  f("unicast_waves", s.unicast_waves);
  f("usr_frags", s.usr_frags);
  f("control_frames", s.control_frames);
  f("control_retransmits", s.control_retransmits);
  f("reports", s.reports);
  f("nack_users", s.nack_users);
  f("recovered", s.recovered);
  f("via_usr", s.via_usr);
  f("gave_up", s.gave_up);
  f("gave_up_dead", s.gave_up_dead);
  f("endpoints_dropped", s.endpoints_dropped);
  f("endpoints_incompatible", s.endpoints_incompatible);
  f("wire_version", s.wire_version);
  f("rho_final", s.rho_final);
  f("snapshots_sent", s.snapshots_sent);
  f("snapshot_chunks", s.snapshot_chunks);
  f("snapshots_restored", s.snapshots_restored);
  f("resubs", s.resubs);
  f("epoch", s.epoch);
  f("promoted", s.promoted);
  f("died", s.died);
  f("died_at_ms", s.died_at_ms);
  f("completed", s.completed);
}

class KeyServerDaemon {
 public:
  KeyServerDaemon(WireTransport& wire, const DaemonConfig& config);

  // Blocks: waits for subscriptions covering every uid, runs the batches,
  // broadcasts Fin, returns the aggregate stats. Safe to call once.
  DaemonStats run();

  // Asks run() to bail out at the next lockstep boundary (test harness
  // timeouts). Callable from another thread.
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  struct EndpointState {
    Endpoint ep;
    std::uint32_t first_uid = 0;
    std::uint32_t count = 0;
    std::uint8_t max_version = kWireV1;  // advertised in Sub
    bool slot_map_acked = false;
    bool dead = false;
    int missed_deadlines = 0;

    // Report collection for the lockstep step in progress.
    std::uint32_t parts_expected = 0;
    std::vector<bool> parts_seen;
    std::size_t parts_have = 0;
    std::uint32_t reported_unrecovered = 0;
    bool report_done = false;
    // uids this endpoint last reported unrecovered (feeds the unicast
    // straggler set).
    std::vector<std::uint32_t> unrecovered_uids;

    bool done_acked = false;  // BatchDone acks
    // Fin acks: a flag of their own, so a duplicate DoneAck of the last
    // batch still in flight during the Fin handshake is not taken for one.
    bool fin_acked = false;
    bool resubbed = false;    // re-subscribed after a failover (Resub)
  };

  bool stopped() const { return stop_.load(std::memory_order_relaxed); }
  // True when every endpoint not written off as dead has `flag` set: the
  // exit test of each lockstep wait.
  bool all_live(bool EndpointState::*flag) const;
  // One lockstep step: send(false) now, send(true) every retry_ms, until
  // done() holds, round_wait_ms passes or a stop is requested. Waits in
  // pump(), never with a zero timeout. Returns done().
  bool await_step(const std::function<bool()>& done,
                  const std::function<void(bool resend)>& send);
  // Deadline bookkeeping after a step that did not complete: every live
  // endpoint without `flag` takes a missed-deadline strike and is dropped
  // at `strikes` of them (1 drops it at once). A no-op once stopped.
  void drop_laggards(bool EndpointState::*flag, int strikes);
  // Sends `frame` to every live endpoint without `flag`; a resend counts
  // one control retransmit per endpoint when `resend` is set.
  void send_to_laggards(bool EndpointState::*flag, const Bytes& frame,
                        bool resend);

  void send_control(Endpoint to, const Bytes& frame);
  // One receive-and-dispatch pass; control frames outside the current
  // lockstep interest (duplicates, stale batches) are answered or
  // dropped here. Returns the number of datagrams processed.
  std::size_t pump(int timeout_ms);

  void wait_for_subscriptions();
  void send_slot_maps();

  // Advances the protocol clock by one lockstep quantum and evaluates the
  // blackout schedule; returns true when the daemon is (now) dead.
  bool step_clock();
  // Rate-limited Heartbeat to the peer (primary role only; no-op otherwise).
  void maybe_heartbeat();
  // Ships the full-server snapshot preceding `next_batch` to the peer and
  // blocks on its SnapAck; a standby that never acks is written off
  // (peer_dead_) so later batches run unreplicated instead of stalling.
  void ship_snapshot(std::uint32_t next_batch);

  // Standby lifecycle: ingest snapshots until the primary falls silent
  // (or Fins), then promote with a higher fencing epoch, re-sync the
  // fleet, and serve the remaining batches.
  DaemonStats run_standby();
  // Takes over from the last acked snapshot. False, with no state
  // changed, when its key tree does not restore under this config.
  bool promote();
  // Election barrier: broadcast the epoch'd BatchStart of the replay
  // batch until every live endpoint has Resub'ed (laggards are dropped at
  // the deadline, like endpoints that stop reporting).
  void resub_barrier();

  // Session teardown: Fin until every live endpoint, and a healthy
  // standby, acks (round_wait_ms at most).
  void fin_handshake();

  // Serves batches [first_batch, batches), shipping each one's snapshot
  // first while a standby is healthy, then runs the Fin handshake unless
  // the daemon went dark. The serving half of run() and run_standby().
  DaemonStats serve(std::uint32_t first_batch);
  // Runs one churn batch end to end; returns false on stop request.
  bool run_batch(std::uint32_t batch_seq);

  // Lockstep report collection: marks the step, retransmits, waits for
  // every live endpoint (deadline round_wait_ms). `phase` 0/1.
  void collect_reports(std::uint32_t batch_seq, std::uint8_t msg_id,
                       std::uint16_t round, std::uint8_t phase,
                       transport::ServerTransport& server);
  void collect_done_acks(std::uint32_t batch_seq, bool last_batch);

  void handle_report(EndpointState& es, const ReportFrame& f,
                     transport::ServerTransport* server);

  // True when the session speaks the wide-slot (v2) frame family.
  bool wide() const { return session_version_ >= kWireV2; }

  WireTransport& wire_;
  DaemonConfig config_;
  std::atomic<bool> stop_{false};

  core::BatchEngine engine_;
  transport::RhoController rho_;
  tree::MemberId next_member_ = 0;
  std::vector<tree::MemberId> churn_members_;  // silent, in join order

  std::map<Endpoint, EndpointState> endpoints_;
  std::uint8_t session_version_ = kWireV1;  // fixed before subscriptions
  // Lockstep the receive pump matches reports against.
  std::uint32_t cur_batch_ = 0;
  std::uint16_t cur_round_ = 0;
  std::uint8_t cur_phase_ = 0;
  transport::ServerTransport* cur_server_ = nullptr;

  // Replication state.
  std::uint32_t epoch_ = 0;       // fencing epoch carried in BatchStart
  std::uint32_t next_batch_ = 0;  // batch being run (or about to run)
  double fault_clock_ms_ = 0.0;   // protocol clock for the blackout schedule
  bool dead_ = false;             // blackout hit: permanently dark
  bool peer_dead_ = false;        // snapshot delivery gave up on the peer
  bool peer_fin_ = false;         // peer announced clean session completion
  bool peer_fin_acked_ = false;   // primary: the standby acked our Fin
  std::int64_t snap_acked_ = -1;  // primary: highest snap_seq the peer acked
  Bytes snap_blob_;               // primary: the last snapshot shipped
  SnapshotReassembly snap_reasm_;            // standby: chunk reassembly
  std::optional<ServerSnapshot> pending_snap_;  // standby: latest restored
  std::chrono::steady_clock::time_point last_peer_heard_{};
  std::chrono::steady_clock::time_point last_heartbeat_{};

  DaemonStats stats_;
};

}  // namespace rekey::wire
