// ClientFleet — a multiplexer of lightweight virtual rekey clients.
//
// One fleet instance owns one WireTransport endpoint and speaks for a
// contiguous range of uids. Every virtual client is a real
// transport::UserTransport — the same parsing, shard dedup, block
// estimation, FEC decoding, and NACK construction the simulator's users
// run — but the fleet shares a single receive loop, a single per-batch
// packet pool, and a single control-plane voice (aggregated Reports)
// across all of them, so a process can multiplex 10^5 clients per a few
// threads (tools/rekey_load spawns one fleet per thread). Each data frame
// goes only to the unrecovered clients it can change: every client until
// its id and block are settled, then the clients of the frame's block
// and those whose id its ENC range holds (UserTransport::interest()).
//
// Loss/jitter shaping is client-side and deterministic: every potential
// delivery draws from a stateless hash of (seed, uid, batch, counter),
// so two runs with the same seed shape identically regardless of socket
// timing. Downstream draws drop data frames and USR fragments per
// client; upstream draws suppress a client's NACK entries from the
// round report (the client stays listed with no entries — the unicast
// wake-up path is how the real protocol survives lost NACKs, and the
// lockstep report's listing plays that role here).
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "transport/user.h"
#include "wire/control.h"
#include "wire/wire.h"

namespace rekey::wire {

// SplitMix64 finalizer — the stateless draw behind the shaper.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct ShapingConfig {
  double down_loss = 0.0;  // P(drop) per client per data frame / USR frag
  double up_loss = 0.0;    // P(suppress) per client NACK entry per round
  std::uint64_t seed = 1;

  bool active() const { return down_loss > 0.0 || up_loss > 0.0; }
  // Deterministic Bernoulli draw for stream `tag` at position `n`.
  bool drop(std::uint64_t uid, std::uint64_t tag, std::uint64_t n,
            double p) const {
    if (p <= 0.0) return false;
    const std::uint64_t h = mix64(seed ^ mix64(uid ^ mix64(tag ^ mix64(n))));
    return static_cast<double>(h >> 11) * 0x1.0p-53 < p;
  }
};

struct FleetConfig {
  std::uint32_t first_uid = 0;
  std::uint32_t count = 0;
  ShapingConfig shaping;
  int retry_ms = 50;
  // Abort if the server goes silent this long (keeps tests from hanging).
  int idle_timeout_ms = 30000;
  // Highest wire protocol version this fleet advertises in Sub; the
  // server picks the session version (kWireV1 emulates a legacy client).
  std::uint8_t max_version = kMaxWireVersion;

  // Failover set: endpoints whose higher-epoch BatchStart the fleet
  // adopts as its new server. Epoch fencing both ways: a BatchStart at a
  // lower epoch than the one adopted is ignored even from the current
  // server, so a stale primary can never reclaim the fleet.
  std::vector<Endpoint> failover;

  // Deterministic death hooks (dead-endpoint accounting tests): exit
  // run() silently before opening batch `die_at_batch`, or on the
  // phase-1 (unicast) RoundMark of wave `die_at_wave`. -1 = never.
  std::int64_t die_at_batch = -1;
  std::int64_t die_at_wave = -1;
};

struct FleetStats {
  std::uint32_t clients = 0;
  std::uint32_t batches = 0;
  std::uint64_t recovered = 0;    // client-batch recoveries
  std::uint64_t via_usr = 0;      // of which through the unicast phase
  std::uint64_t unrecovered = 0;  // client-batches abandoned by the server
  std::uint64_t data_frames = 0;  // data-plane frames received
  // Deliveries the shaper suppressed: of USR fragments, and of data
  // frames to the clients that could use them (no draw is made for a
  // frame that a client's interest() excludes).
  std::uint64_t shaped_off = 0;
  std::uint64_t nacks_suppressed = 0;
  std::uint64_t reports_sent = 0;  // report parts (incl. retransmits)
  std::uint64_t control_frames = 0;
  std::uint32_t wire_version = 1;  // session version from SubAck
  bool finished = false;  // saw Fin (false = idle-timeout abort)
  std::uint32_t epoch = 0;       // highest fencing epoch adopted
  std::uint32_t failovers = 0;   // server switches to a failover endpoint
  std::uint64_t resubs_sent = 0;
  // Per recovered client-batch: ms from batch open until the client holds
  // its ENC entries (its own packet, an FEC decode or a USR packet). No
  // client decrypts them, so this is not yet time to the group key. A
  // data frame's recoveries are stamped once per step of at most 64
  // members, after the step: never early, and late by at most the rest of
  // that step. Round-end decodes and USR packets stamp each recovery.
  std::vector<double> recovery_ms;
};

// The field list of FleetStats: calls f(name, field) for every counter
// and flag, in the order rekey_load prints them. recovery_ms is a sample
// list, not a field here. S is FleetStats or const FleetStats, so the one
// list both reads and fills a record.
template <class S, class F>
  requires std::same_as<std::remove_const_t<S>, FleetStats>
void for_each_field(S& s, F&& f) {
  f("clients", s.clients);
  f("batches", s.batches);
  f("recovered", s.recovered);
  f("via_usr", s.via_usr);
  f("unrecovered", s.unrecovered);
  f("data_frames", s.data_frames);
  f("shaped_off", s.shaped_off);
  f("nacks_suppressed", s.nacks_suppressed);
  f("reports_sent", s.reports_sent);
  f("control_frames", s.control_frames);
  f("wire_version", s.wire_version);
  f("finished", s.finished);
  f("epoch", s.epoch);
  f("failovers", s.failovers);
  f("resubs_sent", s.resubs_sent);
}

// A session's fleets as one record: counts add; batches, wire_version
// and epoch take the max; finished holds only if every fleet finished
// (false for no fleet); recovery_ms samples are appended in fleet order.
FleetStats fold_fleets(std::span<const FleetStats> fleets);

class ClientFleet {
 public:
  // `server` is the daemon's endpoint. The fleet subscribes
  // [first_uid, first_uid + count) on construction parameters from
  // FleetConfig; run() blocks until Fin (or idle timeout).
  ClientFleet(WireTransport& wire, Endpoint server, const FleetConfig& config);

  FleetStats run();
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  using Clock = std::chrono::steady_clock;

  // A settled member in an index, which is sorted by (key, member).
  struct Settled {
    std::uint32_t key;     // the member's block or its id
    std::uint32_t member;  // uid - first_uid
    std::uint32_t block;   // the member's block
    auto operator<=>(const Settled&) const = default;
  };

  // The session's member table. Built at the first batch and restarted
  // in place at every later one, so a batch costs no member allocations.
  // Members point into `pool`, so the table never moves: it is a member
  // of the (immovable) fleet.
  struct Batch {
    bool open = false;  // between a batch's opening and its BatchDone
    std::uint32_t seq = 0;
    std::uint8_t msg_id = 0;
    transport::PacketPool pool;
    std::vector<transport::UserTransport> users;  // index: uid - first_uid
    // The unrecovered members, by what a data frame must reach
    // (UserTransport::interest()). Members whose interest is not settled
    // take every frame: `unsettled` holds them in ascending order, and
    // each frame walks it (compacting it as it goes). A member that
    // settles on a frame waits in `settling` until the frame is done,
    // then enters `by_block` and `by_id`, where a frame finds exactly the
    // members of its block and those its ENC range names. So a recovered
    // member costs nothing for the rest of the batch, and a settled one
    // only the frames it can use. Recovered members leave the indices at
    // the next round mark; until then a frame skips them.
    std::vector<std::uint32_t> unsettled;
    std::vector<std::uint32_t> settling;
    std::vector<Settled> by_block;
    std::vector<Settled> by_id;
    std::vector<std::uint32_t> targets;  // a frame's settled members
    // The unrecovered members in ascending order, as a round mark lists
    // them: `unsettled` merged with the settled ones.
    std::vector<std::uint32_t> listed;
    std::vector<bool> via_usr;
    std::vector<double> recover_ms;  // -1 until recovered
    UsrReassembly reasm;
    std::vector<std::uint32_t> usr_frag_arrivals;  // per client draw counter
    Clock::time_point t0;
    std::uint64_t frame_counter = 0;
    int last_round = 0;  // last multicast round processed
    // Each unrecovered client's latest round-end NACK entries (the same
    // resend-the-cached-entries pattern RekeySession uses: end_of_round
    // runs at most once per round).
    std::vector<std::vector<packet::NackEntry>> last_nacks;
    // Cached serialized report parts of the last (round, phase) for
    // duplicate RoundMark retransmits.
    std::uint16_t cached_round = 0;
    std::uint8_t cached_phase = 0;
    std::vector<Bytes> cached_report;
  };

  bool stopped() const { return stop_.load(std::memory_order_relaxed); }
  void send_control(const Bytes& frame);

  void subscribe();
  void open_batch(std::uint32_t seq, std::uint8_t msg_id);
  void deliver_data(const Bytes& frame);
  // The rest of a frame's delivery after deliver_data has walked the
  // unsettled members: hands the frame (facts `f`, pool index `idx`,
  // shaping position `n`) to the settled members it can change, then
  // indexes the members that settled on it.
  void deliver_settled(const transport::PacketFacts& f, std::size_t idx,
                       std::uint64_t n, int round);
  // Stamps `members` as recovered now, at one clock read.
  void note_recovered(std::span<const std::uint32_t> members, bool usr);
  // Drops recovered members from every list and fills `listed`.
  void list_unrecovered();
  void on_round_mark(const RoundMarkFrame& f);
  void build_and_send_report(std::uint16_t round, std::uint8_t phase);
  void on_usr_frag(const UsrFragFrame& f);
  void on_batch_done(const BatchDoneFrame& f);

  // Failover: adopt `d.from` as the new server iff it is in the failover
  // set and carries a BatchStart with a higher epoch than ours. Returns
  // true when the datagram was consumed (adoption or not-for-us).
  bool maybe_failover(const Datagram& d);
  // Re-subscription to the adopted server: our range, epoch, finalized
  // batch count, and the Theorem-4.2 evolved id of our first uid.
  void send_resub();
  // True when the batch about to open is past the die_at_batch hook.
  bool dies_at(std::uint32_t batch_seq) const {
    return config_.die_at_batch >= 0 &&
           batch_seq >= static_cast<std::uint64_t>(config_.die_at_batch);
  }

  // True once SubAck negotiated the wide-slot (v2) frame family.
  bool wide() const { return version_ >= kWireV2; }

  WireTransport& wire_;
  Endpoint server_;
  FleetConfig config_;
  std::atomic<bool> stop_{false};

  // Session parameters from SubAck / SlotMap.
  std::size_t k_ = 10;
  unsigned degree_ = 4;
  std::uint32_t batches_expected_ = 0;
  std::uint8_t version_ = kWireV1;  // negotiated in SubAck
  // Current id per client; evolves per Theorem 4.2 across batches, so it
  // outgrows u16 exactly when the session runs wide slots.
  std::vector<std::uint32_t> ids_;
  std::vector<bool> have_slot_;
  std::size_t slots_have_ = 0;

  Batch batch_;
  std::uint32_t next_seq_ = 0;
  std::uint32_t done_seq_ = 0;  // last finalized batch + 1
  Bytes cached_done_ack_;

  // Failover state.
  std::uint32_t epoch_ = 0;   // highest fencing epoch seen
  bool need_resub_ = false;   // resend Resub per BatchStart until data flows
  bool die_now_ = false;      // a die_at_* hook fired: exit silently

  FleetStats stats_;
};

}  // namespace rekey::wire
