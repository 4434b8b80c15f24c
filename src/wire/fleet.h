// ClientFleet — a multiplexer of lightweight virtual rekey clients.
//
// One fleet instance owns one WireTransport endpoint and speaks for a
// contiguous range of uids. Every virtual client is a real
// transport::UserTransport — the same parsing, shard dedup, block
// estimation, FEC decoding, and NACK construction the simulator's users
// run — but the fleet shares a single receive loop, a single per-batch
// packet pool, and a single control-plane voice (aggregated Reports)
// across all of them, so a process can multiplex 10^5 clients per a few
// threads (tools/rekey_load spawns one fleet per thread).
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
#include <cstdint>
#include <optional>
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
  std::uint64_t shaped_off = 0;   // deliveries the shaper suppressed
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
  // client decrypts them, so this is not yet time to the group key.
  std::vector<double> recovery_ms;
};

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

  struct Batch {
    std::uint32_t seq = 0;
    std::uint8_t msg_id = 0;
    transport::PacketPool pool;
    std::vector<transport::UserTransport> users;  // index: uid - first_uid
    // Indices of the unrecovered users, ascending: the per-frame and
    // per-mark loops walk only these (compacted after each pass), so a
    // recovered user costs nothing for the rest of the batch.
    std::vector<std::uint32_t> active;
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
  void note_recovered(std::size_t u, bool usr);
  void drop_recovered();
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

  std::optional<Batch> batch_;
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
