// The key server's rekey transport (paper Fig 2, Fig 26, §6).
//
// RhoController carries the adaptive state that persists *across* rekey
// messages: the proactivity factor rho (kept internally as the integer
// number of proactive parities per block, so ceil((rho-1)k) is exact) and
// the NACK target numNACK with its deadline-driven adaptation.
//
// ServerTransport owns one rekey message in flight: ENC slots with block
// ids assigned, per-block RSE state, per-round parity generation from the
// amax[] NACK aggregate, the straggler set R, and USR packet construction.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "common/rng.h"
#include "fec/block.h"
#include "fec/rse.h"
#include "packet/assign.h"
#include "transport/config.h"

namespace rekey::transport {

class RhoController {
 public:
  RhoController(const ProtocolConfig& config, std::uint64_t seed);

  // Proactive parities per block = ceil((rho - 1) * k).
  int proactive_parities() const { return proactive_parities_; }
  double rho() const;
  int num_nack_target() const { return num_nack_; }

  // AdjustRho (paper Fig 11): A holds, per received NACK, the largest
  // parity count that user requested. Called at the end of round 1.
  // `degraded` marks feedback gathered while the network was in a known
  // pathological state (a blackout window overlapped the round): NACKs
  // were likely swallowed wholesale, so silence must not trigger the
  // probabilistic back-off, and whatever NACKs did get through must not
  // escalate rho by more than one parity — otherwise a single outage
  // ratchets rho to the code-space cap and every later message pays for
  // it in proactive bandwidth.
  void on_round1_feedback(std::vector<std::uint8_t> A, bool degraded = false);

  // numNACK heuristics (paper §6.2): called once per completed message
  // when deadline accounting is enabled.
  void on_deadline_report(std::size_t misses);

  // Snapshot/restore of the adaptive state (replicated-server failover).
  // A restored controller's future decision stream — including the
  // probabilistic rho back-off draws — is bit-identical to the donor's.
  struct State {
    int proactive_parities = 0;
    int num_nack = 0;
    std::array<std::uint64_t, 4> rng{};
  };
  State state() const;
  // False when the state is out of range for this config (negative or
  // cap-exceeding parity count, degenerate RNG state).
  bool restore(const State& s);

 private:
  // Largest proactive-parity count that still leaves at least k reactive
  // parity indices free in the RSE code's 256-index space.
  int parity_cap() const;

  ProtocolConfig config_;
  int proactive_parities_;
  int num_nack_;
  Rng rng_;
};

class ServerTransport {
 public:
  // `assignment` is consumed; `payload` must outlive the transport (USR
  // packets are built from it). msg_id is the 6-bit message sequence.
  ServerTransport(const ProtocolConfig& config,
                  const tree::RekeyPayload& payload,
                  packet::Assignment assignment, int proactive_parities,
                  std::uint8_t msg_id);

  std::size_t num_blocks() const { return partition_.num_blocks(); }
  std::size_t num_slots() const { return partition_.num_slots(); }
  std::size_t enc_packets() const { return num_enc_packets_; }

  // Serialized packets for a round, in send order. Round 1: all ENC slots
  // plus the proactive parities; later rounds: amax[b] fresh parities per
  // block (and amax is reset).
  std::vector<Bytes> round_packets(int round);

  // Zero-copy walk of the same send order, for the wire path (the UDP
  // daemon hands frames to sendmmsg without materializing a per-round
  // vector of slot copies). `stable` receives wires whose storage lives
  // as long as this transport (the serialized ENC slots); `fresh`
  // receives newly encoded parities by value. Exactly one of
  // round_packets / for_each_round_wire may drive a given round — both
  // consume the round's amax aggregate.
  void for_each_round_wire(int round,
                           const std::function<void(const Bytes&)>& stable,
                           const std::function<void(Bytes&&)>& fresh);

  // A NACK from topology-level user `user`; entries as received.
  void accept_nack(std::size_t user,
                   const std::vector<packet::NackEntry>& entries);

  // Per-NACK maxima collected this round (consumed by RhoController).
  std::vector<std::uint8_t> take_feedback();

  // Users that have NACKed at any point (the unicast straggler set R).
  const std::set<std::size_t>& straggler_set() const { return nackers_; }
  bool knows_user(std::size_t user) const { return nackers_.count(user); }

  // Parity packets the next multicast round would send (for the §7.1
  // early-unicast size comparison).
  std::size_t pending_parities() const;

  // Unicast USR packet for the user at (post-batch) slot id `new_id`.
  packet::UsrPacket usr_for(std::uint32_t new_id) const;

  // Wire bytes (incl. UDP/IP) of usr_for(new_id): the single source of
  // truth for both the §7.1 early-unicast switch estimate and the unicast
  // phase's bandwidth accounting, so the two can never disagree. Users
  // with no pending keys cost a bare header (usr_for would refuse them).
  std::size_t usr_wire_bytes(std::uint32_t new_id) const;

  // Eager-mode interface (see transport/eager.h): one fresh parity for a
  // block.
  Bytes fresh_parity(std::size_t block);

 private:
  Bytes make_parity(std::size_t block, int parity_index) const;

  const ProtocolConfig& config_;
  const tree::RekeyPayload& payload_;
  std::uint8_t msg_id_;
  std::size_t num_enc_packets_;
  fec::BlockPartition partition_;
  fec::RseCoder coder_;
  int proactive_parities_;

  // Serialized ENC slot wires, indexed block * k + seq.
  std::vector<Bytes> slot_wires_;
  // FEC input regions per block (the covered bytes of each slot).
  std::vector<std::vector<Bytes>> block_regions_;
  std::vector<int> next_parity_;
  std::vector<std::uint8_t> amax_;
  std::vector<std::uint8_t> feedback_;  // A of the current round
  std::set<std::size_t> feedback_users_;  // dedups A against redelivery
  std::set<std::size_t> nackers_;
};

}  // namespace rekey::transport
