// Per-message and per-run metrics, matching the quantities the paper plots:
// server bandwidth overhead h'/h, NACKs after round 1, rounds needed per
// user, deadline misses, unicast volume.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

namespace rekey::transport {

struct MessageMetrics {
  std::size_t enc_packets = 0;      // h: real ENC packets (UKA output)
  std::size_t slots = 0;            // ENC slots actually sent (incl. dups)
  std::size_t multicast_sent = 0;   // h': all multicast ENC+PARITY packets
  std::size_t proactive_parities = 0;
  std::size_t reactive_parities = 0;
  std::size_t round1_nacks = 0;     // NACK packets received after round 1
  std::size_t total_nacks = 0;
  std::size_t wakeup_nacks = 0;     // unicast-phase wake-up NACKs sent
  double rho_used = 1.0;            // rho in effect for this message
  int num_nack_target = 0;          // numNACK in effect for this message
  int multicast_rounds = 0;         // rounds actually executed
  std::size_t users = 0;            // users needing encryptions
  // users recovering in multicast round r (1-based).
  std::map<int, std::size_t> recovered_in_round;
  std::size_t unicast_users = 0;
  // users recovering in unicast wave w (1-based): wave w costs
  // multicast_rounds + w rounds, so stragglers that needed several
  // escalation waves are no longer flattened into the "+1" bucket.
  std::map<int, std::size_t> unicast_recovered_in_wave;
  std::size_t unicast_waves = 0;  // waves the unicast phase executed
  std::size_t usr_packets = 0;
  std::size_t usr_bytes = 0;        // USR wire bytes incl. UDP/IP overhead
  std::size_t packet_size = 0;      // multicast packet size (for weighting)
  std::size_t deadline_misses = 0;
  // Degraded-network accounting (zero on a fault-free run).
  std::size_t gave_up_users = 0;        // unicast deadline passed unserved
  std::size_t corrupt_rejected = 0;     // copies dropped by checksum
  std::size_t dup_deliveries = 0;       // duplicate copies delivered
  std::size_t reordered_deliveries = 0; // deliveries deferred by jitter
  std::size_t late_drops = 0;           // deferred copies never released
  std::size_t storm_nacks = 0;          // amplified NACK copies received
  double duration_ms = 0.0;

  // h'/h — the paper's server bandwidth overhead (multicast only).
  double bandwidth_overhead() const;
  // h'/h including the unicast phase: USR bytes are byte-weighted into
  // ENC-packet equivalents, so unicast-heavy policies are not undercounted.
  double total_bandwidth_overhead() const;
  // Mean multicast rounds needed by a user; a unicast recovery in wave w
  // counts as multicast_rounds + w (the wave it actually took, not the
  // paper's flat "needs more rounds" bucket).
  double mean_user_rounds() const;
  // Rounds until every user recovered (multicast-only runs).
  int rounds_to_all() const;

  bool operator==(const MessageMetrics&) const = default;
};

// Aggregates over a run of rekey messages.
struct RunMetrics {
  std::vector<MessageMetrics> messages;

  double mean_bandwidth_overhead() const;
  double mean_total_bandwidth_overhead() const;
  double mean_round1_nacks() const;
  double mean_rounds_to_all() const;
  double mean_user_rounds() const;
  // Fraction of users (over all messages) recovering in round r exactly;
  // a unicast wave-w recovery lands in the r = multicast_rounds + w bucket.
  std::map<int, double> round_distribution() const;

  bool operator==(const RunMetrics&) const = default;
};

}  // namespace rekey::transport
