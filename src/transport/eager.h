// Eager (event-driven) rekey transport — the extension the protocol
// paper's Appendix A sketches: "it is feasible for a user to send a NACK
// as soon as it detects a loss, and for the server to multicast PARITY
// packets as soon as it receives a NACK", with each NACK carrying the
// highest sequence number received (after Rubenstein et al.) so the
// server can tell whether packets already in flight satisfy the request.
//
// Differences from the round-based RekeySession:
//   * no rounds: the server paces packets continuously and reacts to each
//     NACK the moment it arrives, deduplicating against its in-flight
//     ledger (the block's shards past max_shard_seen sent within the
//     flight window cover `needed` => wait);
//   * a user NACKs as soon as it sees the tail of the initial
//     transmission pass (a seq k-1 slot or any parity) while its block is
//     still undecodable, and re-NACKs on an RTT-scaled retry timer;
//   * latency is measured in milliseconds per user, not rounds.
//
// The expected win (bench_ab6_eager): markedly lower tail latency at
// essentially the same server bandwidth.
#pragma once

#include <span>

#include "simnet/event_loop.h"
#include "simnet/topology.h"
#include "transport/server.h"
#include "transport/user.h"

namespace rekey::transport {

struct EagerMetrics {
  std::size_t users = 0;
  std::size_t enc_packets = 0;
  std::size_t multicast_sent = 0;
  std::size_t nacks_received = 0;
  double mean_latency_ms = 0.0;
  double max_latency_ms = 0.0;
  // Users recovered within the initial transmission (no retransmission).
  std::size_t first_pass_recoveries = 0;

  double bandwidth_overhead() const {
    return enc_packets == 0 ? 0.0
                            : static_cast<double>(multicast_sent) /
                                  static_cast<double>(enc_packets);
  }
};

class EagerSession {
 public:
  EagerSession(simnet::Topology& topology, const ProtocolConfig& config);

  // Runs one rekey message to full delivery (every user recovers).
  EagerMetrics run_message(const tree::RekeyPayload& payload,
                           packet::Assignment assignment,
                           std::span<const std::uint16_t> old_ids,
                           int proactive_parities = 0);

 private:
  simnet::Topology& topology_;
  const ProtocolConfig& config_;
  // Advances across messages so the topology's loss processes are always
  // queried at monotone times.
  double clock_ms_ = 0.0;
};

}  // namespace rekey::transport
