#include "transport/eager.h"

#include <algorithm>

#include "common/ensure.h"
#include "common/obs.h"

namespace rekey::transport {

namespace {

// Per-user eager receiver state around the core Fig-27 machine.
struct EagerUser {
  explicit EagerUser(UserTransport ut) : transport(std::move(ut)) {}
  UserTransport transport;
  bool nack_outstanding = false;
  int nacks_sent = 0;
  double recovered_at_ms = -1.0;
};

}  // namespace

EagerSession::EagerSession(simnet::Topology& topology,
                           const ProtocolConfig& config)
    : topology_(topology), config_(config) {
  config.validate();
}

EagerMetrics EagerSession::run_message(const tree::RekeyPayload& payload,
                                       packet::Assignment assignment,
                                       std::span<const std::uint16_t> old_ids,
                                       int proactive_parities) {
  const std::size_t n_users = old_ids.size();
  REKEY_ENSURE(topology_.num_users() >= n_users);

  EagerMetrics m;
  m.users = n_users;
  m.enc_packets = assignment.packets.size();

  ServerTransport server(config_, payload, std::move(assignment),
                         proactive_parities, /*msg_id=*/1);
  PacketPool pool;
  std::vector<EagerUser> users;
  users.reserve(n_users);
  for (std::size_t u = 0; u < n_users; ++u)
    users.emplace_back(UserTransport(old_ids[u], config_.block_size,
                                     payload.degree, &pool));

  simnet::EventLoop loop;
  loop.run_until(clock_ms_);  // resume the session clock
  std::size_t unrecovered = n_users;

  // The server's transmit queue is paced at send_interval_ms; next_send
  // tracks the next free slot.
  double next_send = clock_ms_;
  const double start_ms = clock_ms_;

  // In-flight ledger: per block, the (scheduled) send time of each shard,
  // indexed by shard index (ENC seq, then k + parity index). A NACK is
  // deduplicated only against shards sent recently enough that they could
  // still reach the user — older ones are presumed lost for that user.
  std::vector<std::vector<double>> shard_send_time(server.num_blocks());
  const double flight_window =
      topology_.max_rtt_ms() + config_.round_slack_ms;

  // Forward declarations of the event handlers (they reference each other).
  // `force` bypasses the completeness gate (used by the end-of-transmission
  // safety check and by retries, when no further packets may be coming).
  std::function<void(std::size_t)> send_packet;
  std::function<void(std::size_t, double, bool)> user_check;

  auto schedule_wire = [&](Bytes wire) {
    const std::size_t idx = pool.size();
    pool.push_back(std::move(wire));
    next_send = std::max(next_send, loop.now());
    // Record the shard in the ledger (both ENC slots and parities).
    const PacketFacts& facts = pool.facts(idx, /*wide=*/false);
    if (const auto& eh = facts.enc) {
      auto& times = shard_send_time[eh->block_id];
      if (times.size() <= eh->seq) times.resize(eh->seq + 1, -1e18);
      times[eh->seq] = next_send;
    } else if (const auto& ph = facts.parity) {
      auto& times = shard_send_time[ph->block_id];
      const std::size_t shard = config_.block_size + ph->parity_seq;
      if (times.size() <= shard) times.resize(shard + 1, -1e18);
      times[shard] = next_send;
    }
    loop.schedule_at(next_send, [&, idx] { send_packet(idx); });
    next_send += config_.send_interval_ms;
  };

  // A user (re-)evaluates its state and possibly emits a NACK.
  user_check = [&](std::size_t u, double t, bool force) {
    EagerUser& eu = users[u];
    if (eu.transport.recovered()) return;
    if (eu.nack_outstanding) return;
    if (!force && !eu.transport.initial_pass_complete()) return;
    // Fig-27 evaluation: decode what is decodable, compute what is missing.
    const auto entries = eu.transport.end_of_round(1);
    if (eu.transport.recovered()) {
      eu.recovered_at_ms = t;
      if (eu.nacks_sent == 0) ++m.first_pass_recoveries;
      --unrecovered;
      return;
    }
    REKEY_ENSURE(!entries.empty());
    eu.nack_outstanding = true;
    REKEY_ENSURE_MSG(++eu.nacks_sent <= 200, "eager NACK storm");
    // NACK traverses user uplink then source uplink. The user's own uplink
    // is a per-user process, so drawing it here (for its arrival time tn)
    // stays monotone; the *shared* source uplink is drawn at the NACK's
    // arrival event, where loop time is globally monotone — drawing it
    // here, at t + 2*delay(u), would interleave backwards queries across
    // users with different delays and freeze the Gilbert chain.
    const double tn = t + topology_.delay_ms(u);
    if (!topology_.user_uplink_lost(u, tn)) {
      loop.schedule_at(tn + topology_.delay_ms(u), [&, u, entries] {
        if (topology_.source_uplink_lost(loop.now())) return;
        ++m.nacks_received;
        // Dedup against the in-flight ledger: shards beyond what the user
        // saw, sent within the flight window (or still queued), may yet
        // arrive; only the shortfall is scheduled.
        const double horizon = loop.now() - flight_window;
        for (const packet::NackEntry& e : entries) {
          if (e.block_id >= server.num_blocks()) continue;
          const auto& times = shard_send_time[e.block_id];
          std::size_t pending = 0;
          for (std::size_t i =
                   static_cast<std::size_t>(e.max_shard_seen) + 1;
               i < times.size(); ++i) {
            if (times[i] > horizon) ++pending;
          }
          if (pending >= e.parities_needed) continue;
          const std::size_t shortfall = e.parities_needed - pending;
          for (std::size_t i = 0; i < shortfall; ++i)
            schedule_wire(server.fresh_parity(e.block_id));
        }
        (void)u;
      });
    }
    // Retry after an RTT-scaled timeout whether or not the NACK survived.
    // Retry with exponential backoff: the server may be draining a long
    // paced queue, and hammering it with NACKs every RTT would recreate
    // the implosion problem the round-based design avoids.
    const double base = topology_.rtt_ms(u) + config_.round_slack_ms;
    const double backoff =
        static_cast<double>(1u << std::min(eu.nacks_sent - 1, 2));
    loop.schedule_at(t + base * backoff, [&, u] {
      users[u].nack_outstanding = false;
      user_check(u, loop.now(), /*force=*/true);
    });
  };

  send_packet = [&](std::size_t idx) {
    ++m.multicast_sent;
    const double ts = loop.now();
    if (topology_.source_lost(ts)) return;
    for (std::size_t u = 0; u < n_users; ++u) {
      EagerUser& eu = users[u];
      if (eu.transport.recovered()) continue;
      const double ta = ts + topology_.delay_ms(u);
      if (topology_.user_lost(u, ta)) continue;
      eu.transport.on_packet(idx, /*round=*/1);
      if (eu.transport.recovered()) {
        eu.recovered_at_ms = ta;
        --unrecovered;
        if (eu.transport.recovery_round() == 1 && eu.nacks_sent == 0)
          ++m.first_pass_recoveries;
        continue;
      }
      // Eager trigger: every block that could hold this user's packet has
      // provably finished its initial transmission, yet none decodes.
      if (eu.transport.initial_pass_complete() && !eu.nack_outstanding) {
        loop.schedule_at(ta,
                         [&, u] { user_check(u, loop.now(), false); });
      }
    }
  };

  // Initial transmission: ENC slots interleaved, then proactive parities.
  for (Bytes& w : server.round_packets(1)) schedule_wire(std::move(w));
  // Safety check for users that receive nothing at all: evaluate shortly
  // after the initial transmission should have fully arrived.
  const double tail_time = next_send + topology_.max_rtt_ms() +
                           config_.round_slack_ms;
  for (std::size_t u = 0; u < n_users; ++u)
    loop.schedule_at(tail_time,
                     [&, u] { user_check(u, loop.now(), /*force=*/true); });

  loop.run(/*max_events=*/50'000'000);
  REKEY_ENSURE_MSG(unrecovered == 0, "eager session left users behind");

  double total = 0.0;
  for (const EagerUser& eu : users) {
    REKEY_ENSURE(eu.recovered_at_ms >= start_ms);
    const double latency = eu.recovered_at_ms - start_ms;
    total += latency;
    m.max_latency_ms = std::max(m.max_latency_ms, latency);
  }
  m.mean_latency_ms = n_users ? total / static_cast<double>(n_users) : 0.0;
  clock_ms_ = std::max(loop.now(), next_send) + flight_window;
  if (obs::trace_enabled())
    obs::Trace::emit(
        "eager_message",
        {{"users", static_cast<std::int64_t>(n_users)},
         {"multicast_sent", static_cast<std::int64_t>(m.multicast_sent)},
         {"nacks_received", static_cast<std::int64_t>(m.nacks_received)},
         {"first_pass_recoveries",
          static_cast<std::int64_t>(m.first_pass_recoveries)},
         {"mean_latency_ms", m.mean_latency_ms},
         {"max_latency_ms", m.max_latency_ms}});
  return m;
}

}  // namespace rekey::transport
