#include "transport/session.h"

#include <algorithm>

#include "common/ensure.h"
#include "common/obs.h"
#include "packet/wire.h"
#include "transport/policy.h"

namespace rekey::transport {

RekeySession::RekeySession(simnet::Topology& topology,
                           const ProtocolConfig& config,
                           RhoController& controller)
    : topology_(topology), config_(config), controller_(controller) {
  config.validate();
}

void RekeySession::resume_clock_at(double t_ms) {
  REKEY_ENSURE_MSG(t_ms >= clock_ms_,
                   "session clock resumed backwards: loss processes would "
                   "be queried at non-monotone times");
  clock_ms_ = t_ms;
}

MessageMetrics RekeySession::run_message(
    const tree::RekeyPayload& payload, packet::Assignment assignment,
    std::span<const std::uint16_t> old_ids, const RecoveredFn& on_recovered) {
  const std::size_t n_users = old_ids.size();
  REKEY_ENSURE(topology_.num_users() >= n_users);

  const std::uint8_t msg_id = next_msg_id_;
  next_msg_id_ = static_cast<std::uint8_t>((next_msg_id_ + 1) % 64);

  MessageMetrics m;
  m.enc_packets = assignment.packets.size();
  m.users = n_users;
  m.packet_size = config_.packet_size;
  m.rho_used = controller_.rho();
  m.num_nack_target = controller_.num_nack_target();

  ServerTransport server(config_, payload, std::move(assignment),
                         controller_.proactive_parities(), msg_id);
  m.slots = server.num_slots();

  MessagePolicy policy(config_, controller_);
  PacketPool pool;
  std::vector<UserTransport> users;
  users.reserve(n_users);
  for (std::size_t u = 0; u < n_users; ++u)
    users.emplace_back(old_ids[u], config_.block_size,
                       static_cast<unsigned>(payload.degree), &pool);

  const double start_ms = clock_ms_;
  double t = start_ms;
  int round = 0;
  bool to_unicast = false;

  // Compact index of still-unrecovered users (ascending): the per-packet
  // multicast loop walks only these instead of scanning all N users and
  // skipping recovered ones. Compacted once per round, so the loss-process
  // draw sequence per user is identical to the full-scan code.
  std::vector<std::size_t> active(n_users);
  for (std::size_t u = 0; u < n_users; ++u) active[u] = u;
  // Each unrecovered user's latest round-end NACK entries; the unicast
  // wake-up path resends these instead of re-running end_of_round on a
  // round that already ended.
  std::vector<std::vector<packet::NackEntry>> last_nacks(n_users);

  auto notify = [&](std::size_t u) {
    if (on_recovered) on_recovered(u, users[u]);
  };
  auto new_id = [&](std::size_t u) {
    return static_cast<std::uint16_t>(
        tree::derive_new_user_id(old_ids[u], payload.max_kid, payload.degree)
            .value());
  };

  // Degraded-network wiring. Every fault behavior below is gated on
  // `faults` being non-null, so a run without an active FaultPlan executes
  // the exact baseline draw sequence (bit-identical metrics and goldens).
  simnet::FaultInjector* faults = topology_.faults();
  if (faults != nullptr && !faults->plan().active()) faults = nullptr;

  // Transport-level counters: the independent "sent" ledger the chaos
  // harness reconciles against the per-message "billed" metrics.
  auto& reg = obs::MetricsRegistry::global();
  obs::Counter& c_mcast_pkts = reg.counter("transport.multicast_packets");
  obs::Counter& c_mcast_bytes = reg.counter("transport.multicast_bytes");
  obs::Counter& c_usr_pkts = reg.counter("transport.usr_packets");
  obs::Counter& c_usr_bytes = reg.counter("transport.usr_bytes");
  obs::Counter& c_corrupt = reg.counter("transport.corrupt_rejected");
  obs::Counter& c_give_up = reg.counter("transport.give_up_users");

  // Per-user bounded queues of jitter-deferred (reordered) deliveries.
  struct Deferred {
    double release_ms;
    std::size_t pool_index;
  };
  std::vector<std::vector<Deferred>> deferred(faults ? n_users : 0);
  auto flush_deferred = [&](std::size_t u, double now_ms, int round_now) {
    auto& q = deferred[u];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      if (q[i].release_ms > now_ms) {
        q[keep++] = q[i];
      } else if (!users[u].recovered()) {
        users[u].on_packet(q[i].pool_index, round_now);
      }
    }
    q.resize(keep);
  };

  while (!active.empty()) {
    ++round;
    const double round_start = t;

    std::vector<Bytes> wires = server.round_packets(round);
    if (round == 1) {
      m.proactive_parities = wires.size() - server.num_slots();
    } else {
      m.reactive_parities += wires.size();
    }

    // Multicast: one shared source-link draw per packet, then each
    // still-unrecovered user's own receiver link at its arrival time.
    for (Bytes& w : wires) {
      const std::size_t idx = pool.size();
      pool.push_back(std::move(w));
      ++m.multicast_sent;
      c_mcast_pkts.add();
      c_mcast_bytes.add(pool[idx].size() + packet::kUdpIpOverheadBytes);
      const double ts = t;
      t += config_.send_interval_ms;
      // Sender-side checksum of the clean wire: arriving corrupted copies
      // are validated against it (the UDP checksum the overhead constant
      // already charges for).
      const std::uint16_t cksum = faults ? packet::udp_checksum(pool[idx])
                                         : std::uint16_t{0};
      if (topology_.source_lost(ts)) continue;
      for (const std::size_t u : active) {
        if (users[u].recovered()) continue;  // recovered earlier this round
        const double ta = ts + topology_.delay_ms(u);
        if (faults) flush_deferred(u, ta, round);
        if (topology_.user_lost(u, ta)) continue;
        if (!faults) {
          users[u].on_packet(idx, round);
          continue;
        }
        const simnet::FaultInjector::Delivery d =
            faults->user_delivery(u, ta);
        if (d.corrupt) {
          // The copy arrives damaged. The datagram integrity check drops
          // it (counted separately from loss); a copy whose flips cancel
          // in the checksum reaches the parser, which must not throw.
          Bytes damaged = faults->corrupt_copy(u, pool[idx]);
          if (packet::udp_checksum(damaged) != cksum) {
            ++m.corrupt_rejected;
            c_corrupt.add();
          } else {
            const std::size_t didx = pool.size();
            pool.push_back(std::move(damaged));
            users[u].on_packet(didx, round);
          }
        } else if (d.jitter_ms > 0.0) {
          ++m.reordered_deliveries;
          auto& q = deferred[u];
          if (q.size() >= faults->plan().reorder_queue_cap) {
            // Bounded queue: the oldest deferred copy is released now.
            if (!users[u].recovered())
              users[u].on_packet(q.front().pool_index, round);
            q.erase(q.begin());
          }
          q.push_back({ta + d.jitter_ms, idx});
        } else {
          users[u].on_packet(idx, round);
        }
        // Duplicate copies of the clean wire arrive back to back; the
        // receiver's shard dedup keeps them from inflating block counts.
        for (int c = 0; c < d.extra_copies; ++c) {
          ++m.dup_deliveries;
          if (!users[u].recovered()) users[u].on_packet(idx, round);
        }
      }
    }
    // Jitter still in flight at round end is released before the decode
    // pass; anything jittered past this round carries into the next one.
    if (faults)
      for (const std::size_t u : active) {
        if (!users[u].recovered()) flush_deferred(u, t, round);
      }

    // Round end: users that did not get their specific packet try to
    // decode; the rest NACK. NACKs traverse user uplink + source uplink.
    // Decode first (pure receiver work), then run the uplink loss draws in
    // NACK arrival order: the shared source uplink is queried at
    // t + 2*delay(u), and with heterogeneous delays index order would hand
    // the Gilbert process non-monotone times, silently freezing its state
    // and mis-correlating NACK losses across users.
    std::size_t nacks_received = 0;
    std::vector<std::size_t> round_nackers;
    for (const std::size_t u : active) {
      if (users[u].recovered()) continue;
      auto entries = users[u].end_of_round(round);
      if (users[u].recovered()) continue;  // decoded at round end
      last_nacks[u] = std::move(entries);  // kept even when the NACK is lost
      round_nackers.push_back(u);
    }
    std::sort(round_nackers.begin(), round_nackers.end(),
              [&](std::size_t a, std::size_t b) {
                const double da = topology_.delay_ms(a);
                const double db = topology_.delay_ms(b);
                return da != db ? da < db : a < b;
              });
    for (const std::size_t u : round_nackers) {
      const double tn = t + topology_.delay_ms(u);
      if (topology_.user_uplink_lost(u, tn)) continue;
      if (topology_.source_uplink_lost(tn + topology_.delay_ms(u))) continue;
      server.accept_nack(u, last_nacks[u]);
      ++nacks_received;
      ++m.total_nacks;
      if (faults) {
        // Feedback implosion: the network amplifies a delivered NACK into
        // a burst. The server's per-user feedback dedup keeps AdjustRho
        // from reading a storm as "many users are short of parities".
        const int extra = faults->nack_extra_copies(u, tn);
        for (int c = 0; c < extra; ++c) server.accept_nack(u, last_nacks[u]);
        m.storm_nacks += static_cast<std::size_t>(extra);
      }
    }
    if (round == 1) m.round1_nacks = nacks_received;
    // A blackout overlapping round 1 (sends through NACK arrivals) makes
    // the feedback unrepresentative: clamp AdjustRho escalation.
    policy.on_feedback(round, server.take_feedback(),
                       round == 1 && faults != nullptr &&
                           faults->blackout_overlaps(
                               round_start, t + topology_.max_rtt_ms()));

    // Account recoveries of this round and compact the active index.
    std::size_t recovered_now = 0;
    for (const std::size_t u : active) {
      if (users[u].recovered()) {
        ++recovered_now;
        notify(u);
      }
    }
    if (recovered_now > 0) m.recovered_in_round[round] = recovered_now;
    std::erase_if(active,
                  [&](std::size_t u) { return users[u].recovered(); });
    m.multicast_rounds = round;
    if (obs::trace_enabled())
      obs::Trace::emit(
          "round", {{"msg", static_cast<int>(msg_id)},
                    {"round", round},
                    {"sent", static_cast<std::int64_t>(wires.size())},
                    {"nackers", static_cast<std::int64_t>(round_nackers.size())},
                    {"nacks_received", static_cast<std::int64_t>(nacks_received)},
                    {"recovered", static_cast<std::int64_t>(recovered_now)},
                    {"unrecovered", static_cast<std::int64_t>(active.size())},
                    {"rho", m.rho_used},
                    {"t_ms", t}});
    t += topology_.max_rtt_ms() + config_.round_slack_ms;

    // §7.1's owed bytes come from the helper the unicast phase bills
    // with, so the switch and the F21/AB5 byte counts cannot drift.
    const auto owed_usr_bytes = [&] {
      std::size_t bytes = 0;
      for (const std::size_t u : server.straggler_set())
        bytes += server.usr_wire_bytes(new_id(u));
      return bytes;
    };
    to_unicast = policy.after_round(round, active.size(),
                                    server.pending_parities(),
                                    owed_usr_bytes) ==
                 MessagePolicy::Next::Unicast;
    if (to_unicast) break;
  }

  // Unicast phase (paper Fig 22): lockstep waves so shared loss processes
  // see monotone time. Every wave, unknown stragglers NACK; known ones
  // receive an escalating number of duplicate USR packets.
  if (to_unicast && !active.empty()) {
    std::vector<std::size_t> stragglers = active;
    m.unicast_users = stragglers.size();

    std::vector<int> misses(n_users, 0);
    int waves = 0;
    while (!stragglers.empty()) {
      if (!policy.more_waves(waves)) {
        // Persistent outage: the unicast deadline has passed. Give up on
        // the remaining stragglers explicitly (they stay unrecovered and
        // count as deadline misses) instead of retrying forever.
        m.gave_up_users = stragglers.size();
        c_give_up.add(stragglers.size());
        if (obs::trace_enabled())
          for (const std::size_t u : stragglers)
            obs::Trace::emit("give_up",
                             {{"msg", static_cast<int>(msg_id)},
                              {"user", static_cast<std::int64_t>(u)},
                              {"waves", waves}});
        break;
      }
      REKEY_ENSURE_MSG(++waves <= 10000, "unicast did not converge");
      // Serve each wave in receiver-delay order: the wake-up NACK path
      // queries the shared source uplink at ts + 2*delay(u), and with ts
      // only creeping forward within a wave, delay order is what keeps
      // those query times monotone.
      std::sort(stragglers.begin(), stragglers.end(),
                [&](std::size_t a, std::size_t b) {
                  const double da = topology_.delay_ms(a);
                  const double db = topology_.delay_ms(b);
                  return da != db ? da < db : a < b;
                });
      const std::size_t wave_stragglers = stragglers.size();
      std::vector<std::size_t> still;
      double ts = t;
      for (const std::size_t u : stragglers) {
        if (!server.knows_user(u)) {
          // Wake-up NACK until the server learns about this user. The
          // user's last multicast round already ended, so resend its
          // cached round-end entries instead of re-running the decode.
          ++m.total_nacks;
          ++m.wakeup_nacks;
          const double tn = ts + topology_.delay_ms(u);
          if (!topology_.user_uplink_lost(u, tn) &&
              !topology_.source_uplink_lost(tn + topology_.delay_ms(u))) {
            server.accept_nack(u, last_nacks[u]);
            if (faults) {
              const int extra = faults->nack_extra_copies(u, tn);
              for (int c = 0; c < extra; ++c)
                server.accept_nack(u, last_nacks[u]);
              m.storm_nacks += static_cast<std::size_t>(extra);
            }
          }
          still.push_back(u);
          ts += 0.1;
          continue;
        }
        const packet::UsrPacket usr = server.usr_for(new_id(u));
        // USR wire bytes count toward server bandwidth (F21/AB5 would
        // otherwise understate unicast-heavy policies).
        const std::size_t usr_wire = server.usr_wire_bytes(new_id(u));
        bool got = false;
        for (int i = 0; i < policy.usr_copies(misses[u]); ++i) {
          ++m.usr_packets;
          m.usr_bytes += usr_wire;
          c_usr_pkts.add();
          c_usr_bytes.add(usr_wire);
          const double tsend = ts + 0.1 * i;
          if (!topology_.source_lost(tsend) &&
              !topology_.user_lost(u, tsend + topology_.delay_ms(u)))
            got = true;
        }
        if (got) {
          users[u].on_usr(usr);
          REKEY_ENSURE(users[u].recovered());
          // The wave this user actually recovered in: F21/AB5 latency
          // accounting charges multicast_rounds + wave, not a flat +1.
          ++m.unicast_recovered_in_wave[waves];
          notify(u);
        } else {
          ++misses[u];
          still.push_back(u);
        }
        ts += 0.1 * policy.usr_copies(misses[u]);
      }
      if (obs::trace_enabled())
        obs::Trace::emit(
            "unicast_wave",
            {{"msg", static_cast<int>(msg_id)},
             {"wave", waves},
             {"stragglers", static_cast<std::int64_t>(wave_stragglers)},
             {"recovered",
              static_cast<std::int64_t>(wave_stragglers - still.size())},
             {"wakeup_nacks", static_cast<std::int64_t>(m.wakeup_nacks)},
             {"t_ms", t}});
      stragglers.swap(still);
      t = ts + topology_.max_rtt_ms() + config_.round_slack_ms;
    }
    m.unicast_waves = static_cast<std::size_t>(waves);
  }

  // Deferred copies whose jitter outlived the message were never released.
  if (faults)
    for (const auto& q : deferred) m.late_drops += q.size();

  m.deadline_misses = policy.finish();

  m.duration_ms = t - start_ms;
  clock_ms_ = t + config_.round_slack_ms;
  if (obs::trace_enabled())
    obs::Trace::emit(
        "message",
        {{"msg", static_cast<int>(msg_id)},
         {"users", static_cast<std::int64_t>(n_users)},
         {"rounds", m.multicast_rounds},
         {"rho", m.rho_used},
         {"num_nack_target", m.num_nack_target},
         {"round1_nacks", static_cast<std::int64_t>(m.round1_nacks)},
         {"total_nacks", static_cast<std::int64_t>(m.total_nacks)},
         {"multicast_sent", static_cast<std::int64_t>(m.multicast_sent)},
         {"unicast_users", static_cast<std::int64_t>(m.unicast_users)},
         {"unicast_waves", static_cast<std::int64_t>(m.unicast_waves)},
         {"usr_packets", static_cast<std::int64_t>(m.usr_packets)},
         {"usr_bytes", static_cast<std::int64_t>(m.usr_bytes)},
         {"deadline_misses", static_cast<std::int64_t>(m.deadline_misses)},
         {"gave_up", static_cast<std::int64_t>(m.gave_up_users)},
         {"corrupt_rejected", static_cast<std::int64_t>(m.corrupt_rejected)},
         {"dup_deliveries", static_cast<std::int64_t>(m.dup_deliveries)},
         {"reordered", static_cast<std::int64_t>(m.reordered_deliveries)},
         {"late_drops", static_cast<std::int64_t>(m.late_drops)},
         {"storm_nacks", static_cast<std::int64_t>(m.storm_nacks)},
         {"duration_ms", m.duration_ms}});
  return m;
}

}  // namespace rekey::transport
