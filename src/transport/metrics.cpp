#include "transport/metrics.h"

namespace rekey::transport {

double MessageMetrics::bandwidth_overhead() const {
  if (enc_packets == 0) return 0.0;
  return static_cast<double>(multicast_sent) /
         static_cast<double>(enc_packets);
}

double MessageMetrics::total_bandwidth_overhead() const {
  if (enc_packets == 0) return 0.0;
  const double usr_equiv =
      packet_size == 0 ? 0.0
                       : static_cast<double>(usr_bytes) /
                             static_cast<double>(packet_size);
  return (static_cast<double>(multicast_sent) + usr_equiv) /
         static_cast<double>(enc_packets);
}

double MessageMetrics::mean_user_rounds() const {
  if (users == 0) return 0.0;
  double total = 0.0;
  for (const auto& [round, count] : recovered_in_round)
    total += static_cast<double>(round) * static_cast<double>(count);
  // Unicast recoveries are charged the wave they actually took
  // (multicast_rounds + w). Metrics built without per-wave detail fall
  // back to wave 1 for any unattributed unicast users.
  std::size_t attributed = 0;
  for (const auto& [wave, count] : unicast_recovered_in_wave) {
    total += static_cast<double>(multicast_rounds + wave) *
             static_cast<double>(count);
    attributed += count;
  }
  if (unicast_users > attributed)
    total += static_cast<double>(multicast_rounds + 1) *
             static_cast<double>(unicast_users - attributed);
  return total / static_cast<double>(users);
}

int MessageMetrics::rounds_to_all() const {
  int last = 1;
  for (const auto& [round, count] : recovered_in_round)
    if (count > 0) last = std::max(last, round);
  std::size_t attributed = 0;
  for (const auto& [wave, count] : unicast_recovered_in_wave) {
    if (count > 0) last = std::max(last, multicast_rounds + wave);
    attributed += count;
  }
  if (unicast_users > attributed) last = std::max(last, multicast_rounds + 1);
  return last;
}

double RunMetrics::mean_bandwidth_overhead() const {
  if (messages.empty()) return 0.0;
  double s = 0.0;
  for (const auto& m : messages) s += m.bandwidth_overhead();
  return s / static_cast<double>(messages.size());
}

double RunMetrics::mean_total_bandwidth_overhead() const {
  if (messages.empty()) return 0.0;
  double s = 0.0;
  for (const auto& m : messages) s += m.total_bandwidth_overhead();
  return s / static_cast<double>(messages.size());
}

double RunMetrics::mean_round1_nacks() const {
  if (messages.empty()) return 0.0;
  double s = 0.0;
  for (const auto& m : messages)
    s += static_cast<double>(m.round1_nacks);
  return s / static_cast<double>(messages.size());
}

double RunMetrics::mean_rounds_to_all() const {
  if (messages.empty()) return 0.0;
  double s = 0.0;
  for (const auto& m : messages) s += m.rounds_to_all();
  return s / static_cast<double>(messages.size());
}

double RunMetrics::mean_user_rounds() const {
  if (messages.empty()) return 0.0;
  double s = 0.0;
  for (const auto& m : messages) s += m.mean_user_rounds();
  return s / static_cast<double>(messages.size());
}

std::map<int, double> RunMetrics::round_distribution() const {
  std::map<int, std::size_t> counts;
  std::size_t total = 0;
  for (const auto& m : messages) {
    for (const auto& [round, count] : m.recovered_in_round) {
      counts[round] += count;
      total += count;
    }
    std::size_t attributed = 0;
    for (const auto& [wave, count] : m.unicast_recovered_in_wave) {
      counts[m.multicast_rounds + wave] += count;
      total += count;
      attributed += count;
    }
    if (m.unicast_users > attributed) {
      counts[m.multicast_rounds + 1] += m.unicast_users - attributed;
      total += m.unicast_users - attributed;
    }
  }
  std::map<int, double> out;
  if (total == 0) return out;
  for (const auto& [round, count] : counts)
    out[round] =
        static_cast<double>(count) / static_cast<double>(total);
  return out;
}

}  // namespace rekey::transport
