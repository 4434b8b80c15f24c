// The paper's per-message transport policy (§1 steps 3-4, §6.2, §7.1),
// sans I/O: RekeySession (the simulator) and KeyServerDaemon (the wire)
// each drive one per rekey message, so the F-figures run the rules
// rekeyd runs. It decides from counts and never reads a clock, a socket
// or a loss draw. What outlives a message (rho, numNACK, the back-off
// draws) lives in RhoController, whose state the server snapshot ships.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/ensure.h"
#include "transport/config.h"
#include "transport/server.h"

namespace rekey::transport {

class MessagePolicy {
 public:
  MessagePolicy(const ProtocolConfig& config, RhoController& controller)
      : config_(config), controller_(controller) {}

  // A round's NACK feedback (ServerTransport::take_feedback). Only round
  // 1's drives AdjustRho, and only under adaptive_rho; `degraded` marks a
  // round that a known outage overlapped (RhoController clamps it).
  void on_feedback(int round, std::vector<std::uint8_t> feedback,
                   bool degraded = false) {
    if (round == 1 && config_.adaptive_rho)
      controller_.on_round1_feedback(std::move(feedback), degraded);
  }

  // What follows round `round`, which left `unrecovered` members short.
  // Unicast comes at the round cap (max_multicast_rounds; 0 = multicast
  // only), or under early_unicast_by_size when the USR bytes owed to the
  // stragglers, asked for only then, are no more than the bytes of the
  // `pending_parities` the next round would multicast (§7.1). Another
  // round past max_rounds_cap throws.
  enum class Next { Done, Round, Unicast };
  Next after_round(int round, std::size_t unrecovered,
                   std::size_t pending_parities,
                   const std::function<std::size_t()>& owed_usr_bytes) {
    if (round <= config_.deadline_rounds) short_at_deadline_ = unrecovered;
    if (unrecovered == 0) return Next::Done;
    if (config_.max_multicast_rounds > 0 &&
        round >= config_.max_multicast_rounds)
      return Next::Unicast;
    if (config_.early_unicast_by_size) {
      const std::size_t owed = owed_usr_bytes();
      if (owed > 0 && owed <= pending_parities * config_.packet_size)
        return Next::Unicast;
    }
    REKEY_ENSURE_MSG(round < config_.max_rounds_cap,
                     "multicast did not converge within the round cap");
    return Next::Round;
  }

  // USR copies for a straggler that `misses` earlier waves did not reach:
  // one more per miss (Fig 22).
  int usr_copies(int misses) const {
    return config_.usr_initial_duplicates + misses;
  }
  // Whether a wave may follow `waves` unicast waves (unicast_max_waves;
  // 0 = no cap). The stragglers left at the cap are given up.
  bool more_waves(int waves) const {
    return config_.unicast_max_waves <= 0 || waves < config_.unicast_max_waves;
  }

  // Ends the message and returns its deadline misses: the members still
  // short after round min(deadline_rounds, last round), 0 without a
  // deadline. Under adapt_num_nack they adapt numNACK (§6.2).
  std::size_t finish() {
    if (config_.deadline_rounds > 0 && config_.adapt_num_nack)
      controller_.on_deadline_report(short_at_deadline_);
    return short_at_deadline_;
  }

 private:
  const ProtocolConfig& config_;
  RhoController& controller_;
  std::size_t short_at_deadline_ = 0;
};

}  // namespace rekey::transport
