// One rekey message simulated end-to-end over the evaluation topology:
// multicast rounds with proactive FEC and NACK feedback, followed (when
// configured) by the unicast phase with escalating USR duplicates.
//
// The session drives real wire bytes through real loss processes; users
// run the full Fig-27 receiver protocol including Theorem-4.2 id updates
// and Appendix-D block estimation. Metrics mirror the paper's quantities.
// When to stop, when to switch to unicast, how many USR copies to send
// and what to tell AdjustRho and numNACK are MessagePolicy's
// (transport/policy.h), which the wire daemon drives too; the session
// owns the clock, the loss draws and the accounting.
#pragma once

#include <functional>
#include <span>

#include "keytree/rekey_subtree.h"
#include "packet/assign.h"
#include "simnet/topology.h"
#include "transport/metrics.h"
#include "transport/server.h"
#include "transport/user.h"

namespace rekey::transport {

class RekeySession {
 public:
  // The topology must have at least as many users as any message's group.
  RekeySession(simnet::Topology& topology, const ProtocolConfig& config,
               RhoController& controller);

  // Called whenever a user recovers its encryptions; `user` is the
  // topology index. Used by the full stack to feed UserKeyViews; benches
  // leave it empty.
  using RecoveredFn =
      std::function<void(std::size_t user, const UserTransport& state)>;

  // old_ids[i] is user i's id *before* this batch (joiners use their
  // assigned slot). The message sequence number cycles mod 64.
  MessageMetrics run_message(const tree::RekeyPayload& payload,
                             packet::Assignment assignment,
                             std::span<const std::uint16_t> old_ids,
                             const RecoveredFn& on_recovered = {});

  // The session clock advances monotonically across messages so the
  // topology's loss processes are never queried backwards. A caller that
  // builds a fresh session over a topology that has already been driven
  // must resume from where the previous session left off. Resuming
  // backwards is rejected (EnsureError): a rewound clock would hand the
  // shared Gilbert chains non-monotone query times and trip their
  // monotonicity check deep inside a round, far from the misuse.
  double clock_ms() const { return clock_ms_; }
  void resume_clock_at(double t_ms);

 private:
  simnet::Topology& topology_;
  const ProtocolConfig& config_;
  RhoController& controller_;
  std::uint8_t next_msg_id_ = 0;
  double clock_ms_ = 0.0;  // advances across messages
};

}  // namespace rekey::transport
