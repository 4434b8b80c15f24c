// GroupKeyService — the public facade a downstream application uses.
//
// It bundles the three components of a group key management system
// (paper §1): registration (member admission, individual keys), key
// management (the key tree + marking algorithm), and rekey transport
// (either ideal in-process delivery, or the full simulated multicast +
// unicast protocol over a Topology).
//
// Usage:
//   GroupKeyService svc({.degree = 4});
//   auto alice = svc.bootstrap_members(64);     // initial group
//   svc.request_join(svc.register_member());
//   svc.request_leave(alice[3]);
//   auto report = svc.rekey_interval();         // batch rekey, delivery
//   // every member's group_key() now equals svc.group_key()
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "core/batch_engine.h"
#include "keytree/user_view.h"
#include "simnet/topology.h"
#include "transport/metrics.h"
#include "transport/session.h"

namespace rekey::core {

struct ServiceConfig {
  unsigned degree = 4;
  std::uint64_t key_seed = 0xC0FFEE;
  transport::ProtocolConfig protocol;  // used only with simulated delivery
};

struct IntervalReport {
  std::uint32_t msg_id = 0;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t encryptions = 0;
  std::size_t enc_packets = 0;
  double duplication_overhead = 0.0;
  // Present only for simulated (lossy) delivery.
  std::optional<transport::MessageMetrics> transport;
};

class GroupKeyService {
 public:
  explicit GroupKeyService(const ServiceConfig& config);

  // Registration: allocate a member id and credentials. The member is not
  // in the group until request_join + the next rekey interval.
  tree::MemberId register_member();

  // Build the initial group of n members (bootstrap hands each its full
  // path keys over the registration channel). Requires an empty group.
  std::vector<tree::MemberId> bootstrap_members(std::size_t n);

  void request_join(tree::MemberId m);   // must be registered, not in group
  void request_leave(tree::MemberId m);  // must be in group

  // Process the batch collected so far and deliver new keys to all member
  // views in-process (ideal transport). Returns the interval report.
  IntervalReport rekey_interval();

  // Same, but deliver over the simulated network with the full multicast +
  // unicast protocol; member views are fed from actual decoded packets.
  IntervalReport rekey_interval_over(simnet::Topology& topology);

  std::size_t group_size() const { return engine_.tree().num_users(); }
  const crypto::SymmetricKey& group_key() const {
    return engine_.tree().group_key();
  }
  const tree::KeyTree& tree() const { return engine_.tree(); }

  bool has_member(tree::MemberId m) const { return members_.count(m) != 0; }
  // The keys member m holds; its group_key() is nullopt until the first
  // rekey message for a member that joined mid-stream.
  const tree::UserKeyView& member(tree::MemberId m) const;

  std::uint32_t intervals_completed() const { return next_msg_id_; }

  // Crash recovery: serialize the server's key-management state (the key
  // tree in the sharded v2 format, which carries the key generator's
  // counter, plus counters; pending join/leave requests are intentionally
  // dropped — clients re-request, as after any registration timeout).
  Bytes snapshot() const;
  // Rebuild a service from a snapshot. The key generator resumes at the
  // snapshot's counter under config.key_seed, so a restored service draws
  // exactly the keys the uninterrupted one would, and never one that
  // existed at snapshot time. Member views are reconstructed from the
  // tree (the key server knows every key); returns nullopt for corrupt,
  // truncated or v1-tree blobs.
  static std::optional<GroupKeyService> restore(const Bytes& blob,
                                                const ServiceConfig& config);

 private:
  IntervalReport run_batch(simnet::Topology* topology);
  // Gives every member in the tree a view holding its full path keys.
  void hand_out_path_keys();

  ServiceConfig config_;
  // One shard, run inline on the caller.
  BatchEngine engine_;
  tree::MemberId next_member_ = 0;
  std::uint32_t next_msg_id_ = 0;
  std::vector<tree::MemberId> pending_joins_;
  std::vector<tree::MemberId> pending_leaves_;
  // Each member's view of the tree. Bootstrap and restore hand a member
  // its full path keys; a later join gets only its individual key, and
  // the rekey message of its interval carries the rest of its path.
  std::map<tree::MemberId, tree::UserKeyView> members_;
  // Transport sim time consumed so far: each interval's session resumes
  // here so the caller's persistent topology is queried monotonically.
  // Transient sim state — deliberately not part of snapshot().
  double transport_clock_ms_ = 0.0;
  transport::RhoController rho_;
};

}  // namespace rekey::core
