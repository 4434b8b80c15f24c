#include "transport/workload.h"

#include <map>

#include "common/ensure.h"
#include "common/rng.h"

namespace rekey::transport {

GeneratedMessage generate_message(const WorkloadConfig& config,
                                  std::uint64_t seed, std::uint32_t msg_id) {
  REKEY_ENSURE(config.leaves <= config.group_size);
  Rng rng(seed);

  tree::KeyTree kt(config.degree, rng.next_u64());
  kt.populate(config.group_size, /*first_member=*/0);

  // Leaves: uniform over the current members; joins: fresh member ids.
  std::vector<tree::MemberId> leaving;
  for (const std::uint64_t pick :
       rng.sample_without_replacement(config.group_size, config.leaves))
    leaving.push_back(static_cast<tree::MemberId>(pick));
  std::vector<tree::MemberId> joining;
  joining.reserve(config.joins);
  for (std::size_t j = 0; j < config.joins; ++j)
    joining.push_back(static_cast<tree::MemberId>(config.group_size + j));

  tree::Marker marker(kt);
  const tree::BatchUpdate update = marker.run(joining, leaving);

  GeneratedMessage out;
  out.payload = tree::generate_rekey_payload(kt, update, msg_id);
  out.assignment = packet::assign_keys(out.payload, config.packet_size);
  out.num_users = kt.num_users();
  out.old_ids = pre_batch_ids(kt, update);
  return out;
}

std::vector<std::uint16_t> pre_batch_ids(const tree::KeyTree& tree,
                                         const tree::BatchUpdate& update) {
  std::map<tree::NodeId, tree::NodeId> old_of_new;
  for (const auto& [old_slot, new_slot] : update.moved)
    old_of_new.emplace(new_slot, old_slot);
  std::vector<std::uint16_t> ids;
  ids.reserve(tree.num_users());
  tree.for_each_user_slot([&](tree::NodeId slot) {
    const auto it = old_of_new.find(slot);
    const tree::NodeId old_id = it == old_of_new.end() ? slot : it->second;
    REKEY_ENSURE_MSG(old_id <= 0xFFFF,
                     "user id exceeds the simulator's 16-bit id limit");
    ids.push_back(static_cast<std::uint16_t>(old_id));
  });
  return ids;
}

}  // namespace rekey::transport
