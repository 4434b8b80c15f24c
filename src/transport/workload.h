// Workload generation for the evaluation: a group of N users, a batch of J
// joins and L leaves (leaves uniform over the group, as in the paper), run
// through the marking algorithm, encryption generation and UKA.
//
// Each generated message is an independent snapshot (fresh tree), matching
// the paper's per-rekey-message statistics at fixed (N, J, L).
#pragma once

#include <cstdint>
#include <vector>

#include "keytree/marking.h"
#include "keytree/rekey_subtree.h"
#include "packet/assign.h"

namespace rekey::transport {

struct WorkloadConfig {
  std::size_t group_size = 4096;  // N before the batch
  std::size_t joins = 0;          // J
  std::size_t leaves = 1024;      // L
  unsigned degree = 4;            // d
  std::size_t packet_size = 1027;
};

struct GeneratedMessage {
  tree::RekeyPayload payload;
  packet::Assignment assignment;
  // Pre-batch ids of the current users, aligned with the sorted post-batch
  // slot order (joiners: their assigned slot; split-relocated users: their
  // old slot).
  std::vector<std::uint16_t> old_ids;
  std::size_t num_users = 0;  // users after the batch
};

GeneratedMessage generate_message(const WorkloadConfig& config,
                                  std::uint64_t seed, std::uint32_t msg_id);

// GeneratedMessage::old_ids for `tree` after `update`. The simulator's
// packets carry 16-bit ids, so ids beyond them throw EnsureError here.
std::vector<std::uint16_t> pre_batch_ids(const tree::KeyTree& tree,
                                         const tree::BatchUpdate& update);

}  // namespace rekey::transport
