// The User-oriented Key Assignment algorithm (UKA, paper §4.3).
//
// UKA packs the encryptions of a rekey message into ENC packets so that
// *all* encryptions needed by any single user land in one packet: users are
// sorted by id and the longest prefix whose (de-duplicated) union of
// encryptions fits is cut into a packet. Successive packets therefore cover
// disjoint, increasing <frmID, toID> user-id ranges — the property that
// makes block-id estimation possible (Appendix D).
//
// The packer walks the payload's runs (keytree/rekey_subtree.h), not its
// users: the users of one run need the same encryptions, so once a run's
// first user fits, the rest add nothing, and a packet can only close where
// a run ends. Packing whole runs therefore cuts exactly where the per-user
// greedy scan would, with the same frmID and toID, in O(runs x depth).
//
// The cost of the guarantee is duplication: encryptions shared by users in
// different packets are carried in each such packet. duplication_overhead
// reports the paper's Fig-7 metric.
#pragma once

#include <cstddef>
#include <vector>

#include "keytree/rekey_subtree.h"
#include "packet/wire.h"

namespace rekey::packet {

struct Assignment {
  std::vector<EncPacket> packets;
  std::size_t total_entries = 0;       // sum of entries over packets
  std::size_t unique_encryptions = 0;  // encryptions in the rekey subtree

  // (total_entries - unique) / unique — the paper's duplication overhead.
  double duplication_overhead() const;
};

// Builds ENC packets (block ids and sequence numbers still unset; the
// block partitioner fills those in). Every user with at least one needed
// encryption appears in exactly one packet's range. `wide` sizes packet
// capacity for the 16-byte wide (v2) ENC header instead of the 10-byte
// narrow one; the id fields themselves always carry the full 32-bit
// values and only narrow at serialization.
Assignment assign_keys(const tree::RekeyPayload& payload,
                       std::size_t packet_size = kDefaultPacketSize,
                       bool wide = false);

// Baseline comparator: the *sequential* (encryption-oriented) assignment
// the paper argues against. Encryptions are packed in generation order
// with no duplication, so the message is minimal — but a user's
// encryptions can be spread over several packets, and the single-packet
// guarantee (and with it the <frmID,toID> range discipline that block-id
// estimation relies on) is lost. Returned packets carry the *span* of
// users touched per packet (ranges overlap between packets).
Assignment assign_keys_sequential(
    const tree::RekeyPayload& payload,
    std::size_t packet_size = kDefaultPacketSize);

// For baseline analysis: how many distinct packets of `assignment` does
// each user of `tree` (the tree `payload` was generated from) need to
// collect all of its encryptions? One entry per user with needs, in
// ascending slot order.
std::vector<std::size_t> packets_needed_per_user(
    const tree::KeyTree& tree, const tree::RekeyPayload& payload,
    const Assignment& assignment);

}  // namespace rekey::packet
