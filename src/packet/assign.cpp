#include "packet/assign.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/ensure.h"

namespace rekey::packet {

double Assignment::duplication_overhead() const {
  if (unique_encryptions == 0) return 0.0;
  return static_cast<double>(total_entries - unique_encryptions) /
         static_cast<double>(unique_encryptions);
}

Assignment assign_keys(const tree::RekeyPayload& payload,
                       std::size_t packet_size, bool wide) {
  const std::size_t capacity = max_entries(packet_size, wide);
  REKEY_ENSURE(capacity >= 1);

  Assignment out;
  out.unique_encryptions = payload.encryptions.size();
  const tree::UserNeeds& user_needs = payload.user_needs;
  if (user_needs.empty()) return out;

  // Runs come in increasing user-id order. Membership ("is encryption idx
  // already in the open packet?") is O(1): last_pkt[idx] records the
  // packet sequence number that last took idx, so a compare against the
  // current sequence replaces the old sorted-vector binary search — the
  // dominant cost when adjacent runs share most of their key chains. The
  // packet itself accumulates unsorted; flush() orders entries by enc_id,
  // which is unique per encryption, so the emitted packets are identical
  // to the sorted-insert version's.
  EncPacket current;
  current.msg_id = static_cast<std::uint8_t>(payload.msg_id % 64);
  current.max_kid = static_cast<std::uint32_t>(payload.max_kid);
  std::vector<std::uint32_t> in_packet;  // encryption indices, unsorted
  in_packet.reserve(capacity);
  std::vector<std::uint32_t> last_pkt(payload.encryptions.size(),
                                      ~std::uint32_t{0});
  std::uint32_t pkt_seq = 0;
  bool open = false;

  const auto member = [&](std::uint32_t idx) {
    return last_pkt[idx] == pkt_seq;
  };

  auto flush = [&]() {
    REKEY_ENSURE(open && !in_packet.empty());
    // Emit entries bottom-up (descending enc_id == descending depth) so a
    // receiver can decrypt its chain in one pass.
    std::sort(in_packet.begin(), in_packet.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return payload.encryptions[a].enc_id >
                       payload.encryptions[b].enc_id;
              });
    current.entries.reserve(in_packet.size());
    for (const std::uint32_t idx : in_packet)
      current.entries.push_back(to_wire_entry(payload.encryptions[idx]));
    out.total_entries += current.entries.size();
    out.packets.push_back(std::move(current));
    current = EncPacket{};
    current.msg_id = static_cast<std::uint8_t>(payload.msg_id % 64);
    current.max_kid = static_cast<std::uint32_t>(payload.max_kid);
    in_packet.clear();
    ++pkt_seq;
    open = false;
  };

  for (const tree::UserNeeds::Run& run : user_needs.runs()) {
    const auto needs = user_needs.needs(run);
    REKEY_ENSURE_MSG(needs.size() <= capacity,
                     "one user's encryptions exceed a packet");
    // How many new entries would the run's first user add? (The others
    // add none: they need the same encryptions.)
    std::size_t added = 0;
    for (const std::uint32_t idx : needs)
      if (!member(idx)) ++added;

    if (open && in_packet.size() + added > capacity) flush();

    if (!open) {
      current.frm_id = static_cast<std::uint32_t>(run.first);
      open = true;
    }
    for (const std::uint32_t idx : needs) {
      if (!member(idx)) {
        last_pkt[idx] = pkt_seq;
        in_packet.push_back(idx);
      }
    }
    current.to_id = static_cast<std::uint32_t>(run.last);
  }
  if (open) flush();
  return out;
}

Assignment assign_keys_sequential(const tree::RekeyPayload& payload,
                                  std::size_t packet_size) {
  const std::size_t capacity = max_entries(packet_size);
  REKEY_ENSURE(capacity >= 1);

  Assignment out;
  out.unique_encryptions = payload.encryptions.size();
  if (payload.encryptions.empty()) return out;

  // Which users each encryption serves (to report per-packet user spans).
  std::map<std::uint32_t, std::pair<tree::NodeId, tree::NodeId>> span;
  for (const tree::UserNeeds::Run& run : payload.user_needs.runs()) {
    for (const std::uint32_t idx : payload.user_needs.needs(run)) {
      auto [it, inserted] =
          span.emplace(idx, std::make_pair(run.first, run.last));
      if (!inserted) {
        it->second.first = std::min(it->second.first, run.first);
        it->second.second = std::max(it->second.second, run.last);
      }
    }
  }

  for (std::size_t off = 0; off < payload.encryptions.size();
       off += capacity) {
    EncPacket pkt;
    pkt.msg_id = static_cast<std::uint8_t>(payload.msg_id % 64);
    pkt.max_kid = static_cast<std::uint32_t>(payload.max_kid);
    tree::NodeId lo = ~tree::NodeId{0}, hi = 0;
    const std::size_t end =
        std::min(off + capacity, payload.encryptions.size());
    for (std::size_t i = off; i < end; ++i) {
      pkt.entries.push_back(to_wire_entry(payload.encryptions[i]));
      const auto it = span.find(static_cast<std::uint32_t>(i));
      if (it != span.end()) {
        lo = std::min(lo, it->second.first);
        hi = std::max(hi, it->second.second);
      }
    }
    pkt.frm_id = static_cast<std::uint32_t>(lo == ~tree::NodeId{0} ? 0 : lo);
    pkt.to_id = static_cast<std::uint32_t>(hi);
    out.total_entries += pkt.entries.size();
    out.packets.push_back(std::move(pkt));
  }
  return out;
}

std::vector<std::size_t> packets_needed_per_user(
    const tree::KeyTree& tree, const tree::RekeyPayload& payload,
    const Assignment& assignment) {
  // Map encryption id -> packet index.
  std::map<std::uint32_t, std::set<std::size_t>> packet_of;
  for (std::size_t p = 0; p < assignment.packets.size(); ++p)
    for (const EncEntry& e : assignment.packets[p].entries)
      packet_of[e.enc_id].insert(p);

  std::vector<std::size_t> out;
  tree.for_each_user_slot([&](tree::NodeId user) {
    const auto needs = payload.user_needs.needs_of(user);
    if (needs.empty()) return;
    // Greedy lower bound is exact here because duplicated encryptions are
    // rare: count the distinct packets touched, collapsing entries that
    // share a packet.
    std::set<std::size_t> needed_packets;
    for (const std::uint32_t idx : needs) {
      const auto enc_id =
          static_cast<std::uint32_t>(payload.encryptions[idx].enc_id);
      const auto it = packet_of.find(enc_id);
      REKEY_ENSURE_MSG(it != packet_of.end(),
                       "assignment is missing an encryption");
      // If any already-chosen packet carries this encryption, no new
      // packet is needed.
      bool covered = false;
      for (const std::size_t p : it->second)
        covered = covered || needed_packets.count(p) != 0;
      if (!covered) needed_packets.insert(*it->second.begin());
    }
    out.push_back(needed_packets.size());
  });
  return out;
}

}  // namespace rekey::packet
