#include "core/service.h"

#include <algorithm>
#include <numeric>

#include "common/ensure.h"
#include "transport/workload.h"

namespace rekey::core {

GroupKeyService::GroupKeyService(const ServiceConfig& config)
    : config_(config),
      engine_(config.degree, config.key_seed),
      rho_(config.protocol, config.key_seed ^ 0x5EED) {}

tree::MemberId GroupKeyService::register_member() { return next_member_++; }

std::vector<tree::MemberId> GroupKeyService::bootstrap_members(std::size_t n) {
  REKEY_ENSURE_MSG(engine_.tree().empty(), "bootstrap requires an empty group");
  const tree::MemberId first = next_member_;
  engine_.populate(n, first);
  next_member_ += static_cast<tree::MemberId>(n);
  hand_out_path_keys();
  std::vector<tree::MemberId> out(n);
  std::iota(out.begin(), out.end(), first);
  return out;
}

void GroupKeyService::hand_out_path_keys() {
  // One scratch buffer serves every member: keys_for_slot_into refills it
  // in place, so handing out n credential sets costs one allocation, not n.
  std::vector<std::pair<tree::NodeId, crypto::SymmetricKey>> keys;
  const tree::KeyTree& tree = engine_.tree();
  tree.for_each_user_slot([&](tree::NodeId slot) {
    const tree::MemberId m = tree.node(slot).member;
    tree.keys_for_slot_into(slot, keys);
    members_.try_emplace(m, m, slot, config_.degree, keys);
  });
}

void GroupKeyService::request_join(tree::MemberId m) {
  REKEY_ENSURE_MSG(m < next_member_, "member not registered");
  REKEY_ENSURE_MSG(!engine_.tree().has_member(m),
                   "member already in the group");
  REKEY_ENSURE_MSG(
      std::find(pending_joins_.begin(), pending_joins_.end(), m) ==
          pending_joins_.end(),
      "join already pending");
  pending_joins_.push_back(m);
}

void GroupKeyService::request_leave(tree::MemberId m) {
  REKEY_ENSURE_MSG(engine_.tree().has_member(m), "member not in the group");
  REKEY_ENSURE_MSG(
      std::find(pending_leaves_.begin(), pending_leaves_.end(), m) ==
          pending_leaves_.end(),
      "leave already pending");
  pending_leaves_.push_back(m);
}

const tree::UserKeyView& GroupKeyService::member(tree::MemberId m) const {
  const auto it = members_.find(m);
  REKEY_ENSURE_MSG(it != members_.end(), "unknown member");
  return it->second;
}

IntervalReport GroupKeyService::run_batch(simnet::Topology* topology) {
  IntervalReport report;
  report.msg_id = next_msg_id_;
  report.joins = pending_joins_.size();
  report.leaves = pending_leaves_.size();
  if (pending_joins_.empty() && pending_leaves_.empty()) return report;

  BatchEngine::Batch batch =
      engine_.run(pending_joins_, pending_leaves_, next_msg_id_,
                  config_.protocol.packet_size);
  pending_joins_.clear();
  pending_leaves_.clear();
  const tree::KeyTree& tree = engine_.tree();
  const tree::RekeyPayload& payload = batch.payload;
  report.encryptions = payload.encryptions.size();
  report.enc_packets = batch.assignment.packets.size();
  report.duplication_overhead = batch.assignment.duplication_overhead();

  // Departed members lose their views; joined members get fresh ones with
  // only their individual key (path keys arrive via the rekey message).
  for (const auto& [m, slot] : batch.update.departed) members_.erase(m);
  for (const auto& [m, slot] : batch.update.joined) {
    const std::pair<tree::NodeId, crypto::SymmetricKey> cred{
        slot, tree.key_of(slot)};
    members_.try_emplace(m, m, slot, config_.degree, std::span(&cred, 1));
  }

  if (topology == nullptr) {
    // Ideal in-process delivery: every view filters the full list.
    for (auto& [m, view] : members_)
      view.apply(payload.msg_id, payload.max_kid, payload.encryptions);
  } else {
    // Full protocol over the simulated network.
    const std::vector<std::uint16_t> old_ids =
        transport::pre_batch_ids(tree, batch.update);
    const std::vector<tree::NodeId> slots = tree.user_slots();
    transport::RekeySession session(*topology, config_.protocol, rho_);
    // The topology's loss processes live across intervals; resume the
    // transport clock so this session's queries stay monotone (starting at
    // zero again would rewind the shared Gilbert chains).
    session.resume_clock_at(transport_clock_ms_);
    auto metrics = session.run_message(
        payload, std::move(batch.assignment), old_ids,
        [&](std::size_t u, const transport::UserTransport& state) {
          const tree::NodeId slot = slots[u];
          const tree::MemberId m = tree.node(slot).member;
          std::vector<tree::Encryption> encs;
          encs.reserve(state.entries().size());
          for (const packet::EncEntry& e : state.entries())
            encs.push_back(packet::to_tree_encryption(e, config_.degree));
          members_.at(m).apply(payload.msg_id, payload.max_kid, encs);
        });
    transport_clock_ms_ = session.clock_ms();
    report.transport = std::move(metrics);
  }

  ++next_msg_id_;
  return report;
}

Bytes GroupKeyService::snapshot() const {
  ByteWriter w;
  w.put_u32(next_member_);
  w.put_u32(next_msg_id_);
  const Bytes tree_blob = engine_.snapshot();
  w.put_u32(static_cast<std::uint32_t>(tree_blob.size()));
  w.put_bytes(tree_blob);
  return std::move(w).take();
}

std::optional<GroupKeyService> GroupKeyService::restore(
    const Bytes& blob, const ServiceConfig& config) {
  try {
    ByteReader r(blob);
    const std::uint32_t next_member = r.get_u32();
    const std::uint32_t next_msg = r.get_u32();
    const std::uint32_t tree_len = r.get_u32();
    if (r.remaining() != tree_len) return std::nullopt;
    GroupKeyService svc(config);
    if (!svc.engine_.restore(r.get_bytes(tree_len))) return std::nullopt;
    svc.next_member_ = next_member;
    svc.next_msg_id_ = next_msg;
    // The server holds every key, so the member views rebuild exactly.
    svc.hand_out_path_keys();
    return svc;
  } catch (const EnsureError&) {
    return std::nullopt;
  }
}

IntervalReport GroupKeyService::rekey_interval() { return run_batch(nullptr); }

IntervalReport GroupKeyService::rekey_interval_over(
    simnet::Topology& topology) {
  return run_batch(&topology);
}

}  // namespace rekey::core
