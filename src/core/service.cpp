#include "core/service.h"

#include <algorithm>
#include <chrono>

#include "common/ensure.h"
#include "common/obs.h"
#include "keytree/rekey_subtree.h"
#include "keytree/snapshot.h"
#include "packet/assign.h"

namespace rekey::core {

GroupKeyService::GroupKeyService(const ServiceConfig& config)
    : config_(config),
      tree_(config.degree, config.key_seed),
      plan_(tree::ShardPlan::make(config.degree, std::max(1u, config.shards))),
      rho_(config.protocol, config.key_seed ^ 0x5EED) {
  if (config.worker_threads != 1)
    pool_ = std::make_unique<rekey::ThreadPool>(config.worker_threads);
}

tree::MemberId GroupKeyService::register_member() { return next_member_++; }

std::vector<tree::MemberId> GroupKeyService::bootstrap_members(std::size_t n) {
  REKEY_ENSURE_MSG(tree_.empty(), "bootstrap requires an empty group");
  const tree::MemberId first = next_member_;
  tree_.populate(n, first);
  next_member_ += static_cast<tree::MemberId>(n);

  std::vector<tree::MemberId> out;
  out.reserve(n);
  // One scratch buffer serves every member: keys_for_slot_into refills it
  // in place, so handing out n credential sets costs one allocation, not n.
  for (std::size_t i = 0; i < n; ++i) {
    const tree::MemberId m = first + static_cast<tree::MemberId>(i);
    const tree::NodeId slot = tree_.slot_of(m);
    tree_.keys_for_slot_into(slot, keys_scratch_);
    members_.try_emplace(m, m, slot, config_.degree, keys_scratch_);
    out.push_back(m);
  }
  return out;
}

void GroupKeyService::request_join(tree::MemberId m) {
  REKEY_ENSURE_MSG(m < next_member_, "member not registered");
  REKEY_ENSURE_MSG(!tree_.has_member(m), "member already in the group");
  REKEY_ENSURE_MSG(
      std::find(pending_joins_.begin(), pending_joins_.end(), m) ==
          pending_joins_.end(),
      "join already pending");
  pending_joins_.push_back(m);
}

void GroupKeyService::request_leave(tree::MemberId m) {
  REKEY_ENSURE_MSG(tree_.has_member(m), "member not in the group");
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

  const auto batch_start = std::chrono::steady_clock::now();

  tree::Marker marker(tree_);
  rekey::TaskRunner runner(pool_.get());
  const tree::BatchUpdate update =
      marker.run(pending_joins_, pending_leaves_, plan_, runner);
  pending_joins_.clear();
  pending_leaves_.clear();

  // Departed members lose their views; joined members get fresh ones with
  // only their individual key (path keys arrive via the rekey message).
  for (const auto& [m, slot] : update.departed) members_.erase(m);
  for (const auto& [m, slot] : update.joined) {
    const std::pair<tree::NodeId, crypto::SymmetricKey> cred{
        slot, tree_.key_of(slot)};
    members_.try_emplace(m, m, slot, config_.degree, std::span(&cred, 1));
  }

  tree::RekeyPayload payload;
  tree::generate_rekey_payload_into(tree_, update, next_msg_id_, payload,
                                    plan_, runner);
  report.encryptions = payload.encryptions.size();

  packet::Assignment assignment =
      packet::assign_keys(payload, config_.protocol.packet_size);
  report.enc_packets = assignment.packets.size();
  report.duplication_overhead = assignment.duplication_overhead();

  // Server-side batch cost (marking + payload generation + UKA), before
  // any delivery.
  {
    const auto batch_end = std::chrono::steady_clock::now();
    const double us = std::chrono::duration<double, std::micro>(
                          batch_end - batch_start)
                          .count();
    auto& reg = obs::MetricsRegistry::global();
    reg.counter("keyserver.batches").add();
    reg.counter("keyserver.encryptions").add(payload.encryptions.size());
    reg.counter("keyserver.nodes_touched").add(update.changed_knodes.size());
    reg.histogram("keyserver.batch_us").observe(us);
    reg.gauge("keyserver.arena_bytes")
        .set(static_cast<double>(tree_.arena_bytes()));
  }

  if (topology == nullptr) {
    // Ideal in-process delivery: every view filters the full list.
    for (auto& [m, view] : members_)
      view.apply(payload.msg_id, payload.max_kid, payload.encryptions);
  } else {
    // Full protocol over the simulated network.
    const std::vector<tree::NodeId> slots = tree_.user_slots();
    std::map<tree::NodeId, tree::NodeId> old_of_new;
    for (const auto& [old_slot, new_slot] : update.moved)
      old_of_new.emplace(new_slot, old_slot);
    std::vector<std::uint16_t> old_ids;
    old_ids.reserve(slots.size());
    for (const tree::NodeId slot : slots) {
      const auto it = old_of_new.find(slot);
      old_ids.push_back(static_cast<std::uint16_t>(
          it == old_of_new.end() ? slot : it->second));
    }

    transport::RekeySession session(*topology, config_.protocol, rho_);
    // The topology's loss processes live across intervals; resume the
    // transport clock so this session's queries stay monotone (starting at
    // zero again would rewind the shared Gilbert chains).
    session.resume_clock_at(transport_clock_ms_);
    auto metrics = session.run_message(
        payload, std::move(assignment), old_ids,
        [&](std::size_t u, const transport::UserTransport& state) {
          const tree::NodeId slot = slots[u];
          const tree::MemberId m = tree_.node(slot).member;
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
  const Bytes tree_blob = tree::snapshot_sharded_tree(tree_, plan_);
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
    const Bytes tree_blob = r.get_bytes(tree_len);
    auto restored_tree = tree::restore_sharded_tree(tree_blob, config.key_seed);
    if (!restored_tree.has_value()) return std::nullopt;
    if (restored_tree->degree() != config.degree) return std::nullopt;

    GroupKeyService svc(config);
    svc.tree_ = std::move(*restored_tree);
    svc.next_member_ = next_member;
    svc.next_msg_id_ = next_msg;
    // Rebuild member views with full path keys — the server holds every
    // key, so reconstruction is exact. The scratch buffer is refilled per
    // slot (one allocation for the whole loop).
    svc.tree_.for_each_user_slot([&](tree::NodeId slot) {
      const tree::MemberId m = svc.tree_.node(slot).member;
      svc.tree_.keys_for_slot_into(slot, svc.keys_scratch_);
      svc.members_.try_emplace(m, m, slot, config.degree, svc.keys_scratch_);
    });
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
