#include "core/batch_engine.h"

#include <algorithm>
#include <chrono>

#include "common/obs.h"
#include "keytree/snapshot.h"

namespace rekey::core {

BatchEngine::BatchEngine(unsigned degree, std::uint64_t key_seed,
                         unsigned shards, unsigned workers)
    : key_seed_(key_seed),
      tree_(degree, key_seed),
      plan_(tree::ShardPlan::make(degree, std::max(1u, shards))) {
  if (workers != 1) pool_ = std::make_unique<ThreadPool>(workers);
}

BatchEngine::Batch BatchEngine::run(std::span<const tree::MemberId> joins,
                                    std::span<const tree::MemberId> leaves,
                                    std::uint32_t msg_id,
                                    std::size_t packet_size, bool wide) {
  const auto start = std::chrono::steady_clock::now();
  TaskRunner runner(pool_.get());
  tree::BatchUpdate update =
      tree::Marker(tree_).run(joins, leaves, plan_, runner);
  tree::generate_rekey_payload_into(tree_, update, msg_id, payload_, plan_,
                                    runner);
  packet::Assignment assignment =
      packet::assign_keys(payload_, packet_size, wide);

  auto& reg = obs::MetricsRegistry::global();
  reg.counter("keyserver.batches").add();
  reg.counter("keyserver.encryptions").add(payload_.encryptions.size());
  reg.counter("keyserver.nodes_touched").add(update.changed_knodes.size());
  reg.histogram("keyserver.batch_us")
      .observe(std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - start)
                   .count());
  reg.gauge("keyserver.arena_bytes")
      .set(static_cast<double>(tree_.arena_bytes()));
  return Batch{std::move(update), payload_, std::move(assignment)};
}

Bytes BatchEngine::snapshot() const {
  return tree::snapshot_sharded_tree(tree_, plan_);
}

bool BatchEngine::restore(
    const Bytes& blob,
    const std::function<bool(const tree::KeyTree&)>& accept) {
  auto restored = tree::restore_sharded_tree(blob, key_seed_);
  if (!restored || restored->degree() != tree_.degree() ||
      (accept && !accept(*restored)))
    return false;
  tree_ = std::move(*restored);
  return true;
}

}  // namespace rekey::core
