#include "keytree/shard.h"

#include <algorithm>

#include "common/ensure.h"

namespace rekey::tree {

ShardPlan ShardPlan::make(unsigned degree, unsigned shards) {
  REKEY_ENSURE_MSG(degree >= 2, "degree must be at least 2");
  REKEY_ENSURE_MSG(shards >= 1 && shards <= 256, "shard count out of range");
  REKEY_ENSURE_MSG((shards & (shards - 1)) == 0,
                   "shard count must be a power of two");
  ShardPlan plan;
  plan.degree = degree;
  plan.shards = shards;
  plan.cut_level = 0;
  plan.cut_roots = 1;
  while (plan.cut_roots < shards) {
    plan.cut_roots *= degree;
    ++plan.cut_level;
  }
  plan.first_cut_id = first_id_at_level(plan.cut_level, degree);
  return plan;
}

unsigned ShardPlan::shard_of(NodeId id) const {
  // Ids at level >= cut_level are exactly the ids >= first_cut_id (BFS
  // numbering packs levels contiguously).
  if (id < first_cut_id) return kAggregator;
  if (shards == 1) return 0;  // one shard owns every cut subtree
  NodeId a = id;
  unsigned level = level_of(a, degree);
  while (level > cut_level) {
    a = parent_of(a, degree);
    --level;
  }
  const std::uint64_t idx = a - first_cut_id;
  return static_cast<unsigned>(idx * shards / cut_roots);
}

void check_shard_partition(const ShardPlan& plan,
                           std::span<const std::vector<NodeId>> shard_sets,
                           const std::vector<NodeId>& aggregator_set) {
  REKEY_ENSURE_MSG(shard_sets.size() == plan.shards,
                   "shard set count does not match the plan");
  for (unsigned s = 0; s < plan.shards; ++s) {
    const std::vector<NodeId>& set = shard_sets[s];
    REKEY_ENSURE_MSG(std::is_sorted(set.begin(), set.end()) &&
                         std::adjacent_find(set.begin(), set.end()) ==
                             set.end(),
                     "shard set is not sorted and unique");
    for (const NodeId id : set)
      REKEY_ENSURE_MSG(plan.shard_of(id) == s,
                       "cross-shard node id leaked into a shard set");
  }
  REKEY_ENSURE_MSG(
      std::is_sorted(aggregator_set.begin(), aggregator_set.end()) &&
          std::adjacent_find(aggregator_set.begin(), aggregator_set.end()) ==
              aggregator_set.end(),
      "aggregator set is not sorted and unique");
  for (const NodeId id : aggregator_set)
    REKEY_ENSURE_MSG(id < plan.first_cut_id,
                     "below-cut node id leaked into the aggregator set");
}

std::vector<NodeId> merge_disjoint_sorted(
    std::vector<std::vector<NodeId>> parts) {
  // Empty parts merge to nothing; dropping them makes a lone part (one
  // shard, an idle aggregator) a move instead of a copy.
  std::erase_if(parts, [](const std::vector<NodeId>& p) { return p.empty(); });
  if (parts.empty()) return {};
  // Pairwise merge rounds: log(parts) passes over the data.
  while (parts.size() > 1) {
    std::vector<std::vector<NodeId>> next;
    next.reserve((parts.size() + 1) / 2);
    for (std::size_t i = 0; i + 1 < parts.size(); i += 2) {
      std::vector<NodeId> merged;
      merged.reserve(parts[i].size() + parts[i + 1].size());
      std::merge(parts[i].begin(), parts[i].end(), parts[i + 1].begin(),
                 parts[i + 1].end(), std::back_inserter(merged));
      next.push_back(std::move(merged));
    }
    if (parts.size() % 2 == 1) next.push_back(std::move(parts.back()));
    parts = std::move(next);
  }
  return std::move(parts.front());
}

}  // namespace rekey::tree
