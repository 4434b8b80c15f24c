#include "support/oracles.h"

#include <algorithm>
#include <vector>

#include "common/ensure.h"
#include "fec/gf256.h"

namespace rekey::test {

using tree::NodeId;
using tree::ShardPlan;

std::map<NodeId, tree::Node> nodes(const tree::KeyTree& tree) {
  std::map<NodeId, tree::Node> out;
  tree.for_each_node(
      [&](NodeId id, const tree::Node& n) { out.emplace(id, n); });
  return out;
}

void check_sharded_tree(const tree::KeyTree& tree, const ShardPlan& plan) {
  tree.check_invariants();
  REKEY_ENSURE_MSG(tree.degree() == plan.degree,
                   "shard plan degree does not match the tree");
  tree.for_each_node([&](NodeId id, const tree::Node&) {
    const unsigned own = plan.shard_of(id);
    if (id == tree::kRootId) {
      REKEY_ENSURE(own == ShardPlan::kAggregator || plan.cut_level == 0);
      return;
    }
    const unsigned parent_own =
        plan.shard_of(tree::parent_of(id, plan.degree));
    if (own == ShardPlan::kAggregator)
      REKEY_ENSURE_MSG(parent_own == ShardPlan::kAggregator,
                       "aggregator node below a shard-owned node");
    else
      REKEY_ENSURE_MSG(parent_own == own ||
                           parent_own == ShardPlan::kAggregator,
                       "node's parent is owned by a different shard");
  });
}

void check_enc_id_disjointness(const tree::RekeyPayload& payload,
                               const ShardPlan& plan) {
  std::vector<NodeId> ids;
  ids.reserve(payload.encryptions.size());
  for (const tree::Encryption& e : payload.encryptions) {
    const unsigned s = plan.shard_of(e.enc_id);
    REKEY_ENSURE(s == ShardPlan::kAggregator || s < plan.shards);
    ids.push_back(e.enc_id);
  }
  std::sort(ids.begin(), ids.end());
  REKEY_ENSURE_MSG(std::adjacent_find(ids.begin(), ids.end()) == ids.end(),
                   "duplicate encryption id across shards");
}

fec::Matrix multiply(const fec::Matrix& a, const fec::Matrix& b) {
  REKEY_ENSURE(a.cols() == b.rows());
  fec::Matrix out(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      std::uint8_t sum = 0;
      for (std::size_t k = 0; k < a.cols(); ++k)
        sum = fec::GF256::add(sum, fec::GF256::mul(a.at(i, k), b.at(k, j)));
      out.at(i, j) = sum;
    }
  return out;
}

std::string to_hex(std::span<const std::uint8_t> data) {
  static const char* digits = "0123456789abcdef";
  std::string s;
  s.reserve(data.size() * 2);
  for (const std::uint8_t b : data) {
    s.push_back(digits[b >> 4]);
    s.push_back(digits[b & 0xF]);
  }
  return s;
}

}  // namespace rekey::test
