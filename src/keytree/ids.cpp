#include "keytree/ids.h"

#include "common/ensure.h"

namespace rekey::tree {

NodeId parent_of(NodeId id, unsigned degree) {
  REKEY_ENSURE(id != kRootId);
  REKEY_ENSURE(degree >= 2);
  return (id - 1) / degree;
}

NodeId child_of(NodeId id, unsigned j, unsigned degree) {
  REKEY_ENSURE(j < degree);
  return id * degree + 1 + j;
}

unsigned level_of(NodeId id, unsigned degree) {
  unsigned level = 0;
  while (id != kRootId) {
    id = parent_of(id, degree);
    ++level;
  }
  return level;
}

NodeId first_id_at_level(unsigned level, unsigned degree) {
  // (d^level - 1) / (d - 1), computed iteratively to avoid overflow paths.
  NodeId id = 0;
  for (unsigned i = 0; i < level; ++i) id = id * degree + 1;
  return id;
}

bool is_ancestor(NodeId anc, NodeId id, unsigned degree) {
  while (true) {
    if (id == anc) return true;
    if (id == kRootId) return false;
    id = parent_of(id, degree);
  }
}

std::optional<NodeId> derive_new_user_id(NodeId old_id, NodeId max_kid,
                                         unsigned degree) {
  const NodeId hi = max_kid * degree + degree;
  NodeId id = old_id;
  for (unsigned x = 0; x < 64; ++x) {
    if (id > max_kid && id <= hi) return id;
    if (id > hi) return std::nullopt;
    id = id * degree + 1;  // next leftmost descendant
  }
  return std::nullopt;
}

}  // namespace rekey::tree
