// Node-id arithmetic and Theorem 4.2 id re-derivation.
#include <gtest/gtest.h>

#include <vector>

#include "common/ensure.h"
#include "keytree/ids.h"

namespace rekey::tree {
namespace {

TEST(Ids, ParentChildInverse) {
  for (const unsigned d : {2u, 3u, 4u, 8u}) {
    for (NodeId m = 0; m < 200; ++m) {
      for (unsigned j = 0; j < d; ++j) {
        const NodeId c = child_of(m, j, d);
        EXPECT_EQ(parent_of(c, d), m);
      }
    }
  }
}

TEST(Ids, PaperExampleDegree3) {
  // Figure 4 of the protocol paper: degree 3, root 0, children 1..3,
  // node 3's children are 10, 11, 12.
  EXPECT_EQ(child_of(0, 0, 3), 1u);
  EXPECT_EQ(child_of(0, 2, 3), 3u);
  EXPECT_EQ(child_of(3, 0, 3), 10u);
  EXPECT_EQ(parent_of(12, 3), 3u);
}

TEST(Ids, RootHasNoParent) {
  EXPECT_THROW(parent_of(0, 4), EnsureError);
}

TEST(Ids, Levels) {
  EXPECT_EQ(level_of(0, 4), 0u);
  for (NodeId id = 1; id <= 4; ++id) EXPECT_EQ(level_of(id, 4), 1u);
  EXPECT_EQ(level_of(5, 4), 2u);
  EXPECT_EQ(level_of(20, 4), 2u);
  EXPECT_EQ(level_of(21, 4), 3u);
}

TEST(Ids, FirstIdAtLevel) {
  EXPECT_EQ(first_id_at_level(0, 4), 0u);
  EXPECT_EQ(first_id_at_level(1, 4), 1u);
  EXPECT_EQ(first_id_at_level(2, 4), 5u);
  EXPECT_EQ(first_id_at_level(3, 4), 21u);
  EXPECT_EQ(first_id_at_level(2, 3), 4u);
}

TEST(Ids, FirstIdAtLevelMatchesLevelOf) {
  for (const unsigned d : {2u, 3u, 4u}) {
    for (unsigned l = 0; l < 8; ++l) {
      const NodeId first = first_id_at_level(l, d);
      EXPECT_EQ(level_of(first, d), l);
      if (first > 0) {
        EXPECT_EQ(level_of(first - 1, d), l - 1);
      }
    }
  }
}

TEST(Ids, PathToRoot) {
  std::vector<NodeId> path{22};
  while (path.back() != kRootId) path.push_back(parent_of(path.back(), 4));
  EXPECT_EQ(path, (std::vector<NodeId>{22, 5, 1, 0}));
}

TEST(Ids, Ancestry) {
  EXPECT_TRUE(is_ancestor(0, 22, 4));
  EXPECT_TRUE(is_ancestor(5, 22, 4));
  EXPECT_TRUE(is_ancestor(22, 22, 4));
  EXPECT_FALSE(is_ancestor(22, 5, 4));
  EXPECT_FALSE(is_ancestor(2, 22, 4));
}

TEST(Ids, LeftmostDescendant) {
  EXPECT_EQ(child_of(5, 0, 4), 21u);
  EXPECT_EQ(child_of(child_of(5, 0, 4), 0, 4), 85u);
  // f(x) = d^x m + (d^x - 1)/(d - 1) for d=4, m=5, x=2: 16*5 + 5 = 85.
}

TEST(Theorem42, UnchangedIdDerivesToItself) {
  // nk = 4 (d=4): user ids in (4, 20].
  for (NodeId m = 5; m <= 20; ++m)
    EXPECT_EQ(derive_new_user_id(m, 4, 4), m);
}

TEST(Theorem42, SplitUserDerivesChild) {
  // User at 5 splits when nk grows to 5: new id = 21 (= leftmost child).
  EXPECT_EQ(derive_new_user_id(5, 5, 4), 21u);
  // Two levels of splitting: nk covers 21 as a k-node too.
  EXPECT_EQ(derive_new_user_id(5, 21, 4), 85u);
}

TEST(Theorem42, UniquenessAcrossRange) {
  // For every old id and every plausible nk, at most one f(x) lies in
  // (nk, d*nk+d]; derive must return it.
  for (const unsigned d : {2u, 4u}) {
    for (NodeId m = 1; m < 100; ++m) {
      for (NodeId nk = 1; nk < 200; ++nk) {
        const auto got = derive_new_user_id(m, nk, d);
        if (!got) continue;
        int in_range = 0;
        NodeId id = m;
        for (int x = 0; x < 20; ++x) {
          if (id > nk && id <= d * nk + d) ++in_range;
          id = id * d + 1;
          if (id > d * nk + d) break;
        }
        EXPECT_EQ(in_range, 1) << "m=" << m << " nk=" << nk;
        EXPECT_GT(*got, nk);
        EXPECT_LE(*got, d * nk + d);
      }
    }
  }
}

TEST(Theorem42, NoCandidateReturnsNullopt) {
  // Old id already beyond the advertised range with no descendant inside.
  // d=4, nk=1: range (1, 8]; m=9 -> descendants 37, ... all > 8.
  EXPECT_FALSE(derive_new_user_id(9, 1, 4).has_value());
}

}  // namespace
}  // namespace rekey::tree
