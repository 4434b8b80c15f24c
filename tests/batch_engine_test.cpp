// core::BatchEngine: the tree restore that a promoted standby and a
// restored GroupKeyService both go through must swap the tree in only
// when every check passes.
#include <gtest/gtest.h>

#include <vector>

#include "core/batch_engine.h"

namespace rekey::core {
namespace {

TEST(BatchEngine, RefusedRestoreLeavesTheEngineUnchanged) {
  BatchEngine donor(4, 11);
  donor.populate(300, 0);
  const std::vector<tree::MemberId> joins = {300, 301};
  const std::vector<tree::MemberId> leaves = {5, 17, 42};
  donor.run(joins, leaves, 0, 1027);
  const Bytes blob = donor.snapshot();

  BatchEngine engine(4, 11);
  engine.populate(64, 1000);
  const Bytes before = engine.snapshot();

  Bytes corrupt = blob;
  corrupt[corrupt.size() / 2] ^= 0x01;
  BatchEngine other_degree(2, 11);
  other_degree.populate(300, 0);

  EXPECT_FALSE(engine.restore(corrupt));
  EXPECT_FALSE(engine.restore(other_degree.snapshot()));
  EXPECT_FALSE(
      engine.restore(blob, [](const tree::KeyTree&) { return false; }));
  EXPECT_EQ(engine.snapshot(), before);

  // The same blob, accepted, replaces the tree whole.
  EXPECT_TRUE(engine.restore(blob, [](const tree::KeyTree& t) {
    return t.num_users() == 299;
  }));
  EXPECT_EQ(engine.snapshot(), blob);
}

}  // namespace
}  // namespace rekey::core
