// Workload-generator tests: the per-message batches the benches and the
// transport tests are built on.
#include <gtest/gtest.h>

#include <set>

#include "common/ensure.h"
#include "transport/workload.h"

namespace rekey::transport {
namespace {

TEST(Workload, PureLeaveShrinksGroup) {
  WorkloadConfig wc;
  wc.group_size = 256;
  wc.leaves = 64;
  const auto msg = generate_message(wc, 1, 1);
  EXPECT_EQ(msg.num_users, 192u);
  EXPECT_EQ(msg.old_ids.size(), 192u);
  EXPECT_FALSE(msg.payload.encryptions.empty());
  EXPECT_FALSE(msg.assignment.packets.empty());
}

TEST(Workload, JoinsGrowGroup) {
  WorkloadConfig wc;
  wc.group_size = 256;
  wc.joins = 32;
  wc.leaves = 8;
  const auto msg = generate_message(wc, 2, 1);
  EXPECT_EQ(msg.num_users, 280u);
}

TEST(Workload, OldIdsDeriveToCurrentSlots) {
  WorkloadConfig wc;
  wc.group_size = 64;
  wc.joins = 40;  // forces splits
  wc.leaves = 4;
  const auto msg = generate_message(wc, 3, 1);
  std::set<tree::NodeId> derived;
  for (const auto old_id : msg.old_ids) {
    const auto now =
        tree::derive_new_user_id(old_id, msg.payload.max_kid,
                                 msg.payload.degree);
    ASSERT_TRUE(now.has_value());
    // Derived ids must be unique (slots are) and have needs in the payload.
    EXPECT_TRUE(derived.insert(*now).second);
    EXPECT_FALSE(msg.payload.user_needs.needs_of(*now).empty());
  }
  EXPECT_EQ(derived.size(), msg.num_users);
}

TEST(Workload, DeterministicPerSeed) {
  WorkloadConfig wc;
  wc.group_size = 128;
  wc.leaves = 32;
  const auto a = generate_message(wc, 77, 1);
  const auto b = generate_message(wc, 77, 1);
  EXPECT_EQ(a.old_ids, b.old_ids);
  EXPECT_EQ(a.payload.encryptions.size(), b.payload.encryptions.size());
  EXPECT_EQ(a.assignment.packets.size(), b.assignment.packets.size());
  const auto c = generate_message(wc, 78, 1);
  EXPECT_NE(a.payload.encryptions.size() + a.old_ids.front(),
            c.payload.encryptions.size() + c.old_ids.front());
}

TEST(Workload, MessageIdPropagates) {
  WorkloadConfig wc;
  wc.group_size = 64;
  wc.leaves = 8;
  const auto msg = generate_message(wc, 5, 37);
  EXPECT_EQ(msg.payload.msg_id, 37u);
  for (const auto& pkt : msg.assignment.packets)
    EXPECT_EQ(pkt.msg_id, 37 % 64);
}

TEST(Workload, LeavesBoundedByGroup) {
  WorkloadConfig wc;
  wc.group_size = 16;
  wc.leaves = 17;
  EXPECT_THROW(generate_message(wc, 1, 1), EnsureError);
}

TEST(Workload, DegreeRespected) {
  WorkloadConfig wc;
  wc.group_size = 64;
  wc.leaves = 16;
  wc.degree = 2;
  const auto msg = generate_message(wc, 9, 1);
  EXPECT_EQ(msg.payload.degree, 2u);
  // Binary tree: more encryptions for the same batch than d=4.
  wc.degree = 4;
  const auto msg4 = generate_message(wc, 9, 1);
  EXPECT_GT(msg.payload.encryptions.size(),
            msg4.payload.encryptions.size());
}

TEST(Workload, PacketSizeControlsFanout) {
  WorkloadConfig wc;
  wc.group_size = 1024;
  wc.leaves = 256;
  wc.packet_size = 1027;
  const auto big = generate_message(wc, 11, 1);
  wc.packet_size = 300;
  const auto small = generate_message(wc, 11, 1);
  EXPECT_GT(small.assignment.packets.size(), big.assignment.packets.size());
}

}  // namespace
}  // namespace rekey::transport
