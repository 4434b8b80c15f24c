// Pins the exact bytes of every snapshot encoder: the v2 tree blobs, the
// v3 full-server blob and its SnapChunk framing. A standby restores what
// a primary of another build shipped, so an encoder may get faster but
// never different: each digest below was taken from the original
// ByteWriter encoders, and any rewrite must reproduce it bit for bit.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "keytree/marking.h"
#include "keytree/shard.h"
#include "keytree/snapshot.h"
#include "support/oracles.h"
#include "wire/control.h"
#include "wire/server_snapshot.h"

namespace rekey {
namespace {

std::string digest_hex(std::span<const std::uint8_t> bytes) {
  return test::to_hex(crypto::Sha256::hash(bytes));
}

// `members` is off every power of `degree`, and three churn batches
// leave partly filled levels, split u-nodes and a keygen counter well
// past the populate draws.
tree::KeyTree churned_tree(unsigned degree, std::uint32_t members,
                           std::uint64_t seed) {
  tree::KeyTree t(degree, seed);
  t.populate(members);
  tree::MemberId next = members;
  for (std::uint32_t b = 0; b < 3; ++b) {
    std::vector<tree::MemberId> joins;
    std::vector<tree::MemberId> leaves;
    for (std::uint32_t i = 0; i < 37; ++i) joins.push_back(next++);
    // Residues 0, 3 and 6 mod 7: three disjoint sets of original members.
    for (std::uint32_t i = 0; i < 29; ++i) leaves.push_back(b * 101 + i * 7);
    tree::Marker(t).run(joins, leaves);
  }
  return t;
}

wire::ServerSnapshot server_snapshot(const tree::KeyTree& t) {
  wire::ServerSnapshot s;
  s.epoch = 2;
  s.next_batch = 5;
  s.session_version = wire::kWireV2;
  s.degree = 4;
  s.clients = 900;
  s.churn_pool = 100;
  s.batches = 9;
  s.next_member = 1111;
  s.churn_members = {900, 950, 1001, 1110};
  s.endpoints.push_back(wire::SnapshotEndpoint{0xA1, 0, 450, wire::kWireV1,
                                               false});
  s.endpoints.push_back(wire::SnapshotEndpoint{0xB2C3D4E5F6ull, 450, 450,
                                               wire::kWireV2, true});
  s.rho.proactive_parities = 6;
  s.rho.num_nack = 2;
  s.rho.rng = {0x0123456789ABCDEFull, 0xFEDCBA9876543210ull, 42, 7};
  s.tree_blob = tree::snapshot_sharded_tree(t, tree::ShardPlan::make(4, 2));
  return s;
}

TEST(SnapshotPin, TreeBlobsAreByteStable) {
  const tree::KeyTree t = churned_tree(4, 1000, 0x5EED);
  const Bytes s1 = tree::snapshot_sharded_tree(t, tree::ShardPlan::make(4, 1));
  const Bytes s8 = tree::snapshot_sharded_tree(t, tree::ShardPlan::make(4, 8));
  EXPECT_EQ(s1.size(), 39655u);
  EXPECT_EQ(s8.size(), 39711u);
  EXPECT_EQ(digest_hex(s1),
            "9db2e5416585f8a3153521f0000518a17e193bbac4f640a11559ad36cdaa5dbc");
  EXPECT_EQ(digest_hex(s8),
            "4180d768d5901266aa67abe498359e5d61093d42d776801e45294bdf659a39c5");

  const tree::KeyTree t3 = churned_tree(3, 500, 0xD3);
  const Bytes d3 = tree::snapshot_sharded_tree(t3, tree::ShardPlan::make(3, 4));
  EXPECT_EQ(d3.size(), 22975u);
  EXPECT_EQ(digest_hex(d3),
            "54fa0113c80014f6d929019afd90723318a501a0180551e031352b6300df3905");
}

TEST(SnapshotPin, ServerBlobIsByteStable) {
  const Bytes blob =
      wire::snapshot_server(server_snapshot(churned_tree(4, 1000, 0x5EED)));
  EXPECT_EQ(blob.size(), 39834u);
  EXPECT_EQ(digest_hex(blob),
            "1071bd81841b49a1d7a9ebf7aab4235e618025450ee21747e323c8648d1f4da4");
}

TEST(SnapshotPin, SnapChunkFramesAreByteStable) {
  const Bytes blob =
      wire::snapshot_server(server_snapshot(churned_tree(4, 1000, 0x5EED)));
  Bytes frames;
  std::size_t count = 0;
  for (const wire::SnapChunkFrame& c : wire::chunk_snapshot(17, blob, 200)) {
    const auto f = wire::serialize(c);
    ASSERT_TRUE(f.has_value());
    frames.insert(frames.end(), f->begin(), f->end());
    ++count;
  }
  EXPECT_EQ(count, 216u);
  EXPECT_EQ(frames.size(), 43074u);
  EXPECT_EQ(digest_hex(frames),
            "07c026fd76f9c0c4b251b607ed785e12d2b5c7963e957d84a10149718095fe7a");
}

}  // namespace
}  // namespace rekey
