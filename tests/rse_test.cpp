// Reed-Solomon erasure coder tests: the MDS property over parameterized
// (k, parities, erasure-pattern) sweeps, systematic behaviour, and error
// handling.
#include <gtest/gtest.h>

#include "common/ensure.h"
#include "common/rng.h"
#include "fec/rse.h"

namespace rekey::fec {
namespace {

std::vector<Bytes> random_block(int k, std::size_t len, Rng& rng) {
  std::vector<Bytes> data(static_cast<std::size_t>(k));
  for (auto& pkt : data) {
    pkt.resize(len);
    for (auto& b : pkt) b = static_cast<std::uint8_t>(rng.next_in(0, 255));
  }
  return data;
}

TEST(Rse, NoLossDecodeIsIdentity) {
  Rng rng(1);
  const RseCoder coder(5);
  const auto data = random_block(5, 64, rng);
  std::vector<Shard> shards;
  for (int i = 0; i < 5; ++i) shards.push_back({i, data[i]});
  const auto out = coder.decode(shards);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

TEST(Rse, SingleErasureSingleParity) {
  Rng rng(2);
  const RseCoder coder(4);
  const auto data = random_block(4, 32, rng);
  const Bytes parity = coder.encode_one(data, 0);
  std::vector<Shard> shards{{0, data[0]}, {2, data[2]}, {3, data[3]},
                            {4, parity}};  // data[1] erased
  const auto out = coder.decode(shards);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

TEST(Rse, AllDataErasedAllParity) {
  Rng rng(3);
  const RseCoder coder(6);
  const auto data = random_block(6, 48, rng);
  std::vector<Shard> shards;
  for (int p = 0; p < 6; ++p) shards.push_back({6 + p, coder.encode_one(data, p)});
  const auto out = coder.decode(shards);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

TEST(Rse, InsufficientShardsReturnsNullopt) {
  Rng rng(4);
  const RseCoder coder(5);
  const auto data = random_block(5, 16, rng);
  std::vector<Shard> shards{{0, data[0]}, {1, data[1]}};
  EXPECT_FALSE(coder.decode(shards).has_value());
}

TEST(Rse, DuplicateShardsDoNotHelp) {
  Rng rng(5);
  const RseCoder coder(3);
  const auto data = random_block(3, 16, rng);
  std::vector<Shard> shards{{0, data[0]}, {0, data[0]}, {1, data[1]}};
  EXPECT_FALSE(coder.decode(shards).has_value());
}

TEST(Rse, ExtraShardsIgnored) {
  Rng rng(6);
  const RseCoder coder(3);
  const auto data = random_block(3, 16, rng);
  std::vector<Shard> shards;
  for (int i = 0; i < 3; ++i) shards.push_back({i, data[i]});
  for (int p = 0; p < 4; ++p) shards.push_back({3 + p, coder.encode_one(data, p)});
  const auto out = coder.decode(shards);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(*out, data);
}

TEST(Rse, ParityIndexSpaceBounds) {
  const RseCoder coder(10);
  EXPECT_EQ(coder.max_parity(), 246);
  Rng rng(7);
  const auto data = random_block(10, 8, rng);
  EXPECT_NO_THROW(coder.encode_one(data, 245));
  EXPECT_THROW(coder.encode_one(data, 246), EnsureError);
  EXPECT_THROW(coder.encode_one(data, -1), EnsureError);
}

TEST(Rse, UnequalPacketSizesRejected) {
  const RseCoder coder(2);
  std::vector<Bytes> data{Bytes(8, 1), Bytes(9, 2)};
  EXPECT_THROW(coder.encode_one(data, 0), EnsureError);
}

TEST(Rse, BlockSizeBounds) {
  EXPECT_THROW(RseCoder(0), EnsureError);
  EXPECT_THROW(RseCoder(129), EnsureError);
  EXPECT_NO_THROW(RseCoder(128));
}

TEST(Rse, K1ParityIsCopyUpToScale) {
  // With k=1 any parity must decode back to the single data packet.
  Rng rng(9);
  const RseCoder coder(1);
  const auto data = random_block(1, 16, rng);
  const Bytes parity = coder.encode_one(data, 7);
  std::vector<Shard> shards{{1 + 7, parity}};
  const auto out = coder.decode(shards);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ((*out)[0], data[0]);
}

// The MDS property: ANY k-subset of data+parity reconstructs. Sweep block
// size and parity count; for each, try many random erasure patterns.
struct MdsCase {
  int k;
  int parities;
  std::size_t len;
};

class MdsSweep : public ::testing::TestWithParam<MdsCase> {};

TEST_P(MdsSweep, AnyKSubsetDecodes) {
  const auto [k, parities, len] = GetParam();
  Rng rng(static_cast<std::uint64_t>(k * 1000 + parities));
  const RseCoder coder(k);
  const auto data = random_block(k, len, rng);

  std::vector<Shard> all;
  for (int i = 0; i < k; ++i) all.push_back({i, data[i]});
  for (int p = 0; p < parities; ++p)
    all.push_back({k + p, coder.encode_one(data, p)});

  const int n = k + parities;
  for (int trial = 0; trial < 40; ++trial) {
    // Random k-subset of the n shards.
    std::vector<std::uint64_t> pick =
        rng.sample_without_replacement(static_cast<std::uint64_t>(n),
                                       static_cast<std::uint64_t>(k));
    std::vector<Shard> subset;
    for (const auto i : pick) subset.push_back(all[i]);
    const auto out = coder.decode(subset);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, data);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MdsSweep,
    ::testing::Values(MdsCase{1, 3, 16}, MdsCase{2, 2, 33},
                      MdsCase{5, 5, 64}, MdsCase{10, 10, 128},
                      MdsCase{10, 40, 32}, MdsCase{30, 10, 64},
                      MdsCase{50, 6, 100}, MdsCase{64, 64, 20}));

}  // namespace
}  // namespace rekey::fec
