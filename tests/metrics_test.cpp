// Metrics arithmetic tests: bandwidth overhead, per-user round averages,
// distributions, and aggregation across messages.
#include <gtest/gtest.h>

#include "transport/metrics.h"

namespace rekey::transport {
namespace {

MessageMetrics sample_message() {
  MessageMetrics m;
  m.enc_packets = 100;
  m.slots = 110;
  m.multicast_sent = 150;
  m.users = 1000;
  m.recovered_in_round[1] = 950;
  m.recovered_in_round[2] = 40;
  m.multicast_rounds = 2;
  m.unicast_users = 10;
  return m;
}

TEST(MessageMetrics, BandwidthOverhead) {
  const auto m = sample_message();
  EXPECT_DOUBLE_EQ(m.bandwidth_overhead(), 1.5);
  MessageMetrics empty;
  EXPECT_DOUBLE_EQ(empty.bandwidth_overhead(), 0.0);
}

TEST(MessageMetrics, TotalBandwidthOverheadCountsUsrBytes) {
  auto m = sample_message();
  m.packet_size = 1000;
  m.usr_packets = 4;
  m.usr_bytes = 2000;  // 2 packet-equivalents
  // (150 multicast + 2000/1000) / 100 ENC = 1.52.
  EXPECT_DOUBLE_EQ(m.total_bandwidth_overhead(), 1.52);
  // Without USR traffic the two metrics agree.
  m.usr_bytes = 0;
  EXPECT_DOUBLE_EQ(m.total_bandwidth_overhead(), m.bandwidth_overhead());
  // Unknown packet size: fall back to multicast-only rather than divide
  // by zero.
  m.usr_bytes = 2000;
  m.packet_size = 0;
  EXPECT_DOUBLE_EQ(m.total_bandwidth_overhead(), m.bandwidth_overhead());
  MessageMetrics empty;
  EXPECT_DOUBLE_EQ(empty.total_bandwidth_overhead(), 0.0);
}

TEST(RunMetrics, MeanTotalBandwidthOverhead) {
  RunMetrics run;
  auto a = sample_message();
  a.packet_size = 1000;
  a.usr_bytes = 2000;  // total overhead 1.52
  auto b = sample_message();
  b.packet_size = 1000;  // no USR bytes: 1.5
  run.messages = {a, b};
  EXPECT_DOUBLE_EQ(run.mean_total_bandwidth_overhead(), (1.52 + 1.5) / 2);
  RunMetrics empty;
  EXPECT_DOUBLE_EQ(empty.mean_total_bandwidth_overhead(), 0.0);
}

TEST(MessageMetrics, MeanUserRounds) {
  const auto m = sample_message();
  // (950*1 + 40*2 + 10*3) / 1000 = 1.06.
  EXPECT_DOUBLE_EQ(m.mean_user_rounds(), 1.06);
}

TEST(MessageMetrics, MeanUserRoundsNoUsers) {
  MessageMetrics m;
  EXPECT_DOUBLE_EQ(m.mean_user_rounds(), 0.0);
}

TEST(MessageMetrics, RoundsToAll) {
  auto m = sample_message();
  EXPECT_EQ(m.rounds_to_all(), 3);  // unicast bucket counts as rounds+1
  m.unicast_users = 0;
  EXPECT_EQ(m.rounds_to_all(), 2);
  m.recovered_in_round.erase(2);
  EXPECT_EQ(m.rounds_to_all(), 1);
}

TEST(RunMetrics, MeansAcrossMessages) {
  RunMetrics run;
  auto a = sample_message();
  auto b = sample_message();
  b.multicast_sent = 300;  // overhead 3.0
  b.round1_nacks = 40;
  a.round1_nacks = 20;
  run.messages = {a, b};
  EXPECT_DOUBLE_EQ(run.mean_bandwidth_overhead(), (1.5 + 3.0) / 2);
  EXPECT_DOUBLE_EQ(run.mean_round1_nacks(), 30.0);
  EXPECT_DOUBLE_EQ(run.mean_rounds_to_all(), 3.0);
  EXPECT_DOUBLE_EQ(run.mean_user_rounds(), 1.06);
}

TEST(RunMetrics, EmptyRun) {
  RunMetrics run;
  EXPECT_DOUBLE_EQ(run.mean_bandwidth_overhead(), 0.0);
  EXPECT_DOUBLE_EQ(run.mean_round1_nacks(), 0.0);
  EXPECT_TRUE(run.round_distribution().empty());
}

TEST(RunMetrics, RoundDistributionNormalized) {
  RunMetrics run;
  run.messages = {sample_message(), sample_message()};
  const auto dist = run.round_distribution();
  double total = 0;
  for (const auto& [round, frac] : dist) total += frac;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR(dist.at(1), 0.95, 1e-12);
  EXPECT_NEAR(dist.at(3), 0.01, 1e-12);  // unicast bucket
}

}  // namespace
}  // namespace rekey::transport
