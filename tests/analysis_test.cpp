// Analysis-module tests: hypergeometric helpers, the batch-cost model
// against Monte-Carlo marking runs, the Bernoulli transport model against
// the packet-level simulator, and the scalability model's monotonicity.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "analysis/batch_cost.h"
#include "analysis/scalability.h"
#include "analysis/transport_model.h"
#include "common/rng.h"
#include "common/stats.h"
#include "keytree/marking.h"
#include "keytree/rekey_subtree.h"
#include "transport/session.h"
#include "transport/workload.h"

namespace rekey::analysis {
namespace {

TEST(Hypergeometric, NoDepartureBasics) {
  EXPECT_DOUBLE_EQ(prob_no_departure(10, 0, 4), 1.0);
  EXPECT_DOUBLE_EQ(prob_no_departure(10, 7, 4), 0.0);  // m + L > N
  // One departure among 10, subtree of 4: P(miss) = 6/10... no:
  // C(6,1)... P = C(N-m, L)/C(N, L) = C(6,1)/C(10,1) = 0.6.
  EXPECT_NEAR(prob_no_departure(10, 1, 4), 0.6, 1e-12);
}

TEST(Hypergeometric, AllDepartedBasics) {
  EXPECT_DOUBLE_EQ(prob_all_departed(10, 3, 4), 0.0);  // m > L
  // L=4, m=4: C(6,0)/C(10,4) = 1/210.
  EXPECT_NEAR(prob_all_departed(10, 4, 4), 1.0 / 210.0, 1e-12);
  EXPECT_DOUBLE_EQ(prob_all_departed(10, 10, 10), 1.0);
}

TEST(Hypergeometric, ComplementaryAtFullDeparture) {
  EXPECT_DOUBLE_EQ(prob_no_departure(16, 16, 4), 0.0);
  EXPECT_DOUBLE_EQ(prob_all_departed(16, 16, 4), 1.0);
}

double monte_carlo_encryptions(std::size_t N, std::size_t J, std::size_t L,
                               unsigned d, int trials) {
  RunningStats s;
  for (int t = 0; t < trials; ++t) {
    Rng rng(static_cast<std::uint64_t>(t) * 7919 + N + J + L);
    tree::KeyTree kt(d, rng.next_u64());
    kt.populate(N);
    std::vector<tree::MemberId> leaves;
    for (const auto pick : rng.sample_without_replacement(N, L))
      leaves.push_back(static_cast<tree::MemberId>(pick));
    std::vector<tree::MemberId> joins;
    for (std::size_t j = 0; j < J; ++j)
      joins.push_back(static_cast<tree::MemberId>(N + j));
    tree::Marker m(kt);
    const auto upd = m.run(joins, leaves);
    const auto payload = tree::generate_rekey_payload(kt, upd, 1);
    s.add(static_cast<double>(payload.encryptions.size()));
  }
  return s.mean();
}

// Group sizes for the model-vs-marking checks: a power of d, and three
// sizes off it (populate leaves the top of the tree partly empty there).
constexpr std::size_t kModelSizes[] = {1024, 3000, 5000, 8192};

TEST(BatchCost, MatchesMonteCarloPureLeave) {
  for (const std::size_t N : kModelSizes) {
    for (const std::size_t L : {N / 16, N / 4, N / 2}) {
      const double analytic = expected_encryptions(N, 0, L, 4);
      const double mc = monte_carlo_encryptions(N, 0, L, 4, 30);
      EXPECT_NEAR(analytic / mc, 1.0, 0.05) << "N=" << N << " L=" << L;
    }
  }
}

TEST(BatchCost, MatchesMonteCarloReplace) {
  for (const std::size_t N : kModelSizes) {
    for (const std::size_t L : {N / 16, N / 4}) {
      const double analytic = expected_encryptions(N, L, L, 4);
      const double mc = monte_carlo_encryptions(N, L, L, 4, 30);
      EXPECT_NEAR(analytic / mc, 1.0, 0.05) << "N=" << N << " L=" << L;
    }
  }
}

TEST(BatchCost, MatchesMonteCarloMixedJLeL) {
  for (const std::size_t N : kModelSizes) {
    const double analytic = expected_encryptions(N, N / 8, N / 4, 4);
    const double mc = monte_carlo_encryptions(N, N / 8, N / 4, 4, 30);
    EXPECT_NEAR(analytic / mc, 1.0, 0.07) << "N=" << N;
  }
}

TEST(BatchCost, ApproximatesMonteCarloPureJoin) {
  // The J > L regime uses a deterministic fill/split model; allow a wider
  // band.
  for (const std::size_t N : kModelSizes) {
    const double analytic = expected_encryptions(N, N / 4, 0, 4);
    const double mc = monte_carlo_encryptions(N, N / 4, 0, 4, 10);
    EXPECT_NEAR(analytic / mc, 1.0, 0.25) << "N=" << N;
  }
}

TEST(BatchCost, ZeroBatchZeroCost) {
  EXPECT_DOUBLE_EQ(expected_encryptions(1024, 0, 0, 4), 0.0);
}

TEST(BatchCost, ReplaceCostGrowsWithL) {
  double prev = 0.0;
  for (const std::size_t L : {16u, 64u, 256u, 1024u}) {
    const double c = expected_encryptions(4096, L, L, 4);
    EXPECT_GT(c, prev);
    prev = c;
  }
}

TEST(BatchCost, PureLeaveCostPeaksNearNOverD) {
  // Paper Fig 6: cost rises then falls as L grows (pruning takes over).
  const double at_quarter = expected_encryptions(4096, 0, 1024, 4);
  const double at_all = expected_encryptions(4096, 0, 4000, 4);
  EXPECT_GT(at_quarter, at_all);
}

TEST(BatchCost, ExpectedPacketsScale) {
  // N=4096, J=0, L=N/4 should be in the paper's ~90-110 packet range.
  const double pkts = expected_enc_packets(4096, 0, 1024, 4, 46);
  EXPECT_GT(pkts, 60.0);
  EXPECT_LT(pkts, 130.0);
}

TEST(BatchCost, NonPowerOfDegreeGroupSizes) {
  // Regression: when N is not a power of d the full-tree capacity d^h
  // exceeds N and the top levels' nominal leaf spans used to overshoot
  // the group, tripping the hypergeometric precondition (m <= N). The
  // spans are clamped to N now; the model must evaluate finitely across
  // the whole KS1 sweep, including N = 2^17 and 2^22 (d = 4).
  for (const std::size_t N :
       {std::size_t{1} << 13, std::size_t{1} << 17, std::size_t{1} << 22}) {
    const std::pair<std::size_t, std::size_t> mixes[] = {
        {N / 16, N / 16}, {0, N / 4}, {N / 4, 0}};
    for (const auto& [J, L] : mixes) {
      const double c = expected_encryptions(N, J, L, 4);
      EXPECT_TRUE(std::isfinite(c)) << "N=" << N << " J=" << J << " L=" << L;
      EXPECT_GT(c, 0.0) << "N=" << N << " J=" << J << " L=" << L;
      // Hard upper bound: every departure/join marks at most its full
      // root path (h levels x d encryptions each) plus a split.
      const unsigned h = 12;  // ceil(log4 2^22)
      EXPECT_LT(c, static_cast<double>((J + L + 1) * (h + 1) * 4))
          << "N=" << N << " J=" << J << " L=" << L;
    }
  }
}

TEST(BatchCost, DuplicationBoundMatchesPaperForm) {
  // (log_d N - 1) / 46 for N = 4096, d = 4 -> 5/46.
  EXPECT_NEAR(duplication_overhead_bound(4096, 4, 46), 5.0 / 46.0, 1e-12);
}

TEST(TransportModel, CombinedLoss) {
  EXPECT_NEAR(combined_loss(0.01, 0.2), 1 - 0.99 * 0.8, 1e-12);
  EXPECT_DOUBLE_EQ(combined_loss(0.0, 0.0), 0.0);
}

TEST(TransportModel, ProbAtLeastEdges) {
  EXPECT_DOUBLE_EQ(prob_at_least(10, 0.5, 0), 1.0);
  EXPECT_DOUBLE_EQ(prob_at_least(10, 0.5, 11), 0.0);
  EXPECT_DOUBLE_EQ(prob_at_least(5, 1.0, 5), 1.0);
  EXPECT_DOUBLE_EQ(prob_at_least(5, 0.0, 1), 0.0);
  // Bin(2, 0.5) >= 1: 0.75.
  EXPECT_NEAR(prob_at_least(2, 0.5, 1), 0.75, 1e-12);
}

TEST(TransportModel, Round1FailureMonotoneInProactivity) {
  double prev = 1.0;
  for (const std::size_t a : {0u, 2u, 4u, 8u}) {
    const double f = round1_failure_prob(10, a, 0.2);
    EXPECT_LT(f, prev);
    prev = f;
  }
}

TEST(TransportModel, NackPredictionMatchesBernoulliSimulation) {
  // Run the real packet-level session on memoryless links and compare the
  // round-1 NACK count with the analytic expectation.
  transport::ProtocolConfig cfg;
  cfg.adaptive_rho = false;
  cfg.initial_rho = 1.0;
  transport::WorkloadConfig wc;
  wc.group_size = 2048;
  wc.leaves = 512;

  simnet::TopologyConfig tc;
  tc.num_users = 2048;
  tc.alpha = 0.2;
  tc.p_high = 0.2;
  tc.p_low = 0.02;
  tc.p_source = 0.01;
  tc.burst_loss = false;  // the model is memoryless

  RunningStats sim;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    auto msg = transport::generate_message(wc, 100 + seed, 1);
    simnet::Topology topo(tc, 200 + seed);
    transport::RhoController rho(cfg, seed);
    transport::RekeySession session(topo, cfg, rho);
    const auto m = session.run_message(msg.payload,
                                       std::move(msg.assignment),
                                       msg.old_ids);
    sim.add(static_cast<double>(m.round1_nacks));
  }
  // Predicted NACKs for the post-batch population (N - L users).
  const double predicted =
      expected_round1_nacks(wc.group_size - wc.leaves, tc.alpha, tc.p_high,
                            tc.p_low, tc.p_source, cfg.block_size, 0);
  EXPECT_NEAR(sim.mean() / predicted, 1.0, 0.35)
      << "sim=" << sim.mean() << " model=" << predicted;
}

TEST(TransportModel, ExpectedRoundsNearOneForLowLoss) {
  const double r = expected_user_rounds(10, 0, 0.02);
  EXPECT_GT(r, 1.0);
  EXPECT_LT(r, 1.1);
}

TEST(TransportModel, MoreRoundsUnderHigherLoss) {
  EXPECT_GT(expected_user_rounds(10, 0, 0.3),
            expected_user_rounds(10, 0, 0.05));
}

TEST(Scalability, CostsGrowWithGroupSize) {
  ServerCostParams params;
  double prev_cpu = 0.0, prev_bytes = 0.0;
  for (const std::size_t N : {1024u, 4096u, 16384u}) {
    const auto p = evaluate_scalability(N, 0, N / 4, 4, 10, 1.0, 1027, 46,
                                        params);
    EXPECT_GT(p.cpu_ms, prev_cpu);
    EXPECT_GT(p.bytes, prev_bytes);
    prev_cpu = p.cpu_ms;
    prev_bytes = p.bytes;
  }
}

TEST(Scalability, PacingDominatesAtPaperSendRate) {
  // At 10 packets/s, pushing ~100 packets takes ~10 s: the pacing bound
  // should dominate CPU for paper-scale groups.
  ServerCostParams params;
  const auto p =
      evaluate_scalability(4096, 0, 1024, 4, 10, 1.0, 1027, 46, params);
  EXPECT_DOUBLE_EQ(p.min_interval_s, p.pacing_s);
  EXPECT_GT(p.min_interval_s, 5.0);
  EXPECT_LT(p.max_rekeys_per_hour, 720.0);
}

TEST(Scalability, HigherRhoCostsMoreBandwidth) {
  ServerCostParams params;
  const auto lo =
      evaluate_scalability(4096, 0, 1024, 4, 10, 1.0, 1027, 46, params);
  const auto hi =
      evaluate_scalability(4096, 0, 1024, 4, 10, 2.0, 1027, 46, params);
  EXPECT_GT(hi.bytes, lo.bytes);
  EXPECT_GT(hi.cpu_ms, lo.cpu_ms);
}

}  // namespace
}  // namespace rekey::analysis
