// Simulator tests: event-loop ordering, loss-process statistics (the
// stationary rate and the paper's 100 ms burst/gap means), and the
// Nonnenmacher topology wiring.
#include <gtest/gtest.h>

#include <vector>

#include "common/ensure.h"
#include "simnet/event_loop.h"
#include "simnet/loss.h"
#include "simnet/topology.h"

namespace rekey::simnet {
namespace {

TEST(EventLoop, FiresInTimeOrder) {
  EventLoop loop;
  std::vector<int> fired;
  loop.schedule_at(30.0, [&] { fired.push_back(3); });
  loop.schedule_at(10.0, [&] { fired.push_back(1); });
  loop.schedule_at(20.0, [&] { fired.push_back(2); });
  loop.run();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30.0);
}

TEST(EventLoop, TiesFireInScheduleOrder) {
  EventLoop loop;
  std::vector<int> fired;
  for (int i = 0; i < 5; ++i)
    loop.schedule_at(5.0, [&fired, i] { fired.push_back(i); });
  loop.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ActionsCanScheduleMore) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) loop.schedule_at(loop.now() + 1.0, tick);
  };
  loop.schedule_at(0.0, tick);
  loop.run();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), 4.0);
}

TEST(EventLoop, PastSchedulingRejected) {
  EventLoop loop;
  loop.schedule_at(10.0, [] {});
  loop.run();
  EXPECT_THROW(loop.schedule_at(5.0, [] {}), EnsureError);
}

TEST(EventLoop, RunUntilStopsAtBoundary) {
  EventLoop loop;
  std::vector<double> fired;
  for (double t = 1.0; t <= 10.0; t += 1.0)
    loop.schedule_at(t, [&fired, t] { fired.push_back(t); });
  loop.run_until(5.0);
  EXPECT_EQ(fired.size(), 5u);
  EXPECT_EQ(loop.now(), 5.0);
  EXPECT_EQ(loop.pending(), 5u);
}

TEST(EventLoop, RunawayGuard) {
  EventLoop loop;
  std::function<void()> forever = [&] {
    loop.schedule_at(loop.now() + 1.0, forever);
  };
  loop.schedule_at(0.0, forever);
  EXPECT_THROW(loop.run(/*max_events=*/1000), EnsureError);
}

TEST(BernoulliLoss, MatchesRate) {
  BernoulliLoss loss(0.2, Rng(1));
  int lost = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) lost += loss.lost(i * 1.0);
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.2, 0.01);
}

TEST(GilbertLoss, DegenerateRates) {
  GilbertLoss none(0.0, Rng(2));
  GilbertLoss all(1.0, Rng(3));
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(none.lost(i * 10.0));
    EXPECT_TRUE(all.lost(i * 10.0));
  }
}

TEST(GilbertLoss, StationaryRateMatches) {
  for (const double p : {0.02, 0.2, 0.5}) {
    GilbertLoss loss(p, Rng(static_cast<std::uint64_t>(p * 100)));
    int lost = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) lost += loss.lost(i * 7.0);
    EXPECT_NEAR(static_cast<double>(lost) / n, p, 0.02) << "p=" << p;
  }
}

TEST(GilbertLoss, LossesAreBursty) {
  // With mean burst 100*p ms and samples 1 ms apart, consecutive samples
  // inside a burst should be strongly correlated — far more than i.i.d.
  GilbertLoss loss(0.2, Rng(7));
  int lost_pairs = 0, lost_first = 0;
  bool prev = false;
  const int n = 400000;
  for (int i = 0; i < n; ++i) {
    const bool cur = loss.lost(i * 1.0);
    if (prev) {
      ++lost_first;
      if (cur) ++lost_pairs;
    }
    prev = cur;
  }
  ASSERT_GT(lost_first, 0);
  const double cond = static_cast<double>(lost_pairs) / lost_first;
  // P(loss | loss 1 ms earlier) ~= exp(-1/20) ~= 0.95, versus 0.2 i.i.d.
  EXPECT_GT(cond, 0.8);
}

TEST(GilbertLoss, MeanBurstDurationNearPaperModel) {
  // Burst mean should be ~100*p ms (p = 0.2 -> 20 ms).
  GilbertLoss loss(0.2, Rng(11));
  double burst_total = 0.0;
  int bursts = 0;
  bool in_burst = false;
  double burst_start = 0.0;
  const double dt = 0.25;
  for (int i = 0; i < 2000000; ++i) {
    const double t = i * dt;
    const bool cur = loss.lost(t);
    if (cur && !in_burst) {
      in_burst = true;
      burst_start = t;
    } else if (!cur && in_burst) {
      in_burst = false;
      burst_total += t - burst_start;
      ++bursts;
    }
  }
  ASSERT_GT(bursts, 100);
  EXPECT_NEAR(burst_total / bursts, 20.0, 2.5);
}

TEST(MakeLoss, FactorySelectsModel) {
  auto bursty = make_loss(true, 0.1, Rng(1));
  auto memoryless = make_loss(false, 0.1, Rng(1));
  EXPECT_NE(dynamic_cast<GilbertLoss*>(bursty.get()), nullptr);
  EXPECT_NE(dynamic_cast<BernoulliLoss*>(memoryless.get()), nullptr);
}

TEST(Topology, HighLossFractionExact) {
  TopologyConfig cfg;
  cfg.num_users = 1000;
  cfg.alpha = 0.2;
  Topology topo(cfg, 42);
  std::size_t high = 0;
  for (std::size_t u = 0; u < cfg.num_users; ++u)
    high += topo.is_high_loss(u);
  EXPECT_EQ(high, 200u);
}

TEST(Topology, PerUserLossRatesMatchClass) {
  TopologyConfig cfg;
  cfg.num_users = 40;
  cfg.alpha = 0.5;
  cfg.burst_loss = false;  // Bernoulli for crisp statistics
  Topology topo(cfg, 7);
  for (std::size_t u = 0; u < cfg.num_users; ++u) {
    int lost = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) lost += topo.user_lost(u, i * 1.0);
    const double rate = static_cast<double>(lost) / n;
    if (topo.is_high_loss(u)) {
      EXPECT_NEAR(rate, cfg.p_high, 0.02);
    } else {
      EXPECT_NEAR(rate, cfg.p_low, 0.01);
    }
  }
}

TEST(Topology, DelaysWithinConfiguredRange) {
  TopologyConfig cfg;
  cfg.num_users = 500;
  Topology topo(cfg, 9);
  double max_seen = 0.0;
  for (std::size_t u = 0; u < cfg.num_users; ++u) {
    const double d = topo.delay_ms(u);
    EXPECT_GE(d, 2 * cfg.edge_delay_ms + cfg.backbone_min_ms);
    EXPECT_LE(d, 2 * cfg.edge_delay_ms + cfg.backbone_max_ms);
    max_seen = std::max(max_seen, d);
  }
  EXPECT_DOUBLE_EQ(topo.max_delay_ms(), max_seen);
  EXPECT_DOUBLE_EQ(topo.max_rtt_ms(), 2 * max_seen);
}

TEST(Topology, DeterministicAcrossSeeds) {
  TopologyConfig cfg;
  cfg.num_users = 50;
  Topology a(cfg, 1234), b(cfg, 1234);
  for (std::size_t u = 0; u < 50; ++u) {
    EXPECT_EQ(a.is_high_loss(u), b.is_high_loss(u));
    EXPECT_EQ(a.delay_ms(u), b.delay_ms(u));
    EXPECT_EQ(a.user_lost(u, 5.0), b.user_lost(u, 5.0));
  }
}

TEST(Topology, UplinkAndDownlinkIndependent) {
  TopologyConfig cfg;
  cfg.num_users = 4;
  cfg.p_high = 1.0;
  cfg.alpha = 1.0;
  Topology topo(cfg, 3);
  // With p=1, both directions must drop everything (degenerate check that
  // the uplink processes exist and are driven by the same class rate).
  for (std::size_t u = 0; u < 4; ++u) {
    EXPECT_TRUE(topo.user_lost(u, 1.0));
    EXPECT_TRUE(topo.user_uplink_lost(u, 1.0));
  }
}

TEST(BernoulliLoss, BackwardsQueryTimeRejected) {
  // Both loss models now share the monotone-query contract: Bernoulli
  // draws don't depend on t, but a backwards query is still caller misuse
  // (it silently desynchronizes any Gilbert process sharing the timeline).
  BernoulliLoss loss(0.5, Rng(42));
  (void)loss.lost(10.0);
  (void)loss.lost(10.0);  // equal times are fine (weakly increasing)
  (void)loss.lost(11.5);
  EXPECT_THROW((void)loss.lost(11.0), EnsureError);
}

TEST(FaultPlan, ValidateRejectsNonsense) {
  FaultPlan plan;
  plan.validate();  // defaults are valid (and inactive)
  EXPECT_FALSE(plan.active());
  plan.duplicate_prob = 1.5;
  EXPECT_THROW(plan.validate(), EnsureError);
  plan.duplicate_prob = 0.1;
  plan.validate();
  EXPECT_TRUE(plan.active());
  plan.reorder_prob = 0.2;  // reorder without a jitter bound is nonsense
  plan.reorder_jitter_ms = 0.0;
  EXPECT_THROW(plan.validate(), EnsureError);
  plan.reorder_jitter_ms = 100.0;
  plan.validate();
  plan.blackouts.push_back({5.0, 5.0});  // empty window
  EXPECT_THROW(plan.validate(), EnsureError);
}

TEST(FaultInjector, BlackoutScheduleIsExactAndSorted) {
  FaultPlan plan;
  // Deliberately unsorted; the injector sorts by start time.
  plan.blackouts.push_back({100.0, 200.0});
  plan.blackouts.push_back({10.0, 20.0});
  FaultInjector inj(plan, 1, 4);
  EXPECT_FALSE(inj.blackout_at(9.9));
  EXPECT_TRUE(inj.blackout_at(10.0));   // start inclusive
  EXPECT_TRUE(inj.blackout_at(19.9));
  EXPECT_FALSE(inj.blackout_at(20.0));  // end exclusive
  EXPECT_TRUE(inj.blackout_at(150.0));
  EXPECT_FALSE(inj.blackout_at(250.0));
  EXPECT_TRUE(inj.blackout_overlaps(0.0, 10.0));
  EXPECT_TRUE(inj.blackout_overlaps(30.0, 120.0));
  EXPECT_FALSE(inj.blackout_overlaps(20.0, 99.0));
  EXPECT_FALSE(inj.blackout_overlaps(201.0, 300.0));
}

TEST(FaultInjector, DecisionStreamsReplayBitIdentically) {
  FaultPlan plan;
  plan.duplicate_prob = 0.3;
  plan.max_duplicates = 3;
  plan.reorder_prob = 0.2;
  plan.reorder_jitter_ms = 50.0;
  plan.corrupt_prob = 0.2;
  plan.nack_storm_prob = 0.4;
  FaultInjector a(plan, 99, 8), b(plan, 99, 8);
  for (int step = 0; step < 200; ++step) {
    const std::size_t u = static_cast<std::size_t>(step % 8);
    const double t = static_cast<double>(step);
    const auto da = a.user_delivery(u, t);
    const auto db = b.user_delivery(u, t);
    EXPECT_EQ(da.extra_copies, db.extra_copies);
    EXPECT_EQ(da.jitter_ms, db.jitter_ms);
    EXPECT_EQ(da.corrupt, db.corrupt);
    EXPECT_EQ(a.nack_extra_copies(u, t), b.nack_extra_copies(u, t));
  }
  EXPECT_EQ(a.stats(), b.stats());
  // And a different seed gives a different stream.
  FaultInjector c(plan, 100, 8);
  bool any_diff = false;
  for (int step = 0; step < 200 && !any_diff; ++step) {
    const auto dc = c.user_delivery(static_cast<std::size_t>(step % 8), 0.0);
    const auto da2 = a.user_delivery(static_cast<std::size_t>(step % 8), 0.0);
    any_diff = dc.extra_copies != da2.extra_copies ||
               dc.corrupt != da2.corrupt || dc.jitter_ms != da2.jitter_ms;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultInjector, PerUserStreamsAreIndependent) {
  FaultPlan plan;
  plan.duplicate_prob = 0.5;
  plan.corrupt_prob = 0.5;
  // Draw heavily from user 0 in one injector only; user 1's stream must be
  // unaffected by user 0's consumption.
  FaultInjector a(plan, 7, 2), b(plan, 7, 2);
  for (int i = 0; i < 100; ++i) (void)a.user_delivery(0, 0.0);
  for (int i = 0; i < 50; ++i) {
    const auto da = a.user_delivery(1, 0.0);
    const auto db = b.user_delivery(1, 0.0);
    EXPECT_EQ(da.extra_copies, db.extra_copies);
    EXPECT_EQ(da.corrupt, db.corrupt);
  }
}

TEST(FaultInjector, CorruptCopyAlwaysDiffers) {
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  plan.corrupt_max_flips = 2;
  FaultInjector inj(plan, 3, 1);
  const Bytes wire(64, 0x55);
  for (int i = 0; i < 200; ++i) {
    const Bytes damaged = inj.corrupt_copy(0, wire);
    ASSERT_EQ(damaged.size(), wire.size());
    EXPECT_NE(damaged, wire);
  }
}

TEST(Topology, BlackoutEatsEveryLinkDuringWindow) {
  TopologyConfig cfg;
  cfg.num_users = 4;
  cfg.p_high = 0.0;  // lossless baseline: only the blackout can drop
  cfg.p_low = 0.0;
  cfg.p_source = 0.0;
  cfg.burst_loss = false;
  Topology topo(cfg, 11);
  FaultPlan plan;
  plan.blackouts.push_back({100.0, 200.0});
  topo.install_faults(plan, 5);
  ASSERT_NE(topo.faults(), nullptr);
  EXPECT_FALSE(topo.source_lost(50.0));
  EXPECT_FALSE(topo.user_lost(0, 60.0));
  EXPECT_TRUE(topo.source_lost(150.0));
  EXPECT_TRUE(topo.user_lost(1, 150.0));
  EXPECT_TRUE(topo.user_uplink_lost(2, 199.0));
  EXPECT_TRUE(topo.source_uplink_lost(199.5));
  EXPECT_FALSE(topo.source_lost(200.0));
  EXPECT_FALSE(topo.user_lost(3, 250.0));
  EXPECT_EQ(topo.faults()->stats().blackout_drops, 4u);
}

TEST(Topology, BlackoutDoesNotPerturbLossStreams) {
  // The same queries with and without a blackout window outside the
  // queried range must draw identically: the blackout check happens before
  // the loss-process draw, so streams resume unperturbed after a window.
  TopologyConfig cfg;
  cfg.num_users = 8;
  Topology plain(cfg, 77), faulted(cfg, 77);
  FaultPlan plan;
  plan.blackouts.push_back({1000.0, 2000.0});
  faulted.install_faults(plan, 9);
  for (int i = 0; i < 50; ++i) {
    const double t = static_cast<double>(i * 10);  // all before the window
    EXPECT_EQ(plain.source_lost(t), faulted.source_lost(t));
    for (std::size_t u = 0; u < 8; ++u)
      EXPECT_EQ(plain.user_lost(u, t), faulted.user_lost(u, t));
  }
}

}  // namespace
}  // namespace rekey::simnet
