// Soak test: the full stack (service + marking + UKA + FEC + transport +
// member views) run for many intervals of realistic churn over a lossy
// network, with the group growing, shrinking and splitting. Verifies the
// end-to-end guarantee — every member's view tracks the group key after
// every interval — and that protocol state (rho, msg ids) stays sane.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "core/service.h"

namespace rekey::core {
namespace {

// gtest names each case after the raw bytes of its SoakParams, so every
// member is 8 bytes wide: a struct without padding prints the same name on
// every build and run.
struct SoakParams {
  std::size_t degree;
  std::size_t initial;
  double alpha;
  double p_high;
  std::int64_t intervals;
};
static_assert(sizeof(SoakParams) == 5 * 8, "SoakParams must have no padding");

class Soak : public ::testing::TestWithParam<SoakParams> {};

TEST_P(Soak, GroupStaysConsistentUnderChurnAndLoss) {
  const SoakParams sp = GetParam();
  ServiceConfig cfg;
  cfg.degree = static_cast<unsigned>(sp.degree);
  cfg.protocol.max_multicast_rounds = 2;
  cfg.protocol.deadline_rounds = 2;
  cfg.protocol.adapt_num_nack = true;
  GroupKeyService svc(cfg);
  auto members = svc.bootstrap_members(sp.initial);

  simnet::TopologyConfig tc;
  tc.num_users = sp.initial * 3;  // headroom for growth
  tc.alpha = sp.alpha;
  tc.p_high = sp.p_high;
  tc.p_low = 0.02;
  tc.p_source = 0.01;
  simnet::Topology topo(tc, sp.degree * 1000 + sp.initial);

  Rng rng(sp.degree * 99 + sp.intervals);
  crypto::SymmetricKey prev_key = svc.group_key();
  for (int interval = 0; interval < sp.intervals; ++interval) {
    rng.shuffle(members);
    // Grow early intervals, shrink later ones: exercises splits & pruning.
    const bool grow = interval < sp.intervals / 2;
    const std::size_t L = rng.next_in(1, std::max<std::size_t>(
                                             2, members.size() / 8));
    const std::size_t J = grow ? L + rng.next_in(0, members.size() / 4)
                               : rng.next_in(0, L);
    for (std::size_t i = 0; i < L; ++i) {
      svc.request_leave(members.back());
      members.pop_back();
    }
    for (std::size_t j = 0; j < J; ++j) {
      const auto m = svc.register_member();
      svc.request_join(m);
      members.push_back(m);
    }
    ASSERT_LE(members.size(), tc.num_users);

    const auto report = svc.rekey_interval_over(topo);
    ASSERT_TRUE(report.transport.has_value());
    EXPECT_EQ(svc.group_size(), members.size());
    EXPECT_NE(svc.group_key(), prev_key) << "group key must rotate";
    prev_key = svc.group_key();

    for (const auto m : members) {
      ASSERT_TRUE(svc.member(m).group_key().has_value())
          << "interval " << interval << " member " << m;
      ASSERT_EQ(*svc.member(m).group_key(), svc.group_key())
          << "interval " << interval << " member " << m;
    }
    svc.tree().check_invariants();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, Soak,
    ::testing::Values(SoakParams{4, 64, 0.2, 0.2, 12},
                      SoakParams{4, 256, 0.2, 0.2, 8},
                      SoakParams{2, 48, 0.3, 0.3, 10},
                      SoakParams{8, 100, 0.1, 0.4, 8},
                      SoakParams{3, 81, 1.0, 0.2, 6}));

}  // namespace
}  // namespace rekey::core
