#include "analysis/batch_cost.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/ensure.h"

namespace rekey::analysis {

double log_choose(std::size_t n, std::size_t k) {
  REKEY_ENSURE(k <= n);
  return std::lgamma(static_cast<double>(n) + 1.0) -
         std::lgamma(static_cast<double>(k) + 1.0) -
         std::lgamma(static_cast<double>(n - k) + 1.0);
}

double prob_no_departure(std::size_t N, std::size_t L, std::size_t m) {
  REKEY_ENSURE(L <= N && m <= N);
  if (L == 0) return 1.0;
  if (m + L > N) return 0.0;
  return std::exp(log_choose(N - m, L) - log_choose(N, L));
}

double prob_all_departed(std::size_t N, std::size_t L, std::size_t m) {
  REKEY_ENSURE(L <= N && m <= N);
  if (m > L) return 0.0;
  return std::exp(log_choose(N - m, L - m) - log_choose(N, L));
}

namespace {

// Height of the tree populate builds for N users: the smallest h with
// d^h >= N.
unsigned tree_height(std::size_t N, unsigned d) {
  unsigned h = 1;
  std::size_t cap = d;
  while (cap < N) {
    cap *= d;
    ++h;
  }
  return h;
}

std::size_t power(unsigned d, unsigned e) {
  std::size_t p = 1;
  for (unsigned i = 0; i < e; ++i) p *= d;
  return p;
}

// P(a subtree of m users dies): all m depart, and none of them is among
// the J replaced slots. Departed slots are uniform; of the L departed,
// the J smallest-id are replaced. Exact treatment of "smallest-id"
// correlates with position; the standard analysis (and ours) uses the
// symmetric approximation that each departed slot is replaced with
// probability J/L, independently of location:
//   P(c dies) = P(all m depart) * P(all m unreplaced | depart)
//            ~= prob_all_departed * prod_{i<m} (L-J-i)/(L-i).
double prob_subtree_dies(std::size_t N, std::size_t J, std::size_t L,
                         std::size_t m) {
  const std::size_t pure = L - J;
  double p_all_unreplaced = 1.0;
  for (std::size_t i = 0; i < m && p_all_unreplaced != 0.0; ++i) {
    if (L - i == 0) {
      p_all_unreplaced = 0.0;
      break;
    }
    p_all_unreplaced *= pure > i ? static_cast<double>(pure - i) /
                                       static_cast<double>(L - i)
                                 : 0.0;
  }
  return prob_all_departed(N, L, m) * p_all_unreplaced;
}

// Expectation for the J <= L regime on the tree populate builds: users
// packed into the leftmost leaf slots of level h, k-nodes only where a
// user lies below. Replaced slots do not prune; only the L - J pure
// leaves can. For each edge (x, c) with c spanning m users and x spanning
// M:
//   P(edge) = P(c survives) - P(x unchanged)
// where "x unchanged" = no departure among x's M users, and
//   P(c survives) = 1 - P(all m of c's users are pure removals).
// Below a level, N users fill N / (d m) parents whole (d children of m
// users each); the remaining R = N mod (d m) users hang under one partial
// parent as R / m whole children and one child of R mod m users. When N is
// a power of d every parent is whole.
double expected_j_le_l(std::size_t N, std::size_t J, std::size_t L,
                       unsigned d) {
  const unsigned h = tree_height(N, d);
  double total = 0.0;
  for (unsigned level = 0; level < h; ++level) {
    const std::size_t m = power(d, h - level - 1);  // users per whole child
    const std::size_t whole_parents = N / (m * d);
    const std::size_t R = N % (m * d);
    const auto edge = [&](std::size_t child, std::size_t parent) {
      const double p_edge = (1.0 - prob_subtree_dies(N, J, L, child)) -
                            prob_no_departure(N, L, parent);
      return std::max(0.0, p_edge);
    };
    if (whole_parents > 0)
      total += static_cast<double>(whole_parents) * d * edge(m, m * d);
    if (R / m > 0) total += static_cast<double>(R / m) * edge(m, R);
    if (R % m > 0) total += edge(R % m, R);
  }
  return total;
}

// Encryptions under the deterministic fill/split of J - L extra joins on
// the populated tree. Level l holds E_l = ceil(N / d^(h-l)) nodes, packed
// leftmost; nk is the last k-node, at position E_{h-1} - 1 of level h-1.
// The extra joins first fill the free slots in (nk, d*nk + d] from low to
// high: the rest of level h-1, then nk's free children. When those run
// out, the u-node nk + 1 splits (its user moves to its leftmost child,
// freeing d - 1 slots), repeatedly: the filled level-(h-1) slots first,
// then level h from its left end. Each split node carries d encryptions;
// every ancestor of a new slot or a split node changes and encrypts for
// each of its present children. Nodes stay packed leftmost at every level,
// so a changed range [lo, hi] of level l has min((hi+1) d, E_{l+1}) - lo d
// present children. On a full tree (N a power of d) there are no free
// slots and every join splits.
double fill_split_encryptions(std::size_t N, std::size_t extra, unsigned d) {
  const unsigned h = tree_height(N, d);
  // Post-batch node counts per level, 0..h+1.
  std::vector<std::size_t> E(h + 2, 0);
  for (unsigned l = 0; l <= h; ++l) {
    const std::size_t span = power(d, h - l);
    E[l] = (N + span - 1) / span;
  }
  const std::size_t P0 = E[h - 1];  // first free position of level h-1
  const std::size_t A = power(d, h - 1) - P0;
  const std::size_t B = d * P0 - N;
  const std::size_t fill_a = std::min(extra, A);
  const std::size_t fill_b = std::min(extra - fill_a, B);
  const std::size_t rest = extra - fill_a - fill_b;
  const std::size_t splits = (rest + d - 2) / (d - 1);
  const std::size_t splits_a = std::min(splits, fill_a);  // on level h-1
  const std::size_t splits_h = splits - splits_a;         // on level h
  E[h - 1] += fill_a;
  E[h] += fill_b + splits_a * d;
  E[h + 1] = splits_h * d;
  for (unsigned l = h - 1; l-- > 0;) E[l] = (E[l + 1] + d - 1) / d;

  double total = static_cast<double>(splits * d);
  // Changed k-nodes that are not split nodes, as sorted, disjoint position
  // ranges of one level: on level h-1, nk (when it gains children) and the
  // parents of level-h split nodes; above, the ancestors of those and of
  // the filled level-(h-1) slots.
  struct Range {
    std::size_t lo, hi;  // inclusive
  };
  std::vector<Range> ranges;
  const auto merge = [&] {
    std::sort(ranges.begin(), ranges.end(),
              [](const Range& a, const Range& b) { return a.lo < b.lo; });
    std::vector<Range> out;
    for (const Range& r : ranges) {
      if (!out.empty() && r.lo <= out.back().hi + 1)
        out.back().hi = std::max(out.back().hi, r.hi);
      else
        out.push_back(r);
    }
    ranges = std::move(out);
  };
  const auto count_children = [&](unsigned l) {
    for (const Range& r : ranges)
      total += static_cast<double>(std::min((r.hi + 1) * d, E[l + 1]) -
                                   r.lo * d);
  };
  if (fill_b > 0) ranges.push_back({P0 - 1, P0 - 1});
  if (splits_h > 0)
    ranges.push_back({0, std::min(P0, (splits_h + d - 1) / d) - 1});
  merge();
  count_children(h - 1);
  if (fill_a > 0) ranges.push_back({P0, P0 + fill_a - 1});
  for (unsigned l = h - 1; l-- > 0;) {
    for (Range& r : ranges) r = Range{r.lo / d, r.hi / d};
    merge();
    count_children(l);
  }
  return total;
}

// J > L: L slots are replaced in place, which costs what a J = L batch of
// L replacements costs, plus the fill/split of the remaining J - L joins.
// (The two changed sets overlap near the root; the overlap is
// second-order for the J >> L workloads this regime covers.)
double expected_j_gt_l(std::size_t N, std::size_t J, std::size_t L,
                       unsigned d) {
  const double replaced = L > 0 ? expected_j_le_l(N, L, L, d) : 0.0;
  return replaced + fill_split_encryptions(N, J - L, d);
}

}  // namespace

double expected_encryptions(std::size_t N, std::size_t J, std::size_t L,
                            unsigned d) {
  REKEY_ENSURE(d >= 2);
  REKEY_ENSURE(L <= N);
  if (J == 0 && L == 0) return 0.0;
  REKEY_ENSURE_MSG(N >= 1, "the model prices batches on a populated tree");
  if (J <= L) return expected_j_le_l(N, J, L, d);
  return expected_j_gt_l(N, J, L, d);
}

double duplication_overhead_bound(std::size_t N, unsigned d,
                                  std::size_t capacity) {
  const unsigned h = tree_height(N, d);
  if (h <= 1) return 0.0;
  return static_cast<double>(h - 1) / static_cast<double>(capacity);
}

double expected_enc_packets(std::size_t N, std::size_t J, std::size_t L,
                            unsigned d, std::size_t capacity) {
  REKEY_ENSURE(capacity >= 1);
  const double encs = expected_encryptions(N, J, L, d);
  const double dup = duplication_overhead_bound(N, d, capacity);
  return encs * (1.0 + dup) / static_cast<double>(capacity);
}

}  // namespace rekey::analysis
