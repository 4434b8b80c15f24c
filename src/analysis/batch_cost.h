// Analytic cost model of periodic batch rekeying — the "performance
// analysis" core of the SIGCOMM 2001 paper: how many encryptions a batch of
// J joins and L leaves costs on a key tree of N users and degree d.
//
// The tree is the one KeyTree::populate builds for N users: height
// ceil(log_d N), users packed into the leftmost leaf slots, k-nodes only
// where a user lies below. For J <= L the expectation is exact up to the
// replaced-slot approximation: leaves depart uniformly without
// replacement, so subtree-survival events are hypergeometric. For each
// edge (x, c) with c spanning m users and x spanning M:
//
//   P(edge in rekey subtree) = P(c survives) - P(x has no change)
//
// because "x changed" requires a departure (or replacement) under x, and a
// surviving c implies a surviving x. Pure-leave (J=0) and replace (J=L)
// regimes differ only in whether subtrees can be pruned. For J > L the
// extra joins fill the free slots and then split, deterministically;
// expected_encryptions counts that regime's edges directly.
#pragma once

#include <cstddef>

namespace rekey::analysis {

// ln C(n, k); 0 for k<0 or k>n handled by callers.
double log_choose(std::size_t n, std::size_t k);

// P(a fixed set of m leaves contains no departed leaf | L of N depart).
double prob_no_departure(std::size_t N, std::size_t L, std::size_t m);

// P(all m leaves of a fixed set depart | L of N depart).
double prob_all_departed(std::size_t N, std::size_t L, std::size_t m);

// Expected number of encryptions in the rekey subtree for a batch (J, L)
// on the populated d-ary tree of N >= 1 users. Hypergeometric for J <= L;
// deterministic fill/split model for J > L.
double expected_encryptions(std::size_t N, std::size_t J, std::size_t L,
                            unsigned d);

// Expected number of ENC packets given the per-packet encryption capacity
// (46 for 1027-byte packets), including a duplication-overhead estimate.
double expected_enc_packets(std::size_t N, std::size_t J, std::size_t L,
                            unsigned d, std::size_t capacity);

// The paper's empirical duplication bound: (log_d N - 1) / capacity.
double duplication_overhead_bound(std::size_t N, unsigned d,
                                  std::size_t capacity);

}  // namespace rekey::analysis
