// Deterministic pseudo-random generation for simulations.
//
// All stochastic components of librekey (loss processes, workload
// generators, marking-algorithm experiments) draw from Rng so that a run is
// exactly reproducible from its seed. The generator is xoshiro256**
// seeded via splitmix64; it is not cryptographic (crypto keys come from
// rekey::crypto, not from here).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace rekey {

// Mixes a base seed with a stream index into a well-separated derived
// seed (splitmix64 finalization over both words). Used to give every
// point of a parallel sweep its own independent RNG stream: the derived
// seed depends only on (base, index), never on scheduling.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index);

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // Raw 64 uniform bits.
  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double next_double();

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t next_in(std::uint64_t lo, std::uint64_t hi);

  // Bernoulli trial with success probability p (clamped to [0,1]).
  bool next_bool(double p);

  // Exponentially distributed with the given mean (> 0).
  double next_exponential(double mean);

  // Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(next_in(0, i - 1));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  // k distinct values sampled uniformly from [0, n). Requires k <= n.
  std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n,
                                                        std::uint64_t k);

  // Derive an independent generator (for per-entity streams).
  Rng fork();

  // Raw generator state, for snapshot/restore of stateful controllers
  // whose decision streams must survive a failover bit-identically.
  // set_state refuses the all-zero state (a xoshiro fixed point that
  // would make every later draw zero).
  std::array<std::uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }
  bool set_state(const std::array<std::uint64_t, 4>& s) {
    if ((s[0] | s[1] | s[2] | s[3]) == 0) return false;
    s_[0] = s[0];
    s_[1] = s[1];
    s_[2] = s[2];
    s_[3] = s[3];
    return true;
  }

 private:
  std::uint64_t s_[4];
};

}  // namespace rekey
