#include "common/rng.h"

#include <cmath>
#include <unordered_set>

#include "common/ensure.h"

namespace rekey {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t base, std::uint64_t index) {
  std::uint64_t x = base;
  std::uint64_t h = splitmix64(x);
  x ^= index * 0xD1B54A32D192ED03ULL;
  h ^= splitmix64(x);
  return splitmix64(h);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t x = seed;
  for (auto& s : s_) s = splitmix64(x);
  // A state of all zeros would be a fixed point; splitmix64 cannot produce
  // four zero outputs in a row, but keep the guarantee explicit.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 high bits → uniform double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::next_in(std::uint64_t lo, std::uint64_t hi) {
  REKEY_ENSURE(lo <= hi);
  const std::uint64_t range = hi - lo + 1;  // wraps to 0 for the full range
  if (range == 0) return next_u64();
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % range;
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + v % range;
}

bool Rng::next_bool(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

double Rng::next_exponential(double mean) {
  REKEY_ENSURE(mean > 0.0);
  double u;
  do {
    u = next_double();
  } while (u == 0.0);
  return -mean * std::log(u);
}

std::vector<std::uint64_t> Rng::sample_without_replacement(std::uint64_t n,
                                                           std::uint64_t k) {
  REKEY_ENSURE(k <= n);
  std::vector<std::uint64_t> out;
  out.reserve(k);
  if (k > n / 3) {
    // Dense: partial Fisher–Yates over the whole population.
    std::vector<std::uint64_t> pool(n);
    for (std::uint64_t i = 0; i < n; ++i) pool[i] = i;
    for (std::uint64_t i = 0; i < k; ++i) {
      const std::uint64_t j = next_in(i, n - 1);
      std::swap(pool[i], pool[j]);
      out.push_back(pool[i]);
    }
  } else {
    // Sparse: rejection against a hash set.
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(static_cast<std::size_t>(k) * 2);
    while (out.size() < k) {
      const std::uint64_t v = next_in(0, n - 1);
      if (seen.insert(v).second) out.push_back(v);
    }
  }
  return out;
}

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace rekey
