// Streaming statistics used by the benchmark harness.
#pragma once

#include <cstddef>

namespace rekey {

// Welford's online mean plus the maximum.
class RunningStats {
 public:
  void add(double x);

  std::size_t count() const { return n_; }
  double mean() const;
  double max() const;
  double sum() const { return mean() * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double max_ = 0.0;
};

}  // namespace rekey
