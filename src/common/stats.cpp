#include "common/stats.h"

#include <algorithm>

namespace rekey {

void RunningStats::add(double x) {
  max_ = n_ == 0 ? x : std::max(max_, x);
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
}

double RunningStats::mean() const { return n_ ? mean_ : 0.0; }

double RunningStats::max() const { return n_ ? max_ : 0.0; }

}  // namespace rekey
