#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace flexstep {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double geomean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : xs) {
    FLEX_CHECK_MSG(x > 0.0, "geomean requires strictly positive inputs");
    log_sum += std::log(x);
  }
  return std::exp(log_sum / static_cast<double>(xs.size()));
}

double percentile(std::span<const double> xs, double p) {
  FLEX_CHECK(!xs.empty());
  FLEX_CHECK(p >= 0.0 && p <= 100.0);
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace flexstep
