// Small statistics toolkit used by benches and tests: summary statistics,
// geometric means (the paper reports slowdowns as geomeans), percentiles.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"

namespace flexstep {

/// Streaming mean/variance (Welford). Numerically stable; O(1) memory.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ > 0 ? min_ : 0.0; }
  double max() const { return n_ > 0 ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Geometric mean; all inputs must be > 0. 0 for an empty span.
double geomean(std::span<const double> xs);

/// p-th percentile (0 <= p <= 100) with linear interpolation. Sorts a copy.
double percentile(std::span<const double> xs, double p);

}  // namespace flexstep
