// Small statistics toolkit used by benches and tests: means, geometric
// means (the paper reports slowdowns as geomeans), percentiles.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/types.h"

namespace flexstep {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Geometric mean; all inputs must be > 0. 0 for an empty span.
double geomean(std::span<const double> xs);

/// p-th percentile (0 <= p <= 100) with linear interpolation. Sorts a copy.
double percentile(std::span<const double> xs, double p);

}  // namespace flexstep
