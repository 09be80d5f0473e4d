// Deterministic, fast pseudo-random generation (xoshiro256**).
//
// Every experiment in the repository is seeded explicitly so that benches and
// tests are reproducible run-to-run; std::mt19937_64 is avoided because its
// state is large and its distributions are implementation-defined.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace flexstep {

/// xoshiro256** by Blackman & Vigna: small state, excellent statistical quality.
class Rng {
 public:
  explicit Rng(u64 seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Re-initialise the state from a 64-bit seed (SplitMix64 expansion).
  void reseed(u64 seed);

  /// Next raw 64-bit value.
  u64 next_u64();

  /// Uniform in [0, bound). bound must be > 0. Debiased via rejection.
  u64 next_below(u64 bound);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double next_double_in(double lo, double hi);

  /// True with probability p (clamped to [0,1]).
  bool next_bool(double p);

  /// Log-uniform double in [lo, hi); standard for real-time task period generation.
  double next_log_uniform(double lo, double hi);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(next_below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Derive an independent child generator (for parallel experiment arms).
  Rng split();

 private:
  u64 s_[4]{};
};

}  // namespace flexstep
